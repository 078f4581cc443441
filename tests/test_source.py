"""Checks on the package source itself, read as syntax trees."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qvotes"


def calls_where(tree: ast.Module, matches) -> list[str]:
    """The qualified name of the function around each call in ``tree``
    whose callee ``matches`` ("<module>" at the top level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        if isinstance(node, ast.Call) and matches(node.func):
            found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


def csv_readers_called(tree: ast.Module) -> list[str]:
    """Where ``csv.reader`` or ``csv.DictReader`` is called in ``tree``,
    under ``csv.`` or a name imported from ``csv``."""
    readers = {"reader", "DictReader"}
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "csv"
        for alias in node.names
        if alias.name in readers
    }
    return calls_where(tree, lambda func: (
        isinstance(func, ast.Attribute)
        and func.attr in readers
        and isinstance(func.value, ast.Name)
        and func.value.id == "csv"
    ) or (isinstance(func, ast.Name) and func.id in imported))


def argsorts_called(tree: ast.Module) -> list[str]:
    """Where ``argsort`` is called in ``tree``: ``np.argsort``, an array's
    ``.argsort()`` or a bare imported ``argsort``."""
    return calls_where(tree, lambda func: (
        isinstance(func, ast.Attribute) and func.attr == "argsort"
    ) or (isinstance(func, ast.Name) and func.id == "argsort"))


def test_one_csv_reader():
    # Every table goes through data._csv_table, so every one gets its
    # field limit and its line-numbered errors.  Its reader comes from
    # data._csv_reader, which the CLI also calls, on no lines, to check
    # --delimiter by the same rule before it reads any input.
    trees = {path.stem: ast.parse(path.read_text("utf-8")) for path in sorted(SRC.glob("*.py"))}
    calls = {f"{stem}.{where}" for stem, tree in trees.items() for where in csv_readers_called(tree)}
    assert calls == {"data._csv_reader"}
    users = {
        f"{stem}.{where}"
        for stem, tree in trees.items()
        for where in calls_where(tree, lambda func: isinstance(func, ast.Name) and func.id == "_csv_reader")
    }
    assert users == {"data._csv_table", "cli._input_options"}


def test_one_ranking_sort():
    # Every sort-based ranking, one group or many, goes through
    # stats._grouped_ranks: its value sort and its group sort are the
    # package's only argsort calls.
    calls = [
        f"{path.stem}.{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in argsorts_called(ast.parse(path.read_text("utf-8")))
    ]
    assert calls == ["stats._grouped_ranks"] * 2


def test_finder_sees_each_spelling():
    tree = ast.parse(
        "import csv\n"
        "from csv import DictReader as D\n"
        "rows = csv.reader([])\n"
        "class C:\n"
        "    def read(self):\n"
        "        return D([])\n"
    )
    assert csv_readers_called(tree) == ["<module>", "C.read"]
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy import argsort\n"
        "order = np.argsort([])\n"
        "def f(a):\n"
        "    return a.argsort(), argsort(a)\n"
    )
    assert argsorts_called(tree) == ["<module>", "f", "f"]
