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


def named_calls(tree: ast.Module, name: str) -> list[str]:
    """Where a function called ``name`` is called in ``tree``, bare or as
    an attribute (``name(...)``, ``module.name(...)``, ``a.name()``)."""
    return calls_where(tree, lambda func: (
        isinstance(func, ast.Attribute) and func.attr == name
    ) or (isinstance(func, ast.Name) and func.id == name))


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
        for where in named_calls(ast.parse(path.read_text("utf-8")), "argsort")
    ]
    assert calls == ["stats._grouped_ranks"] * 2


def test_one_line_fit():
    # The public fit and each --fom run fit their line, and test x for
    # constancy, in stats._line_fit alone; np.ptp, which gives NaN for a
    # constant infinite x, is not used.
    trees = {path.stem: ast.parse(path.read_text("utf-8")) for path in sorted(SRC.glob("*.py"))}
    fits = {f"{stem}.{where}" for stem, tree in trees.items()
            for where in named_calls(tree, "_line_fit")}
    assert fits == {"stats.fit_line", "simulate._runs_at"}
    assert [where for tree in trees.values() for where in named_calls(tree, "ptp")] == []


def test_one_point_rule():
    # A curve point is built from its runs in simulate._aggregate alone, which
    # drops the undefined runs; the other calls check, parse or read points.
    tree = ast.parse((SRC / "simulate.py").read_text("utf-8"))
    assert sorted(named_calls(tree, "CurvePoint")) == [
        "MetricCurve.__post_init__", "_aggregate", "_aggregate", "_csv_curves", "_json_point",
    ]
    sweep = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "run_sweep")
    assert named_calls(ast.Module([sweep], []), "isnan") == []


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
    assert named_calls(tree, "argsort") == ["<module>", "f", "f"]
