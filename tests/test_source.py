"""Checks on the package source itself, read as syntax trees."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qvotes"


def csv_readers_called(tree: ast.Module) -> list[str]:
    """The qualified name of the function around each call of
    ``csv.reader`` or ``csv.DictReader`` in ``tree`` ("<module>" at the
    top level), under ``csv.`` or a name imported from ``csv``."""
    readers = {"reader", "DictReader"}
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "csv"
        for alias in node.names
        if alias.name in readers
    }
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in readers
                and isinstance(func.value, ast.Name)
                and func.value.id == "csv"
            ) or (isinstance(func, ast.Name) and func.id in imported):
                found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


def test_one_csv_reader():
    # Every table goes through data._csv_table, so every one gets its
    # field limit and its line-numbered errors.
    calls = {
        f"{path.stem}.{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in csv_readers_called(ast.parse(path.read_text("utf-8")))
    }
    assert calls == {"data._csv_table"}


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
