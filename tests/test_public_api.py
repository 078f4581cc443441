"""The package's public surface: ``qvotes.__all__`` names exactly what
``from qvotes import *`` binds, and every name in it resolves."""

from __future__ import annotations

import qvotes


def test_every_exported_name_resolves():
    missing = [name for name in qvotes.__all__ if not hasattr(qvotes, name)]
    assert not missing


def test_exports_do_not_repeat():
    assert len(set(qvotes.__all__)) == len(qvotes.__all__)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from qvotes import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(qvotes.__all__)
