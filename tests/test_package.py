"""The package's public names."""

import gridsched


def test_every_export_resolves():
    assert [n for n in gridsched.__all__ if not hasattr(gridsched, n)] == []
    assert len(set(gridsched.__all__)) == len(gridsched.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from gridsched import *", namespace)
    assert set(gridsched.__all__) <= namespace.keys()
