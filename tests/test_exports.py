"""Every exported name resolves.

A name left in an ``__all__`` after its definition is deleted fails
only a star import, which no other test makes.
"""

import importlib
import pkgutil

import pytest

import repsq

MODULES = ["repsq"] + [f"repsq.{m.name}" for m in pkgutil.iter_modules(repsq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_star_import_succeeds():
    namespace = {}
    exec("from repsq import *", namespace)
    assert set(repsq.__all__) <= namespace.keys()
