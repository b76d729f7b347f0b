"""Every exported name resolves, so ``from accelpair.<module> import *`` works."""

import importlib
import pkgutil

import pytest

import accelpair

MODULES = ["accelpair"] + [
    f"accelpair.{info.name}" for info in pkgutil.iter_modules(accelpair.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == []
