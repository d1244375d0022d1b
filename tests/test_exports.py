"""Every exported name is defined: removing a function or class must also
remove it from each ``__all__`` that lists it."""

import importlib
import pkgutil

import pytest

import repfit

MODULES = ["repfit"] + [f"repfit.{m.name}" for m in pkgutil.iter_modules(repfit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_is_an_attribute(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
