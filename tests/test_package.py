"""Package-level surface checks."""
import importlib

import pytest

import mzq


def test_every_exported_name_resolves():
    missing = [name for name in mzq.__all__ if not hasattr(mzq, name)]
    assert missing == []
    assert len(set(mzq.__all__)) == len(mzq.__all__)


def test_every_exported_name_is_the_object_its_submodule_defines():
    # mzq loads each name from the submodule its map names; a wrong entry
    # would hand out a same-named object from elsewhere, or none
    for name in mzq.__all__:
        if name == "__version__":
            continue
        obj = getattr(mzq, name)
        assert obj.__module__.startswith("mzq."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from mzq import *", namespace)
    assert [name for name in mzq.__all__ if namespace.get(name) is not getattr(mzq, name)] == []


def test_an_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'mzq' has no attribute 'no_such_name'"):
        mzq.no_such_name
