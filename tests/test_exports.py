"""Every exported name resolves.  The benchmark's span tracer wraps the
names in each module's `__all__` and skips a missing one without a word, so
a stale export would silently drop its spans."""

import importlib
import pkgutil

import pytest

import weylsym

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(weylsym.__path__))


def test_package_exports_resolve():
    assert [name for name in weylsym.__all__ if not hasattr(weylsym, name)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    mod = importlib.import_module(f"weylsym.{name}")
    assert [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)] == []

