"""Every name a package exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    names = getattr(module, "__all__", None)
    assert names, f"{package} declares no __all__"
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"
    assert len(set(names)) == len(names), f"{package}.__all__ repeats a name"
