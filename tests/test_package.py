import importlib
import inspect
import pkgutil

import pytest

import skillpipe

MODULES = sorted(info.name for info in pkgutil.iter_modules(skillpipe.__path__))


def test_modules_found():
    assert {"core", "sim", "repertoire", "mathkit"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"skillpipe.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_exported(name):
    # __all__ is the public surface: a public definition outside it escapes
    # the export check above
    module = importlib.import_module(f"skillpipe.{name}")
    defined = [
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert sorted(set(defined) - set(module.__all__)) == []
