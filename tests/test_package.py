import importlib
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
