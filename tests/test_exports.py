import importlib

import pytest

MODULES = ("nestfactor", "nestfactor.linops", "nestfactor.nests", "nestfactor.amplitude",
           "nestfactor.factor", "nestfactor.stability", "nestfactor.serialize",
           "nestfactor.cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    """Every name a module lists in __all__ is one of its attributes."""
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
