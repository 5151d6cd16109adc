import importlib
import tokenize
from pathlib import Path

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


# Past this many parser tokens the compiler's token buffer doubles, and a
# module's compile peak rises by about 0.23 MB (CHANGES.md).
TOKEN_STEP = 4096
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "nestfactor").rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_stays_below_the_compile_token_step(path):
    """Every module has fewer than TOKEN_STEP parser tokens: the tokenize
    tokens other than COMMENT, NL and ENCODING."""
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with path.open("rb") as f:
        count = sum(tok.type not in skipped for tok in tokenize.tokenize(f.readline))
    assert count < TOKEN_STEP
