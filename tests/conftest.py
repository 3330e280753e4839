import numpy as np
import pytest

from supercurves.grassmann import GrassmannScalar


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def gs(n, value=0):
    return GrassmannScalar.scalar(n, value)


def gen(n, i):
    return GrassmannScalar.generator(n, i)


def mono(n, idx, c=1.0):
    return GrassmannScalar.monomial(n, idx, c)


@pytest.fixture
def algebra():
    """Common 4-generator setup used across the matrix tests."""
    n = 4
    return n, [GrassmannScalar.generator(n, i) for i in range(n)]


@pytest.fixture
def lattice_reads(monkeypatch):
    """A list that gains one entry per ThetaContext._plan call, i.e. per lattice pass."""
    from supercurves.theta import ThetaContext

    reads = []
    original = ThetaContext._plan

    def counted(self, *args):
        reads.append(self)
        return original(self, *args)

    monkeypatch.setattr(ThetaContext, "_plan", counted)
    return reads


@pytest.fixture
def conversions(monkeypatch):
    """A list that gains one entry per grid_array or array_grid call, through any module binding."""
    import sys

    from supercurves import grassmann

    calls = []
    modules = [m for name, m in sys.modules.items()
               if name == "supercurves" or name.startswith("supercurves.")]
    for name in ("grid_array", "array_grid"):
        original = getattr(grassmann, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls
