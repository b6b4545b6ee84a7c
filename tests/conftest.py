import numpy as np
import pytest

from rrspectra.geometry import PotentialSpec, VariableMap
from rrspectra.spectral import enumerate_bound_spectrum, gendenshtein_params


@pytest.fixture(scope="session")
def gspec():
    """Asymmetric shape-invariant case used throughout: a=2.5, b=0.5."""
    return gendenshtein_params(2.5, 0.5)


@pytest.fixture(scope="session")
def milson_spec():
    """kappa=2 member with lambda0 = 3 + 0.5i (h0 = 7.75 + 3i)."""
    return PotentialSpec(h0=complex(7.75, 3.0), kappa_plus=2.0)


@pytest.fixture(scope="session")
def gspectrum(gspec):
    """The enumerated spectrum of ``gspec``, held once as a command holds it."""
    return enumerate_bound_spectrum(gspec)


@pytest.fixture(scope="session")
def milson_spectrum(milson_spec):
    return enumerate_bound_spectrum(milson_spec)


@pytest.fixture(scope="session")
def gmap(gspec):
    return VariableMap(gspec.kappa_plus, 20.0, 2048)


@pytest.fixture()
def rng():
    # function-scoped so every test sees the same deterministic stream
    # regardless of which other tests ran first
    return np.random.default_rng(20260810)
