import os

import pytest
from hypothesis import settings

import ldslab
from ldslab.io import load_mixture

# Property tests draw the same examples on every run (reproducibility
# contract); wall-clock deadlines would make them depend on the host.
settings.register_profile("ldslab", derandomize=True, deadline=None)
settings.load_profile("ldslab")

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(autouse=True, scope="session")
def children_import_this_ldslab():
    """Tests that start ``python -m ldslab.cli`` in a child interpreter run
    the ldslab under test, also when pytest found it through its
    ``pythonpath`` setting rather than through PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ldslab.__file__)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def benchmark_mixture():
    """Committed two-component benchmark mixture (m = n = p = 2)."""
    return load_mixture(os.path.join(DATA_DIR, "benchmark_mixture.json"))


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR
