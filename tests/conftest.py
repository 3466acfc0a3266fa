import os

import pytest
from hypothesis import settings

from ldslab.io import load_mixture

# Property tests draw the same examples on every run (reproducibility
# contract); wall-clock deadlines would make them depend on the host.
settings.register_profile("ldslab", derandomize=True, deadline=None)
settings.load_profile("ldslab")

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def benchmark_mixture():
    """Committed two-component benchmark mixture (m = n = p = 2)."""
    return load_mixture(os.path.join(DATA_DIR, "benchmark_mixture.json"))


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR
