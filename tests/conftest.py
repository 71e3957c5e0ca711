import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import linecluster as lc

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session", autouse=True)
def _private_kernel_cache(tmp_path_factory):
    """Build the compiled scan kernel into a session temp dir, not under $HOME."""
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
    yield
    patch.undo()


@pytest.fixture(scope="session")
def cross():
    """The default perpendicular cross: two unit-half-length segments."""
    return lc.standard_cross(math.pi / 2.0, 1.0)


@pytest.fixture(scope="session")
def make_dataset(cross):
    seg1, seg2 = cross

    def _make(n: int, sigma: float, seed: int) -> lc.LabeledDataset:
        params = lc.ModelParams(seg1=seg1, seg2=seg2, sigma=sigma, n_points=n, seed=seed)
        return lc.sample_glmm(params)

    return _make


@pytest.fixture()
def rng():
    return np.random.default_rng(20260819)
