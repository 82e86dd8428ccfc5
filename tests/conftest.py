import numpy as np
import pytest

from admflux.catalog import standard_catalog

SEED = 20240817


@pytest.fixture(scope="session")
def catalog():
    return standard_catalog()


@pytest.fixture()
def rng():
    return np.random.default_rng(SEED)


def sample_points(rng, n_points, dim=3, r_min=5.0, r_max=50.0):
    """Seeded points in the annulus r_min <= |x| <= r_max."""
    dirs = rng.normal(size=(n_points, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = r_min + (r_max - r_min) * rng.random(n_points)
    return radii[:, None] * dirs


def metric_values(field):
    """Batched metric-components callable for finite differencing against analytic jets."""
    return lambda points: field.jet_batch(np.asarray(points, dtype=float))[0]
