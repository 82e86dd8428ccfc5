import numpy as np
import pytest

from admflux import cli
from admflux.catalog import CatalogSpec, build
from admflux.invariants import normalized, surface_totals

SEED = 20240817


#: Named fields covering the decay and parity regimes the test suite exercises.
CATALOG_SPECS = {
    "flat": CatalogSpec(kind="flat", label="flat"),
    "schwarzschild": CatalogSpec(kind="schwarzschild", mass=1.0, label="schwarzschild"),
    "schwarzschild-translated": CatalogSpec(
        kind="schwarzschild", mass=1.0, center=(1.0, 2.0, 3.0), label="schwarzschild-translated"
    ),
    "conformal": CatalogSpec(kind="conformal", u_coeffs=((1, 1.0), (2, 1.0)), label="conformal"),
    "perturbed-gaussian": CatalogSpec(
        kind="perturbed", base=CatalogSpec(kind="flat"),
        bump_amplitude=0.05, bump_width=2.0, bump_location=(5.0, 0.0, 0.0),
        bump_parity="none", bump_profile="gaussian", label="perturbed-gaussian",
    ),
    "perturbed-tail": CatalogSpec(
        kind="perturbed", base=CatalogSpec(kind="flat"),
        bump_amplitude=0.05, bump_width=1.5, bump_location=(3.0, 1.0, -2.0),
        bump_parity="none", bump_profile="rational", bump_tail_power=3,
        label="perturbed-tail",
    ),
    "rt-violator": CatalogSpec(kind="rt_violator", amplitude=0.5, label="rt-violator"),
}


@pytest.fixture(scope="session")
def catalog():
    return {name: build(spec) for name, spec in CATALOG_SPECS.items()}


@pytest.fixture()
def rng():
    return np.random.default_rng(SEED)


def sample_points(rng, n_points, dim=3, r_min=5.0, r_max=50.0):
    """Seeded points in the annulus r_min <= |x| <= r_max."""
    dirs = rng.normal(size=(n_points, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = r_min + (r_max - r_min) * rng.random(n_points)
    return radii[:, None] * dirs


def linearized_scalar_arrays(ddg):
    """Second-derivative truncation of the scalar curvature on a ``(p, k, l, i, j)`` array.

    Returns ``sum_{i,k} (d_i d_k g_ik - d_i d_i g_kk)`` at each point, which
    agrees with the full scalar curvature up to terms quadratic in the metric
    deviation.
    """
    return np.einsum("pikik->p", ddg) - np.einsum("piikk->p", ddg)


def surface_value(field, surf, name, mass=None):
    """Functional ``name`` on the one surface ``surf``, through a one-surface block of the batched API."""
    return normalized(name, surface_totals(field, [surf], [name])[name][0], field.dim, mass)


def decay_verdicts(field, radii):
    """The ``decay_all`` and ``decay_odd`` reports of ``field`` over ``radii``, judged as the CLI judges them."""
    return cli._decay_checks(field, cli.RunConfig(metric=CatalogSpec(kind="flat"), radii=tuple(radii)))


def metric_values(field):
    """Batched metric-components callable for finite differencing against analytic jets."""
    return lambda points: field.jet_batch(np.asarray(points, dtype=float), 1)[0]
