"""Oracles beyond one conformal center, and a center check that must fail.

The catalog's closed-form invariants all come from conformally flat metrics
about one center, whose jets are diagonal.  The Kerr-Schild slice of
Schwarzschild (Kerr and Schild 1965) is ``g = delta + 2m y y^T / |y|^3`` with
``y = x - c``: the same mass ``m`` and center ``c``, with off-diagonal jets,
nonzero scalar curvature and the ``O(1/r)`` term on the curvature route
instead of the flux route.

Brill-Lindquist data (Brill and Lindquist 1963) is ``g = u^4 delta`` with
``u = 1 + sum_i m_i / (2 |x - c_i|)``: two punctures, whose mass is
``M = sum_i m_i`` and whose center is ``sum_i m_i c_i / M``.

The negative control adds the ``rt_violator`` tail to Schwarzschild.  Its odd
part decays exactly like ``|x|^(-n/2)``, so the Regge-Teitelboim parity
condition fails: both masses still converge, but both centers grow like
``r^(1/2)``, and so do the ``x^1 R`` moments of the scalar curvature.
"""

import numpy as np
import pytest

from admflux.analysis import compare, sweep
from admflux.catalog import CatalogSpec, build
from admflux.invariants import identity_residuals, scalar_curvature_moment
from admflux.metric_field import MetricField, fd_jet2, jet2_batch
from admflux.surfaces import sphere_quadrature

from conftest import metric_values, sample_points

FUNCTIONALS = ["adm_mass", "intrinsic_mass", "cs_center", "intrinsic_center"]
RADII = [100.0 * 2**k for k in range(9)]
MASS = 1.0
CENTER = np.array([1.0, -2.0, 0.5])


def kerr_schild_jets(points, derivatives, m=MASS, c=CENTER):
    """Closed-form jets of ``g_ij = delta_ij + f y_i y_j`` with ``f = 2m |y|^-3``."""
    y = points - c
    n = y.shape[1]
    eye = np.eye(n)
    rho = np.linalg.norm(y, axis=1)
    f = 2.0 * m * rho**-3
    df = -6.0 * m * rho[:, None] ** -5 * y
    yy = y[:, :, None] * y[:, None, :]
    ddf = -6.0 * m * (rho[:, None, None] ** -5 * eye - 5.0 * rho[:, None, None] ** -7 * yy)
    # d_k (y_i y_j) = delta_ki y_j + y_i delta_kj
    dyy = np.einsum("ki,pj->pkij", eye, y) + np.einsum("pi,kj->pkij", y, eye)
    # d_l d_k (y_i y_j) = delta_ki delta_lj + delta_li delta_kj
    ddyy = np.einsum("ki,lj->lkij", eye, eye) + np.einsum("li,kj->lkij", eye, eye)
    g = eye + f[:, None, None] * yy
    dg = df[:, :, None, None] * yy[:, None] + f[:, None, None, None] * dyy
    ddg = (
        ddf[:, :, :, None, None] * yy[:, None, None]
        + df[:, :, None, None, None] * dyy[:, None]
        + df[:, None, :, None, None] * dyy[:, :, None]
        + f[:, None, None, None, None] * ddyy
    )
    return g, dg, ddg


KERR_SCHILD = MetricField(
    3, kerr_schild_jets, inner_radius=float(np.linalg.norm(CENTER)) + 4.0 * MASS,
    metadata={"label": "kerr-schild"},
)


BL_MASSES = (1.0, 0.5)
BL_CENTERS = np.array([[3.0, -1.0, 2.0], [-2.0, 4.0, -1.0]])
BL_MASS = sum(BL_MASSES)
BL_CENTER = sum(m * c for m, c in zip(BL_MASSES, BL_CENTERS)) / BL_MASS


def brill_lindquist_jets(points, derivatives):
    """Closed-form jets of ``g = u^4 delta`` with ``u = 1 + sum_i m_i / (2 |x - c_i|)``."""
    n = points.shape[1]
    eye = np.eye(n)
    u, du, ddu = np.ones(len(points)), np.zeros_like(points), np.zeros((len(points), n, n))
    for m, c in zip(BL_MASSES, BL_CENTERS):
        y = points - c
        rho = np.linalg.norm(y, axis=1)
        u += 0.5 * m / rho
        du -= 0.5 * m * rho[:, None] ** -3 * y
        ddu += 0.5 * m * (
            3.0 * rho[:, None, None] ** -5 * y[:, :, None] * y[:, None, :]
            - rho[:, None, None] ** -3 * eye
        )
    g = u[:, None, None] ** 4 * eye
    dg = 4.0 * u[:, None, None, None] ** 3 * du[:, :, None, None] * eye
    dd = (
        12.0 * u[:, None, None] ** 2 * du[:, :, None] * du[:, None, :]
        + 4.0 * u[:, None, None] ** 3 * ddu
    )
    return g, dg, dd[:, :, :, None, None] * eye


BRILL_LINDQUIST = MetricField(
    3, brill_lindquist_jets, inner_radius=10.0, metadata={"label": "brill-lindquist"}
)


@pytest.fixture(scope="module")
def brill_lindquist_sweep():
    return sweep(BRILL_LINDQUIST, FUNCTIONALS, RADII)


class TestBrillLindquist:
    def test_jets_match_finite_differences(self, rng):
        pts = sample_points(rng, 50, r_min=10.0, r_max=100.0)
        g, dg, ddg = jet2_batch(BRILL_LINDQUIST, pts)
        fd_g, fd_dg, fd_ddg = fd_jet2(metric_values(BRILL_LINDQUIST), pts)
        assert np.array_equal(fd_g, g)
        assert np.max(np.abs(fd_dg - dg)) <= 1e-9
        assert np.max(np.abs(fd_ddg - ddg)) <= 1e-8

    def test_limits_recover_mass_and_center(self, brill_lindquist_sweep):
        reports = brill_lindquist_sweep
        assert all(report.verdict for report in reports.values())
        # the flux mass's 1e-7 error is the bias of the one-term fit
        for name in ("adm_mass", "intrinsic_mass"):
            assert abs(reports[name].fitted_limit - BL_MASS) <= 1e-6, name
        for name in ("cs_center", "intrinsic_center"):
            assert np.max(np.abs(reports[name].fitted_limit - BL_CENTER)) <= 1e-6, name

    def test_routes_agree(self, brill_lindquist_sweep):
        reports = brill_lindquist_sweep
        assert compare(reports["adm_mass"], reports["intrinsic_mass"]).verdict
        assert compare(reports["cs_center"], reports["intrinsic_center"]).verdict

    def test_identities_hold_on_an_annulus(self):
        outer, inner = (sphere_quadrature(3, r, 24) for r in (200.0, 100.0))
        res_x, res_y = identity_residuals(BRILL_LINDQUIST, outer, inner=inner)
        assert abs(res_x) <= 1e-9
        assert np.max(np.abs(res_y)) <= 1e-9


SCHWARZSCHILD = build(CatalogSpec(kind="schwarzschild", mass=1.0))
TAIL = build(CatalogSpec(kind="rt_violator", amplitude=0.5))


def violated_jets(points, derivatives):
    """Jets of Schwarzschild (m = 1) plus the ``rt_violator`` tail of amplitude 0.5."""
    g, *rest = (a + b for a, b in zip(SCHWARZSCHILD.jet_batch(points, derivatives), TAIL.jet_batch(points, derivatives)))
    return (g - np.eye(points.shape[1]), *rest)


VIOLATED = MetricField(3, violated_jets, inner_radius=1.0, metadata={"label": "violated"})


@pytest.fixture(scope="module")
def kerr_schild_sweep():
    return sweep(KERR_SCHILD, FUNCTIONALS, RADII)


@pytest.fixture(scope="module")
def violated_sweep():
    return sweep(VIOLATED, FUNCTIONALS, RADII)


class TestKerrSchild:
    def test_jets_match_finite_differences(self, rng):
        pts = sample_points(rng, 50, r_min=10.0, r_max=100.0)
        g, dg, ddg = jet2_batch(KERR_SCHILD, pts)
        assert np.any(g[:, 0, 1] != 0.0)  # off-diagonal
        fd_g, fd_dg, fd_ddg = fd_jet2(metric_values(KERR_SCHILD), pts)
        assert np.array_equal(fd_g, g)
        assert np.max(np.abs(fd_dg - dg)) <= 1e-9
        assert np.max(np.abs(fd_ddg - ddg)) <= 1e-9

    def test_flux_mass_is_exact_at_every_radius(self, kerr_schild_sweep):
        assert np.max(np.abs(kerr_schild_sweep["adm_mass"].values - MASS)) <= 1e-12

    def test_limits_recover_mass_and_center(self, kerr_schild_sweep):
        reports = kerr_schild_sweep
        assert all(report.verdict for report in reports.values())
        assert abs(reports["intrinsic_mass"].fitted_limit - MASS) <= 1e-6
        for name in ("cs_center", "intrinsic_center"):
            assert np.max(np.abs(reports[name].fitted_limit - CENTER)) <= 1e-6, name

    def test_center_fits_its_mean_at_rate_one(self, kerr_schild_sweep):
        # the tail is exact to about 4e-10 but creeps upward: growth within the
        # refinement tolerance has converged, and fits its mean
        report = kerr_schild_sweep["cs_center"]
        assert report.fitted_rate == 1.0
        assert np.max(np.abs(report.fitted_limit - CENTER)) <= 1e-9

    def test_routes_agree(self, kerr_schild_sweep):
        reports = kerr_schild_sweep
        assert compare(reports["adm_mass"], reports["intrinsic_mass"]).verdict
        assert compare(reports["cs_center"], reports["intrinsic_center"]).verdict

    def test_identities_hold_on_an_annulus(self):
        outer, inner = (sphere_quadrature(3, r, 24) for r in (200.0, 100.0))
        res_x, res_y = identity_residuals(KERR_SCHILD, outer, inner=inner)
        assert abs(res_x) <= 1e-10
        assert np.max(np.abs(res_y)) <= 1e-10


class TestParityViolation:
    def test_masses_certify(self, violated_sweep):
        assert violated_sweep["adm_mass"].verdict
        assert violated_sweep["intrinsic_mass"].verdict

    @pytest.mark.parametrize("name", ["cs_center", "intrinsic_center"])
    def test_centers_fail(self, violated_sweep, name):
        report = violated_sweep[name]
        assert not report.verdict
        # no limit: the first component grows like r^(1/2), 16-fold over the schedule
        first = report.values[:, 0]
        assert np.all(np.diff(first) > 0), first
        assert first[-1] / first[0] == pytest.approx((RADII[-1] / RADII[0]) ** 0.5, rel=0.05)

    def test_first_moments_of_the_scalar_curvature_grow(self):
        shells = [shell.value for shell in scalar_curvature_moment(VIOLATED, RADII[:5], moment=1)]
        assert shells == pytest.approx([9.17, 12.6, 17.6, 24.7], rel=0.01)
        assert np.all(np.diff(shells) > 0)

    @pytest.mark.xfail(
        strict=True,
        reason="the difference of two divergent centers goes to zero, so compare passes it",
    )
    def test_center_difference_fails(self, violated_sweep):
        assert not compare(violated_sweep["cs_center"], violated_sweep["intrinsic_center"]).verdict


def contract_specs():
    """Every catalog kind: flat, Schwarzschild and conformal in R^3 to R^5, the
    gaussian and rational bumps of every parity, and the ``rt_violator``."""
    specs = [CatalogSpec(kind="flat")]
    for n in (3, 4, 5):
        specs += [
            CatalogSpec(kind="schwarzschild", dim=n, mass=1.0, center=(0.5, -0.3)),
            CatalogSpec(kind="conformal", dim=n, u_coeffs=((n - 2, 0.6), (n, 0.2)), center=(0.2,)),
        ]
    specs += [
        CatalogSpec(kind="perturbed", base=CatalogSpec(kind="schwarzschild"), bump_profile=profile,
                    bump_parity=parity, bump_location=(3.0, -1.0, 2.0), bump_width=1.5)
        for profile in ("gaussian", "rational") for parity in ("none", "even", "odd")
    ]
    return specs + [CatalogSpec(kind="rt_violator", amplitude=0.5)]


@pytest.mark.parametrize(
    "field",
    [build(spec) for spec in contract_specs()] + [KERR_SCHILD, BRILL_LINDQUIST, VIOLATED],
    ids=lambda field: f"{field.label}-{field.dim}",
)
def test_first_order_jets_are_the_first_levels_of_the_second_order_ones(field, rng):
    pts = sample_points(rng, 30, dim=field.dim, r_min=field.inner_radius + 1.0, r_max=80.0)
    first, second = jet2_batch(field, pts, 1), jet2_batch(field, pts, 2)
    assert (len(first), len(second)) == (2, 3)
    for got, want in zip(first, second):
        assert np.array_equal(got, want)
