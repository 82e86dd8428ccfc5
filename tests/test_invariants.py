import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admflux import invariants
from admflux.catalog import CatalogSpec, build
from admflux.curvature import curvature_arrays
from admflux.errors import DomainError, NonFiniteError, UndefinedCenterError
from admflux.invariants import (
    identity_residuals,
    scalar_curvature_moment,
    surface_totals,
)
from admflux.metric_field import jet2_batch
from admflux.surfaces import (
    ellipsoid_quadrature,
    gauss_jacobi,
    gauss_kronrod15,
    sphere_quadrature,
    unit_sphere_rule,
)
from conftest import surface_value


def mass_difference(field, surf):
    """Flux mass minus curvature mass on one surface."""
    return surface_value(field, surf, "adm_mass") - surface_value(field, surf, "intrinsic_mass")


def schwarzschild_flux_closed_form(m, r, n=3):
    """Exact flux mass of the isotropic slice on the sphere of radius r."""
    u = 1 + m / (2 * r ** (n - 2))
    return m * u ** ((6 - n) / (n - 2))


def generators(x):
    """``Y[p, alpha, i]``, the conformal generators at the points ``x``, read
    from :func:`invariants._generator_rows` one basis vector at a time."""
    xt = x.T
    rows = [invariants._generator_rows(xt, np.broadcast_to(e[:, None], xt.shape)) for e in np.eye(3)]
    return np.stack(rows, axis=-1).transpose(1, 0, 2)


class TestKillingFields:
    def test_field_X(self):
        # the dilation field X = x is the surface nodes themselves; each generator
        # contracts with it to x . Y_alpha = -|x|^2 X_alpha
        x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        Y = generators(x)
        r2 = np.sum(x * x, axis=1)
        assert np.array_equal(np.einsum("pi,pai->pa", x, Y), -r2[:, None] * x)
        assert np.array_equal(np.einsum("pa,pai->pi", x, Y), -r2[:, None] * x)
        # the contraction the identities and the curvature center take
        assert np.array_equal(invariants._generator_rows(x.T, x.T), -r2 * x.T)

    def test_field_Y_values(self):
        Y = generators(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert np.allclose(Y[:, 0, :], [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

    def test_field_Y_even(self, rng):
        x = rng.normal(size=(20, 3))
        Y = generators
        assert np.allclose(Y(x), Y(-x), atol=1e-15)


class TestMassFunctionals:
    def test_flat_zero(self, catalog):
        surf = sphere_quadrature(3, 10.0, order=8)
        assert surface_value(catalog["flat"], surf, "adm_mass") == 0.0
        assert abs(surface_value(catalog["flat"], surf, "intrinsic_mass")) < 1e-14

    @pytest.mark.parametrize("m,r", [(1.0, 100.0), (2.0, 1000.0)])
    def test_adm_closed_form(self, m, r):
        field = build(CatalogSpec(kind="schwarzschild", mass=m))
        got = surface_value(field, sphere_quadrature(3, r, order=24), "adm_mass")
        assert got == pytest.approx(schwarzschild_flux_closed_form(m, r), rel=1e-12)

    def test_adm_frozen_values(self, catalog):
        surf = sphere_quadrature(3, 100.0, order=24)
        got = surface_value(catalog["schwarzschild"], surf, "adm_mass")
        assert got == pytest.approx(1.015075125, rel=1e-10)
        field = build(CatalogSpec(kind="schwarzschild", mass=2.0))
        got = surface_value(field, sphere_quadrature(3, 1000.0, order=24), "adm_mass")
        assert got == pytest.approx(2.0 * 1.001**3, rel=1e-10)

    def test_intrinsic_mass_schwarzschild(self, catalog):
        # the curvature mass of the isotropic slice is exactly m at every radius
        surf = sphere_quadrature(3, 100.0, order=24)
        got = surface_value(catalog["schwarzschild"], surf, "intrinsic_mass")
        assert got == pytest.approx(1.0, abs=2e-2)
        assert got == pytest.approx(1.0, abs=1e-9)
        assert got > 0  # sign fixed by the (2 - n) normalization

    def test_mass_difference_decays(self, catalog):
        diffs = []
        for r in (10.0, 40.0, 160.0):
            diffs.append(abs(mass_difference(catalog["schwarzschild"], sphere_quadrature(3, r, order=24))))
        assert diffs[0] > diffs[1] > diffs[2]

    def test_mass_pair_difference_exact(self, catalog):
        field, surf = catalog["schwarzschild"], sphere_quadrature(3, 20.0, order=12)
        adm = surface_value(field, surf, "adm_mass")
        intrinsic = surface_value(field, surf, "intrinsic_mass")
        assert mass_difference(field, surf) == adm - intrinsic

    def test_mass_difference_first_order_rate(self, catalog):
        # |adm - intrinsic| ~ C/r: doubling the radius roughly halves it
        diffs = []
        for r in [10.0 * 2**k for k in range(7)]:
            diffs.append(abs(mass_difference(catalog["schwarzschild"], sphere_quadrature(3, r, order=24))))
        for near, far in zip(diffs, diffs[1:]):
            assert 1.7 <= near / far <= 2.3


class TestCenterFunctionals:
    def test_centered_is_zero(self, catalog):
        surf = sphere_quadrature(3, 50.0, order=16)
        field = catalog["schwarzschild"]
        assert np.max(np.abs(surface_value(field, surf, "cs_center", 1.0))) < 1e-10
        assert np.max(np.abs(surface_value(field, surf, "intrinsic_center", 1.0))) < 1e-9

    def test_translated_recovers_center(self, catalog):
        surf = sphere_quadrature(3, 1000.0, order=24)
        field = catalog["schwarzschild-translated"]
        c = np.array([1.0, 2.0, 3.0])
        assert np.max(np.abs(surface_value(field, surf, "cs_center", 1.0) - c)) < 1e-2
        assert np.max(np.abs(surface_value(field, surf, "intrinsic_center", 1.0) - c)) < 1e-2

    def test_translation_covariance_conformal(self):
        # translating a (non-radially-exact) field shifts both centers by v
        v = (2.0, 0.0, -1.0)
        moved = build(
            CatalogSpec(kind="conformal", u_coeffs=((1, 1.0), (2, 1.0)), center=v)
        )
        mass = moved.metadata["expected_mass"]
        errs = []
        for r in (200.0, 800.0):
            surf = sphere_quadrature(3, r, order=16)
            errs.append(
                max(
                    float(np.max(np.abs(surface_value(moved, surf, "cs_center", mass) - v))),
                    float(np.max(np.abs(surface_value(moved, surf, "intrinsic_center", mass) - v))),
                )
            )
        assert errs[1] < errs[0]
        assert errs[1] < 2e-2

    def test_intrinsic_and_cs_converge_together(self, catalog):
        field = catalog["schwarzschild-translated"]
        gaps = []
        for r in (100.0, 400.0):
            surf = sphere_quadrature(3, r, order=24)
            gap = surface_value(field, surf, "cs_center", 1.0) - surface_value(field, surf, "intrinsic_center", 1.0)
            gaps.append(float(np.max(np.abs(gap))))
        assert gaps[1] < gaps[0]

    def test_mass_scaling_exact(self, catalog):
        surf = sphere_quadrature(3, 200.0, order=12)
        field = catalog["schwarzschild-translated"]
        assert np.array_equal(
            surface_value(field, surf, "cs_center", 2.0), 0.5 * surface_value(field, surf, "cs_center", 1.0)
        )
        assert np.array_equal(
            surface_value(field, surf, "intrinsic_center", 2.0),
            0.5 * surface_value(field, surf, "intrinsic_center", 1.0),
        )

    def test_undefined_center_guard(self, catalog):
        surf = sphere_quadrature(3, 10.0, order=8)
        with pytest.raises(UndefinedCenterError):
            surface_value(catalog["flat"], surf, "cs_center", 0.0)
        with pytest.raises(UndefinedCenterError):
            surface_value(catalog["flat"], surf, "intrinsic_center", 1e-9)


class TestIntegralIdentities:
    def test_flat_exact_zero(self, catalog):
        surf = sphere_quadrature(3, 100.0, order=12)
        res_x, res_y = identity_residuals(catalog["flat"], surf)
        assert res_x == 0.0
        for alpha in (1, 2, 3):
            assert res_y[alpha - 1] == 0.0

    @pytest.mark.parametrize("order", [24, 48])
    @pytest.mark.parametrize("name", ["perturbed-gaussian", "perturbed-tail"])
    def test_perturbed_flat(self, catalog, name, order):
        surf = sphere_quadrature(3, 100.0, order=order)
        res_x, res_y = identity_residuals(catalog[name], surf)
        assert abs(res_x) <= 1e-8
        for alpha in (1, 2, 3):
            assert abs(res_y[alpha - 1]) <= 1e-8

    def test_schwarzschild_annulus(self, catalog):
        outer = sphere_quadrature(3, 100.0, order=24)
        inner = sphere_quadrature(3, 10.0, order=24)
        res_x, res_y = identity_residuals(catalog["schwarzschild"], outer, inner=inner)
        assert abs(res_x) <= 1e-9
        for alpha in (1, 2, 3):
            assert abs(res_y[alpha - 1]) <= 1e-9

    def test_non_smooth_needs_annulus(self, catalog):
        surf = sphere_quadrature(3, 100.0, order=8)
        with pytest.raises(DomainError):
            identity_residuals(catalog["schwarzschild"], surf)

    def test_flat_with_an_inner_radius_needs_annulus(self):
        surf = sphere_quadrature(3, 100.0, order=8)
        with pytest.raises(DomainError, match="inner radius 2"):
            identity_residuals(build(CatalogSpec(kind="flat", inner_radius=2.0)), surf)

    def test_inner_inside_excluded_ball(self, catalog):
        outer = sphere_quadrature(3, 100.0, order=8)
        inner = sphere_quadrature(3, 0.5, order=8)
        with pytest.raises(DomainError, match="radius 0.5"):
            identity_residuals(catalog["schwarzschild"], outer, inner=inner)

    def test_inner_must_be_inside(self, catalog):
        outer = sphere_quadrature(3, 10.0, order=8)
        inner = sphere_quadrature(3, 100.0, order=8)
        with pytest.raises(ValueError):
            identity_residuals(catalog["schwarzschild"], outer, inner=inner)

    @pytest.mark.parametrize("name", ["perturbed-gaussian", "schwarzschild-translated"])
    def test_one_jet_evaluation_per_surface(self, catalog, name, monkeypatch):
        field = catalog[name]
        outer = sphere_quadrature(3, 100.0, order=16)
        inner = None if field.inner_radius == 0 else sphere_quadrature(3, 10.0, order=16)
        calls, sums, fsum_rows = [], [], invariants._fsum_rows

        def counting(field_, points, derivatives=2):
            calls.append(len(points))
            return jet2_batch(field_, points, derivatives)

        def counting_sums(rows):
            sums.append(len(rows))
            return fsum_rows(rows)

        monkeypatch.setattr(invariants, "jet2_batch", counting)
        monkeypatch.setattr(invariants, "_fsum_rows", counting_sums)
        res_x, res_y = identity_residuals(field, outer, inner=inner)
        assert len(calls) == (1 if inner is None else 2)
        # and one row sum per surface: 2 rows of X, 2 * 3 of Y, 1 of the flux mass and 3 of the flux center
        assert sums == [2 + 6 + 1 + 3] * len(calls)
        monkeypatch.undo()
        assert res_x == form_x_oracle(field, outer) - (0.0 if inner is None else form_x_oracle(field, inner))
        for alpha in (1, 2, 3):
            expected = form_y_oracle(field, outer, alpha)
            if inner is not None:
                expected -= form_y_oracle(field, inner, alpha)
            assert res_y[alpha - 1] == expected

    def test_identity_on_ellipsoid(self, catalog):
        # the identities hold on any closed surface, not just spheres
        surf = ellipsoid_quadrature((40.0, 20.0, 20.0), order=24)
        assert abs(identity_residuals(catalog["perturbed-tail"], surf)[0]) <= 1e-8


def second_derivative_form(ddg):
    """Point-first reference for the identities' ``M[p, i, j]`` and ``s[p]``, one term at a time."""
    # M[p,i,j] = sum_k (-dd_(kj) g_ki - dd_(ki) g_kj + dd_(kk) g_ij + dd_(ij) g_kk)
    M = (
        -np.einsum("pkjki->pij", ddg)
        - np.einsum("pkikj->pij", ddg)
        + np.einsum("pkkij->pij", ddg)
        + np.einsum("pijkk->pij", ddg)
    )
    # s[p] = sum_(k,j) (-dd_(kj) g_kj + dd_(jj) g_kk)
    s = -np.einsum("pkjkj->p", ddg) + np.einsum("pjjkk->p", ddg)
    return M, s


def point_last_form(field, surf):
    """``M nu_e``, ``s`` and the jets at ``surf``'s nodes, the point axis last,
    from the field's own jet evaluation, as the identities contract them."""
    g, dg, ddg = (np.moveaxis(a, 0, -1) for a in jet2_batch(field, surf.points))
    A = np.einsum("kjki...->ij...", ddg)
    D_minus_A = np.einsum("ijkk...->ij...", ddg) - A
    M = np.einsum("kkij...->ij...", ddg) + D_minus_A - A.swapaxes(0, 1)
    s = np.einsum("ii...->...", D_minus_A)
    return np.einsum("ij...,j...->i...", M, surf.normals.T), s, g, dg


def flux_density(dg, surf):
    bracket = np.einsum("kki...->i...", dg) - np.einsum("ikk...->i...", dg)
    return np.einsum("i...,i...->...", bracket, surf.normals.T)


def form_x_oracle(field, surf):
    """The dilation identity on one surface, one formula at a time."""
    m_nu, s, g, dg = point_last_form(field, surf)
    x, nu, w = surf.points.T, surf.normals.T, surf.weights
    lhs = math.fsum(np.einsum("i...,i...->...", x, m_nu) * w)
    flux = math.fsum(flux_density(dg, surf) * w)
    radial = math.fsum(s * np.einsum("i...,i...->...", x, nu) * w)
    return lhs - (3 - 2) * flux - radial


def form_y_oracle(field, surf, alpha):
    """The generator identity for one ``alpha`` on one surface, with its own jets:
    ``Y_alpha . v = |x|^2 v_alpha - 2 x_alpha (x . v)``."""
    m_nu, s, g, dg = point_last_form(field, surf)
    x, nu, w = surf.points.T, surf.normals.T, surf.weights
    a = alpha - 1
    r2 = np.einsum("i...,i...->...", x, x)
    y_m_nu = r2 * m_nu[a] - 2.0 * x[a] * np.einsum("i...,i...->...", x, m_nu)
    y_nu = r2 * nu[a] - 2.0 * x[a] * np.einsum("i...,i...->...", x, nu)
    lhs = math.fsum(-y_m_nu * w)
    rhs1 = math.fsum(-s * y_nu * w)
    h = g - np.eye(3)[:, :, None]
    trace_part = np.einsum("i...,i...->...", h[:, a], nu) - np.einsum("ii...->...", h) * nu[a]
    rhs2 = 2.0 * (3 - 2) * math.fsum((x[a] * flux_density(dg, surf) - trace_part) * w)
    return lhs - rhs1 - rhs2


@pytest.mark.parametrize("name", ["perturbed-gaussian", "schwarzschild-translated", "rt-violator"])
def test_point_last_form_matches_the_point_first_reference(catalog, name):
    surf = sphere_quadrature(3, 100.0, order=16)
    g, dg, ddg = jet2_batch(catalog[name], surf.points)
    M, s = second_derivative_form(ddg)
    m_nu, s_last, _, _ = point_last_form(catalog[name], surf)
    scale = np.max(np.abs(ddg))
    assert np.allclose(m_nu.T, np.einsum("pij,pj->pi", M, surf.normals), rtol=0, atol=1e-14 * scale)
    assert np.allclose(s_last, s, rtol=0, atol=1e-14 * scale)


def moment_oracle(field, r0, r1, moment, order):
    """The annulus moment with one kernel call per K15 shell of each accepted piece, and its scale.

    Pieces are accepted or bisected as the radial rule of
    :func:`scalar_curvature_moment` does at one angular order, depth first.  The scale is the same integral of the largest ``|R_ij|`` at
    each node: ``R`` is a contraction of ``R_ij``, so its rounding is relative
    to that size, which stays finite where ``R`` itself vanishes (Schwarzschild).
    """
    n = field.dim
    dirs, w_dir = unit_sphere_rule(n, order)
    t, w_kronrod, w_gauss = gauss_kronrod15()

    def piece(a, b, depth):
        mid, half = (a + b) / 2, (b - a) / 2
        shells, sizes = [], []
        for r in mid + half * t:
            pts = r * dirs
            g, dg, ddg = jet2_batch(field, pts)
            bundle = curvature_arrays(g, dg, ddg)
            dens = bundle.scalar * np.sqrt(np.linalg.det(g))
            size = np.abs(bundle.ricci).max(axis=(1, 2)) * np.sqrt(np.linalg.det(g))
            if moment:
                dens = dens * pts[:, moment - 1]
                size = size * np.abs(pts[:, moment - 1])
            shells.append(r ** (n - 1) * math.fsum(dens * w_dir))
            sizes.append(r ** (n - 1) * math.fsum(size * w_dir))
        kronrod = half * math.fsum(w_kronrod * shells)
        error = abs(kronrod - half * math.fsum(w_gauss * shells[1::2]))
        scale = half * math.fsum(w_kronrod * sizes)
        if error <= invariants.REFINEMENT_TOL * scale or depth == 0:
            return [(kronrod, scale)]
        return piece(a, mid, depth - 1) + piece(mid, b, depth - 1)

    values, scales = zip(*piece(r0, r1, invariants.MAX_RADIAL_BISECTIONS))
    return math.fsum(values), math.fsum(scales)


def gauss_legendre_moment(field, r0, r1, moment, order, nodes=32):
    """The annulus moment on the ``nodes``-point Gauss-Legendre radial rule."""
    n = field.dim
    dirs, w_dir = unit_sphere_rule(n, order)
    t, wt = gauss_jacobi(nodes, 0.0)
    shells = []
    for r, wr in zip(0.5 * (r1 - r0) * t + 0.5 * (r1 + r0), 0.5 * (r1 - r0) * wt):
        pts = r * dirs
        g, dg, ddg = jet2_batch(field, pts)
        dens = curvature_arrays(g, dg, ddg).scalar * np.sqrt(np.linalg.det(g))
        if moment:
            dens = dens * pts[:, moment - 1]
        shells.append(wr * r ** (n - 1) * math.fsum(dens * w_dir))
    return math.fsum(shells)


@st.composite
def moment_cases(draw):
    n = draw(st.sampled_from([3, 4]))
    center = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(n))
    if draw(st.booleans()):
        spec = CatalogSpec(kind="schwarzschild", dim=n, mass=draw(st.floats(0.2, 2.0)), center=center)
    else:
        coeffs = ((1, draw(st.floats(0.1, 1.0))), (2, draw(st.floats(-0.5, 1.0))))
        spec = CatalogSpec(kind="conformal", dim=n, u_coeffs=coeffs, center=center)
    r0 = draw(st.floats(10.0, 100.0))
    return (
        build(spec),
        r0,
        r0 * draw(st.floats(1.1, 3.0)),
        draw(st.integers(0, n)),
        draw(st.integers(2, 8)),
        draw(st.sampled_from([invariants.KERNEL_BYTES, 50 * 864, 333 * 864, 1000 * 864])),
    )


@settings(max_examples=30, deadline=None)
@given(moment_cases())
def test_batched_moment_matches_shell_by_shell(case):
    field, r0, r1, moment, order, budget = case
    expected, scale = moment_oracle(field, r0, r1, moment, order)
    with mock.patch.object(invariants, "KERNEL_BYTES", budget):
        got = invariants._radial_moment(field, [(r0, r1)], moment, order)[0]
    assert abs(got.value - expected) <= 1e-15 * scale


@settings(max_examples=20, deadline=None)
@given(moment_cases())
def test_kronrod_moment_matches_the_32_node_rule(case):
    field, r0, r1, moment, order, _ = case
    got = invariants._radial_moment(field, [(r0, r1)], moment, order)[0]
    assert got.stalled is None
    assert abs(got.value - gauss_legendre_moment(field, r0, r1, moment, order)) <= 1e-13 * got.scale


@st.composite
def schedule_cases(draw):
    n = draw(st.sampled_from([3, 4]))
    center = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(n))
    if draw(st.booleans()):
        spec = CatalogSpec(kind="schwarzschild", dim=n, mass=draw(st.floats(0.2, 2.0)), center=center)
    else:
        coeffs = ((1, draw(st.floats(0.1, 1.0))), (2, draw(st.floats(-0.5, 1.0))))
        spec = CatalogSpec(kind="conformal", dim=n, u_coeffs=coeffs, center=center)
    radii = [draw(st.floats(5.0, 100.0))]
    for _ in range(draw(st.integers(1, 4))):
        radii.append(radii[-1] * draw(st.floats(1.1, 8.0)))
    return (
        build(spec),
        radii,
        draw(st.integers(0, n)),
        draw(st.sampled_from([invariants.KERNEL_BYTES, 50 * 864, 333 * 864, 1000 * 864])),
        draw(st.sampled_from([4, 8, 96] if n == 3 else [4, 8])),  # MAX_ORDER: the low caps stall
        draw(st.sampled_from([0, 1, invariants.MAX_RADIAL_BISECTIONS])),
    )


@settings(max_examples=25, deadline=None)
@given(schedule_cases())
def test_batched_annuli_match_each_annulus_alone(case):
    field, radii, moment, budget, max_order, bisections = case
    with mock.patch.multiple(invariants, KERNEL_BYTES=budget, MAX_ORDER=max_order,
                             MAX_RADIAL_BISECTIONS=bisections):
        together = scalar_curvature_moment(field, radii, moment)
        alone = [scalar_curvature_moment(field, pair, moment) for pair in zip(radii, radii[1:])]
    assert len(together) == len(alone) == len(radii) - 1
    for got, (want,) in zip(together, alone):
        # value, error, scale, order and stalled, to the bit (repr tells -0.0 from 0.0)
        assert repr(got) == repr(want)


@pytest.mark.parametrize("n, order", [(3, 24), (4, 8), (5, 4)])
def test_no_kernel_call_exceeds_the_byte_budget(monkeypatch, n, order):
    sizes = []

    def counting(g, dg, ddg):
        sizes.append(len(g))
        return curvature_arrays(g, dg, ddg)

    monkeypatch.setattr(invariants, "curvature_arrays", counting)
    field = build(CatalogSpec(kind="conformal", dim=n, u_coeffs=((n - 2, 0.7), (n - 1, 0.2))))
    surfaces = [sphere_quadrature(n, r, order) for r in (10.0, 20.0, 40.0)]
    surface_totals(field, surfaces, invariants.CURVATURE_FUNCTIONALS)
    scalar_curvature_moment(field, [10.0, 20.0, 40.0])
    node = 8 * 3 * n * n * (n + 1)  # the bytes of temporaries a node costs
    assert sum(sizes) > 3 * len(surfaces[0]) and max(sizes) * node <= invariants.KERNEL_BYTES
    assert max(sizes) == invariants.KERNEL_BYTES // node


@pytest.mark.parametrize("n", [3, 4, 5])
def test_kernel_temporaries_fit_the_bytes_per_node(rng, n):
    # the kernel's peak above its jets grows by at most 3 n^2 (n + 1) floats per node
    field = build(CatalogSpec(kind="conformal", dim=n, u_coeffs=((n - 2, 0.7),), center=(0.5,) * n))
    points = rng.normal(size=(2000, n))
    jets = jet2_batch(field, 20.0 * points / np.linalg.norm(points, axis=1)[:, None])

    def peak(count):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            curvature_arrays(*(jet[:count] for jet in jets))
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert peak(2000) - peak(500) <= 1500 * 24 * n * n * (n + 1)


NEAR_ORIGIN_BUMP = CatalogSpec(
    kind="perturbed", base=CatalogSpec(kind="schwarzschild"), bump_amplitude=0.05,
    bump_width=1.0, bump_location=(0.0, 0.0, 0.0),
)


def test_bisection_converges_a_near_origin_bump(monkeypatch):
    field = build(NEAR_ORIGIN_BUMP)
    sizes = []

    def counting(g, dg, ddg):
        sizes.append(len(g))
        return curvature_arrays(g, dg, ddg)

    monkeypatch.setattr(invariants, "curvature_arrays", counting)
    got = invariants._radial_moment(field, [(1.0, 10.0)], 0, 16)[0]
    assert got.stalled is None and got.error <= invariants.REFINEMENT_TOL * got.scale
    assert sum(sizes) > 15 * 578  # the whole annulus was bisected
    expected, scale = moment_oracle(field, 1.0, 10.0, 0, 16)
    assert scale == pytest.approx(got.scale, rel=1e-14)
    assert abs(got.value - expected) <= 1e-15 * scale
    # the composite 32-node rule on 8 equal pieces agrees
    edges = np.linspace(1.0, 10.0, 9)
    composite = math.fsum(gauss_legendre_moment(field, a, b, 0, 16) for a, b in zip(edges, edges[1:]))
    assert abs(got.value - composite) <= 1e-13 * got.scale


def test_unbisected_bump_is_unconverged(monkeypatch):
    monkeypatch.setattr(invariants, "MAX_RADIAL_BISECTIONS", 0)
    got = scalar_curvature_moment(build(NEAR_ORIGIN_BUMP), [1.0, 10.0])[0]
    assert got.stalled is not None
    assert got.error > invariants.REFINEMENT_TOL * got.scale


#: A rational bump 3.7 from the origin: the directions of 5 < |x| < 10 need more than order 16.
OFF_CENTER_RATIONAL_BUMP = CatalogSpec(
    kind="perturbed", base=CatalogSpec(kind="schwarzschild"), bump_amplitude=0.05,
    bump_width=2.0, bump_location=(3.0, -1.0, 2.0), bump_profile="rational",
)


@pytest.mark.parametrize(
    "start, orders",
    [(2, [2, 4, 8, 16, 32, 64, 96]), (3, [3, 6, 12, 24, 48, 96]), (4, [2, 4, 8, 16, 32, 64, 96]),
     (25, [12, 25, 50, 96]), (64, [32, 64, 96]), (96, [48, 96])],
)
def test_refinement_orders_start_at_the_companion(start, orders):
    assert invariants.refinement_orders(start) == orders


class TestRefine:
    """The one refinement walk on a fake ``evaluate``: ``values[key](order)`` is each key's value at an
    order, its scale is 1, and its result is ``(key, order)``."""

    @staticmethod
    def walk(values, fails=lambda order, refining: None):
        calls = []

        def evaluate(order, refining):
            calls.append((order, list(refining)))
            fails(order, refining)
            return [(values[key](order), 1.0, (key, order)) for key in refining]

        results, stalled = invariants.refine(4, list(values), evaluate, lambda key: f"piece {key}")
        return results, stalled, calls

    def test_each_key_accepts_its_first_agreeing_order(self):
        # from refinement_orders(4) = 2, 4, 8, ...: "a" agrees at its first comparison, "b" at 32
        results, stalled, _ = self.walk({"a": lambda order: 1.0, "b": lambda order: 0.0 if order >= 16 else order})
        assert results == {"a": ("a", 4), "b": ("b", 32)} and list(results) == ["a", "b"]
        assert stalled == []

    def test_a_key_that_never_agrees_keeps_its_cap_result_and_stalls(self):
        results, stalled, calls = self.walk({"a": lambda order: 1.0, "c": float, "d": lambda order: 5.0})
        assert results == {"a": ("a", 4), "c": ("c", 96), "d": ("d", 4)}
        assert stalled == ["c"] and calls[-1] == (96, ["c"])

    def test_evaluate_sees_only_the_keys_still_refining_and_stops_when_none_is(self):
        _, _, calls = self.walk({"b": lambda order: 0.0 if order >= 16 else order, "a": lambda order: 1.0})
        assert calls == [(2, ["b", "a"]), (4, ["b", "a"]), (8, ["b"]), (16, ["b"]), (32, ["b"])]
        _, _, calls = self.walk({"a": lambda order: 1.0})
        assert [order for order, _ in calls] == [2, 4]

    def test_a_failing_order_names_the_first_key_that_fails_alone(self):
        tried = []

        def fails(order, refining):
            tried.append((order, list(refining)))
            if order == 8 and "c" in refining:
                raise NonFiniteError("bad jet")

        # "a" and "d" accept at 4; at 8 the pass over "b", "c" and "e" fails, "b" passes alone and "c" fails
        values = {"a": lambda order: 1.0, "b": float, "c": float, "d": lambda order: 2.0, "e": float}
        with pytest.raises(NonFiniteError, match=r"^piece c: bad jet$"):
            self.walk(values, fails)
        assert tried[2:] == [(8, ["b", "c", "e"]), (8, ["b"]), (8, ["c"])]

    def test_a_failure_no_key_repeats_alone_is_raised_again_unchanged(self):
        error = ValueError("only together")

        def fails(order, refining):
            if order == 8 and len(refining) > 1:
                raise error

        with pytest.raises(ValueError) as info:
            self.walk({key: float for key in "abc"}, fails)
        assert info.value is error and not getattr(error, "__notes__", None)


def test_angular_rule_refines_a_near_origin_annulus(monkeypatch):
    shells = {}
    real = invariants._radial_moment

    def recording(field, annuli, moment, order):
        got = real(field, annuli, moment, order)
        shells[order] = got[0]
        return got

    monkeypatch.setattr(invariants, "_radial_moment", recording)
    got = scalar_curvature_moment(build(OFF_CENTER_RATIONAL_BUMP), [5.0, 10.0])[0]
    assert got.stalled is None and got.order == 64 and list(shells) == [2, 4, 8, 16, 32, 64]
    reference = shells[64]
    assert abs(shells[32].value - reference.value) <= 1e-12 * reference.scale
    # a fixed order 16 misses the reference by more than the refinement tolerance
    assert abs(shells[16].value - reference.value) > invariants.REFINEMENT_TOL * reference.scale


def test_far_annulus_accepts_order_4(monkeypatch):
    sizes = []

    def counting(g, dg, ddg):
        sizes.append(len(g))
        return curvature_arrays(g, dg, ddg)

    monkeypatch.setattr(invariants, "curvature_arrays", counting)
    got = scalar_curvature_moment(build(OFF_CENTER_RATIONAL_BUMP), [100.0, 200.0])[0]
    assert got.stalled is None and got.order == 4
    # whole shells of 18 and 50 nodes, as many as fit 400 nodes to a kernel call, at orders 2 and 4
    assert invariants.KERNEL_BYTES // 864 == 400  # 864 bytes a node in R^3
    assert sizes == [15 * 18, 8 * 50, 7 * 50]


def test_angular_rule_at_its_cap_is_unconverged(monkeypatch):
    monkeypatch.setattr(invariants, "MAX_ORDER", 16)
    got = scalar_curvature_moment(build(OFF_CENTER_RATIONAL_BUMP), [5.0, 10.0])[0]
    assert got.order == 16 and got.stalled == "angular"


def test_moment_kernel_batches_hold_the_cap(catalog, monkeypatch):
    sizes = []

    def counting(g, dg, ddg):
        sizes.append(len(g))
        return curvature_arrays(g, dg, ddg)

    monkeypatch.setattr(invariants, "curvature_arrays", counting)
    invariants._radial_moment(catalog["conformal"], [(10.0, 20.0)], 0, 8)
    assert sizes == [2 * 162] * 7 + [162]  # 15 whole shells of 162 nodes, 2 to a batch of at most 400
    sizes.clear()
    invariants._radial_moment(catalog["conformal"], [(10.0, 20.0)], 0, 16)
    assert sizes == [400] * 21 + [15 * 578 - 21 * 400]  # shells above the budget are cut
    sizes.clear()
    field = build(CatalogSpec(kind="conformal", dim=4, u_coeffs=((1, 0.5),)))
    invariants._radial_moment(field, [(10.0, 20.0)], 0, 2)
    cap = invariants.KERNEL_BYTES // 1920  # 1,920 bytes a node in R^4
    assert cap == 180 and sizes == [3 * 54] * 5  # 15 whole shells of 54 nodes in R^4


def test_surface_kernel_calls_hold_the_cap(catalog, monkeypatch):
    sizes = []

    def counting(g, dg, ddg):
        sizes.append(len(g))
        return curvature_arrays(g, dg, ddg)

    monkeypatch.setattr(invariants, "curvature_arrays", counting)
    surf = ellipsoid_quadrature((40.0, 10.0, 10.0), order=96)
    mass = surface_value(catalog["schwarzschild"], surf, "intrinsic_mass")
    assert len(surf) == 18818
    assert sizes == [400] * 47 + [18818 - 47 * 400]
    assert mass == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("cap", [50, 161, 162])
def test_sliced_surface_matches_one_kernel_call(catalog, cap):
    # 162 nodes: slices with a remainder, one short of the surface, and the whole surface
    field, surf = catalog["schwarzschild-translated"], sphere_quadrature(3, 20.0, order=8)
    expected = surface_totals(field, [surf], invariants.CURVATURE_FUNCTIONALS)
    with mock.patch.object(invariants, "KERNEL_BYTES", cap * 864):  # 864 bytes a node in R^3
        assert invariants.KERNEL_BYTES // 864 == cap
        sliced = surface_totals(field, [surf], invariants.CURVATURE_FUNCTIONALS)
        for name, want in expected.items():
            assert sliced[name][0] == pytest.approx(want[0], rel=1e-14, abs=1e-14)


class TestScalarCurvatureMoments:
    def test_flat_zero(self, catalog):
        assert scalar_curvature_moment(catalog["flat"], [5.0, 10.0])[0].value == 0.0

    def test_schwarzschild_scalar_flat(self, catalog):
        got = scalar_curvature_moment(catalog["schwarzschild"], [10.0, 20.0])[0].value
        assert abs(got) <= 1e-9

    def test_conformal_shells_converge(self, catalog):
        # R ~ -16 u^-5 / r^4 gives shell integrals ~ 1/r, halving per doubled shell
        field = catalog["conformal"]
        shells = [s.value for s in scalar_curvature_moment(field, [10.0, 20.0, 40.0, 80.0, 160.0])]
        assert all(s < 0 for s in shells)
        mags = [abs(s) for s in shells]
        assert mags[0] > mags[1] > mags[2] > mags[3]
        for a, b in zip(mags, mags[1:]):
            assert b / a == pytest.approx(0.5, abs=0.1)

    def test_first_moment_vanishes_by_symmetry(self, catalog):
        got = scalar_curvature_moment(catalog["conformal"], [10.0, 20.0], moment=1)[0].value
        assert abs(got) <= 1e-12

    def test_a_nan_radius_is_outside_the_domain_and_names_its_annulus(self, catalog):
        with pytest.raises(DomainError, match=r"^scalar_moment_shells on 20 < \|x\| < nan: non-finite point"):
            scalar_curvature_moment(catalog["schwarzschild"], [10.0, 20.0, np.nan, 40.0])

    def test_bad_radii(self, catalog):
        with pytest.raises(ValueError):
            scalar_curvature_moment(catalog["schwarzschild"], [20.0, 10.0])
        with pytest.raises(ValueError):
            scalar_curvature_moment(catalog["schwarzschild"], [0.1, 10.0])
        with pytest.raises(ValueError):
            scalar_curvature_moment(catalog["flat"], [5.0, 10.0], moment=7)


class TestHigherDimensions:
    @pytest.mark.parametrize("n", [4, 5])
    def test_masses_any_dimension(self, n):
        field = build(CatalogSpec(kind="schwarzschild", dim=n, mass=1.0))
        surf = sphere_quadrature(n, 20.0, order=12)
        closed = schwarzschild_flux_closed_form(1.0, 20.0, n)
        assert surface_value(field, surf, "adm_mass") == pytest.approx(closed, rel=1e-12)
        assert surface_value(field, surf, "intrinsic_mass") == pytest.approx(1.0, abs=1e-9)

    def test_translated_centers_dimension_four(self):
        c = (1.0, -2.0, 0.5, 0.0)
        field = build(CatalogSpec(kind="schwarzschild", dim=4, mass=1.0, center=c))
        surf = sphere_quadrature(4, 400.0, order=12)
        assert np.allclose(surface_value(field, surf, "cs_center", 1.0), c, atol=1e-4)
        assert np.allclose(surface_value(field, surf, "intrinsic_center", 1.0), c, atol=1e-6)


class TestGeneralSurfaces:
    def test_masses_on_ellipsoids(self, catalog):
        field = catalog["schwarzschild"]
        diffs = []
        for r in (10.0, 40.0, 160.0):
            surf = ellipsoid_quadrature((2 * r, r, r), order=24)
            intrinsic = surface_value(field, surf, "intrinsic_mass")
            assert intrinsic == pytest.approx(1.0, abs=1e-9)
            diffs.append(abs(surface_value(field, surf, "adm_mass") - intrinsic))
        assert diffs[0] > diffs[1] > diffs[2]


SWEPT = ("adm_mass", "cs_center", "intrinsic_mass", "intrinsic_center")


@pytest.mark.parametrize("count", range(1, 10))
def test_block_totals_equal_one_surface_totals(catalog, count):
    field, names = catalog["perturbed-gaussian"], (*SWEPT, "identity_X", "identity_Y")
    spheres = [sphere_quadrature(3, 10.0 * 1.5**k, order=12) for k in range(count)]
    ellipsoids = [ellipsoid_quadrature((40.0 * r, 10.0 * r, 10.0 * r), order=8) for r in range(1, count + 1)]
    for surfaces in (spheres, ellipsoids):
        together = surface_totals(field, surfaces, names)  # every functional's rows in one sum
        for name in names:
            # alone, a flux name reads first-order jets: its totals are the same
            totals = surface_totals(field, surfaces, [name])[name]
            assert len(totals) == count
            assert all(np.array_equal(a, b) for a, b in zip(together[name], totals)), (name, count)
            for got, surf in zip(totals, surfaces):
                assert np.array_equal(got, surface_totals(field, [surf], [name])[name][0]), (name, count)


@pytest.mark.parametrize("names", [[name] for name in (*SWEPT, "identity_X", "identity_Y")]
                         + [["adm_mass", "cs_center"], ["cs_center", "identity_Y", "adm_mass"]])
def test_jet_order_follows_the_names(catalog, monkeypatch, names):
    asked = []

    def counting(field_, points, derivatives=2):
        asked.append(derivatives)
        return jet2_batch(field_, points, derivatives)

    monkeypatch.setattr(invariants, "jet2_batch", counting)
    surfaces = [sphere_quadrature(3, r, order=8) for r in (10.0, 20.0)]
    surface_totals(catalog["perturbed-gaussian"], surfaces, names)
    assert asked == [2 if set(names) & set(invariants.SECOND_ORDER) else 1]


def adversarial_row(rng, kind, nodes):
    """One row of ``nodes`` entries of ``kind``, built to stress a correctly rounded sum."""
    signs = rng.choice([-1.0, 1.0], nodes)
    if kind == "wide":
        return signs * 10.0 ** rng.uniform(-300, 300, nodes)
    if kind == "cancel":  # exact pairs x, -x, plus at most one leftover entry
        half = signs[: nodes // 2] * 10.0 ** rng.uniform(-300, 300, nodes // 2)
        row = np.concatenate([half, -half, signs[: nodes % 2] * rng.random(nodes % 2)])
        return rng.permutation(row)
    if kind == "subnormal":
        return signs * 5e-324 * rng.integers(0, 2**52, nodes) + signs * (rng.random(nodes) < 0.1) * 1e-300
    if kind == "zero":
        return signs * 0.0
    return signs * rng.choice([0.0, 5e-324, 1e-300, 1.0, 3.0, 2.0**53, 1e300], nodes)  # ties and gaps


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.sampled_from(["wide", "cancel", "subnormal", "zero", "mixed"]), min_size=1, max_size=8),
    st.integers(1, 3000),
    st.integers(0, 2**32 - 1),
)
def test_row_sums_are_math_fsum_to_the_bit(kinds, nodes, seed):
    rng = np.random.default_rng(seed)
    rows = np.stack([adversarial_row(rng, kind, nodes) for kind in kinds])
    got = np.array(invariants._fsum_rows(rows))
    want = np.array([math.fsum(row) for row in rows.tolist()])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # the sign of zero too


def test_row_sums_keep_the_non_finite_behaviour():
    rows = np.array([[1.0, np.inf, -np.inf], [1.0, 2.0, 3.0]])
    with pytest.raises(NonFiniteError, match="surface integrand overflows"):
        invariants._fsum_rows(rows)
    with pytest.raises(NonFiniteError, match="surface integrand overflows"):
        invariants._fsum_rows(np.array([[1e308, 1e308, 1.0]]))
    got = invariants._fsum_rows(np.array([[1.0, np.nan, 2.0], [0.5, 0.25, 0.125], [np.inf, 1.0, 1e308]]))
    assert math.isnan(got[0]) and got[1:] == [0.875, math.inf]
