import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admflux import invariants
from admflux.catalog import CatalogSpec, build
from admflux.curvature import curvature_arrays
from admflux.errors import DomainError, UndefinedCenterError
from admflux.invariants import (
    SurfaceEval,
    identity_residuals,
    scalar_curvature_moment,
)
from admflux.metric_field import jet2_batch
from admflux.surfaces import (
    ellipsoid_quadrature,
    gauss_jacobi,
    gauss_kronrod15,
    sphere_quadrature,
    unit_sphere_rule,
)


def mass_difference(field, surf):
    """Flux mass minus curvature mass, both from one surface evaluation."""
    evaluation = SurfaceEval(field, surf)
    return evaluation.value("adm_mass") - evaluation.value("intrinsic_mass")


def schwarzschild_flux_closed_form(m, r, n=3):
    """Exact flux mass of the isotropic slice on the sphere of radius r."""
    u = 1 + m / (2 * r ** (n - 2))
    return m * u ** ((6 - n) / (n - 2))


class TestKillingFields:
    def test_field_X(self):
        # the dilation field X = x is the surface nodes themselves; each generator
        # contracts with it to x . Y_alpha = -|x|^2 X_alpha
        x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        Y = invariants._conformal_generators(x)
        r2 = np.sum(x * x, axis=1)
        assert np.array_equal(np.einsum("pi,pai->pa", x, Y), -r2[:, None] * x)
        assert np.array_equal(np.einsum("pa,pai->pi", x, Y), -r2[:, None] * x)

    def test_field_Y_values(self):
        Y = invariants._conformal_generators(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert np.allclose(Y[:, 0, :], [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

    def test_field_Y_even(self, rng):
        x = rng.normal(size=(20, 3))
        Y = invariants._conformal_generators
        assert np.allclose(Y(x), Y(-x), atol=1e-15)


class TestMassFunctionals:
    def test_flat_zero(self, catalog):
        surf = sphere_quadrature(3, 10.0, order=8)
        evaluation = SurfaceEval(catalog["flat"], surf)
        assert evaluation.value("adm_mass") == 0.0
        assert abs(evaluation.value("intrinsic_mass")) < 1e-14

    @pytest.mark.parametrize("m,r", [(1.0, 100.0), (2.0, 1000.0)])
    def test_adm_closed_form(self, m, r):
        field = build(CatalogSpec(kind="schwarzschild", mass=m))
        got = SurfaceEval(field, sphere_quadrature(3, r, order=24)).value("adm_mass")
        assert got == pytest.approx(schwarzschild_flux_closed_form(m, r), rel=1e-12)

    def test_adm_frozen_values(self, catalog):
        surf = sphere_quadrature(3, 100.0, order=24)
        got = SurfaceEval(catalog["schwarzschild"], surf).value("adm_mass")
        assert got == pytest.approx(1.015075125, rel=1e-10)
        field = build(CatalogSpec(kind="schwarzschild", mass=2.0))
        got = SurfaceEval(field, sphere_quadrature(3, 1000.0, order=24)).value("adm_mass")
        assert got == pytest.approx(2.0 * 1.001**3, rel=1e-10)

    def test_intrinsic_mass_schwarzschild(self, catalog):
        # the curvature mass of the isotropic slice is exactly m at every radius
        surf = sphere_quadrature(3, 100.0, order=24)
        got = SurfaceEval(catalog["schwarzschild"], surf).value("intrinsic_mass")
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
        adm = SurfaceEval(field, surf).value("adm_mass")
        intrinsic = SurfaceEval(field, surf).value("intrinsic_mass")
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
        evaluation = SurfaceEval(catalog["schwarzschild"], surf)
        assert np.max(np.abs(evaluation.value("cs_center", 1.0))) < 1e-10
        assert np.max(np.abs(evaluation.value("intrinsic_center", 1.0))) < 1e-9

    def test_translated_recovers_center(self, catalog):
        surf = sphere_quadrature(3, 1000.0, order=24)
        field = catalog["schwarzschild-translated"]
        c = np.array([1.0, 2.0, 3.0])
        evaluation = SurfaceEval(field, surf)
        assert np.max(np.abs(evaluation.value("cs_center", 1.0) - c)) < 1e-2
        assert np.max(np.abs(evaluation.value("intrinsic_center", 1.0) - c)) < 1e-2

    def test_translation_covariance_conformal(self):
        # translating a (non-radially-exact) field shifts both centers by v
        v = (2.0, 0.0, -1.0)
        moved = build(
            CatalogSpec(kind="conformal", u_coeffs=((1, 1.0), (2, 1.0)), center=v)
        )
        mass = moved.metadata["expected_mass"]
        errs = []
        for r in (200.0, 800.0):
            evaluation = SurfaceEval(moved, sphere_quadrature(3, r, order=16))
            errs.append(
                max(
                    float(np.max(np.abs(evaluation.value("cs_center", mass) - v))),
                    float(np.max(np.abs(evaluation.value("intrinsic_center", mass) - v))),
                )
            )
        assert errs[1] < errs[0]
        assert errs[1] < 2e-2

    def test_intrinsic_and_cs_converge_together(self, catalog):
        field = catalog["schwarzschild-translated"]
        gaps = []
        for r in (100.0, 400.0):
            evaluation = SurfaceEval(field, sphere_quadrature(3, r, order=24))
            gap = evaluation.value("cs_center", 1.0) - evaluation.value("intrinsic_center", 1.0)
            gaps.append(float(np.max(np.abs(gap))))
        assert gaps[1] < gaps[0]

    def test_mass_scaling_exact(self, catalog):
        surf = sphere_quadrature(3, 200.0, order=12)
        evaluation = SurfaceEval(catalog["schwarzschild-translated"], surf)
        assert np.array_equal(
            evaluation.value("cs_center", 2.0), 0.5 * evaluation.value("cs_center", 1.0)
        )
        assert np.array_equal(
            evaluation.value("intrinsic_center", 2.0),
            0.5 * evaluation.value("intrinsic_center", 1.0),
        )

    def test_undefined_center_guard(self, catalog):
        surf = sphere_quadrature(3, 10.0, order=8)
        evaluation = SurfaceEval(catalog["flat"], surf)
        with pytest.raises(UndefinedCenterError):
            evaluation.value("cs_center", 0.0)
        with pytest.raises(UndefinedCenterError):
            evaluation.value("intrinsic_center", 1e-9)


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
        calls = []

        def counting(field_, points):
            calls.append(len(points))
            return jet2_batch(field_, points)

        monkeypatch.setattr(invariants, "jet2_batch", counting)
        res_x, res_y = identity_residuals(field, outer, inner=inner)
        assert len(calls) == (1 if inner is None else 2)
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


def form_x_oracle(field, surf):
    """The dilation identity on one surface, one formula at a time."""
    g, dg, ddg = jet2_batch(field, surf.points)
    M, s = invariants._second_derivative_form(ddg)
    bracket = np.einsum("pkki->pi", dg) - np.einsum("pikk->pi", dg)
    lhs = math.fsum(np.einsum("pij,pi,pj->p", M, surf.points, surf.normals) * surf.weights)
    flux = math.fsum(np.einsum("pj,pj->p", bracket, surf.normals) * surf.weights)
    radial = math.fsum(s * np.einsum("pi,pi->p", surf.points, surf.normals) * surf.weights)
    return lhs - (3 - 2) * flux - radial


def form_y_oracle(field, surf, alpha):
    """The generator identity for one ``alpha`` on one surface, with its own jets."""
    g, dg, ddg = jet2_batch(field, surf.points)
    M, s = invariants._second_derivative_form(ddg)
    Y = invariants._conformal_generators(surf.points)[:, alpha - 1, :]
    lhs = math.fsum(np.einsum("pij,pi,pj->p", -M, Y, surf.normals) * surf.weights)
    rhs1 = math.fsum(-s * np.einsum("pi,pi->p", Y, surf.normals) * surf.weights)
    h = g - np.eye(3)
    bracket = np.einsum("pkki->pi", dg) - np.einsum("pikk->pi", dg)
    flux = np.einsum("pi,pi->p", bracket, surf.normals)
    trace_part = (
        np.einsum("pk,pk->p", h[:, :, alpha - 1], surf.normals)
        - np.einsum("pkk->p", h) * surf.normals[:, alpha - 1]
    )
    rhs2 = 2.0 * (3 - 2) * math.fsum((surf.points[:, alpha - 1] * flux - trace_part) * surf.weights)
    return lhs - rhs1 - rhs2


def moment_oracle(field, r0, r1, moment, order):
    """The annulus moment with one kernel call per K15 shell of each accepted piece, and its scale.

    Pieces are accepted or bisected as :func:`scalar_curvature_moment` does,
    depth first.  The scale is the same integral of the largest ``|R_ij|`` at
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
        draw(st.sampled_from([invariants.MAX_KERNEL_POINTS, 50, 333, 1000])),
    )


@settings(max_examples=30, deadline=None)
@given(moment_cases())
def test_batched_moment_matches_shell_by_shell(case):
    field, r0, r1, moment, order, cap = case
    expected, scale = moment_oracle(field, r0, r1, moment, order)
    with mock.patch.object(invariants, "MAX_KERNEL_POINTS", cap):
        got = scalar_curvature_moment(field, r0, r1, moment=moment, order=order)
    assert abs(got.value - expected) <= 1e-15 * scale


@settings(max_examples=20, deadline=None)
@given(moment_cases())
def test_kronrod_moment_matches_the_32_node_rule(case):
    field, r0, r1, moment, order, _ = case
    got = scalar_curvature_moment(field, r0, r1, moment=moment, order=order)
    assert got.converged
    assert abs(got.value - gauss_legendre_moment(field, r0, r1, moment, order)) <= 1e-13 * got.scale


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
    got = scalar_curvature_moment(field, 1.0, 10.0)
    assert got.converged and got.error <= invariants.REFINEMENT_TOL * got.scale
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
    got = scalar_curvature_moment(build(NEAR_ORIGIN_BUMP), 1.0, 10.0)
    assert not got.converged
    assert got.error > invariants.REFINEMENT_TOL * got.scale


def test_moment_kernel_batches_hold_the_cap(catalog, monkeypatch):
    sizes = []

    def counting(g, dg, ddg):
        sizes.append(len(g))
        return curvature_arrays(g, dg, ddg)

    monkeypatch.setattr(invariants, "curvature_arrays", counting)
    scalar_curvature_moment(catalog["conformal"], 10.0, 20.0, order=16)
    assert sizes == [8 * 578, 7 * 578]  # 15 whole shells of 578 nodes, 8 to a batch
    sizes.clear()
    field = build(CatalogSpec(kind="conformal", dim=4, u_coeffs=((1, 0.5),)))
    scalar_curvature_moment(field, 10.0, 20.0, order=16)
    assert sizes == [4802] * 30 + [15 * 9826 - 30 * 4802]  # shells above the cap are cut
    assert max(sizes) <= 4802


def test_surface_kernel_calls_hold_the_cap(catalog, monkeypatch):
    sizes = []

    def counting(g, dg, ddg):
        sizes.append(len(g))
        return curvature_arrays(g, dg, ddg)

    monkeypatch.setattr(invariants, "curvature_arrays", counting)
    surf = ellipsoid_quadrature((40.0, 10.0, 10.0), order=96)
    mass = SurfaceEval(catalog["schwarzschild"], surf).value("intrinsic_mass")
    assert len(surf) == 18818
    assert sizes == [4802, 4802, 4802, 18818 - 3 * 4802]
    assert mass == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("cap", [50, 161, 162])
def test_sliced_surface_matches_one_kernel_call(catalog, cap):
    # 162 nodes: slices with a remainder, one short of the surface, and the whole surface
    field, surf = catalog["schwarzschild-translated"], sphere_quadrature(3, 20.0, order=8)
    whole = SurfaceEval(field, surf)
    expected = {name: whole.total(name) for name in ("intrinsic_mass", "intrinsic_center")}
    with mock.patch.object(invariants, "MAX_KERNEL_POINTS", cap):
        sliced = SurfaceEval(field, surf)
        for name, want in expected.items():
            assert sliced.total(name) == pytest.approx(want, rel=1e-14, abs=1e-14)


class TestScalarCurvatureMoments:
    def test_flat_zero(self, catalog):
        assert scalar_curvature_moment(catalog["flat"], 5.0, 10.0).value == 0.0

    def test_schwarzschild_scalar_flat(self, catalog):
        got = scalar_curvature_moment(catalog["schwarzschild"], 10.0, 20.0).value
        assert abs(got) <= 1e-9

    def test_conformal_shells_converge(self, catalog):
        # R ~ -16 u^-5 / r^4 gives shell integrals ~ 1/r, halving per doubled shell
        field = catalog["conformal"]
        shells = [scalar_curvature_moment(field, r, 2 * r).value for r in (10.0, 20.0, 40.0, 80.0)]
        assert all(s < 0 for s in shells)
        mags = [abs(s) for s in shells]
        assert mags[0] > mags[1] > mags[2] > mags[3]
        for a, b in zip(mags, mags[1:]):
            assert b / a == pytest.approx(0.5, abs=0.1)

    def test_first_moment_vanishes_by_symmetry(self, catalog):
        got = scalar_curvature_moment(catalog["conformal"], 10.0, 20.0, moment=1).value
        assert abs(got) <= 1e-12

    def test_bad_radii(self, catalog):
        with pytest.raises(ValueError):
            scalar_curvature_moment(catalog["schwarzschild"], 20.0, 10.0)
        with pytest.raises(ValueError):
            scalar_curvature_moment(catalog["schwarzschild"], 0.1, 10.0)
        with pytest.raises(ValueError):
            scalar_curvature_moment(catalog["flat"], 5.0, 10.0, moment=7)


class TestHigherDimensions:
    @pytest.mark.parametrize("n", [4, 5])
    def test_masses_any_dimension(self, n):
        field = build(CatalogSpec(kind="schwarzschild", dim=n, mass=1.0))
        surf = sphere_quadrature(n, 20.0, order=12)
        closed = schwarzschild_flux_closed_form(1.0, 20.0, n)
        evaluation = SurfaceEval(field, surf)
        assert evaluation.value("adm_mass") == pytest.approx(closed, rel=1e-12)
        assert evaluation.value("intrinsic_mass") == pytest.approx(1.0, abs=1e-9)

    def test_translated_centers_dimension_four(self):
        c = (1.0, -2.0, 0.5, 0.0)
        field = build(CatalogSpec(kind="schwarzschild", dim=4, mass=1.0, center=c))
        surf = sphere_quadrature(4, 400.0, order=12)
        evaluation = SurfaceEval(field, surf)
        assert np.allclose(evaluation.value("cs_center", 1.0), c, atol=1e-4)
        assert np.allclose(evaluation.value("intrinsic_center", 1.0), c, atol=1e-6)


class TestGeneralSurfaces:
    def test_masses_on_ellipsoids(self, catalog):
        field = catalog["schwarzschild"]
        diffs = []
        for r in (10.0, 40.0, 160.0):
            evaluation = SurfaceEval(field, ellipsoid_quadrature((2 * r, r, r), order=24))
            intrinsic = evaluation.value("intrinsic_mass")
            assert intrinsic == pytest.approx(1.0, abs=1e-9)
            diffs.append(abs(evaluation.value("adm_mass") - intrinsic))
        assert diffs[0] > diffs[1] > diffs[2]
