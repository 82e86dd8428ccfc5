import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admflux.curvature import metric_inverse
from admflux.errors import SingularMetricError
from admflux.metric_field import jet2_batch
from admflux.surfaces import (
    ellipsoid_quadrature,
    g_normals_and_areas,
    gauss_jacobi,
    gauss_kronrod15,
    sphere_quadrature,
    unit_sphere_area,
    unit_sphere_rule,
)

from conftest import sample_points


def sphere_monomial_moment(exponents, r, n=3):
    """Closed-form moment of x1^a x2^b ... over the sphere of radius r.

    Odd exponents vanish; for even exponents 2m_i the unit-sphere value is
    ``2 prod Gamma(m_i + 1/2) / Gamma(sum m_i + n/2)``.
    """
    if any(e % 2 for e in exponents):
        return 0.0
    ms = [e // 2 for e in exponents]
    num = 2.0 * np.prod([math.gamma(m + 0.5) for m in ms])
    val = num / math.gamma(sum(ms) + n / 2.0)
    return val * r ** (sum(exponents) + n - 1)


class TestSphereQuadrature:
    def test_area_n3(self):
        surf = sphere_quadrature(3, 2.0, order=10)
        assert math.fsum(surf.weights) == pytest.approx(16 * math.pi, rel=1e-12)

    def test_area_n4(self):
        surf = sphere_quadrature(4, 1.0, order=8)
        assert math.fsum(surf.weights) == pytest.approx(2 * math.pi**2, rel=1e-10)
        assert unit_sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-14)

    def test_area_n5(self):
        surf = sphere_quadrature(5, 1.5, order=6)
        assert math.fsum(surf.weights) == pytest.approx(unit_sphere_area(5) * 1.5**4, rel=1e-10)

    def test_normal_moments_vanish(self):
        surf = sphere_quadrature(3, 3.0, order=12)
        for a in range(3):
            moment = float(np.sum(surf.normals[:, a] * surf.weights))
            assert abs(moment) < 1e-12 * math.fsum(surf.weights)

    def test_polynomial_moments(self):
        order = 10
        r = 1.7
        surf = sphere_quadrature(3, r, order=order)
        for a in range(order + 1):
            for b in range(order + 1 - a):
                for c in range(order + 1 - a - b):
                    vals = surf.points[:, 0] ** a * surf.points[:, 1] ** b * surf.points[:, 2] ** c
                    got = float(np.sum(vals * surf.weights))
                    exact = sphere_monomial_moment((a, b, c), r)
                    scale = max(abs(exact), r ** (a + b + c) * math.fsum(surf.weights))
                    assert abs(got - exact) <= 1e-11 * scale, (a, b, c)

    def test_normals_unit_and_radial(self):
        surf = sphere_quadrature(3, 5.0, order=6)
        assert np.allclose(np.linalg.norm(surf.normals, axis=1), 1.0, atol=1e-14)
        assert np.allclose(surf.normals * 5.0, surf.points, atol=1e-12)
        assert np.allclose(np.linalg.norm(surf.points, axis=1), 5.0, rtol=1e-15)

    @pytest.mark.parametrize("bad", [(2, 1.0, 8), (3, -1.0, 8), (3, 1.0, 1)])
    def test_invalid_arguments(self, bad):
        with pytest.raises(ValueError):
            sphere_quadrature(*bad)


class TestEllipsoidQuadrature:
    def test_degenerate_matches_sphere(self):
        ell = ellipsoid_quadrature((2.0, 2.0, 2.0), order=10)
        sph = sphere_quadrature(3, 2.0, order=10)
        assert math.fsum(ell.weights) == pytest.approx(math.fsum(sph.weights), rel=1e-12)
        assert np.allclose(ell.points, sph.points, atol=1e-12)

    def test_prolate_area_closed_form(self):
        # semi-axes (2,1,1): S = 2 pi b^2 (1 + (a / (b e)) asin(e)), e^2 = 1 - b^2/a^2
        e = math.sqrt(1 - 0.25)
        exact = 2 * math.pi * (1 + (2.0 / e) * math.asin(e))
        surf = ellipsoid_quadrature((2.0, 1.0, 1.0), order=24)
        assert math.fsum(surf.weights) == pytest.approx(exact, rel=1e-12)

    def test_divergence_flux(self):
        # int x . nu over the boundary equals n * volume = 3 * (4 pi / 3) * 2
        surf = ellipsoid_quadrature((2.0, 1.0, 1.0), order=24)
        flux = float(np.sum(np.einsum("pi,pi->p", surf.points, surf.normals) * surf.weights))
        assert flux == pytest.approx(8 * math.pi, rel=1e-10)

    def test_normals_exact(self):
        axes = np.array([2.0, 1.0, 0.5])
        surf = ellipsoid_quadrature(axes, order=8)
        grad = surf.points / axes**2
        grad /= np.linalg.norm(grad, axis=1, keepdims=True)
        assert np.allclose(surf.normals, grad, atol=1e-13)
        assert float(np.min(np.linalg.norm(surf.points, axis=1))) >= 0.5 - 1e-12

    def test_family_area_scaling(self):
        # |Sigma_r| / r^2 is the constant area of the unit-scale ellipsoid
        base = math.fsum(ellipsoid_quadrature((2.0, 1.0, 1.0), order=12).weights)
        for r in (10.0, 100.0, 1000.0):
            surf = ellipsoid_quadrature((2 * r, r, r), order=12)
            assert math.fsum(surf.weights) / r**2 == pytest.approx(base, rel=1e-12)

    def test_nonpositive_axis(self):
        with pytest.raises(ValueError):
            ellipsoid_quadrature((1.0, 0.0, 1.0), order=8)


def metric_frame(nu, w, g):
    """:func:`g_normals_and_areas` of point-first normals and metrics, as ``nu_g[p, i]`` and ``w_g``."""
    ginv, det = metric_inverse(g)
    nu_g, w_g = g_normals_and_areas(nu.T, w, ginv.transpose(1, 2, 0), det)
    return nu_g.T, w_g


class TestMetricNormalsAndAreas:
    def test_flat_identity(self):
        nu = np.array([[0.0, 0.0, 1.0]])
        g = np.eye(3)[None]
        nu_g, w_g = metric_frame(nu, np.array([0.7]), g)
        assert np.allclose(nu_g, nu, atol=1e-15)
        assert w_g == pytest.approx([0.7], rel=1e-15)

    def test_conformal_scaling(self, catalog, rng):
        # g = u^4 delta: nu_g = u^-2 nu_e and w_g = u^4 w_e
        pts = sample_points(rng, 10)
        rho = np.linalg.norm(pts, axis=1)
        u = 1 + 0.5 / rho
        nu = pts / rho[:, None]
        g, _, _ = jet2_batch(catalog["schwarzschild"], pts)
        nu_g, w_g = metric_frame(nu, np.full(len(pts), 1.3), g)
        assert np.allclose(nu_g, nu / u[:, None] ** 2, atol=1e-13)
        assert w_g == pytest.approx(1.3 * u**4, rel=1e-13)

    def test_unit_normalization_random_metrics(self, rng):
        a = rng.normal(size=(25, 3, 3))
        g = a @ a.swapaxes(1, 2) + 3 * np.eye(3)
        nu = rng.normal(size=(25, 3))
        nu /= np.linalg.norm(nu, axis=1, keepdims=True)
        nu_g, _ = metric_frame(nu, np.ones(25), g)
        assert np.einsum("pij,pi,pj->p", g, nu_g, nu_g) == pytest.approx(1.0, abs=1e-12)

    def test_normal_difference_decays(self, catalog):
        # sup |nu_g - nu_e| is O(|h|); weighted by r^(1/2) it decreases
        field = catalog["schwarzschild"]
        weighted = []
        for r in (10.0, 100.0, 1000.0):
            surf = sphere_quadrature(3, r, order=8)
            g, _, _ = (field.jet_batch(surf.points, 2))
            nu_g, _ = metric_frame(surf.normals, surf.weights, g)
            sup = float(np.max(np.linalg.norm(nu_g - surf.normals, axis=1)))
            h_sup = float(np.max(np.abs(g - np.eye(3))))
            assert sup <= 3.0 * h_sup
            weighted.append(math.sqrt(r) * sup)
        assert weighted[0] > weighted[1] > weighted[2]

    def test_singular_metric(self):
        g = np.diag([1.0, 1.0, 1e-16])[None]
        with pytest.raises(SingularMetricError):
            metric_frame(np.array([[0.0, 0.0, 1.0]]), np.array([1.0]), g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_metric(self, bad):
        g = np.eye(3)[None].repeat(2, axis=0)
        g[0, 0, 1] = g[0, 1, 0] = bad
        nu = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(SingularMetricError, match="non-finite"):
            metric_frame(nu, np.ones(2), g)


def test_unit_rule_node_count_default_order():
    pts, w = unit_sphere_rule(3, 24)
    assert len(pts) == len(w) == 25 * 50


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=1, max_value=97), a=st.sampled_from([0.0, 0.5, 1.0, 1.5]))
def test_gauss_jacobi_integrates_even_moments_exactly(m, a):
    # int_{-1}^{1} t^(2k) (1 - t^2)^a dt = B(k + 1/2, a + 1), exact for 2k <= 2m - 1
    t, w = gauss_jacobi(m, a)
    assert np.array_equal(t, -t[::-1])
    assert np.all(np.diff(t) > 0) and np.all(np.abs(t) < 1) and np.all(w > 0)
    for k in range(m):
        exact = math.gamma(k + 0.5) * math.gamma(a + 1) / math.gamma(k + a + 1.5)
        got = math.fsum((w * t ** (2 * k)).tolist())
        assert abs(got - exact) <= 1e-13 * exact, k


def test_gauss_kronrod15_exactness_and_embedded_gauss_rule():
    t, w_kronrod, w_gauss = gauss_kronrod15()
    gauss_nodes, gauss_weights = gauss_jacobi(7, 0.0)
    assert np.array_equal(t[1::2], gauss_nodes)  # the 7 Gauss nodes, bit for bit
    assert np.array_equal(w_gauss, gauss_weights)
    assert np.array_equal(t, -t[::-1]) and np.all(np.diff(t) > 0) and np.all(w_kronrod > 0)
    for k in range(24):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(math.fsum((w_kronrod * t**k).tolist()) - exact) <= 2e-16, k
        if k <= 13:
            assert abs(math.fsum((w_gauss * t[1::2] ** k).tolist()) - exact) <= 5e-16, k
    # degree 24 is beyond the Kronrod rule and degree 14 beyond the Gauss rule
    assert abs(math.fsum((w_kronrod * t**24).tolist()) - 2.0 / 25) > 1e-9
    assert abs(math.fsum((w_gauss * t[1::2] ** 14).tolist()) - 2.0 / 15) > 1e-5
    with pytest.raises(ValueError, match="read-only"):
        t[0] = 0.0


def test_unit_rule_is_cached_and_read_only():
    pts, w = unit_sphere_rule(3, 12)
    again, _ = unit_sphere_rule(3, 12)
    assert again is pts
    surf = sphere_quadrature(3, 2.0, order=12)
    for arr in (pts, w, surf.normals):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
