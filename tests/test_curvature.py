import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from admflux.curvature import curvature_arrays, metric_inverse
from admflux.errors import SingularMetricError
from admflux.invariants import scalar_curvature_moment, surface_totals
from admflux.metric_field import MetricField, fd_jet2, jet2_batch
from admflux.surfaces import sphere_quadrature

from conftest import linearized_scalar_arrays, metric_values, sample_points


def flat_jets(count=1, n=3):
    """``count`` jets of the flat metric as batched ``(g, dg, ddg)`` arrays."""
    g = np.eye(n)[None].repeat(count, axis=0)
    return g, np.zeros((count, n, n, n)), np.zeros((count, n, n, n, n))


def random_jets(rng, count, n=3, scale=0.2):
    """Random batched jets with the right symmetries and SPD metric values."""
    g = np.eye(n) + scale * _sym2(rng.normal(size=(count, n, n)))
    dg = scale * _sym2(rng.normal(size=(count, n, n, n)))
    ddg = rng.normal(size=(count, n, n, n, n))
    ddg = 0.5 * (ddg + ddg.transpose(0, 2, 1, 3, 4))
    ddg = scale * 0.5 * (ddg + ddg.transpose(0, 1, 2, 4, 3))
    return g, dg, ddg


def _sym2(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def on_axis(*radii):
    """Points ``(r, 0, 0)``, one per radius."""
    return np.array([[r, 0.0, 0.0] for r in radii])


def curvature_at(field, points):
    return curvature_arrays(*jet2_batch(field, points))


class TestFlat:
    def test_all_zero(self):
        g, dg, ddg = flat_jets(4)
        b = curvature_arrays(g, dg, ddg)
        assert not b.gamma.any() and not b.dgamma.any()
        assert not b.ricci.any()
        assert np.all(b.scalar == 0.0)
        assert not b.einstein.any()
        assert np.all(linearized_scalar_arrays(ddg) == 0.0)


class TestChristoffel:
    def test_conformal_value(self, catalog):
        # g = u^4 delta with u = 1 + 1/(2r): Gamma^1_11 = 2 u_,1 / u = -1/5 at (2,0,0)
        gamma = curvature_at(catalog["schwarzschild"], on_axis(2.0)).gamma
        assert gamma[0, 0, 0, 0] == pytest.approx(-0.2, rel=1e-13)

    def test_conformal_closed_form(self, catalog, rng):
        # for g = u^4 delta (n=3): Gamma^k_ij = 2/u (u_i d^k_j + u_j d^k_i - u_s d^ks d_ij)
        pts = sample_points(rng, 10)
        rho = np.linalg.norm(pts, axis=1)
        u = 1 + 0.5 / rho
        du = -0.5 * pts / rho[:, None] ** 3
        expected = (2 / u)[:, None, None, None] * (
            np.einsum("pi,kj->pkij", du, np.eye(3))
            + np.einsum("pj,ki->pkij", du, np.eye(3))
            - np.einsum("pk,ij->pkij", du, np.eye(3))
        )
        gamma = curvature_at(catalog["schwarzschild"], pts).gamma
        assert np.allclose(gamma, expected, atol=1e-13)

    def test_lower_index_symmetry(self, rng):
        b = curvature_arrays(*random_jets(rng, 20))
        assert np.allclose(b.gamma, b.gamma.transpose(0, 1, 3, 2), atol=1e-13)
        assert np.allclose(b.dgamma, b.dgamma.transpose(0, 1, 2, 4, 3), atol=1e-13)


class TestRicciAndScalar:
    def test_schwarzschild_scalar_flat(self, catalog, rng):
        # harmonic conformal factor: the slice is scalar-flat
        pts = sample_points(rng, 20)
        b = curvature_at(catalog["schwarzschild"], pts)
        assert b.ricci.reshape(len(pts), -1).any(axis=1).all()  # curvature itself is nonzero
        assert np.all(np.abs(b.scalar) < 1e-10)
        assert np.all(np.abs(np.einsum("pij,pij->p", b.ginv, b.ricci)) < 1e-10)

    def test_schwarzschild_einstein_equals_ricci(self, catalog):
        b = curvature_at(catalog["schwarzschild"], np.array([[7.0, -2.0, 1.0]]))
        assert np.allclose(b.einstein, b.ricci, atol=1e-10)

    def test_einstein_trace_identity(self, rng):
        # g-trace of (Ric - R/2 g) equals (1 - n/2) R
        for n in (3, 4, 5):
            b = curvature_arrays(*random_jets(rng, 10, n=n))
            tr = np.einsum("pij,pij->p", b.ginv, b.einstein)
            expect = (1 - n / 2) * b.scalar
            assert tr == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_conformal_laplacian_identity(self, catalog, rng):
        # R = -8 u^-5 lap(u) for g = u^4 delta in three dimensions;
        # u = 1 + 1/rho + 1/rho^2 has lap(u) = 2 / rho^4
        pts = sample_points(rng, 100)
        rho = np.linalg.norm(pts, axis=1)
        u = 1 + 1 / rho + 1 / rho**2
        expected = -8.0 * u**-5 * (2.0 / rho**4)
        got = curvature_at(catalog["conformal"], pts).scalar
        assert got == pytest.approx(expected, rel=1e-9)

    def test_conformal_value_frozen(self, catalog):
        # at (5,0,0): u = 1.24, R = -8 * 1.24^-5 * 2/625
        got = curvature_at(catalog["conformal"], on_axis(5.0)).scalar[0]
        assert got == pytest.approx(-8.0 * 1.24**-5 * (2.0 / 625.0), rel=1e-12)

    def test_ricci_decay_rate(self, catalog):
        # max|R_ij| ~ 2m/r^3, so r^(5/2) max|R_ij| decreases
        radii = (10.0, 100.0, 1000.0)
        ric = curvature_at(catalog["schwarzschild"], on_axis(*radii)).ricci
        vals = np.max(np.abs(ric), axis=(1, 2))
        assert vals[1] == pytest.approx(vals[0] * 1e-3, rel=0.2)
        weighted = [r**2.5 * v for r, v in zip(radii, vals)]
        assert weighted[0] > weighted[1] > weighted[2]


class TestLinearizedScalar:
    def test_zero_without_second_derivatives(self, rng):
        _, _, ddg = random_jets(rng, 5)
        assert np.all(linearized_scalar_arrays(np.zeros_like(ddg)) == 0.0)

    def test_remainder_is_quadratic(self, catalog):
        # |linearized - full| is O(r^-4) while the curvature itself is O(r^-3)
        g, dg, ddg = jet2_batch(catalog["schwarzschild"], on_axis(10.0, 100.0, 1000.0))
        errs = np.abs(linearized_scalar_arrays(ddg) - curvature_arrays(g, dg, ddg).scalar)
        assert errs[1] / errs[0] < 1.5e-4 * 1.5
        assert errs[2] / errs[1] < 1.5e-4 * 1.5
        bound = errs[0] * 10.0**4
        assert errs[1] <= 1.1 * bound * 100.0**-4
        assert errs[2] <= 1.1 * bound * 1000.0**-4


class TestAgainstFiniteDifferences:
    def test_ricci_from_fd_jets(self, catalog, rng):
        pts = sample_points(rng, 20)
        for name, field in catalog.items():
            values = metric_values(field)
            exact = curvature_at(field, pts).ricci
            errs = {}
            for h in (1e-2, 5e-3):
                fd = curvature_arrays(*fd_jet2(values, pts, h=h)).ricci
                errs[h] = float(np.max(np.abs(fd - exact)))
            if errs[1e-2] < 1e-9:  # differencing noise floor, nothing to reduce
                continue
            assert errs[1e-2] / errs[5e-3] >= 3.4, name


def reflected(field: MetricField) -> MetricField:
    """Pullback of the field under x -> -x; first derivatives flip sign."""

    def jet_batch(points, derivatives):
        g, dg, *ddg = field.jet_batch(-points, derivatives)
        return (g, -dg, *ddg)

    return MetricField(dim=field.dim, jet_batch=jet_batch, inner_radius=field.inner_radius)


class TestReflectionEquivariance:
    @pytest.mark.parametrize("name", ["schwarzschild-translated", "perturbed-tail"])
    def test_ricci_equivariant(self, catalog, rng, name):
        field = catalog[name]
        pts = sample_points(rng, 10)
        got = curvature_at(reflected(field), pts)
        expected = curvature_at(field, -pts)
        assert np.allclose(got.ricci, expected.ricci, atol=1e-13)
        assert got.scalar == pytest.approx(expected.scalar, abs=1e-13)


def test_singular_metric_rejected():
    g, dg, ddg = flat_jets()
    g[0] = np.diag([1.0, 1.0, 1e-15])
    with pytest.raises(SingularMetricError):
        curvature_arrays(g, dg, ddg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_metric_rejected(bad):
    g = np.eye(3)[None].repeat(2, axis=0)
    g[1, 2, 2] = bad
    with pytest.raises(SingularMetricError, match="non-finite"):
        curvature_arrays(g, np.zeros((2, 3, 3, 3)), np.zeros((2, 3, 3, 3, 3)))


@st.composite
def spd_batches(draw):
    """Batches of symmetric positive definite matrices, n in {3, 4, 5}."""
    n = draw(st.sampled_from([3, 4, 5]))
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    a = draw(arrays(np.float64, (draw(st.integers(1, 6)), n, n), elements=unit))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return scale * (np.eye(n) * draw(st.floats(0.05, 1.0)) + a @ a.swapaxes(-1, -2))


@settings(deadline=None)
@given(spd_batches())
def test_metric_inverse_matches_lapack(g):
    ginv, _ = metric_inverse(g)
    want = np.linalg.inv(g)
    assert np.abs(ginv - want).max() <= 1e-13 * np.abs(want).max()
    n = g.shape[-1]
    assert np.allclose(g @ ginv, np.eye(n), rtol=0, atol=1e-13)


@settings(deadline=None)
@given(spd_batches())
def test_pivot_determinant_matches_lapack(g):
    _, det = metric_inverse(g)
    want = np.linalg.det(g)
    assert det.shape == want.shape
    assert np.all(np.abs(det - want) <= 1e-13 * np.abs(want))


def test_frobenius_bound_falls_back_to_the_exact_condition_number(monkeypatch):
    # |g|_F |g^-1|_F = 1.29e12 exceeds the limit, the exact cond_2 = 9.1e11 does not
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    g = np.diag([1.0, 1.0, 1.1e-12])[None].repeat(2, axis=0)
    g[0] = np.eye(3)
    assert np.array_equal(metric_inverse(g)[0][1], np.diag([1.0, 1.0, 1 / 1.1e-12]))
    assert calls == [(1, 3, 3)]  # only the suspect point


def test_indefinite_metric_rejected():
    g = np.diag([1.0, 1.0, -1.0])[None]
    with pytest.raises(SingularMetricError, match="positive definite"):
        metric_inverse(g)


def test_kernel_needs_no_lapack(catalog, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    surf = sphere_quadrature(3, 50.0, 24)
    jets = jet2_batch(catalog["schwarzschild"], surf.points)
    # the sphere rules of the shells are built first: their nodes come from eigvalsh
    shell = scalar_curvature_moment(catalog["conformal"], [20.0, 40.0])[0]
    for name in ("inv", "det", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    bundle = curvature_arrays(*jets)
    assert np.all(np.isfinite(bundle.einstein)) and bundle.scalar.shape == (len(jets[0]),)
    totals = surface_totals(catalog["schwarzschild"], [surf], ["intrinsic_mass", "intrinsic_center"])
    assert np.isfinite(totals["intrinsic_mass"][0])
    assert np.all(np.isfinite(totals["intrinsic_center"][0]))
    assert scalar_curvature_moment(catalog["conformal"], [20.0, 40.0])[0] == shell


def reference_curvature(g, dg, ddg, ginv):
    """Reference oracle: the kernel's formulas through the full 5-index ``dgamma``,
    with the inverse metric ``ginv`` given."""
    T = np.einsum("pjis->psij", dg) + np.einsum("pijs->psij", dg) - dg
    gamma = 0.5 * np.einsum("pks,psij->pkij", ginv, T)
    dginv = -np.einsum("pab,plbc,pcd->plad", ginv, dg, ginv)
    dT = np.einsum("pljis->plsij", ddg) + np.einsum("plijs->plsij", ddg) - ddg
    dgamma = 0.5 * (
        np.einsum("plks,psij->plkij", dginv, T) + np.einsum("pks,plsij->plkij", ginv, dT)
    )
    ric = (
        np.einsum("pkkji->pij", dgamma)
        - np.einsum("pjkki->pij", dgamma)
        + np.einsum("pkkl,plji->pij", gamma, gamma)
        - np.einsum("pkjl,plki->pij", gamma, gamma)
    )
    ric = 0.5 * (ric + ric.swapaxes(-1, -2))
    scalar = np.einsum("pij,pij->p", ginv, ric)
    einstein_ = ric - 0.5 * scalar[:, None, None] * g
    return {"gamma": gamma, "dgamma": dgamma, "ricci": ric, "scalar": scalar, "einstein": einstein_}


@st.composite
def spd_jets(draw):
    """Batches of SPD metric jets with the symmetries of second partials, n in {3, 4, 5}."""
    n = draw(st.sampled_from([3, 4, 5]))
    p = draw(st.integers(1, 4))
    # subnormals carry too few significant digits for a 1e-12 relative comparison
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    a = draw(arrays(np.float64, (p, n, n), elements=unit))
    dg = draw(arrays(np.float64, (p, n, n, n), elements=unit))
    ddg = draw(arrays(np.float64, (p, n, n, n, n), elements=unit))
    g = np.eye(n) + a @ a.swapaxes(-1, -2) / n  # eigenvalues in [1, n + 1]
    dg = _sym2(dg)
    ddg = _sym2(0.5 * (ddg + ddg.transpose(0, 2, 1, 3, 4)))
    return g, dg, ddg


@settings(deadline=None)
@given(spd_jets())
def test_kernel_matches_five_index_reference(jets):
    g, dg, ddg = jets
    got = curvature_arrays(g, dg, ddg)
    # the formula for dgamma is pinned bit for bit on the kernel's own inverse,
    # the kernel's contractions to 1e-12 against LAPACK's
    assert np.array_equal(got.dgamma, reference_curvature(g, dg, ddg, got.ginv)["dgamma"])
    want = reference_curvature(g, dg, ddg, np.linalg.inv(g))
    # Relative to the larger of the result and the size of the terms it is summed
    # from, so that a curvature cancelling to near zero is not held to 1e-12 of itself.
    terms = np.abs(ddg).max() + np.abs(dg).max() ** 2
    for name in ("gamma", "ricci", "scalar", "einstein"):
        scale = max(np.abs(want[name]).max(), np.abs(dg).max() if name == "gamma" else terms)
        err = np.abs(getattr(got, name) - want[name]).max()
        assert err <= 1e-12 * scale, name
