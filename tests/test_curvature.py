import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from admflux.curvature import (
    christoffel,
    curvature_arrays,
    curvature_bundle,
    einstein,
    linearized_scalar,
    ricci,
    scalar_curvature,
)
from admflux.errors import SingularMetricError
from admflux.metric_field import MetricField, MetricJet2, fd_jet2

from conftest import metric_values, sample_points


def flat_jet(n=3):
    return MetricJet2(dim=n, g=np.eye(n), dg=np.zeros((n, n, n)), ddg=np.zeros((n, n, n, n)))


def random_jet(rng, n=3, scale=0.2):
    """Random jet with the right symmetries and an SPD metric value."""
    g = np.eye(n) + scale * _sym2(rng.normal(size=(n, n)))
    dg = scale * _sym2(rng.normal(size=(n, n, n)))
    ddg = rng.normal(size=(n, n, n, n))
    ddg = 0.5 * (ddg + ddg.transpose(1, 0, 2, 3))
    ddg = scale * 0.5 * (ddg + ddg.transpose(0, 1, 3, 2))
    return MetricJet2(dim=n, g=g, dg=dg, ddg=ddg)


def _sym2(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


class TestFlat:
    def test_all_zero(self):
        jet = flat_jet()
        gamma, dgamma = christoffel(jet)
        assert not gamma.any() and not dgamma.any()
        assert not ricci(jet).any()
        assert scalar_curvature(jet) == 0.0
        assert not einstein(jet).any()
        assert linearized_scalar(jet) == 0.0


class TestChristoffel:
    def test_conformal_value(self, catalog):
        # g = u^4 delta with u = 1 + 1/(2r): Gamma^1_11 = 2 u_,1 / u = -1/5 at (2,0,0)
        jet = catalog["schwarzschild"].jet_at(np.array([2.0, 0.0, 0.0]))
        gamma, _ = christoffel(jet)
        assert gamma[0, 0, 0] == pytest.approx(-0.2, rel=1e-13)

    def test_conformal_closed_form(self, catalog, rng):
        # for g = u^4 delta (n=3): Gamma^k_ij = 2/u (u_i d^k_j + u_j d^k_i - u_s d^ks d_ij)
        field = catalog["schwarzschild"]
        for x in sample_points(rng, 10):
            rho = np.linalg.norm(x)
            u = 1 + 0.5 / rho
            du = -0.5 * x / rho**3
            expected = (2 / u) * (
                np.einsum("i,kj->kij", du, np.eye(3))
                + np.einsum("j,ki->kij", du, np.eye(3))
                - np.einsum("k,ij->kij", du, np.eye(3))
            )
            gamma, _ = christoffel(field.jet_at(x))
            assert np.allclose(gamma, expected, atol=1e-13)

    def test_lower_index_symmetry(self, rng):
        for _ in range(20):
            gamma, dgamma = christoffel(random_jet(rng))
            assert np.allclose(gamma, gamma.transpose(0, 2, 1), atol=1e-13)
            assert np.allclose(dgamma, dgamma.transpose(0, 1, 3, 2), atol=1e-13)


class TestRicciAndScalar:
    def test_schwarzschild_scalar_flat(self, catalog, rng):
        # harmonic conformal factor: the slice is scalar-flat
        field = catalog["schwarzschild"]
        for x in sample_points(rng, 20):
            jet = field.jet_at(x)
            ric = ricci(jet)
            assert ric.any()  # curvature itself is nonzero
            assert abs(scalar_curvature(jet)) < 1e-10
            assert abs(np.einsum("ij,ij->", curvature_bundle(jet).ginv, ric)) < 1e-10

    def test_schwarzschild_einstein_equals_ricci(self, catalog):
        jet = catalog["schwarzschild"].jet_at(np.array([7.0, -2.0, 1.0]))
        assert np.allclose(einstein(jet), ricci(jet), atol=1e-10)

    def test_einstein_trace_identity(self, rng):
        # g-trace of (Ric - R/2 g) equals (1 - n/2) R
        for n in (3, 4, 5):
            for _ in range(10):
                jet = random_jet(rng, n=n)
                b = curvature_bundle(jet)
                tr = float(np.einsum("ij,ij->", b.ginv, b.einstein))
                expect = (1 - n / 2) * b.scalar
                assert tr == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_conformal_laplacian_identity(self, catalog, rng):
        # R = -8 u^-5 lap(u) for g = u^4 delta in three dimensions;
        # u = 1 + 1/rho + 1/rho^2 has lap(u) = 2 / rho^4
        field = catalog["conformal"]
        for x in sample_points(rng, 100):
            rho = np.linalg.norm(x)
            u = 1 + 1 / rho + 1 / rho**2
            expected = -8.0 * u**-5 * (2.0 / rho**4)
            got = scalar_curvature(field.jet_at(x))
            assert got == pytest.approx(expected, rel=1e-9)

    def test_conformal_value_frozen(self, catalog):
        # at (5,0,0): u = 1.24, R = -8 * 1.24^-5 * 2/625
        got = scalar_curvature(catalog["conformal"].jet_at(np.array([5.0, 0.0, 0.0])))
        assert got == pytest.approx(-8.0 * 1.24**-5 * (2.0 / 625.0), rel=1e-12)

    def test_ricci_decay_rate(self, catalog):
        # max|R_ij| ~ 2m/r^3, so r^(5/2) max|R_ij| decreases
        field = catalog["schwarzschild"]
        vals = []
        for r in (10.0, 100.0, 1000.0):
            ric = ricci(field.jet_at(np.array([r, 0.0, 0.0])))
            vals.append(np.max(np.abs(ric)))
        assert vals[1] == pytest.approx(vals[0] * 1e-3, rel=0.2)
        weighted = [r**2.5 * v for r, v in zip((10.0, 100.0, 1000.0), vals)]
        assert weighted[0] > weighted[1] > weighted[2]


class TestLinearizedScalar:
    def test_zero_without_second_derivatives(self, rng):
        jet = random_jet(rng)
        jet = MetricJet2(dim=3, g=jet.g, dg=jet.dg, ddg=np.zeros((3, 3, 3, 3)))
        assert linearized_scalar(jet) == 0.0

    def test_remainder_is_quadratic(self, catalog):
        # |linearized - full| is O(r^-4) while the curvature itself is O(r^-3)
        field = catalog["schwarzschild"]
        errs = {}
        for r in (10.0, 100.0, 1000.0):
            jet = field.jet_at(np.array([r, 0.0, 0.0]))
            errs[r] = abs(linearized_scalar(jet) - scalar_curvature(jet))
        assert errs[100.0] / errs[10.0] < 1.5e-4 * 1.5
        assert errs[1000.0] / errs[100.0] < 1.5e-4 * 1.5
        bound = errs[10.0] * 10.0**4
        assert errs[100.0] <= 1.1 * bound * 100.0**-4
        assert errs[1000.0] <= 1.1 * bound * 1000.0**-4


class TestAgainstFiniteDifferences:
    def test_ricci_from_fd_jets(self, catalog, rng):
        pts = sample_points(rng, 20)
        for name, field in catalog.items():
            values = metric_values(field)
            errs = {}
            for h in (1e-2, 5e-3):
                worst = 0.0
                for x in pts:
                    fd = fd_jet2(values, x, h=h)
                    diff = ricci(fd) - ricci(field.jet_at(x))
                    worst = max(worst, float(np.max(np.abs(diff))))
                errs[h] = worst
            if errs[1e-2] < 1e-9:  # differencing noise floor, nothing to reduce
                continue
            assert errs[1e-2] / errs[5e-3] >= 3.4, name


def reflected(field: MetricField) -> MetricField:
    """Pullback of the field under x -> -x; first derivatives flip sign."""

    def jet_at(x):
        jet = field.jet_at(-np.asarray(x, dtype=float))
        return MetricJet2(dim=jet.dim, g=jet.g, dg=-jet.dg, ddg=jet.ddg)

    return MetricField(dim=field.dim, jet_at=jet_at, inner_radius=field.inner_radius)


class TestReflectionEquivariance:
    @pytest.mark.parametrize("name", ["schwarzschild-translated", "perturbed-tail"])
    def test_ricci_equivariant(self, catalog, rng, name):
        field = catalog[name]
        mirror = reflected(field)
        for x in sample_points(rng, 10):
            got = ricci(mirror.jet_at(x))
            expected = ricci(field.jet_at(-x))
            assert np.allclose(got, expected, atol=1e-13)
            assert scalar_curvature(mirror.jet_at(x)) == pytest.approx(
                scalar_curvature(field.jet_at(-x)), abs=1e-13
            )


def test_singular_metric_rejected():
    g = np.diag([1.0, 1.0, 1e-15])
    jet = MetricJet2(dim=3, g=g, dg=np.zeros((3, 3, 3)), ddg=np.zeros((3, 3, 3, 3)))
    with pytest.raises(SingularMetricError):
        ricci(jet)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_metric_rejected(bad):
    g = np.eye(3)[None].repeat(2, axis=0)
    g[1, 2, 2] = bad
    with pytest.raises(SingularMetricError, match="non-finite"):
        curvature_arrays(g, np.zeros((2, 3, 3, 3)), np.zeros((2, 3, 3, 3, 3)))


def reference_curvature(g, dg, ddg):
    """Reference oracle: the kernel's formulas through the full 5-index ``dgamma``."""
    ginv = np.linalg.inv(g)
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
    want = reference_curvature(g, dg, ddg)
    assert np.array_equal(got.dgamma, want["dgamma"])
    # Relative to the larger of the result and the size of the terms it is summed
    # from, so that a curvature cancelling to near zero is not held to 1e-12 of itself.
    terms = np.abs(ddg).max() + np.abs(dg).max() ** 2
    for name in ("gamma", "ricci", "scalar", "einstein"):
        scale = max(np.abs(want[name]).max(), np.abs(dg).max() if name == "gamma" else terms)
        err = np.abs(getattr(got, name) - want[name]).max()
        assert err <= 1e-12 * scale, name
