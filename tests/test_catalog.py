import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import admflux.catalog as catalog_module
from admflux.analysis import sweep
from admflux.catalog import CatalogSpec, build
from admflux.curvature import curvature_arrays
from admflux.errors import ConfigError
from admflux.invariants import SurfaceEval, scalar_curvature_moment
from admflux.metric_field import decay_report, jet2_batch, parity_parts
from admflux.surfaces import sphere_quadrature

from conftest import sample_points
from test_oracles import KERR_SCHILD


class TestBuild:
    def test_flat_jets(self):
        field = build(CatalogSpec(kind="flat"))
        g, dg, ddg = jet2_batch(field, [[1.0, 2.0, 3.0]])
        assert np.array_equal(g[0], np.eye(3))
        assert not dg.any() and not ddg.any()
        assert field.metadata["expected_mass"] == 0.0
        assert field.inner_radius == 0

    def test_schwarzschild_metadata(self, catalog):
        meta = catalog["schwarzschild"].metadata
        assert meta["expected_mass"] == 1.0
        assert meta["scalar_flat"]
        assert catalog["schwarzschild"].inner_radius > 0
        assert np.array_equal(catalog["schwarzschild-translated"].metadata["expected_center"],
                              [1.0, 2.0, 3.0])

    def test_translation_is_composition(self, catalog, rng):
        centered = catalog["schwarzschild"]
        shifted = catalog["schwarzschild-translated"]
        c = np.array([1.0, 2.0, 3.0])
        pts = sample_points(rng, 10, r_min=10.0, r_max=40.0)
        for a, b in zip(jet2_batch(shifted, pts), jet2_batch(centered, pts - c)):
            assert np.array_equal(a, b)

    def test_schwarzschild_five_dimensional(self):
        # u = 1 + 1/(2 rho^3), metric u^(4/3) delta; flux mass m u^(1/3) -> m
        field = build(CatalogSpec(kind="schwarzschild", dim=5, mass=1.0))
        x = np.zeros((1, 5))
        x[0, 0] = 2.0
        u = 1 + 1 / (2 * 2.0**3)
        g, _, _ = jet2_batch(field, x)
        assert g[0, 0, 0] == pytest.approx(u ** (4.0 / 3.0), rel=1e-13)
        for r in (10.0, 100.0):
            got = SurfaceEval(field, sphere_quadrature(5, r, order=12)).value("adm_mass")
            expected = 1.0 * (1 + 1 / (2 * r**3)) ** (1.0 / 3.0)
            assert got == pytest.approx(expected, rel=1e-10)
        assert field.metadata["expected_mass"] == 1.0

    def test_positivity_probe_evaluates_u_alone(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the u > 0 probe formed the jets of u")

        monkeypatch.setattr(catalog_module, "_conformal_jets", forbidden)
        assert build(CatalogSpec(kind="schwarzschild", dim=6)).dim == 6
        with pytest.raises(ConfigError, match="not positive"):
            build(CatalogSpec(kind="conformal", u_coeffs=((1, -2.0),), inner_radius=1.0))

    def test_conformal_mass_metadata(self):
        field = build(CatalogSpec(kind="conformal", u_coeffs=((1, 1.0), (2, 1.0))))
        assert field.metadata["expected_mass"] == 2.0
        slow = build(CatalogSpec(kind="conformal", dim=5, u_coeffs=((1, 1.0),)))
        assert slow.metadata["expected_mass"] is None

    def test_repeated_power_adds_its_coefficients(self, rng):
        doubled = build(CatalogSpec(kind="conformal", u_coeffs=((1, 0.5), (1, 0.5))))
        single = build(CatalogSpec(kind="conformal", u_coeffs=((1, 1.0),)))
        assert doubled.metadata["expected_mass"] == 2.0
        assert doubled.inner_radius == 1.5
        points = sample_points(rng, 50)
        for got, want in zip(jet2_batch(doubled, points), jet2_batch(single, points)):
            assert np.array_equal(got, want)

    def test_harmonic_conformal_scalar_flat(self, rng):
        field = build(CatalogSpec(kind="conformal", u_coeffs=((1, 0.7),)))
        assert field.metadata["scalar_flat"]
        scalar = curvature_arrays(*jet2_batch(field, sample_points(rng, 100))).scalar
        assert np.all(np.abs(scalar) < 1e-9)

    def test_perturbed_inherits_base_smoothness(self, catalog):
        assert catalog["perturbed-gaussian"].inner_radius == 0
        bumped_schw = build(
            CatalogSpec(
                kind="perturbed",
                base=CatalogSpec(kind="schwarzschild", mass=1.0),
                bump_amplitude=0.01,
            )
        )
        assert bumped_schw.inner_radius > 0

    def test_perturbed_parity_parts(self, rng):
        for parity, sign in (("even", 1.0), ("odd", -1.0)):
            field = build(
                CatalogSpec(
                    kind="perturbed",
                    base=CatalogSpec(kind="flat"),
                    bump_amplitude=0.05,
                    bump_width=2.0,
                    bump_location=(4.0, 1.0, 0.0),
                    bump_parity=parity,
                )
            )
            pts = sample_points(rng, 5)
            here, _, _ = jet2_batch(field, pts)
            there, _, _ = jet2_batch(field, -pts)
            assert np.allclose(here - np.eye(3), sign * (there - np.eye(3)), atol=1e-15)

    @pytest.mark.parametrize("profile", ["gaussian", "rational"])
    def test_bump_too_wide_for_its_square_is_constant(self, rng, profile):
        spec = CatalogSpec(
            kind="perturbed", base=CatalogSpec(kind="flat"), bump_amplitude=0.05,
            bump_width=1e200, bump_profile=profile,
        )
        with np.errstate(over="ignore"):  # the square of the width is inf
            g, dg, ddg = jet2_batch(build(spec), sample_points(rng, 5))
        assert np.all(g == np.diag([1.05, 1.0, 1.0]))
        assert not dg.any() and not ddg.any()

    @pytest.mark.parametrize(
        "n, amplitude, width, parity, tail_power, mass",
        [
            (3, 0.05, 2.0, "none", 1, 1.0 + 0.05 * 2.0 / 6),
            (3, 0.08, 3.0, "even", 1, 1.04),
            (3, 0.05, 2.0, "odd", 1, 1.0),
            (3, 0.05, 2.0, "none", 2, 1.0),
            (4, 0.05, 2.0, "none", 2, 1.05),
            (4, 0.6, 0.7, "odd", 2, 1.0),
            (5, -0.3, 1.5, "even", 3, 1.0 - 3 * 0.3 * 1.5**3 / 10),
        ],
    )
    def test_rational_tail_of_power_n_minus_2_carries_mass(
        self, n, amplitude, width, parity, tail_power, mass
    ):
        # A (1 + |x - c|^2 / sigma^2)^(-k/2) has the tail A sigma^k |x|^-k; at k = n - 2
        # its even part adds (n - 2) A sigma^(n-2) / (2n) to the base's mass
        spec = CatalogSpec(
            kind="perturbed", dim=n, base=CatalogSpec(kind="schwarzschild", dim=n, mass=1.0),
            bump_amplitude=amplitude, bump_width=width, bump_location=(1.0, -0.5, 0.5),
            bump_profile="rational", bump_parity=parity, bump_tail_power=tail_power,
        )
        field = build(spec)
        assert field.metadata["expected_mass"] == pytest.approx(mass, rel=1e-15)
        radii = [100.0 * 2**k for k in range(9)]
        report = sweep(field, ["adm_mass"], radii, order=8)["adm_mass"]
        assert report.verdict
        assert abs(report.fitted_limit - mass) <= report.tolerance

    @pytest.mark.parametrize("parity, mass", [("none", np.inf), ("odd", 0.0)])
    def test_tail_mass_of_a_width_out_of_float_range_is_not_an_error(self, parity, mass):
        spec = CatalogSpec(
            kind="perturbed", dim=4, base=CatalogSpec(kind="flat", dim=4), bump_width=1e200,
            bump_profile="rational", bump_parity=parity, bump_tail_power=2,
        )
        with np.errstate(over="ignore"):  # sigma^2 overflows, as it does in the jets
            assert build(spec).metadata["expected_mass"] == mass

    def test_rational_tail_slower_than_n_minus_2_has_no_mass(self):
        for parity in ("none", "odd"):
            spec = CatalogSpec(
                kind="perturbed", dim=4, base=CatalogSpec(kind="schwarzschild", dim=4),
                bump_profile="rational", bump_parity=parity, bump_tail_power=1,
            )
            assert build(spec).metadata["expected_mass"] is None


class TestRtViolator:
    def test_decay_verdicts(self):
        field = build(CatalogSpec(kind="rt_violator", amplitude=0.5, label="rt-violator"))
        radii = [10.0, 10.0**1.5, 100.0, 10.0**2.5, 1000.0]
        odd = decay_report(field, radii)[1]
        assert not odd.ok
        # the weighted sup is constant by scale invariance of the deviation
        assert np.allclose(odd.sups[:, 0], 0.5, rtol=1e-12)
        assert decay_report(field, radii)[0].ok

    def test_flux_mass_vanishes_by_parity(self):
        field = build(CatalogSpec(kind="rt_violator", amplitude=0.5, label="rt-violator"))
        got = SurfaceEval(field, sphere_quadrature(3, 100.0, order=16)).value("adm_mass")
        assert abs(got) < 1e-13
        assert field.metadata["expected_mass"] == 0.0

    def test_dimension_guard(self):
        with pytest.raises(ConfigError):
            build(CatalogSpec(kind="rt_violator", dim=2))

    def test_bump_on_rt_violator_adds_to_its_g11(self, rng):
        base = CatalogSpec(kind="rt_violator", amplitude=0.5)
        spec = CatalogSpec(
            kind="perturbed", base=base, bump_profile="rational", bump_location=(3.0, -1.0, 2.0)
        )
        pts = sample_points(rng, 9)
        g, dg, ddg = jet2_batch(build(base), pts)
        v, dv, ddv = catalog_module._bump_jets(pts, spec)
        g[:, 0, 0] += v
        dg[:, :, 0, 0] += dv
        ddg[:, :, :, 0, 0] += ddv
        for got, want in zip(jet2_batch(build(spec), pts), (g, dg, ddg)):
            assert np.array_equal(got, want)


class TestCatalogWideProperties:
    def test_all_fields_satisfy_mass_hypothesis_decay(self, catalog):
        radii = [10.0, 10.0**1.5, 100.0, 10.0**2.5, 1000.0]
        for name, field in catalog.items():
            rep = decay_report(field, radii)[0]
            assert rep.ok, name

    def test_jets_vectorize_consistently(self, catalog, rng):
        pts = sample_points(rng, 7)
        for field in catalog.values():
            g, dg, ddg = jet2_batch(field, pts)
            assert g.shape == (7, 3, 3)
            assert dg.shape == (7, 3, 3, 3)
            assert ddg.shape == (7, 3, 3, 3, 3)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build(CatalogSpec(kind="kerr"))

    def test_dimension_too_small(self):
        with pytest.raises(ConfigError):
            build(CatalogSpec(kind="flat", dim=2))

    def test_inner_radius_probe_within_node_budget(self):
        # the order-8 probe has 2*9^5 nodes in R^6 and 2*9^6 > 10^6 in R^7
        assert build(CatalogSpec(kind="schwarzschild", dim=6)).dim == 6
        with pytest.raises(ConfigError, match=r"metric dim 7: .* 2\*9\^6 nodes"):
            build(CatalogSpec(kind="schwarzschild", dim=7))

    def test_conformal_needs_coefficients(self):
        with pytest.raises(ConfigError):
            build(CatalogSpec(kind="conformal"))

    def test_conformal_bad_power(self):
        with pytest.raises(ConfigError):
            build(CatalogSpec(kind="conformal", u_coeffs=((0, 1.0),)))

    def test_conformal_negative_factor(self):
        with pytest.raises(ConfigError):
            build(CatalogSpec(kind="conformal", u_coeffs=((1, -5.0),), inner_radius=1.0))

    def test_perturbed_needs_base(self):
        with pytest.raises(ConfigError):
            build(CatalogSpec(kind="perturbed"))

    def test_perturbed_amplitude_bound(self):
        with pytest.raises(ConfigError):
            build(
                CatalogSpec(
                    kind="perturbed", base=CatalogSpec(kind="flat"), bump_amplitude=1.5
                )
            )

    @pytest.mark.parametrize("power", [0, -2])
    def test_bump_tail_power_below_one(self, power):
        spec = CatalogSpec(kind="perturbed", base=CatalogSpec(kind="flat"), bump_tail_power=power)
        with pytest.raises(ConfigError, match="bump tail_power"):
            build(spec)


def reference_conformal_jets(points, coeffs, center, n):
    """Reference jets of ``u^(4/(n-2)) delta``, every entry broadcast against the identity.

    ``u`` and its derivatives are summed term by term from ``|y|``, then each
    jet is multiplied into ``np.eye(n)``: no slot is assumed zero.
    """
    y = points - center
    rho = np.linalg.norm(y, axis=1)
    eye = np.eye(n)
    u = np.ones(len(points))
    du = np.zeros_like(points)
    ddu = np.zeros((len(points), n, n))
    for k, a in coeffs:
        u += a * rho**(-k)
        du += -a * k * rho[:, None] ** (-k - 2) * y
        ddu += -a * k * (
            rho[:, None, None] ** (-k - 2) * eye
            - (k + 2) * rho[:, None, None] ** (-k - 4) * y[:, :, None] * y[:, None, :]
        )
    p = 4.0 / (n - 2)
    g = u[:, None, None] ** p * eye
    dg = p * u[:, None, None, None] ** (p - 1) * du[:, :, None, None] * eye
    dd = (
        p * (p - 1) * u[:, None, None] ** (p - 2) * du[:, :, None] * du[:, None, :]
        + p * u[:, None, None] ** (p - 1) * ddu
    )
    return g, dg, dd[:, :, :, None, None] * eye


@st.composite
def conformal_fields(draw):
    """A conformal spec (repeated powers allowed), its field and points outside its inner radius."""
    n = draw(st.sampled_from([3, 4, 5]))
    coeffs = tuple(draw(st.lists(
        # coefficients on a grid of 1e-4 in [-0.5, 1]: no subnormal jets
        st.tuples(st.integers(1, 4), st.integers(-5000, 10000).map(lambda i: i / 1e4)),
        min_size=1, max_size=4,
    )))
    center = tuple(draw(arrays(float, n, elements=st.floats(-4.0, 4.0))))
    spec = CatalogSpec(kind="conformal", dim=n, u_coeffs=coeffs, center=center)
    try:
        field = build(spec)
    except ConfigError:  # u not positive down to the default inner radius
        field = build(dataclasses.replace(spec, inner_radius=np.linalg.norm(center) + 10.0))
    dirs = draw(arrays(float, (6, n), elements=st.floats(-1.0, 1.0)).filter(
        lambda d: np.all(np.linalg.norm(d, axis=1) > 0.1)
    ))
    scale = draw(arrays(float, (6, 1), elements=st.floats(1.0, 50.0)))
    points = field.inner_radius * scale * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    return coeffs, np.array(center), field, points


@settings(deadline=None)
@given(conformal_fields())
def test_conformal_jets_match_broadcast_reference(case):
    coeffs, center, field, points = case
    n = field.dim
    jets = catalog_module._conformal_jets(points, coeffs, center, n)
    # terms of mixed sign cancel in both: the bound is on the size of the terms
    terms = reference_conformal_jets(points, [(k, abs(a)) for k, a in coeffs], center, n)
    off = ~np.eye(n, dtype=bool)
    for got, want, size in zip(jets, reference_conformal_jets(points, coeffs, center, n), terms):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * max(np.abs(want).max(), np.abs(size).max())
        assert not got[..., off].any()  # off-diagonal slots exactly zero
    for a, b in zip(jet2_batch(field, points), jet2_batch(field, points)):
        assert np.array_equal(a, b)


def reference_bump_jets_raw(points, spec):
    """Reference jets of the bump, each Hessian written out against ``np.eye(n)``."""
    y = points - catalog_module._padded(spec.bump_location, points.shape[1])
    sigma2 = np.float64(spec.bump_width) ** 2
    eye = np.eye(points.shape[1])
    if spec.bump_profile == "gaussian":
        v = spec.bump_amplitude * np.exp(-np.einsum("pi,pi->p", y, y) / (2 * sigma2))
        dv = -v[:, None] * y / sigma2
        ddv = v[:, None, None] * (y[:, :, None] * y[:, None, :] / sigma2**2 - eye / sigma2)
        return v, dv, ddv
    k = float(spec.bump_tail_power)
    q = 1.0 + np.einsum("pi,pi->p", y, y) / sigma2
    s = k / 2.0
    v = spec.bump_amplitude * q**(-s)
    dv = -spec.bump_amplitude * k / sigma2 * q[:, None] ** (-s - 1) * y
    ddv = spec.bump_amplitude * (
        k * (k + 2) / sigma2**2 * q[:, None, None] ** (-s - 2) * y[:, :, None] * y[:, None, :]
        - k / sigma2 * q[:, None, None] ** (-s - 1) * eye
    )
    return v, dv, ddv


def reference_rt_tail_jets(points, A):
    """Reference jets of ``A x^1 |x|^(-n/2 - 1)``, by the product rule on ``x^1`` and ``|x|``."""
    n = points.shape[1]
    p = n / 2.0 + 1.0
    r = np.linalg.norm(points, axis=1)
    x1 = points[:, 0]
    eye = np.eye(n)
    f = A * x1 * r**(-p)
    e1 = eye[0]
    df = A * (
        e1[None, :] * r[:, None] ** (-p) - p * x1[:, None] * points * r[:, None] ** (-p - 2)
    )
    ddf = A * (
        -p * r[:, None, None] ** (-p - 2)
        * (
            e1[None, :, None] * points[:, None, :]
            + e1[None, None, :] * points[:, :, None]
            + x1[:, None, None] * eye
        )
        + p * (p + 2) * x1[:, None, None] * points[:, :, None] * points[:, None, :]
        * r[:, None, None] ** (-p - 4)
    )
    return f, df, ddf


@settings(deadline=None)
@given(
    n=st.sampled_from([3, 4, 5]),
    profile=st.sampled_from(["gaussian", "rational"]),
    parity=st.sampled_from(["none", "even", "odd"]),
    tail_power=st.integers(1, 4),
    amplitude=st.floats(-0.9, 0.9),
    width=st.floats(0.3, 4.0),
    data=st.data(),
)
def test_g11_terms_match_hand_written_hessians(
    n, profile, parity, tail_power, amplitude, width, data
):
    spec = CatalogSpec(
        kind="perturbed", dim=n, bump_amplitude=amplitude, bump_width=width,
        bump_location=tuple(data.draw(arrays(float, n, elements=st.floats(-4.0, 4.0)))),
        bump_profile=profile, bump_parity=parity, bump_tail_power=tail_power,
    )
    count = data.draw(st.integers(1, 50))
    dirs = data.draw(arrays(float, (count, n), elements=st.floats(-1.0, 1.0)).filter(
        lambda d: np.all(np.linalg.norm(d, axis=1) > 0.1)
    ))
    scale = data.draw(arrays(float, (count, 1), elements=st.floats(1.0, 50.0)))
    points = scale * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    def assert_close(got, want, scales):
        for m, (a, b) in enumerate(zip(got, want)):
            assert a.shape == b.shape
            size = max(np.abs(jets[m]).max() for jets in scales)
            # below the normal range a float has no relative precision left
            assert np.abs(a - b).max() <= max(1e-14 * size, np.finfo(float).tiny)

    here, there = reference_bump_jets_raw(points, spec), reference_bump_jets_raw(-points, spec)
    want = here if parity == "none" else parity_parts(here, there)[parity == "odd"]
    # a parity part rounds on the scale of the bump at x and at -x
    assert_close(catalog_module._bump_jets(points, spec), want, (want, here, there))
    tail = reference_rt_tail_jets(points, amplitude)
    assert_close(catalog_module._rt_tail_jets(points, amplitude), tail, (tail,))


@pytest.mark.parametrize(
    "spec",
    [
        CatalogSpec(
            kind="perturbed", base=base, bump_profile=profile, bump_parity=parity,
            bump_location=(3.0, -1.0, 2.0), bump_width=1.5,
        )
        for base in (
            CatalogSpec(
                kind="conformal", u_coeffs=((1, 0.6), (2, 0.3), (3, -0.1)), center=(1.0, -0.5, 0.25)
            ),
            CatalogSpec(kind="rt_violator", amplitude=0.5),
        )
        for profile in ("gaussian", "rational")
        for parity in ("none", "even", "odd")
    ] + [CatalogSpec(kind="rt_violator", amplitude=0.5)],
    ids=lambda spec: "-".join(
        [spec.kind] + ([spec.base.kind, spec.bump_profile, spec.bump_parity] if spec.base else [])
    ),
)
def test_g11_term_added_in_place_matches_out_of_place_sum(rng, spec):
    field = build(spec)
    points = sample_points(rng, 40, r_min=field.inner_radius + 1.0, r_max=60.0)
    if spec.kind == "perturbed":
        base = build(spec.base)
        v, dv, ddv = catalog_module._bump_jets(points, spec)
    else:
        base = build(CatalogSpec(kind="flat"))
        v, dv, ddv = catalog_module._rt_tail_jets(points, spec.amplitude)
    pattern = np.zeros((3, 3))
    pattern[0, 0] = 1.0
    g, dg, ddg = base.jet_batch(points, 2)
    want = (
        g + v[:, None, None] * pattern,
        dg + dv[:, :, None, None] * pattern,
        ddg + ddv[:, :, :, None, None] * pattern,
    )
    first, second = field.jet_batch(points, 2), field.jet_batch(points, 2)
    for got, again, expected in zip(first, second, want):
        assert np.array_equal(got, expected)
        assert np.array_equal(got, again)


def layout_specs(n):
    """One spec of every kind in R^n, with each bump profile and parity."""
    conformal = CatalogSpec(
        kind="conformal", dim=n, u_coeffs=((n - 2, 0.6), (n - 1, 0.2)), center=(0.5, -0.2, 0.3)
    )
    return [
        CatalogSpec(kind="flat", dim=n),
        CatalogSpec(kind="schwarzschild", dim=n, mass=1.3, center=(0.5, 0.2)),
        conformal,
        CatalogSpec(kind="rt_violator", dim=n, amplitude=0.5),
    ] + [
        CatalogSpec(
            kind="perturbed", dim=n, base=conformal, bump_profile=profile, bump_parity=parity,
            bump_location=(3.0, -1.0, 2.0), bump_width=1.5,
        )
        for profile in ("gaussian", "rational")
        for parity in ("none", "even", "odd")
    ]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_jets_are_point_first_views_of_point_last_storage(rng, n):
    for spec in layout_specs(n):
        field = build(spec)
        points = sample_points(rng, 7, dim=n, r_min=field.inner_radius + 1.0)
        g, dg, ddg = jet2_batch(field, points)
        assert (g.shape, dg.shape, ddg.shape) == ((7, n, n), (7, n, n, n), (7, n, n, n, n))
        terms = ()
        if spec.kind == "perturbed":
            terms = catalog_module._bump_jets(points, spec)
        elif spec.kind == "rt_violator":
            terms = catalog_module._rt_tail_jets(points, spec.amplitude)
        for jet in (g, dg, ddg, *terms):
            assert np.moveaxis(jet, 0, -1).flags.c_contiguous, spec
        if terms:
            assert [t.shape for t in terms] == [(7,), (7, n), (7, n, n)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_kind_is_batch_invariant(rng, n):
    # each point's jets must not depend on the other points of the batch
    for spec in layout_specs(n):
        field = build(spec)
        for count in (7, 64, 400):
            points = sample_points(rng, count, dim=n, r_min=field.inner_radius + 1.0)
            batch = jet2_batch(field, points)
            for p in range(count):
                for many, one in zip(batch, jet2_batch(field, points[p:p + 1])):
                    assert np.array_equal(many[p], one[0]), (spec, count, p)


def point_first_copy(field):
    """``field`` with its jets copied into contiguous point-first arrays."""
    return dataclasses.replace(
        field,
        jet_batch=lambda points, k: tuple(np.ascontiguousarray(a) for a in field.jet_batch(points, k)),
    )


@pytest.mark.parametrize("index", [2, 3, 5])  # conformal, rt_violator, even gaussian bump
def test_point_first_storage_gives_the_same_totals(index):
    field = build(layout_specs(3)[index])
    copied = point_first_copy(field)
    assert not np.moveaxis(copied.jet_batch(np.ones((2, 3)) * 9.0, 2)[2], 0, -1).flags.c_contiguous
    surf = sphere_quadrature(3, 40.0, 16)
    for name in ("adm_mass", "cs_center", "intrinsic_mass", "intrinsic_center"):
        got, want = (SurfaceEval(f, surf).totals([name])[name] for f in (copied, field))
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), name
    r0 = field.inner_radius + 1.0
    got, want = (scalar_curvature_moment(f, [r0, r0 + 5.0], 1)[0] for f in (copied, field))
    assert abs(got.value - want.value) <= 1e-13 * abs(want.value)
    assert got.order == want.order and got.stalled == want.stalled


def point_first_curvature_totals(field, surf):
    """The curvature totals from one kernel call, with the metric normal, its
    weight and ``G(., nu_g)`` contracted node by node on point-first arrays."""
    bundle = curvature_arrays(*jet2_batch(field, surf.points))
    x, nu = surf.points, surf.normals
    q = np.einsum("pkl,pk,pl->p", bundle.ginv, nu, nu)
    nu_g = np.einsum("pij,pj->pi", bundle.ginv, nu) / np.sqrt(q)[:, None]
    w_g = surf.weights * np.sqrt(bundle.det) * np.sqrt(q)
    e_nu = np.einsum("pij,pj->pi", bundle.einstein, nu_g)
    radial = np.einsum("pi,pi->p", x, e_nu)
    generators = np.einsum("pi,pi->p", x, x)[:, None] * e_nu - 2.0 * x * radial[:, None]
    return math.fsum(radial * w_g), np.array([math.fsum(row) for row in (generators * w_g[:, None]).T])


@pytest.mark.parametrize("radius", [40.0, 400.0])
def test_kerr_schild_curvature_totals_match_the_point_first_formula(radius):
    # off-diagonal jets, stored point-first: every contraction of the metric
    # frame sums nonzero products, in another order than point-first
    surf = sphere_quadrature(3, radius, 16)
    mass, center = point_first_curvature_totals(KERR_SCHILD, surf)
    got = SurfaceEval(KERR_SCHILD, surf).totals(["intrinsic_mass", "intrinsic_center"])
    assert abs(got["intrinsic_mass"] - mass) <= 1e-14 * abs(mass)
    assert np.max(np.abs(got["intrinsic_center"] - center)) <= 1e-14 * np.max(np.abs(center))
