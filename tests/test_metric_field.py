import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admflux import metric_field
from admflux.catalog import CatalogSpec, build
from admflux.errors import DomainError, NonFiniteError
from admflux.metric_field import (
    MetricField,
    decay_report,
    fd_jet2,
    jet2_batch,
    parity_parts,
)

from admflux.surfaces import unit_sphere_rule

from conftest import decay_verdicts, metric_values, sample_points, surface_value


def max_asymmetry(a, *axes):
    """Largest change of ``a`` under the axis permutation ``axes``."""
    return np.max(np.abs(a - a.transpose(*axes)), axis=tuple(range(1, a.ndim)))


class TestJet2:
    def test_flat(self, catalog):
        g, dg, ddg = jet2_batch(catalog["flat"], [[2.0, 0.0, 0.0]])
        assert np.array_equal(g[0], np.eye(3))
        assert not dg.any()
        assert not ddg.any()

    def test_schwarzschild_value(self, catalog):
        # u = 1 + 1/(2*2) = 1.25, g11 = u^4
        g, _, _ = jet2_batch(catalog["schwarzschild"], [[2.0, 0.0, 0.0]])
        assert g[0, 0, 0] == pytest.approx(1.25**4, rel=1e-14)
        assert g[0, 0, 0] == pytest.approx(2.44140625, rel=1e-14)

    def test_domain_error(self):
        field = build(CatalogSpec(kind="schwarzschild", mass=1.0, inner_radius=1.0))
        with pytest.raises(DomainError):
            jet2_batch(field, [[5.0, 0.0, 0.0], [0.5, 0.0, 0.0]])

    @pytest.mark.parametrize("part", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_jets_name_field_and_radius(self, catalog, part, bad):
        base = catalog["schwarzschild"]

        def spoiled(points, derivatives):
            jets = [a.copy() for a in base.jet_batch(points, 2)]
            jets[part][1:][..., 0, 0] = bad
            return tuple(jets)

        field = dataclasses.replace(base, jet_batch=spoiled)
        with pytest.raises(NonFiniteError, match="'schwarzschild' at radius 20"):
            jet2_batch(field, [[10.0, 0.0, 0.0], [0.0, 20.0, 0.0], [0.0, 0.0, 30.0]])

    def test_symmetry_invariants_hold(self, catalog, rng):
        pts = sample_points(rng, 25)
        for name, field in catalog.items():
            g, dg, ddg = jet2_batch(field, pts)
            assert g.shape == (25, 3, 3) and dg.shape == (25, 3, 3, 3), name
            assert ddg.shape == (25, 3, 3, 3, 3), name
            tol = 1e-10
            assert np.all(max_asymmetry(g, 0, 2, 1) <= tol * (1 + np.abs(g).max(axis=(1, 2)))), name
            dg_scale = 1 + np.abs(dg).max(axis=(1, 2, 3))
            assert np.all(max_asymmetry(dg, 0, 1, 3, 2) <= tol * dg_scale), name
            ddg_scale = 1 + np.abs(ddg).max(axis=(1, 2, 3, 4))
            assert np.all(max_asymmetry(ddg, 0, 1, 2, 4, 3) <= tol * ddg_scale), name
            assert np.all(max_asymmetry(ddg, 0, 2, 1, 3, 4) <= tol * ddg_scale), name
            assert np.all(np.linalg.eigvalsh(g) > 0), name

    def test_batch_matches_pointwise(self, catalog, rng):
        pts = sample_points(rng, 10)
        for field in catalog.values():
            g, dg, ddg = jet2_batch(field, pts)
            for i, x in enumerate(pts):
                gx, dgx, ddgx = jet2_batch(field, x[None])
                assert np.allclose(g[i], gx[0], atol=1e-15)
                assert np.allclose(dg[i], dgx[0], atol=1e-15)
                assert np.allclose(ddg[i], ddgx[0], atol=1e-15)


def pointwise_fd_jet2(values, x, h):
    """Reference: the central-difference stencils one point at a time."""
    n = x.size

    def at(y):
        return values(y[None])[0]

    offs = h * np.eye(n)
    g0 = at(x)
    dg, ddg = np.empty((n, n, n)), np.empty((n, n, n, n))
    for k in range(n):
        gp, gm = at(x + offs[k]), at(x - offs[k])
        dg[k] = (gp - gm) / (2 * h)
        ddg[k, k] = (gp - 2 * g0 + gm) / h**2
    for k in range(n):
        for l in range(k + 1, n):
            ddg[k, l] = ddg[l, k] = (
                at(x + offs[k] + offs[l]) - at(x + offs[k] - offs[l])
                - at(x - offs[k] + offs[l]) + at(x - offs[k] - offs[l])
            ) / (4 * h**2)
    return g0, dg, ddg


class TestFdJet2:
    def test_matches_pointwise_stencils(self, catalog, rng):
        pts = sample_points(rng, 10)
        for name, field in catalog.items():
            values = metric_values(field)
            for h in (1e-2, 5e-3):
                batched = fd_jet2(values, pts, h=h)
                for i, x in enumerate(pts):
                    for got, want in zip(batched, pointwise_fd_jet2(values, x, h)):
                        assert np.array_equal(got[i], want), (name, h)

    def test_flat(self, catalog):
        _, dg, ddg = fd_jet2(metric_values(catalog["flat"]), [[3.0, 1.0, -2.0]], h=1e-3)
        assert np.max(np.abs(dg)) < 1e-12
        assert np.max(np.abs(ddg)) < 1e-9

    def test_schwarzschild_first_derivatives(self, catalog):
        x = np.array([[10.0, 0.0, 0.0]])
        _, dg, _ = fd_jet2(metric_values(catalog["schwarzschild"]), x, h=1e-3)
        _, exact, _ = jet2_batch(catalog["schwarzschild"], x)
        assert np.max(np.abs(dg - exact)) < 1e-7

    def test_quadratic_exactness(self):
        # g_11 = 1 + x1^2: second differences are exact on quadratics
        def values(points):
            g = np.eye(3)[None].repeat(len(points), axis=0)
            g[:, 0, 0] += points[:, 0] ** 2
            return g

        _, _, ddg = fd_jet2(values, np.zeros((1, 3)), h=0.1)
        assert ddg[0, 0, 0, 0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_first_order_takes_the_axis_stencil_only(self, catalog, rng):
        pts = sample_points(rng, 10)
        for name, field in catalog.items():
            values, asked = metric_values(field), []

            def recording(points):
                asked.append(len(points))
                return values(points)

            for h in (None, 1e-2):
                first, full = fd_jet2(recording, pts, h=h, derivatives=1), fd_jet2(values, pts, h=h)
                assert len(first) == 2 and asked[-1] == 7 * len(pts), name
                for got, want in zip(first, full):
                    assert np.array_equal(got, want), (name, h)

    def test_nonpositive_step(self, catalog):
        with pytest.raises(ValueError):
            fd_jet2(metric_values(catalog["flat"]), np.zeros((1, 3)), h=0.0)

    def test_values_only_field_supports_functionals(self, catalog):
        # a metric handed over without analytic jets still feeds the integrals
        from admflux.surfaces import sphere_quadrature

        values = metric_values(catalog["schwarzschild"])
        fd_field = MetricField(3, lambda points, k: fd_jet2(values, points, derivatives=k), inner_radius=1.0)
        surf = sphere_quadrature(3, 100.0, order=8)
        exact = surface_value(catalog["schwarzschild"], surf, "adm_mass")
        assert surface_value(fd_field, surf, "adm_mass") == pytest.approx(exact, abs=1e-7)

    def test_halving_reduces_error(self, catalog, rng):
        pts = sample_points(rng, 100)
        for name, field in catalog.items():
            values = metric_values(field)
            _, dg, ddg = jet2_batch(field, pts)
            errs = {}
            for h in (1e-2, 5e-3):
                _, fd_dg, fd_ddg = fd_jet2(values, pts, h=h)
                errs[h] = max(float(np.max(np.abs(fd_dg - dg))), float(np.max(np.abs(fd_ddg - ddg))))
            if errs[1e-2] < 1e-12:  # flat: nothing to reduce
                continue
            assert errs[1e-2] / errs[5e-3] >= 3.5, name


def parity_split(field, pts):
    """Even and odd parts of ``field``'s jets at ``pts``."""
    pts = np.asarray(pts, dtype=float)
    return parity_parts(jet2_batch(field, pts), jet2_batch(field, -pts))


class TestParitySplit:
    def test_reconstruction(self, catalog, rng):
        pts = sample_points(rng, 100)[:20]
        for field in catalog.values():
            even, odd = parity_split(field, pts)
            for e, o, exact in zip(even, odd, jet2_batch(field, pts)):
                assert np.allclose(e + o, exact, atol=1e-15)

    def test_flat_odd_zero(self, catalog):
        _, (g_odd, _, _) = parity_split(catalog["flat"], [[4.0, -1.0, 2.0]])
        assert not g_odd.any()

    def test_centered_schwarzschild_odd_zero(self, catalog):
        # |x| = |-x|, so the radial metric has no odd part
        _, (g_odd, _, _) = parity_split(catalog["schwarzschild"], [[5.0, 2.0, -1.0]])
        assert np.max(np.abs(g_odd)) < 1e-15

    def test_translated_closed_form(self):
        # center (1,0,0): |x - c| = 9 and |-x - c| = 11 at x = (10,0,0)
        field = build(CatalogSpec(kind="schwarzschild", mass=1.0, center=(1.0, 0.0, 0.0)))
        _, (g_odd, _, _) = parity_split(field, [[10.0, 0.0, 0.0]])
        expected = 0.5 * ((1 + 1 / 18) ** 4 - (1 + 1 / 22) ** 4)
        assert g_odd[0, 0, 0] == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.0234207, abs=5e-7)

    def test_odd_antisymmetry(self, catalog, rng):
        pts = sample_points(rng, 10)
        for field in catalog.values():
            _, (odd_here, _, _) = parity_split(field, pts)
            _, (odd_there, _, _) = parity_split(field, -pts)
            assert np.allclose(odd_here, -odd_there, atol=1e-15)

    @pytest.mark.parametrize("name", ["schwarzschild-translated", "perturbed-tail", "rt-violator"])
    def test_part_derivatives_differentiate_the_parts(self, catalog, rng, name):
        field = catalog[name]
        pts = sample_points(rng, 20)
        for which in (0, 1):  # even, odd
            _, dg, ddg = parity_split(field, pts)[which]
            _, fd_dg, fd_ddg = fd_jet2(lambda x: parity_split(field, x)[which][0], pts, h=1e-3)
            assert np.max(np.abs(fd_dg - dg)) <= 1e-6 * (1 + np.max(np.abs(dg))), which
            assert np.max(np.abs(fd_ddg - ddg)) <= 1e-4 * (1 + np.max(np.abs(ddg))), which


class TestDecayReport:
    RADII = [10.0, 10.0**1.5, 100.0, 10.0**2.5, 1000.0]

    def test_flat_all_zero(self, catalog):
        assert not decay_report(catalog["flat"], self.RADII)["all"].any()
        assert decay_verdicts(catalog["flat"], self.RADII)["decay_all"].verdict

    def test_a_nan_radius_is_outside_the_domain(self, catalog):
        with pytest.raises(DomainError, match="non-finite point"):
            decay_report(catalog["schwarzschild"], [10.0, 20.0, np.nan, 40.0])

    def test_schwarzschild_leading_order(self, catalog):
        # h ~ (2m/r) delta to leading order, so sup0 ~ 2 r^(-1/2) at tau = 1/2
        assert decay_verdicts(catalog["schwarzschild"], self.RADII)["decay_all"].verdict
        sups = decay_report(catalog["schwarzschild"], self.RADII)["all"]
        assert sups[-1, 0] == pytest.approx(2.0 / np.sqrt(1000.0), rel=1e-2)

    def test_translated_parity_decay(self, catalog):
        # odd part is the dipole term, O(r^-2) = o(r^-3/2)
        assert decay_verdicts(catalog["schwarzschild-translated"], self.RADII)["decay_odd"].verdict

    def test_both_hypotheses_from_one_walk(self, catalog, monkeypatch):
        sizes = []
        real = metric_field.jet2_batch

        def counting(field, points, derivatives=2):
            sizes.append(len(points))
            return real(field, points, derivatives)

        monkeypatch.setattr(metric_field, "jet2_batch", counting)
        sups = decay_report(catalog["schwarzschild-translated"], self.RADII)
        assert list(sups) == ["all", "odd"]
        assert all(s.shape == (len(self.RADII), 3) for s in sups.values())
        # one grid per radius, its own reflection: the order-8 rule's 162 nodes in R^3
        assert sizes == [len(unit_sphere_rule(3, 8)[0])] * len(self.RADII) == [162] * 5

    def test_one_field_evaluation_per_radius(self, catalog):
        calls = []
        base = catalog["perturbed-tail"]

        def counting(points, derivatives):
            calls.append(points.copy())
            return base.jet_batch(points, derivatives)

        decay_report(dataclasses.replace(base, jet_batch=counting), self.RADII)
        half = unit_sphere_rule(3, 8)[0][:81]
        assert len(calls) == len(self.RADII)
        for r, points in zip(self.RADII, calls):
            assert np.array_equal(points, r * np.concatenate([half, -half]))

    def test_empty_radii(self, catalog):
        with pytest.raises(ValueError):
            decay_report(catalog["flat"], [])

    def test_nonincreasing_radii(self, catalog):
        with pytest.raises(ValueError):
            decay_report(catalog["flat"], [10.0, 10.0])

    def test_radius_below_inner(self, catalog):
        with pytest.raises(DomainError):
            decay_report(catalog["schwarzschild"], [0.5, 10.0])


def reference_sups(field, radii):
    """The decay sups one formula at a time: point-first jets of the grid ``r * [half, -half]``
    and, in two more evaluations, of ``half`` and its reflection, split by :func:`parity_parts`."""
    n = field.dim
    dirs, _ = unit_sphere_rule(n, 8)
    half = dirs[: len(dirs) // 2]
    taus = {"all": (n - 2) / 2.0, "odd": n / 2.0}
    sups = {part: np.zeros((len(radii), 3)) for part in taus}
    for a, r in enumerate(radii):
        g, dg, ddg = jet2_batch(field, r * np.concatenate([half, -half]))
        _, odd = parity_parts(jet2_batch(field, r * half), jet2_batch(field, -r * half))
        for part, h in (("all", (g - np.eye(n), dg, ddg)), ("odd", odd)):
            sups[part][a] = [r ** (m + taus[part]) * np.max(np.abs(d)) for m, d in enumerate(h)]
    return sups


def decay_specs(n):
    """Every catalog kind in R^n, each bump profile and parity on a translated base."""
    center = (1.0, -2.0, 0.5, 0.25)[:n]
    base = CatalogSpec(kind="schwarzschild", dim=n, mass=1.3, center=center)
    specs = [
        CatalogSpec(kind="flat", dim=n),
        base,
        CatalogSpec(kind="conformal", dim=n, u_coeffs=((1, 0.6), (n - 2, 0.3), (n, -0.1)), center=center),
        CatalogSpec(kind="rt_violator", dim=n, amplitude=0.5),
    ]
    for profile in ("gaussian", "rational"):
        for parity in ("none", "even", "odd"):
            specs.append(CatalogSpec(
                kind="perturbed", dim=n, base=base, bump_profile=profile, bump_parity=parity,
                bump_location=(3.0, -1.0, 2.0, 1.0)[:n], bump_tail_power=n,
            ))
    return specs


@pytest.mark.parametrize("n", [3, 4])
def test_decay_sups_match_the_point_first_parity_parts(n):
    radii = [20.0, 40.0, 80.0, 160.0]
    for spec in decay_specs(n):
        field = build(spec)
        want = reference_sups(field, radii)
        for part, sups in decay_report(field, radii).items():
            assert np.array_equal(sups, want[part]), (spec, part)


def spoil(base, part, entry, bad):
    """``base`` with one jet entry (flat index ``entry`` of array ``part``) replaced by ``bad``."""

    def jets(points, derivatives):
        out = [np.ascontiguousarray(a) for a in base.jet_batch(points, 2)]
        out[part].reshape(-1)[entry % out[part].size] = bad
        return tuple(out)

    return dataclasses.replace(base, jet_batch=jets)


POINTS = np.array([[10.0, 0.0, 0.0], [0.0, 20.0, 0.0], [0.0, 0.0, 30.0], [24.0, -32.0, 0.0]])


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2), st.integers(0, 10**6), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_any_non_finite_entry_names_its_radius(catalog, part, entry, bad):
    field = spoil(catalog["schwarzschild-translated"], part, entry, bad)
    size = len(POINTS) * 3 ** (part + 2)
    radius = np.linalg.norm(POINTS[entry % size // (size // len(POINTS))])
    with pytest.raises(NonFiniteError, match=f"at radius {radius:.6g}$"):
        jet2_batch(field, POINTS)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.sampled_from([1e308, -1e308, 1.0, 0.0]), min_size=3, max_size=3))
def test_finite_jets_whose_sums_overflow_pass(catalog, signs):
    def huge(points, derivatives):
        return tuple(np.full((len(points),) + (3,) * (k + 2), signs[k]) for k in range(3))

    field = dataclasses.replace(catalog["flat"], jet_batch=huge)
    g, dg, ddg = jet2_batch(field, POINTS)
    assert g[0, 0, 0] == signs[0] and ddg[-1, 2, 2, 2, 2] == signs[2]


@settings(deadline=None, max_examples=60)
@given(
    st.floats(0.5, 50.0),
    st.floats(0.0, 1.0 - 1e-11),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda d: np.linalg.norm(d) > 0.1),
)
def test_a_point_inside_the_inner_radius_names_its_radius(inner, fraction, direction):
    field = build(CatalogSpec(kind="schwarzschild", mass=0.1, inner_radius=inner))
    point = np.asarray(direction) / np.linalg.norm(direction) * (fraction * inner)
    radius = float(np.linalg.norm(point))
    if radius >= inner * (1 - 1e-12):
        return  # the unit vector's rounding put the point on the bound
    points = np.array([[2.0 * inner, 0.0, 0.0], point, [0.0, 3.0 * inner, 0.0]])
    with pytest.raises(DomainError, match=f"point at radius {radius:.6g} lies inside"):
        jet2_batch(field, points)
    jet2_batch(field, points[[0, 2]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_point_is_outside_the_domain(catalog, bad):
    def never(points, derivatives):
        raise AssertionError("field called on a non-finite point")

    field = dataclasses.replace(catalog["schwarzschild"], jet_batch=never)
    with pytest.raises(DomainError, match="non-finite point .* field 'schwarzschild'"):
        jet2_batch(field, np.array([[10.0, 0.0, 0.0], [bad, 0.0, 0.0]]))
    with pytest.raises(DomainError):
        jet2_batch(field, [bad, 0.0, 0.0])


@pytest.mark.parametrize("shift", [-1e-13, -1e-14, 1e-14, 1e-13])
def test_the_domain_bound_is_inner_radius_less_its_margin(shift):
    field = build(CatalogSpec(kind="schwarzschild", mass=0.1, inner_radius=3.0))
    point = np.array([[1.2, -1.6, 2.0]]) * (1 - 1e-12 + shift) * 3.0 / np.sqrt(8.0)
    if shift < 0:
        with pytest.raises(DomainError):
            jet2_batch(field, point)
    else:
        jet2_batch(field, point)

