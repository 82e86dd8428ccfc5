import numpy as np
import pytest

from admflux.catalog import CatalogSpec, build
from admflux.errors import DomainError
from admflux.metric_field import (
    MetricJet2,
    decay_report,
    decreasing_to_zero,
    fd_jet2,
    field_from_values,
    jet2,
    jet2_batch,
    parity_split,
)

from conftest import metric_values, sample_points


class TestJet2:
    def test_flat(self, catalog):
        jet = jet2(catalog["flat"], np.array([2.0, 0.0, 0.0]))
        assert np.array_equal(jet.g, np.eye(3))
        assert not jet.dg.any()
        assert not jet.ddg.any()

    def test_schwarzschild_value(self, catalog):
        # u = 1 + 1/(2*2) = 1.25, g11 = u^4
        jet = jet2(catalog["schwarzschild"], np.array([2.0, 0.0, 0.0]))
        assert jet.g[0, 0] == pytest.approx(1.25**4, rel=1e-14)
        assert jet.g[0, 0] == pytest.approx(2.44140625, rel=1e-14)

    def test_domain_error(self):
        field = build(CatalogSpec(kind="schwarzschild", mass=1.0, inner_radius=1.0))
        with pytest.raises(DomainError):
            jet2(field, np.array([0.5, 0.0, 0.0]))

    def test_symmetry_invariants_hold(self, catalog, rng):
        pts = sample_points(rng, 25)
        for field in catalog.values():
            for x in pts:
                jet2(field, x).check()

    def test_batch_matches_pointwise(self, catalog, rng):
        pts = sample_points(rng, 10)
        for field in catalog.values():
            g, dg, ddg = jet2_batch(field, pts)
            for i, x in enumerate(pts):
                jet = field.jet_at(x)
                assert np.allclose(g[i], jet.g, atol=1e-15)
                assert np.allclose(dg[i], jet.dg, atol=1e-15)
                assert np.allclose(ddg[i], jet.ddg, atol=1e-15)


class TestFdJet2:
    def test_flat(self, catalog):
        jet = fd_jet2(metric_values(catalog["flat"]), np.array([3.0, 1.0, -2.0]), h=1e-3)
        assert np.max(np.abs(jet.dg)) < 1e-12
        assert np.max(np.abs(jet.ddg)) < 1e-9

    def test_schwarzschild_first_derivatives(self, catalog):
        x = np.array([10.0, 0.0, 0.0])
        fd = fd_jet2(metric_values(catalog["schwarzschild"]), x, h=1e-3)
        exact = catalog["schwarzschild"].jet_at(x)
        assert np.max(np.abs(fd.dg - exact.dg)) < 1e-7

    def test_quadratic_exactness(self):
        # g_11 = 1 + x1^2: second differences are exact on quadratics
        def values(x):
            g = np.eye(3)
            g[0, 0] += x[0] ** 2
            return g

        jet = fd_jet2(values, np.zeros(3), h=0.1)
        assert jet.ddg[0, 0, 0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_nonpositive_step(self, catalog):
        with pytest.raises(ValueError):
            fd_jet2(metric_values(catalog["flat"]), np.zeros(3), h=0.0)

    def test_values_only_field_supports_functionals(self, catalog):
        # a metric handed over without analytic jets still feeds the integrals
        from admflux.invariants import adm_mass_at
        from admflux.surfaces import sphere_quadrature

        fd_field = field_from_values(metric_values(catalog["schwarzschild"]), dim=3,
                                     inner_radius=1.0)
        surf = sphere_quadrature(3, 100.0, order=8)
        exact = adm_mass_at(catalog["schwarzschild"], surf)
        assert adm_mass_at(fd_field, surf) == pytest.approx(exact, abs=1e-7)

    def test_halving_reduces_error(self, catalog, rng):
        pts = sample_points(rng, 100)
        for name, field in catalog.items():
            values = metric_values(field)
            errs = {}
            for h in (1e-2, 5e-3):
                worst = 0.0
                for x in pts:
                    fd = fd_jet2(values, x, h=h)
                    exact = field.jet_at(x)
                    worst = max(
                        worst,
                        float(np.max(np.abs(fd.dg - exact.dg))),
                        float(np.max(np.abs(fd.ddg - exact.ddg))),
                    )
                errs[h] = worst
            if errs[1e-2] < 1e-12:  # flat: nothing to reduce
                continue
            assert errs[1e-2] / errs[5e-3] >= 3.5, name


class TestParitySplit:
    def test_reconstruction(self, catalog, rng):
        pts = sample_points(rng, 100)
        for field in catalog.values():
            for x in pts[:20]:
                even, odd = parity_split(field, x)
                jet = field.jet_at(x)
                assert np.allclose(even.g + odd.g, jet.g, atol=1e-15)
                assert np.allclose(even.dg + odd.dg, jet.dg, atol=1e-15)
                assert np.allclose(even.ddg + odd.ddg, jet.ddg, atol=1e-15)

    def test_flat_odd_zero(self, catalog):
        _, odd = parity_split(catalog["flat"], np.array([4.0, -1.0, 2.0]))
        assert not odd.g.any()

    def test_centered_schwarzschild_odd_zero(self, catalog):
        # |x| = |-x|, so the radial metric has no odd part
        _, odd = parity_split(catalog["schwarzschild"], np.array([5.0, 2.0, -1.0]))
        assert np.max(np.abs(odd.g)) < 1e-15

    def test_translated_closed_form(self):
        # center (1,0,0): |x - c| = 9 and |-x - c| = 11 at x = (10,0,0)
        field = build(CatalogSpec(kind="schwarzschild", mass=1.0, center=(1.0, 0.0, 0.0)))
        _, odd = parity_split(field, np.array([10.0, 0.0, 0.0]))
        expected = 0.5 * ((1 + 1 / 18) ** 4 - (1 + 1 / 22) ** 4)
        assert odd.g[0, 0] == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.0234207, abs=5e-7)

    def test_odd_antisymmetry(self, catalog, rng):
        pts = sample_points(rng, 10)
        for field in catalog.values():
            for x in pts:
                _, odd_here = parity_split(field, x)
                _, odd_there = parity_split(field, -x)
                assert np.allclose(odd_here.g, -odd_there.g, atol=1e-15)


class TestDecayReport:
    RADII = [10.0, 10.0**1.5, 100.0, 10.0**2.5, 1000.0]

    def test_flat_all_zero(self, catalog):
        rep = decay_report(catalog["flat"], self.RADII, tau=0.5)
        assert not rep.sups.any()
        assert rep.ok

    def test_schwarzschild_leading_order(self, catalog):
        # h ~ (2m/r) delta to leading order, so sup0 ~ 2 r^(-1/2) at tau = 1/2
        rep = decay_report(catalog["schwarzschild"], self.RADII, tau=0.5)
        assert rep.ok
        assert rep.sups[-1, 0] == pytest.approx(2.0 / np.sqrt(1000.0), rel=1e-2)

    def test_translated_parity_decay(self, catalog):
        # odd part is the dipole term, O(r^-2) = o(r^-3/2)
        rep = decay_report(catalog["schwarzschild-translated"], self.RADII, tau=1.5, part="odd")
        assert rep.ok

    def test_empty_radii(self, catalog):
        with pytest.raises(ValueError):
            decay_report(catalog["flat"], [], tau=0.5)

    def test_nonincreasing_radii(self, catalog):
        with pytest.raises(ValueError):
            decay_report(catalog["flat"], [10.0, 10.0], tau=0.5)

    def test_bad_part(self, catalog):
        with pytest.raises(ValueError):
            decay_report(catalog["flat"], [10.0, 20.0], tau=0.5, part="even")

    def test_radius_below_inner(self, catalog):
        with pytest.raises(DomainError):
            decay_report(catalog["schwarzschild"], [0.5, 10.0], tau=0.5)


def test_decreasing_to_zero_semantics():
    assert decreasing_to_zero([1.0, 0.5, 0.25])
    assert decreasing_to_zero([0.0, 0.0, 0.0])
    assert decreasing_to_zero([1.0, 1e-30, 0.0, 0.0])
    assert not decreasing_to_zero([0.5, 0.5, 0.5])
    assert not decreasing_to_zero([1.0, 0.5, 0.75])


def test_decreasing_to_zero_per_entry_floor():
    stalled = [1e-13, 1e-13, 1e-13]
    assert decreasing_to_zero(stalled)  # under the default floor of 1e-12
    assert not decreasing_to_zero(stalled, floor=1e-14)
    assert decreasing_to_zero(stalled, floor=[1e-12, 1e-12, 1e-12])
    # an entry above its own floor must decrease from the one before
    assert not decreasing_to_zero([1e-13, 2e-13], floor=[1e-12, 1e-14])
    assert decreasing_to_zero([1.0, 0.5, 2e-13], floor=[1e-12, 1e-12, 1e-12])


def test_jet_check_rejects_asymmetric():
    g = np.eye(3)
    dg = np.zeros((3, 3, 3))
    dg[0, 0, 1] = 1.0  # not symmetric in (i, j)
    jet = MetricJet2(dim=3, g=g, dg=dg, ddg=np.zeros((3, 3, 3, 3)))
    with pytest.raises(ValueError):
        jet.check()
