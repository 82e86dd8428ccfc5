import numpy as np
import pytest

import admflux.catalog as catalog_module
from admflux.catalog import CatalogSpec, build
from admflux.curvature import curvature_arrays
from admflux.errors import ConfigError
from admflux.invariants import SurfaceEval
from admflux.metric_field import decay_report, jet2_batch
from admflux.surfaces import sphere_quadrature

from conftest import sample_points


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

        monkeypatch.setattr(catalog_module, "_powers_u", forbidden)
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
