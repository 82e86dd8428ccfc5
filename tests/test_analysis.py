import numpy as np
import pytest

from admflux.analysis import (
    RATE_GRID,
    _profile,
    compare,
    ellipsoid_family,
    fit_power_law,
    sphere_family,
    sweep,
)
from admflux.catalog import rt_violator
from admflux.errors import DomainError

SEVEN = np.array([10.0 * 2**k for k in range(7)])
DEFAULT_TAIL = np.array([100.0 * 2**k for k in range(4, 9)])


class TestFitPowerLaw:
    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    def test_exact_recovery(self, rate):
        radii = np.array([10.0 * 2**k for k in range(7)])
        values = 2.5 + 3.0 * radii**-rate
        fit = fit_power_law(radii, values)
        assert abs(fit.limit - 2.5) / 2.5 <= 1e-10
        assert abs(fit.rate - rate) / rate <= 1e-10

    def test_constant_data(self):
        fit = fit_power_law([10.0, 20.0, 40.0, 80.0], [4.0, 4.0, 4.0, 4.0])
        assert fit.limit == 4.0
        assert fit.amplitude == 0.0
        assert np.isfinite(fit.rate) and fit.rate > 0

    def test_negative_amplitude(self):
        radii = np.array([10.0 * 2**k for k in range(6)])
        values = 1e-3 - 0.2 * radii**-1.3
        fit = fit_power_law(radii, values)
        assert fit.limit == pytest.approx(1e-3, abs=1e-12)
        assert fit.rate == pytest.approx(1.3, rel=1e-10)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples(self, bad):
        radii = [10.0, 20.0, 40.0, 80.0]
        with pytest.raises(ValueError, match="finite"):
            fit_power_law(radii, [1.0, 1.1, bad, 1.2])
        with pytest.raises(ValueError, match="finite"):
            fit_power_law(radii[:3] + [bad], [1.0, 1.1, 1.15, 1.2])

    @pytest.mark.parametrize(
        "radii, v",
        [(SEVEN, 2.5 + 3.0 * SEVEN**-rate) for rate in (0.5, 1.0, 2.0)]
        + [
            (SEVEN[:6], 1e-3 - 0.2 * SEVEN[:6] ** -1.3),
            # noise on the default schedule's tail: lstsq drops the r^-p column
            # below its rank cutoff from p = 4.5 on, and the profile must agree
            (DEFAULT_TAIL, np.array([1.0, 1.0 + 1e-9, 1.0, 1.0 + 1e-9, 1.0])),
        ],
    )
    def test_profile_grid_argmin_matches_per_rate_lstsq(self, radii, v):

        def lstsq_residual(p):
            design = np.column_stack([np.ones_like(radii), radii**-p])
            coef, *_ = np.linalg.lstsq(design, v, rcond=None)
            res = design @ coef - v
            return float(res @ res)

        residuals, coefs = _profile(radii, v, RATE_GRID)
        best = int(np.argmin(residuals))
        assert RATE_GRID[best] == min(RATE_GRID, key=lstsq_residual)
        # one rate at a time, as the golden-section search calls it
        residual, coef = _profile(radii, v, RATE_GRID[best])
        assert residual == residuals[best] and np.array_equal(coef, coefs[best])


class TestSweep:
    RADII = [10.0 * 2**k for k in range(4)]

    def test_flat_all_zero(self, catalog):
        report = sweep(catalog["flat"], "adm_mass", self.RADII, order=8)
        assert not report.values.any()
        assert report.fitted_limit == 0.0
        assert report.verdict

    def test_schwarzschild_limit(self, catalog):
        radii = [100.0 * 2**k for k in range(7)]
        report = sweep(catalog["schwarzschild"], "adm_mass", radii)
        assert abs(report.fitted_limit - 1.0) <= 1e-6
        assert report.fitted_rate == pytest.approx(1.0, abs=0.05)

    def test_vector_functional(self, catalog):
        radii = [50.0, 100.0, 200.0, 400.0]
        report = sweep(
            catalog["schwarzschild-translated"], "cs_center", radii, mass=1.0, order=16
        )
        assert report.is_vector
        assert np.allclose(report.fitted_limit, [1.0, 2.0, 3.0], atol=1e-3)
        rows = report.samples
        assert rows[0][0] == 50.0 and len(rows[0][1]) == 3

    def test_unknown_functional(self, catalog):
        with pytest.raises(ValueError, match="unknown functional"):
            sweep(catalog["flat"], "hamiltonian", self.RADII)

    def test_center_needs_mass(self, catalog):
        with pytest.raises(ValueError, match="mass"):
            sweep(catalog["schwarzschild"], "cs_center", self.RADII)

    def test_schedule_validation(self, catalog):
        with pytest.raises(ValueError):
            sweep(catalog["flat"], "adm_mass", [10.0, 20.0, 40.0])
        with pytest.raises(ValueError):
            sweep(catalog["flat"], "adm_mass", [10.0, 10.0, 20.0, 40.0])

    def test_evaluation_error_names_radius(self, catalog):
        with pytest.raises(DomainError, match="radius 0.5"):
            sweep(catalog["schwarzschild"], "adm_mass", [0.5, 10.0, 20.0, 40.0], order=8)

    def test_adaptive_consistent_with_fixed(self, catalog):
        fixed = sweep(catalog["schwarzschild"], "adm_mass", self.RADII, adaptive=False)
        refined = sweep(catalog["schwarzschild"], "adm_mass", self.RADII, adaptive=True)
        assert np.allclose(fixed.values, refined.values, atol=1e-8)

    def test_ellipsoid_family_schedule(self, catalog):
        report = sweep(
            catalog["schwarzschild"],
            "intrinsic_mass",
            [10.0, 20.0, 40.0, 80.0],
            surface=ellipsoid_family((2.0, 1.0, 1.0)),
            order=16,
        )
        assert np.allclose(report.values, 1.0, atol=1e-8)

    def test_sphere_family_builder(self):
        surf = sphere_family(3)(10.0, 8)
        assert surf.nominal_radius == 10.0


class TestDefaultScheduleCoverage:
    def test_all_catalog_fields_complete_quickly(self, catalog):
        import time

        radii = [10.0 * 2**k for k in range(7)]
        start = time.monotonic()
        for name, field in catalog.items():
            for functional in ("adm_mass", "intrinsic_mass"):
                report = sweep(field, functional, radii)
                assert np.all(np.isfinite(report.values)), (name, functional)
            mass = field.metadata.get("expected_mass")
            if mass:
                for functional in ("cs_center", "intrinsic_center"):
                    report = sweep(field, functional, radii, mass=mass)
                    assert np.all(np.isfinite(report.values)), (name, functional)
        assert time.monotonic() - start < 60.0


class TestCompare:
    RADII = [10.0 * 2**k for k in range(7)]

    def test_identical_reports(self, catalog):
        a = sweep(catalog["schwarzschild"], "adm_mass", self.RADII[:4], order=12)
        diff = compare(a, a)
        assert not diff.values.any()
        assert diff.fitted_limit == 0.0
        assert diff.verdict

    def test_mass_equivalence(self, catalog):
        a = sweep(catalog["schwarzschild"], "adm_mass", self.RADII)
        b = sweep(catalog["schwarzschild"], "intrinsic_mass", self.RADII)
        diff = compare(a, b)
        assert diff.verdict
        assert abs(diff.fitted_limit) <= 1e-4
        assert diff.fitted_rate == pytest.approx(1.0, abs=0.1)

    def test_center_equivalence(self, catalog):
        field = catalog["schwarzschild-translated"]
        radii = [10.0 * 2**k for k in range(8)]
        a = sweep(field, "cs_center", radii, mass=1.0)
        b = sweep(field, "intrinsic_center", radii, mass=1.0)
        diff = compare(a, b)
        assert diff.verdict
        assert np.max(np.abs(diff.fitted_limit)) <= 1e-4

    def test_schedule_mismatch(self, catalog):
        a = sweep(catalog["flat"], "adm_mass", [10.0, 20.0, 40.0, 80.0], order=8)
        b = sweep(catalog["flat"], "adm_mass", [10.0, 20.0, 40.0, 160.0], order=8)
        with pytest.raises(ValueError, match="schedule mismatch"):
            compare(a, b)

    def test_rt_violator_centers_reported_not_asserted(self):
        # the parity condition fails, so only produce the comparison;
        # an arbitrary nonzero normalization keeps the centers defined
        field = rt_violator(3, amplitude=0.5)
        radii = [10.0, 20.0, 40.0, 80.0]
        a = sweep(field, "cs_center", radii, mass=1.0, order=12)
        b = sweep(field, "intrinsic_center", radii, mass=1.0, order=12)
        diff = compare(a, b)
        assert diff.values.shape == (4, 3)
        assert isinstance(diff.verdict, bool)
