import dataclasses
import sys

import numpy as np
import pytest

from admflux import analysis, invariants
from admflux.analysis import (
    MAX_ORDER,
    RATE_GRID,
    REFINEMENT_TOL,
    _profile,
    compare,
    fit_power_law,
    sweep,
)
from admflux.catalog import CatalogSpec, build
from admflux.errors import DomainError, SingularMetricError
from admflux.invariants import SurfaceEval
from admflux.surfaces import sphere_quadrature, unit_sphere_area

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
        report = sweep(catalog["flat"], ["adm_mass"], self.RADII, order=8)["adm_mass"]
        assert not report.values.any()
        assert report.fitted_limit == 0.0
        assert report.verdict

    def test_schwarzschild_limit(self, catalog):
        radii = [100.0 * 2**k for k in range(7)]
        report = sweep(catalog["schwarzschild"], ["adm_mass"], radii)["adm_mass"]
        assert abs(report.fitted_limit - 1.0) <= 1e-6
        assert report.fitted_rate == pytest.approx(1.0, abs=0.05)

    def test_vector_functional(self, catalog):
        radii = [50.0, 100.0, 200.0, 400.0]
        report = sweep(
            catalog["schwarzschild-translated"], ["cs_center"], radii, mass=1.0, order=16
        )["cs_center"]
        assert report.values.ndim == 2
        assert np.allclose(report.fitted_limit, [1.0, 2.0, 3.0], atol=1e-3)
        assert report.radii[0] == 50.0 and report.values.shape == (4, 3)

    def test_unknown_functional(self, catalog):
        with pytest.raises(ValueError, match="unknown functional"):
            sweep(catalog["flat"], ["hamiltonian"], self.RADII)

    def test_functionals_are_a_list(self, catalog):
        with pytest.raises(TypeError, match="list of functionals"):
            sweep(catalog["flat"], "adm_mass", self.RADII)

    def test_schedule_validation(self, catalog):
        with pytest.raises(ValueError):
            sweep(catalog["flat"], ["adm_mass"], [10.0, 20.0, 40.0])
        with pytest.raises(ValueError):
            sweep(catalog["flat"], ["adm_mass"], [10.0, 10.0, 20.0, 40.0])

    def test_evaluation_error_names_radius(self, catalog):
        with pytest.raises(DomainError, match="radius 0.5"):
            sweep(catalog["schwarzschild"], ["adm_mass"], [0.5, 10.0, 20.0, 40.0], order=8)

    def test_adaptive_consistent_with_fixed(self, catalog):
        field = catalog["schwarzschild"]
        fixed = [
            SurfaceEval(field, sphere_quadrature(3, r, 24)).value("adm_mass") for r in self.RADII
        ]
        refined = sweep(field, ["adm_mass"], self.RADII)["adm_mass"]
        assert np.allclose(fixed, refined.values, atol=1e-8)

    def test_ellipsoid_family_schedule(self, catalog):
        report = sweep(
            catalog["schwarzschild"],
            ["intrinsic_mass"],
            [10.0, 20.0, 40.0, 80.0],
            ratios=(2.0, 1.0, 1.0),
            order=16,
        )["intrinsic_mass"]
        assert np.allclose(report.values, 1.0, atol=1e-8)


class TwoArgumentError(Exception):
    def __init__(self, code, detail):
        super().__init__(code, detail)


def refined_standalone(fn, r, mass, order=24):
    """The sweep's refinement of one radius, done with a standalone functional.

    Refinement judges ``fn(surface, 1.0)``, the surface integral before any
    division by the mass; the accepted surface's value is ``fn(surface, mass)``.
    """
    value = np.asarray(fn(sphere_quadrature(3, r, order), 1.0), dtype=float)
    while True:
        surf = sphere_quadrature(3, r, 2 * order)
        finer = np.asarray(fn(surf, 1.0), dtype=float)
        scale = 1.0 + float(np.max(np.abs(finer)))
        if float(np.max(np.abs(finer - value))) <= REFINEMENT_TOL * scale or 2 * order >= MAX_ORDER:
            return np.asarray(fn(surf, mass), dtype=float)
        value, order = finer, 2 * order


class TestSharedSurfaces:
    RADII = [10.0, 20.0, 40.0, 80.0]
    ALL = ["adm_mass", "intrinsic_mass", "cs_center", "intrinsic_center"]

    def test_values_bitwise_equal_standalone(self, catalog):
        field = catalog["schwarzschild-translated"]
        reports = sweep(field, self.ALL, self.RADII)
        mass = float(reports["adm_mass"].fitted_limit)
        for name in self.ALL:

            def fn(surf, m):
                return SurfaceEval(field, surf).value(name, m)

            for r, value in zip(self.RADII, reports[name].values):
                assert np.array_equal(value, refined_standalone(fn, r, mass)), (name, r)

    def test_one_name_sweep_matches_shared_run(self, catalog):
        field = catalog["schwarzschild-translated"]
        reports = sweep(field, self.ALL, self.RADII)
        mass = float(reports["adm_mass"].fitted_limit)
        alone = sweep(field, ["intrinsic_center"], self.RADII, mass=mass)["intrinsic_center"]
        assert np.array_equal(alone.values, reports["intrinsic_center"].values)
        assert np.array_equal(alone.fitted_limit, reports["intrinsic_center"].fitted_limit)

    def test_given_mass_beside_a_swept_adm_mass(self, catalog):
        # the given mass normalizes the centers; the swept adm_mass is reported as it is
        field = catalog["schwarzschild-translated"]
        reports = sweep(field, self.ALL, self.RADII, mass=2.0)
        centers = sweep(field, ["cs_center", "intrinsic_center"], self.RADII, mass=2.0)
        for name in centers:
            assert np.array_equal(reports[name].values, centers[name].values), name
            assert np.array_equal(reports[name].fitted_limit, centers[name].fitted_limit), name
        alone = sweep(field, ["adm_mass"], self.RADII)["adm_mass"]
        for f in dataclasses.fields(alone):
            assert np.array_equal(getattr(reports["adm_mass"], f.name), getattr(alone, f.name)), f.name

    def test_refinement_judges_the_integral_before_the_mass(self, catalog, monkeypatch):
        # divided by the mass 0.5, the order-24 center would sit 1.6e-8 from order 48
        scale = 2.0 * (3 - 1) * unit_sphere_area(3)
        orders = []

        class FakeEval:
            def __init__(self, field, order):
                orders.append(order)
                self.order = order

            def total(self, name):
                if name == "adm_mass":
                    return 0.5 * scale
                return scale * np.array([0.8e-8 if self.order == 24 else 0.0, 0.0, 0.0])

        monkeypatch.setattr(analysis, "sphere_quadrature", lambda n, r, order: order)
        monkeypatch.setattr(analysis, "SurfaceEval", FakeEval)
        reports = sweep(catalog["flat"], ["cs_center"], self.RADII)
        assert max(orders) == 48
        assert reports["adm_mass"].fitted_limit == 0.5
        assert not reports["cs_center"].values.any()

    def test_centers_bring_the_mass_sweep(self, catalog):
        reports = sweep(catalog["schwarzschild-translated"], ["cs_center"], self.RADII)
        assert list(reports) == ["adm_mass", "cs_center"]
        given = sweep(catalog["schwarzschild-translated"], ["cs_center"], self.RADII, mass=1.0)
        assert list(given) == ["cs_center"]

    def test_flux_only_run_never_calls_the_kernel(self, catalog, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("curvature kernel called on a flux-only run")

        monkeypatch.setattr(invariants, "curvature_arrays", forbidden)
        reports = sweep(catalog["schwarzschild-translated"], ["adm_mass", "cs_center"], self.RADII)
        assert np.allclose(reports["cs_center"].fitted_limit, [1.0, 2.0, 3.0], atol=1e-2)

    def test_other_exception_types_reach_the_caller(self, catalog):
        def raising(points):
            raise TwoArgumentError(7, "jet source unavailable")

        field = dataclasses.replace(catalog["schwarzschild"], jet_batch=raising)
        with pytest.raises(TwoArgumentError) as info:
            sweep(field, ["adm_mass"], self.RADII)
        assert info.value.args == (7, "jet source unavailable")
        if sys.version_info >= (3, 11):
            assert "adm_mass at schedule radius 10" in info.value.__notes__[-1]
        with pytest.raises(TwoArgumentError):
            sweep(field, self.ALL, self.RADII)

    def test_curvature_failure_names_the_curvature_functional(self, catalog):
        base = catalog["flat"]

        def singular(points):
            g, dg, ddg = base.jet_batch(points)
            g = g.copy()
            g[:, 2, 2] = 1e-14  # flux terms stay finite; the kernel's condition guard trips
            return g, dg, ddg

        field = dataclasses.replace(base, jet_batch=singular)
        with pytest.raises(SingularMetricError) as info:
            sweep(field, ["adm_mass", "intrinsic_mass"], self.RADII)
        message = str(info.value)
        assert message.startswith("intrinsic_mass at schedule radius 10:")
        assert "adm_mass" not in message

    @pytest.mark.parametrize("start, orders", [(64, [64, 96]), (96, [96])])
    def test_refinement_stops_at_max_order(self, catalog, monkeypatch, start, orders):
        built = []
        real = analysis.sphere_quadrature

        def recording(n, r, order):
            built.append(order)
            return real(n, r, order)

        monkeypatch.setattr(analysis, "sphere_quadrature", recording)
        # the doubling from 64 is capped at 96; a start at 96 has nothing to compare with
        sweep(catalog["schwarzschild-translated"], ["adm_mass"], self.RADII, order=start)
        assert max(built) <= MAX_ORDER == 96
        assert sorted(set(built)) == orders

    def test_start_order_above_max_order_is_refused(self, catalog):
        with pytest.raises(ValueError, match="start order"):
            sweep(catalog["schwarzschild"], ["adm_mass"], self.RADII, order=MAX_ORDER + 1)


class TestDefaultScheduleCoverage:
    def test_all_catalog_fields_complete_quickly(self, catalog):
        import time

        radii = [10.0 * 2**k for k in range(7)]
        start = time.monotonic()
        for name, field in catalog.items():
            for functional in ("adm_mass", "intrinsic_mass"):
                report = sweep(field, [functional], radii)[functional]
                assert np.all(np.isfinite(report.values)), (name, functional)
            mass = field.metadata.get("expected_mass")
            if mass:
                for functional in ("cs_center", "intrinsic_center"):
                    report = sweep(field, [functional], radii, mass=mass)[functional]
                    assert np.all(np.isfinite(report.values)), (name, functional)
        assert time.monotonic() - start < 60.0


class TestCompare:
    RADII = [10.0 * 2**k for k in range(7)]

    def test_identical_reports(self, catalog):
        a = sweep(catalog["schwarzschild"], ["adm_mass"], self.RADII[:4], order=12)["adm_mass"]
        diff = compare(a, a)
        assert not diff.values.any()
        assert diff.fitted_limit == 0.0
        assert diff.verdict

    def test_mass_equivalence(self, catalog):
        reports = sweep(catalog["schwarzschild"], ["adm_mass", "intrinsic_mass"], self.RADII)
        diff = compare(reports["adm_mass"], reports["intrinsic_mass"])
        assert diff.verdict
        assert abs(diff.fitted_limit) <= 1e-4
        assert diff.fitted_rate == pytest.approx(1.0, abs=0.1)

    def test_center_equivalence(self, catalog):
        field = catalog["schwarzschild-translated"]
        radii = [10.0 * 2**k for k in range(8)]
        reports = sweep(field, ["cs_center", "intrinsic_center"], radii, mass=1.0)
        diff = compare(reports["cs_center"], reports["intrinsic_center"])
        assert diff.verdict
        assert np.max(np.abs(diff.fitted_limit)) <= 1e-4

    def test_schedule_mismatch(self, catalog):
        a = sweep(catalog["flat"], ["adm_mass"], [10.0, 20.0, 40.0, 80.0], order=8)["adm_mass"]
        b = sweep(catalog["flat"], ["adm_mass"], [10.0, 20.0, 40.0, 160.0], order=8)["adm_mass"]
        with pytest.raises(ValueError, match="schedule mismatch"):
            compare(a, b)

    def test_rt_violator_centers_reported_not_asserted(self):
        # the parity condition fails, so only produce the comparison;
        # an arbitrary nonzero normalization keeps the centers defined
        field = build(CatalogSpec(kind="rt_violator", amplitude=0.5, label="rt-violator"))
        radii = [10.0, 20.0, 40.0, 80.0]
        reports = sweep(field, ["cs_center", "intrinsic_center"], radii, mass=1.0, order=12)
        diff = compare(reports["cs_center"], reports["intrinsic_center"])
        assert diff.values.shape == (4, 3)
        assert isinstance(diff.verdict, bool)

    def test_curvature_sweep_in_four_dimensions(self):
        # every functional in R^4 from start order 8; the refinement reaches 16.
        # Measured: limits within 3e-10 of the closed form, compare limits
        # 3.8e-11 (mass) and 3.0e-10 (center)
        center = np.array([1.0, -0.5, 0.0, 0.25])
        field = build(CatalogSpec(kind="schwarzschild", dim=4, mass=1.0, center=tuple(center)))
        names = ["adm_mass", "intrinsic_mass", "cs_center", "intrinsic_center"]
        reports = sweep(field, names, [100.0, 200.0, 400.0, 800.0], order=8)
        assert all(reports[name].verdict for name in names)
        for name in ("adm_mass", "intrinsic_mass"):
            assert abs(reports[name].fitted_limit - 1.0) <= 1e-9, name
        for name in ("cs_center", "intrinsic_center"):
            assert np.max(np.abs(reports[name].fitted_limit - center)) <= 1e-8, name
        mass = compare(reports["adm_mass"], reports["intrinsic_mass"])
        gap = compare(reports["cs_center"], reports["intrinsic_center"])
        assert mass.verdict and abs(mass.fitted_limit) <= 1e-9
        assert gap.verdict and np.max(np.abs(gap.fitted_limit)) <= 1e-8
