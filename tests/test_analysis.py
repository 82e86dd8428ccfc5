import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admflux import analysis, invariants
from admflux.analysis import (
    MAX_ORDER,
    REFINEMENT_TOL,
    compare,
    fit_power_law,
    sweep,
)
from admflux.catalog import CatalogSpec, build
from admflux.errors import DomainError, NonFiniteError, SingularMetricError
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


@st.composite
def component_blocks(draw):
    """Three rows of ``L + A r^-p`` samples on one random schedule, exact, noisy or flat."""
    m = draw(st.integers(3, 12))
    start = draw(st.floats(1.0, 2000.0))
    steps = draw(st.lists(st.floats(1.1, 4.0), min_size=m - 1, max_size=m - 1))
    radii = start * np.cumprod([1.0, *steps])
    rows = []
    for _ in range(3):
        limit, amplitude = (draw(st.integers(-k, k)) / 1e3 for k in (2000, 3000))
        rate = draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.2, 4.0))
        noise = draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-6]))
        jitter = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
        rows.append(limit + amplitude * radii**-rate + noise * jitter)
    return radii, np.array(rows)


@settings(deadline=None)
@given(component_blocks())
def test_a_component_block_fits_as_its_rows_do(block):
    radii, rows = block
    fit = fit_power_law(radii, rows)
    for a, row in enumerate(rows):
        alone = fit_power_law(radii, row)
        assert (alone.limit, alone.amplitude, alone.rate) == (
            fit.limit[a], fit.amplitude[a], fit.rate[a]
        )


@pytest.mark.parametrize("growth", [0.1, 0.2, 0.5, 1.0])
def test_a_slowly_growing_sequence_fails_the_verdict(growth):
    # the search follows the growth to a rate of at most 0
    radii = np.array([100.0 * 2**k for k in range(9)])
    values = 1.0 + 1e-7 * radii**growth
    limit, rate = analysis._fit_samples(radii, values)
    assert rate <= 0
    assert not analysis._verdict(values, limit, rate, analysis.DEFAULT_TOL)[0]


def test_a_logarithmic_growth_fails_the_verdict():
    # the profiled residual falls to 0 as the rate goes to 0
    radii = np.array([100.0 * 2**k for k in range(9)])
    values = 1.0 + 1e-7 * np.log(radii)
    limit, rate = analysis._fit_samples(radii, values)
    assert rate <= 0
    assert not analysis._verdict(values, limit, rate, analysis.DEFAULT_TOL)[0]


@pytest.mark.parametrize("spread, converged", [(1e-10, True), (1e-6, False)])
def test_growth_within_the_refinement_tolerance_has_converged(spread, converged):
    radii = np.array([100.0 * 2**k for k in range(9)])
    values = 2.0 + spread * radii / radii[-1]
    limit, rate = analysis._fit_samples(radii, values)
    if converged:
        assert (limit, rate) == (values[-5:].mean(), 1.0)
    else:
        assert rate <= 0
    assert analysis._verdict(values, limit, rate, analysis.DEFAULT_TOL)[0] == converged


def test_a_block_fails_on_its_smallest_growing_component():
    # its intercept sits 1.6e-5 from the last sample, inside the tolerance: only
    # the growing component's rate, reported for the block, fails it
    radii = np.array([100.0 * 2**k for k in range(9)])
    values = np.column_stack([1.0 + 0.5 / radii, 2.0 + 0.3 * radii**-2.0, 3.0 + 1e-7 * radii**0.5])
    limit, rate = analysis._fit_samples(radii, values)
    assert np.max(np.abs(limit - [1.0, 2.0, 3.0])) <= 1e-9
    assert rate == pytest.approx(-0.5, abs=1e-6)
    assert not analysis._verdict(values, limit, rate, analysis.DEFAULT_TOL)[0]


def test_compare_fails_a_growing_difference():
    radii = tuple(100.0 * 2**k for k in range(9))
    base = 1.0 + 0.5 / np.array(radii)

    def report(values):
        return analysis.ConvergenceReport(radii=radii, values=values, fitted_limit=1.0, fitted_rate=1.0,
                                          verdict=True, tolerance=analysis.DEFAULT_TOL)

    diff = compare(report(base + 1e-7 * np.array(radii) ** 0.5), report(base))
    # the difference's intercept is 0, well inside the tolerance
    assert abs(diff.fitted_limit) <= 1e-9
    assert diff.fitted_rate == pytest.approx(-0.5, abs=1e-6)
    assert not diff.verdict


@st.composite
def rate_rows(draw):
    """Three rows on one random schedule, as :func:`component_blocks` draws them:
    exact, noisy, flat or growing."""
    m = draw(st.integers(3, 12))
    start = draw(st.floats(1.0, 2000.0))
    steps = draw(st.lists(st.floats(1.1, 4.0), min_size=m - 1, max_size=m - 1))
    radii = start * np.cumprod([1.0, *steps])
    rows = []
    for _ in range(3):
        limit, amplitude = (draw(st.integers(-k, k)) / 1e3 for k in (2000, 3000))
        kind = draw(st.sampled_from(["exact", "noisy", "flat", "growing"]))
        if kind == "flat":
            rows.append(np.full(m, limit))
            continue
        if kind == "growing":
            growth = draw(st.sampled_from(["log"]) | st.floats(0.01, 3.0))
            term = np.log(radii) if growth == "log" else radii**growth
        else:
            term = radii ** -draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.2, 4.0))
        noise = draw(st.floats(1e-13, 1e-6)) if kind == "noisy" else 0.0
        jitter = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
        rows.append(limit + amplitude * term + noise * jitter)
    return radii, np.array(rows)


@settings(deadline=None)
@given(rate_rows())
def test_the_rate_search_ends_finite_and_fits_rows_alone_as_in_a_block(block):
    # the search raises if it outruns its bound, so every fit here ended within it
    radii, rows = block
    fit = fit_power_law(radii, rows)
    assert all(np.isfinite(part).all() for part in (fit.limit, fit.amplitude, fit.rate))
    for a, row in enumerate(rows):
        alone = fit_power_law(radii, row)
        assert (alone.limit, alone.amplitude, alone.rate) == (
            fit.limit[a], fit.amplitude[a], fit.rate[a]
        )


def counting_expm1(monkeypatch) -> list:
    """The arguments of every ``math.expm1`` call from here on: one per radius for each trial rate."""
    evaluated, expm1 = [], math.expm1
    monkeypatch.setattr(math, "expm1", lambda x: evaluated.append(x) or expm1(x))
    return evaluated


def test_samples_at_their_start_rate_take_one_evaluation(monkeypatch):
    # the differences of 10/r on a doubling schedule fall by exactly 8 = r_3 / r_0, so the
    # search starts at rate 1, where the fit leaves only rounding and the Newton step is below 1e-14
    radii = [10.0, 20.0, 40.0, 80.0, 160.0]
    evaluated = counting_expm1(monkeypatch)
    fit = fit_power_law(radii, [10.0 / r for r in radii])
    assert fit.rate == 1.0 and len(evaluated) == len(radii)
    assert fit.limit == pytest.approx(0.0, abs=1e-15) and fit.amplitude == pytest.approx(10.0, rel=1e-14)


@pytest.mark.parametrize("rate", [0.5, 1.0, 1.3, 2.0])
def test_exact_samples_take_a_few_newton_steps(monkeypatch, rate):
    values = 2.5 + 3.0 * SEVEN**-rate
    evaluated = counting_expm1(monkeypatch)
    fit = fit_power_law(SEVEN, values)
    assert fit.rate == pytest.approx(rate, rel=1e-12)
    assert len(evaluated) <= 8 * len(SEVEN)


@pytest.mark.parametrize("rate", [0.5, 1.0, 1.3, 2.0])
def test_exact_samples_on_an_uneven_schedule_take_a_few_newton_steps(monkeypatch, rate):
    # off a geometric schedule the differences' rate is only a start (1.195 for rate 1 here),
    # and the search ends within the same bound
    radii = np.array([100.0, 200.0, 300.0, 400.0, 600.0, 800.0, 1200.0])
    values = 2.5 + 3.0 * radii**-rate
    evaluated = counting_expm1(monkeypatch)
    fit = fit_power_law(radii, values)
    assert fit.rate == pytest.approx(rate, rel=1e-10)
    assert fit.limit == pytest.approx(2.5, rel=1e-12)
    assert len(evaluated) <= 8 * len(radii)


@pytest.mark.parametrize(
    "values",
    [
        [1.0, 0.5, 0.4, 0.45, 0.5],  # the first difference falls, the last rises
        [1.0, 0.5, 0.4, 0.45, 0.45],  # the last difference is 0
        [0.0, 1.0, 2.0, 3.0, 4.0],  # equal differences would start at the constant column's rate 0
    ],
)
def test_the_search_starts_at_1_without_a_difference_rate(monkeypatch, values):
    starts, search = [], analysis._rate
    monkeypatch.setattr(analysis, "_rate", lambda r, v, low, high, p: starts.append(p) or search(r, v, low, high, p))
    fit = fit_power_law([10.0, 20.0, 40.0, 80.0, 160.0], values)
    assert starts == [1.0]
    assert np.isfinite([fit.limit, fit.amplitude, fit.rate]).all()


@pytest.mark.parametrize("growth", [0.5, 2.0, 20.0])
def test_growth_on_a_schedule_reaching_1e60_does_not_overflow(growth):
    # Python's float ** float raises where numpy would return inf
    radii = np.geomspace(1e50, 1e60, 6)
    fit = fit_power_law(radii, 1.0 + (radii / 1e60) ** growth)
    assert np.isfinite([fit.limit, fit.amplitude, fit.rate]).all()
    assert fit.rate <= 0


@pytest.mark.parametrize("bad", [0.0, -10.0])
def test_non_positive_radii_are_refused(bad):
    with pytest.raises(ValueError, match="positive radii"):
        fit_power_law([bad, 20.0, 40.0, 80.0], [1.0, 1.1, 1.15, 1.2])


def test_default_sweep_needs_no_lapack(monkeypatch):
    from admflux import cli

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in ("solve", "lstsq", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    cfg = cli.RunConfig(metric=CatalogSpec(kind="schwarzschild", mass=1.0))
    checks = cli.run_checks(cfg, tuple(analysis.FUNCTIONALS), with_compare=True)
    assert [c.name for c in checks] == [*analysis.FUNCTIONALS, "mass_difference", "center_difference"]
    assert all(c.verdict for c in checks)


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

    Refinement starts at the companion ``order // 2`` and judges
    ``fn(surface, 1.0)``, the surface integral before any division by the
    mass; the accepted surface's value is ``fn(surface, mass)``.
    """
    order //= 2
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
        # divided by the mass 0.5, the order-12 center would sit 1.6e-8 from order 24
        scale = 2.0 * (3 - 1) * unit_sphere_area(3)
        orders = []

        class FakeEval:
            def __init__(self, field, block, derivatives):
                orders.extend(block)
                self.block = block

            def totals(self, names):
                center = [scale * np.array([0.8e-8 if order == 12 else 0.0, 0.0, 0.0]) for order in self.block]
                return {name: [0.5 * scale for _ in self.block] if name == "adm_mass" else center
                        for name in names}

        monkeypatch.setattr(analysis, "sphere_quadrature", lambda n, r, order: order)
        monkeypatch.setattr(analysis, "SurfaceEval", FakeEval)
        reports = sweep(catalog["flat"], ["cs_center"], self.RADII)
        assert max(orders) == 24
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

    def test_flux_only_run_never_asks_for_second_order_jets(self, catalog, monkeypatch):
        base, asked = catalog["schwarzschild-translated"], []

        def counting(points, derivatives):
            asked.append(derivatives)
            return base.jet_batch(points, derivatives)

        field = dataclasses.replace(base, jet_batch=counting)
        reports = sweep(field, ["adm_mass", "cs_center"], self.RADII)
        assert asked and set(asked) == {1}
        assert np.allclose(reports["cs_center"].fitted_limit, [1.0, 2.0, 3.0], atol=1e-2)
        asked.clear()
        sweep(field, ["adm_mass", "intrinsic_mass"], self.RADII)
        assert asked and set(asked) == {2}

    def test_failing_block_names_its_first_failing_surface(self, catalog):
        base = catalog["schwarzschild"]

        def spoiled(points, derivatives):
            g, dg, *rest = base.jet_batch(points, derivatives)
            dg = dg.copy()
            dg[np.linalg.norm(points, axis=1) > 30.0, 0, 0, 0] = np.nan
            return (g, dg, *rest)

        field = dataclasses.replace(base, jet_batch=spoiled)
        for names in (["adm_mass"], ["adm_mass", "intrinsic_mass"]):
            with pytest.raises(NonFiniteError) as info:
                sweep(field, names, self.RADII)
            assert str(info.value).startswith("adm_mass at schedule radius 40: non-finite jet"), names

    def test_other_exception_types_reach_the_caller(self, catalog):
        def raising(points, derivatives):
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

        def singular(points, derivatives):
            g, *rest = base.jet_batch(points, derivatives)
            g = g.copy()
            g[:, 2, 2] = 1e-14  # flux terms stay finite; the kernel's condition guard trips
            return (g, *rest)

        field = dataclasses.replace(base, jet_batch=singular)
        with pytest.raises(SingularMetricError) as info:
            sweep(field, ["adm_mass", "intrinsic_mass"], self.RADII)
        message = str(info.value)
        assert message.startswith("intrinsic_mass at schedule radius 10:")
        assert "adm_mass" not in message

    @pytest.mark.parametrize("start, orders", [(64, [32, 64, 96]), (96, [48, 96])])
    def test_refinement_stops_at_max_order(self, catalog, monkeypatch, start, orders):
        built = []
        real = analysis.sphere_quadrature

        def recording(n, r, order):
            built.append(order)
            return real(n, r, order)

        monkeypatch.setattr(analysis, "sphere_quadrature", recording)
        # the doubling from 64 is capped at 96; a start at 96 is compared with 48 alone.
        # The sphere of radius 5 passes 0.26 outside the inner radius, where
        # order 32 still misses order 64.
        sweep(catalog["schwarzschild-translated"], ["adm_mass"], [5.0, 10.0, 20.0, 40.0], order=start)
        assert max(built) <= MAX_ORDER == 96
        assert sorted(set(built)) == orders

    @pytest.mark.parametrize("start, orders", [(2, [2, 4]), (3, [3, 6]), (25, [12, 25])])
    def test_bottom_and_odd_starts(self, catalog, monkeypatch, start, orders):
        built = []
        real = analysis.sphere_quadrature

        def recording(n, r, order):
            built.append(order)
            return real(n, r, order)

        monkeypatch.setattr(analysis, "sphere_quadrature", recording)
        # Schwarzschild at the origin: every order agrees, so the first comparison accepts
        report = sweep(catalog["schwarzschild"], ["adm_mass"], self.RADII, order=start)["adm_mass"]
        assert sorted(set(built)) == orders
        assert report.failure is None

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
        # every functional in R^4 from start order 8; orders 4 and 8 agree.
        # Measured: limits within 2.0e-9 of the closed form, compare limits
        # 3.8e-11 (mass) and 2.0e-9 (center)
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
