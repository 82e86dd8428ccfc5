"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.  Tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np
import pytest

from admflux.analysis import compare, sweep
from admflux.catalog import CatalogSpec, build
from admflux.curvature import curvature_arrays
from admflux.invariants import identity_residuals
from admflux.cli import decreasing_to_zero
from admflux.metric_field import fd_jet2, jet2_batch
from admflux.surfaces import sphere_quadrature, unit_sphere_rule

from conftest import decay_verdicts, linearized_scalar_arrays, metric_values, sample_points, surface_value
from test_surfaces import sphere_monomial_moment

DOUBLING = [10.0 * 2**k for k in range(7)]
DECADES = [10.0, 10.0**1.5, 100.0, 10.0**2.5, 1000.0]


def conclude(num: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {title}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {title} {detail}"


def test_criterion_1_schwarzschild_mass_recovery(catalog):
    start = time.monotonic()
    field = catalog["schwarzschild"]
    worst = 0.0
    for r in (1e2, 1e3):
        got = surface_value(field, sphere_quadrature(3, r, order=24), "adm_mass")
        closed = (1 + 1 / (2 * r)) ** 3
        worst = max(worst, abs(got - closed) / closed)
    report = sweep(field, ["adm_mass"], [100.0 * 2**k for k in range(7)])["adm_mass"]
    limit_err = abs(report.fitted_limit - 1.0)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and limit_err <= 1e-6 and elapsed <= 10.0
    conclude(
        1,
        "flux mass matches the closed form and extrapolates to m",
        ok,
        f"rel err {worst:.2e}, limit err {limit_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_mass_equivalence_spheres(catalog):
    start = time.monotonic()
    field = catalog["schwarzschild"]
    reports = sweep(field, ["adm_mass", "intrinsic_mass"], DOUBLING)
    adm, intrinsic = reports["adm_mass"], reports["intrinsic_mass"]
    diffs = np.abs(adm.values - intrinsic.values)
    diff = compare(adm, intrinsic)
    elapsed = time.monotonic() - start
    ok = (
        bool(np.all(np.diff(diffs) < 0))
        and abs(diff.fitted_limit) <= 1e-4
        and diff.fitted_rate >= 0.8
        and elapsed <= 60.0
    )
    conclude(
        2,
        "mass difference decays over doubling spheres",
        ok,
        f"limit {diff.fitted_limit:.2e}, rate {diff.fitted_rate:.2f}, {elapsed:.1f}s",
    )


def test_criterion_3_mass_equivalence_ellipsoids(catalog):
    field = catalog["schwarzschild"]
    reports = sweep(field, ["adm_mass", "intrinsic_mass"], DOUBLING, ratios=(2.0, 1.0, 1.0))
    adm, intrinsic = reports["adm_mass"], reports["intrinsic_mass"]
    diffs = np.abs(adm.values - intrinsic.values)
    diff = compare(adm, intrinsic, tol=1e-3)
    ok = (
        bool(np.all(np.diff(diffs) < 0))
        and abs(diff.fitted_limit) <= 1e-3
        and diff.fitted_rate >= 0.8
    )
    conclude(
        3,
        "mass difference decays over the stretched-ellipsoid family",
        ok,
        f"limit {diff.fitted_limit:.2e}, rate {diff.fitted_rate:.2f}",
    )


def test_criterion_4_center_equivalence(catalog):
    field = catalog["schwarzschild-translated"]
    target = np.array([1.0, 2.0, 3.0])
    # the centers are normalized by the fitted limit of the flux mass
    reports = sweep(field, ["cs_center", "intrinsic_center"], DOUBLING)
    cs, intrinsic = reports["cs_center"], reports["intrinsic_center"]
    diff = compare(cs, intrinsic, tol=1e-3)
    cs_err = float(np.max(np.abs(cs.fitted_limit - target)))
    in_err = float(np.max(np.abs(intrinsic.fitted_limit - target)))
    gap = float(np.max(np.abs(diff.fitted_limit)))
    ok = cs_err <= 1e-3 and in_err <= 1e-3 and gap <= 1e-3
    conclude(
        4,
        "both centers extrapolate to the translation vector",
        ok,
        f"flux err {cs_err:.2e}, curvature err {in_err:.2e}, gap {gap:.2e}",
    )


def test_criterion_5_exact_identities(catalog):
    worst = 0.0
    for name in ("perturbed-gaussian", "perturbed-tail"):
        field = catalog[name]
        surf = sphere_quadrature(3, 100.0, order=24)
        res_x, res_y = identity_residuals(field, surf)
        worst = max(worst, abs(res_x))
        for alpha in (1, 2, 3):
            worst = max(worst, abs(res_y[alpha - 1]))
    conclude(
        5,
        "integration-by-parts identities hold to quadrature precision",
        worst <= 1e-8,
        f"max residual {worst:.2e}",
    )


def test_criterion_6_scalar_flatness(catalog, rng):
    field = catalog["schwarzschild"]
    pts = sample_points(rng, 100, r_min=2.0, r_max=500.0)
    g, dg, ddg = jet2_batch(field, pts)
    worst = float(np.max(np.abs(curvature_arrays(g, dg, ddg).scalar)))
    conclude(6, "isotropic slice is scalar-flat", worst <= 1e-9, f"max |R| {worst:.2e}")


def test_criterion_7_curvature_decay(catalog):
    dirs, _ = unit_sphere_rule(3, 8)
    failures = []
    for name, field in catalog.items():
        ric_seq, rem_seq = [], []
        for r in DECADES:
            g, dg, ddg = jet2_batch(field, r * dirs)
            bundle = curvature_arrays(g, dg, ddg)
            remainder = np.abs(bundle.scalar - linearized_scalar_arrays(ddg))
            ric_seq.append(r**2.5 * float(np.max(np.abs(bundle.ricci))))
            rem_seq.append(r**2.5 * float(np.max(remainder)))
        if not decreasing_to_zero(ric_seq):
            failures.append(f"{name}: ricci {ric_seq}")
        if not decreasing_to_zero(rem_seq):
            failures.append(f"{name}: remainder {rem_seq}")
    conclude(
        7,
        "weighted curvature and linearization remainder decay for every catalog field",
        not failures,
        "; ".join(failures) or f"{len(catalog)} fields",
    )


def test_criterion_8_derivative_cross_check(catalog, rng):
    pts = sample_points(rng, 100)
    failures = []
    for name, field in catalog.items():
        values = metric_values(field)
        _, dg, ddg = jet2_batch(field, pts)
        errs = {}
        for h in (1e-2, 5e-3):
            _, fd_dg, fd_ddg = fd_jet2(values, pts, h=h)
            errs[h] = max(float(np.max(np.abs(fd_dg - dg))), float(np.max(np.abs(fd_ddg - ddg))))
        if errs[1e-2] < 1e-9:  # already at the differencing noise floor
            continue
        if errs[1e-2] / errs[5e-3] < 3.5:
            failures.append(f"{name}: ratio {errs[1e-2] / errs[5e-3]:.2f}")
    conclude(
        8,
        "halving the step reduces finite-difference error at least 3.5x",
        not failures,
        "; ".join(failures) or "all catalog metrics",
    )


def test_criterion_9_quadrature_exactness():
    area3 = math.fsum(sphere_quadrature(3, 1.0, order=24).weights)
    area4 = math.fsum(sphere_quadrature(4, 1.0, order=24).weights)
    err3 = abs(area3 - 4 * math.pi) / (4 * math.pi)
    err4 = abs(area4 - 2 * math.pi**2) / (2 * math.pi**2)
    order, r = 10, 1.7
    surf = sphere_quadrature(3, r, order=order)
    worst = 0.0
    for a in range(order + 1):
        for b in range(order + 1 - a):
            for c in range(order + 1 - a - b):
                vals = surf.points[:, 0] ** a * surf.points[:, 1] ** b * surf.points[:, 2] ** c
                got = float(np.sum(vals * surf.weights))
                exact = sphere_monomial_moment((a, b, c), r)
                scale = max(abs(exact), r ** (a + b + c) * math.fsum(surf.weights))
                worst = max(worst, abs(got - exact) / scale)
    ok = err3 <= 1e-10 and err4 <= 1e-10 and worst <= 1e-11
    conclude(
        9,
        "sphere areas and polynomial moments are exact",
        ok,
        f"area errs {err3:.1e}/{err4:.1e}, moment err {worst:.1e}",
    )


def test_criterion_10_negative_control():
    field = build(CatalogSpec(kind="rt_violator", amplitude=0.5, label="rt-violator"))
    decay = decay_verdicts(field, DECADES)
    reports = sweep(field, ["adm_mass", "intrinsic_mass"], DOUBLING)
    adm, intrinsic = reports["adm_mass"], reports["intrinsic_mass"]
    diffs = np.abs(adm.values - intrinsic.values)
    diff = compare(adm, intrinsic)
    mass_ok = (
        bool(np.all(np.diff(diffs) < 0))
        and abs(diff.fitted_limit) <= 1e-4
        and diff.fitted_rate >= 0.8
    )
    ok = (not decay["decay_odd"].verdict) and decay["decay_all"].verdict and mass_ok
    conclude(
        10,
        "parity violator fails the center condition but keeps mass equivalence",
        ok,
        f"decay_odd: {decay['decay_odd'].failure}, mass limit {diff.fitted_limit:.2e}, "
        f"rate {diff.fitted_rate:.2f}",
    )
