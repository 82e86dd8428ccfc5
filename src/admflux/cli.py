"""Configuration-driven command line producing convergence tables and verdicts.

Subcommands select which checks run; a JSON config file describes the metric,
the surface schedule and tolerances.  Flags override the config, and the final
run is validated once, in :func:`run_checks`, which builds the one metric
field every check uses.  :mod:`analysis` judges the swept functionals and
their differences; the identity, scalar-shell and decay checks are judged
here, from what :mod:`invariants` and :func:`decay_report` measure.  Each
check's CSV (or JSON) table is rendered from its report's per-radius values by
:func:`_table`, next to its entry in ``summary.json``; every file is written to
a temporary sibling and renamed into place.  All quantities are dimensionless
(geometrized units).

Exit codes: 0 every requested check passes, 1 a certification failed, 2 a
usage or configuration error, 3 a numerical error (singular metric,
non-finite jets, undefined center, radius inside the excluded ball), 4 an
internal error (any other exception, reported in one line).  A numerical
error names the check that hit it and where: the functional and schedule
radius of a sweep or the annulus of a scalar-curvature shell, the first to
fail alone (:func:`~admflux.invariants.refine`), the identity surface, or the
decay check.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, invariants
from .analysis import ConvergenceReport
from .catalog import CatalogSpec, build
from .errors import AdmfluxError, ConfigError
from .metric_field import MetricField, decay_report
from .surfaces import check_rule_size, sphere_quadrature

ALL_FUNCTIONALS = (
    "adm_mass",
    "intrinsic_mass",
    "cs_center",
    "intrinsic_center",
    "identity_residuals",
    "scalar_moments",
    "decay_checks",
)

SUBCOMMAND_FUNCTIONALS = {
    "mass": ("adm_mass", "intrinsic_mass"),
    "center": ("cs_center", "intrinsic_center"),
    "compare": ("adm_mass", "intrinsic_mass", "cs_center", "intrinsic_center"),
    "identities": ("identity_residuals",),
    "decay": ("decay_checks",),
    "sweep": None,  # use the config's functional list
}

EXIT_PASS = 0
EXIT_CERTIFICATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3
EXIT_INTERNAL_ERROR = 4

#: Scalar-curvature shells within this multiple of their scale are rounding
#: noise: ``R`` is a contraction of ``R_ij``, so its rounding is relative to
#: ``max |R_ij|``.  Schwarzschild shells, where ``R`` vanishes, measure up to
#: about ``1.4 eps`` of their scale.
SHELL_NOISE = 16 * sys.float_info.epsilon


def decreasing_to_zero(seq, floor=None) -> bool:
    """The "tends to zero" rule of the decay and shell checks: each entry ``1e-9`` relative below
    the one before, unless both sit at their rounding floors.

    ``floor`` is a number or one per entry; by default ``1e-12 * max(1, max(seq))``.  A constant
    positive sequence fails; trailing zeros after a decrease, or an all-zero sequence, pass.
    """
    seq = np.asarray(seq, dtype=float)
    if floor is None:
        floor = 1e-12 * max(1.0, float(np.max(seq, initial=0.0)))
    floors = np.broadcast_to(np.asarray(floor, dtype=float), seq.shape)
    ok = True
    for a, b, fa, fb in zip(seq, seq[1:], floors, floors[1:]):
        if a <= fa and b <= fb:
            continue
        ok = ok and (b <= a * (1.0 - 1e-9))
    return bool(ok)


#: Reaches far enough out that the canonical examples' final samples sit
#: within the default limit tolerance of their fitted limits.
DEFAULT_RADII = tuple(100.0 * 2**k for k in range(9))


@dataclass
class RunConfig:
    """Run description: metric, checks, schedule, outputs."""

    metric: CatalogSpec
    functionals: tuple[str, ...] = ALL_FUNCTIONALS
    radii: tuple[float, ...] = DEFAULT_RADII
    #: Semi-axes per unit radius of the schedule's ellipsoids; None for spheres.
    ratios: tuple[float, ...] | None = None
    order: int = 24
    tol: float = 1e-4
    identity_tol: float = 1e-8
    out_dir: Path = Path("admflux-out")
    fmt: str = "csv"


def _finite(value, what: str) -> float:
    """``float(value)``, or :class:`ConfigError` naming ``what`` unless it is a finite number.

    JSON admits ``NaN``, ``Infinity`` and integers too large for a float, and
    Python reads ``true`` as a number; every numeric config value passes
    through here so that none reaches the certification.
    """
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc
    if isinstance(value, bool) or not math.isfinite(out):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return out


def _integer(value, what: str) -> int:
    """``value`` as an ``int``, or :class:`ConfigError` naming ``what`` unless it
    is a finite whole number (``3`` or ``3.0``, not ``3.7``)."""
    out = _finite(value, what)
    if not out.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(out)


def _typed(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind`` (``dict``, ``list`` or ``str``),
    else :class:`ConfigError` naming ``what``.  Every config section, list and
    string is read through here."""
    if not isinstance(value, kind):
        json_kind = {dict: "an object", list: "an array", str: "a string"}[kind]
        raise ConfigError(f"{what} must be {json_kind}, got {value!r}")
    return value


def _section(value, known, what: str) -> dict:
    """The JSON object ``value``, named ``what``, or :class:`ConfigError` naming its first key not in
    ``known``.  Every config section is read through here: a misspelled key leaves no default in force."""
    unknown = [key for key in _typed(value, dict, what) if key not in known]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {what}; choose from {', '.join(known)}")
    return value


def _floats(value, what: str, entry: str) -> tuple[float, ...]:
    """The JSON array ``value``, named ``what``, as a tuple of finite numbers."""
    return tuple(_finite(t, entry) for t in _typed(value, list, what))


#: Each key of a metric's ``bump`` object: its CatalogSpec field and reader.
_BUMP_KEYS = {
    "amplitude": ("bump_amplitude", lambda v: _finite(v, "bump amplitude")),
    "width": ("bump_width", lambda v: _finite(v, "bump width")),
    "location": ("bump_location", lambda v: _floats(v, "bump 'location'", "bump location entry")),
    "parity": ("bump_parity", lambda v: _typed(v, str, "bump 'parity'")),
    "profile": ("bump_profile", lambda v: _typed(v, str, "bump 'profile'")),
    "tail_power": ("bump_tail_power", lambda v: _integer(v, "bump tail_power")),
}


def _parse_metric(obj: dict, what: str = "'metric'") -> CatalogSpec:
    """The :class:`CatalogSpec` of a metric object, named ``what``: every key
    present, read as its JSON type; the spec's defaults fill the rest, and
    :func:`build` decides what the kind needs."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{what} must be an object with a 'kind' entry")
    _section(obj, ("kind", "dim", "label", "inner_radius", "mass", "amplitude", "center", "u", "base", "bump"), what)
    kwargs: dict = {"kind": _typed(obj["kind"], str, "metric 'kind'")}
    if "dim" in obj:
        kwargs["dim"] = _integer(obj["dim"], "metric dim")
    if "label" in obj:
        kwargs["label"] = _typed(obj["label"], str, "metric 'label'")
    for key in ("inner_radius", "mass", "amplitude"):
        if key in obj:
            kwargs[key] = _finite(obj[key], key)
    if "center" in obj:
        kwargs["center"] = _floats(obj["center"], "'center'", "center entry")
    if "u" in obj:
        pairs = [_typed(t, list, "'u' entry") for t in _typed(obj["u"], list, "'u'")]
        for pair in pairs:
            if len(pair) != 2:
                raise ConfigError(f"'u' entry must be a [power, coefficient] pair, got {pair!r}")
        kwargs["u_coeffs"] = tuple(
            (_integer(k, "u power"), _finite(a, "u coefficient")) for k, a in pairs
        )
    if "base" in obj:
        kwargs["base"] = _parse_metric(obj["base"], "metric 'base'")
    bump = _section(obj.get("bump", {}), tuple(_BUMP_KEYS), "'bump'")
    for key, (name, read) in _BUMP_KEYS.items():
        if key in bump:
            kwargs[name] = read(bump[key])
    return CatalogSpec(**kwargs)


def load_config(path: str | Path) -> RunConfig:
    """Parse a JSON run configuration; :func:`run_checks` validates the run."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _section(obj, ("metric", "functionals", "schedule", "order", "tolerances", "output"), "the top level")
    if "metric" not in obj:
        raise ConfigError(f"{path}: missing 'metric'")
    cfg = RunConfig(metric=_parse_metric(obj["metric"]))
    if "functionals" in obj:
        fns = tuple(_typed(t, str, "'functionals' entry") for t in _typed(obj["functionals"], list, "'functionals'"))
        unknown = [t for t in fns if t not in ALL_FUNCTIONALS]
        if unknown:
            raise ConfigError(f"{path}: unknown functionals {unknown}; choose from {ALL_FUNCTIONALS}")
        if not fns:
            raise ConfigError(f"{path}: 'functionals' must not be empty")
        cfg.functionals = fns
    sched = _section(obj.get("schedule", {}), ("kind", "radii", "ratios"), "'schedule'")
    if "radii" in sched:
        cfg.radii = _floats(sched["radii"], "schedule 'radii'", "schedule radius")
    kind = _typed(sched.get("kind", "spheres"), str, "schedule 'kind'")
    if kind not in ("spheres", "ellipsoids"):
        raise ConfigError(f"{path}: schedule kind must be 'spheres' or 'ellipsoids'")
    ratios = _floats(sched.get("ratios", [2.0, 1.0, 1.0]), "schedule 'ratios'", "ellipsoid ratio")
    cfg.ratios = ratios if kind == "ellipsoids" else None
    if "order" in obj:
        cfg.order = _integer(obj["order"], "order")
    tols = _section(obj.get("tolerances", {}), ("limit", "identity"), "'tolerances'")
    cfg.tol = _finite(tols.get("limit", cfg.tol), "limit tolerance")
    cfg.identity_tol = _finite(tols.get("identity", cfg.identity_tol), "identity tolerance")
    out = _section(obj.get("output", {}), ("dir", "format"), "'output'")
    cfg.out_dir = Path(_typed(out.get("dir", str(cfg.out_dir)), str, "output 'dir'"))
    cfg.fmt = _typed(out.get("format", cfg.fmt), str, "output 'format'")
    return cfg


def _validate_config(cfg: RunConfig, functionals: tuple[str, ...] = ALL_FUNCTIONALS) -> MetricField:
    """The field of the run ``cfg`` describes, checking ``functionals``, or
    :class:`ConfigError` naming what makes the run invalid."""
    analysis.check_schedule(cfg.radii, cfg.order)
    for order in (cfg.order, 8):  # the start order's rules and the order-8 decay grid
        check_rule_size(cfg.metric.dim, order)
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError(f"output format must be 'csv' or 'json', got {cfg.fmt!r}")
    if cfg.tol <= 0 or cfg.identity_tol <= 0:
        raise ConfigError("tolerances must be positive")
    # the tables are written only after every check: refuse a directory that
    # cannot be made before any check runs
    for path in (cfg.out_dir, *cfg.out_dir.parents):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"output 'dir' {cfg.out_dir}: {path} is not a directory")
    fld = build(cfg.metric)
    if cfg.ratios is not None and (len(cfg.ratios) != fld.dim or min(cfg.ratios) <= 0):
        raise ConfigError(
            f"schedule ratios must be {fld.dim} positive numbers, got {list(cfg.ratios)}"
        )
    ratios = cfg.ratios or (1.0,)
    if {"identity_residuals", "scalar_moments", "decay_checks"} & set(functionals):
        ratios = (*ratios, 1.0)  # these checks use spheres of the schedule radii themselves
    if cfg.radii[0] * min(ratios) < fld.inner_radius:
        raise ConfigError(
            f"smallest schedule radius {cfg.radii[0]:g} (scale {min(ratios):g}) lies inside "
            f"the metric's inner radius {fld.inner_radius:g}"
        )
    # the checks form powers of a radius up to r^(2 + n/2), at most r^(n + 2)
    if (fld.dim + 2) * math.log(cfg.radii[-1] * max(ratios)) > math.log(sys.float_info.max):
        raise ConfigError(
            f"largest schedule radius {cfg.radii[-1]:g} (scale {max(ratios):g}) is too large: "
            f"its power {fld.dim + 2} overflows a float"
        )
    return fld


# ---------------------------------------------------------------------------
# check execution


def run_checks(cfg: RunConfig, functionals: tuple[str, ...], with_compare: bool) -> dict[str, ConvergenceReport]:
    """Validate the run and build its field once, then run the requested checks: their reports by check name."""
    fld = _validate_config(cfg, functionals)
    swept = [name for name in analysis.FUNCTIONALS if name in functionals]
    sweeps: dict[str, ConvergenceReport] = {}
    if swept:
        sweeps = analysis.sweep(
            fld, swept, cfg.radii, ratios=cfg.ratios, order=cfg.order, tol=cfg.tol
        )
    reports = {name: sweeps[name] for name in swept}
    for name, a, b in (
        ("mass_difference", "adm_mass", "intrinsic_mass"),
        ("center_difference", "cs_center", "intrinsic_center"),
    ):
        if with_compare and a in sweeps and b in sweeps:
            reports[name] = analysis.compare(sweeps[a], sweeps[b], tol=cfg.tol)
    if "identity_residuals" in functionals:
        reports.update(_identity_checks(fld, cfg))
    if "scalar_moments" in functionals:
        reports["scalar_moment_shells"] = _scalar_moment_check(fld, cfg)
    if "decay_checks" in functionals:
        reports.update(_decay_checks(fld, cfg))
    return reports


def _identity_checks(fld: MetricField, cfg: RunConfig) -> dict[str, ConvergenceReport]:
    # The identities hold on any enclosing surface; small radii keep the
    # cancelled integrals O(1) so the residual reflects quadrature error
    # rather than rounding of large terms.
    r_used = cfg.radii[0] if fld.inner_radius == 0 else cfg.radii[1]
    outer = sphere_quadrature(fld.dim, r_used, cfg.order)
    inner = None if fld.inner_radius == 0 else sphere_quadrature(fld.dim, cfg.radii[0], cfg.order)
    with invariants._naming(f"identity_residuals at schedule radius {r_used:g}"):
        res_x, res_y = invariants.identity_residuals(fld, outer, inner=inner)
    return {
        f"identity_residual_{which}": ConvergenceReport(
            radii=(r_used,), values=[res], fitted_limit=res, fitted_rate=None,
            verdict=bool(np.all(np.abs(res) <= cfg.identity_tol)), tolerance=cfg.identity_tol,
        )
        for which, res in (("X", res_x), ("Y", res_y))
    }


def _scalar_moment_check(fld: MetricField, cfg: RunConfig) -> ConvergenceReport:
    """Shell integrals of the scalar curvature over the schedule's annuli.

    The outer half of the shells must decrease to zero, where a shell within
    :data:`SHELL_NOISE` of its scale counts as zero.  An annulus whose radial
    or angular rule did not converge fails the check and is named in the
    failure with that rule.
    """
    annuli = list(zip(cfg.radii, cfg.radii[1:]))
    shells = invariants.scalar_curvature_moment(fld, cfg.radii, moment=0)
    tail = shells[len(shells) // 2 :]
    decays = decreasing_to_zero(
        [abs(s.value) for s in tail], floor=[SHELL_NOISE * s.scale for s in tail]
    )
    stalled = [
        f"{s.stalled} rule unconverged on {r0:g} < |x| < {r1:g}"
        for (r0, r1), s in zip(annuli, shells) if s.stalled
    ]
    return ConvergenceReport(
        radii=cfg.radii[1:], values=[(s.value, s.error, s.scale) for s in shells], fitted_limit=shells[-1].value,
        fitted_rate=None, verdict=decays and not stalled, tolerance=cfg.tol, failure="; ".join(stalled) or None,
        columns=("value", "error", "scale"),
    )


def _decay_checks(fld: MetricField, cfg: RunConfig) -> dict[str, ConvergenceReport]:
    """The decay hypotheses ``decay_all`` and ``decay_odd`` from :func:`decay_report`'s weighted sups.

    Each derivative order's sups must decrease to zero over the outer half of
    the schedule, by the shells' rule; a failure names the orders that do not.
    """
    with invariants._naming("decay_checks"):
        sups = decay_report(fld, cfg.radii)
    reports = {}
    for part, s in sups.items():
        orders = [str(m) for m in range(3) if not decreasing_to_zero(s[len(s) // 2 :, m])]
        reports[f"decay_{part}"] = ConvergenceReport(
            radii=cfg.radii, values=s, fitted_limit=s[-1], fitted_rate=None, verdict=not orders, tolerance=cfg.tol,
            failure=f"derivative orders {', '.join(orders)} do not decrease to zero" if orders else None,
        )
    return reports


# ---------------------------------------------------------------------------
# output


def _table(report: ConvergenceReport) -> tuple[list[str], list[list[float]]]:
    """The header ``["r", *columns]`` and the rows ``[r, *values[i]]`` of a check's table; vector
    values have the columns ``value_1..value_k`` unless the report names them."""
    values = np.asarray(report.values, dtype=float)
    columns = report.columns or (
        ("value",) if values.ndim == 1 else tuple(f"value_{a + 1}" for a in range(values.shape[1]))
    )
    rows = [[float(r), *np.atleast_1d(v).tolist()] for r, v in zip(report.radii, values)]
    return ["r", *columns], rows


def _summary(name: str, report: ConvergenceReport) -> dict:
    """The entry of check ``name`` in ``summary.json``."""
    out = {
        "functional": name,
        "fitted_limit": np.asarray(report.fitted_limit).tolist(),
        "fitted_rate": report.fitted_rate,
        "verdict": bool(report.verdict),
        "tolerance": report.tolerance,
    }
    if report.failure is not None:
        out["failure"] = report.failure
    return out


def _write_tables(reports: dict[str, ConvergenceReport], cfg: RunConfig) -> None:
    files = {}
    for name, report in reports.items():
        columns, rows = _table(report)
        if cfg.fmt == "csv":
            buf = io.StringIO()
            csv.writer(buf).writerows([columns, *([repr(float(v)) for v in row] for row in rows)])
            files[f"{name}.csv"] = buf.getvalue()
        else:
            records = [dict(zip(columns, row)) for row in rows]
            files[f"{name}.json"] = json.dumps(records, indent=2, sort_keys=True) + "\n"
    summary = {"checks": [_summary(name, report) for name, report in reports.items()]}
    files["summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():  # renamed into place: a failed write keeps the old file
        tmp = cfg.out_dir / f".{name}.tmp"
        try:
            tmp.write_text(text, encoding="utf-8", newline="")
            os.replace(tmp, cfg.out_dir / name)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def run(cfg: RunConfig, functionals: tuple[str, ...] | None = None, with_compare: bool = True) -> int:
    """Execute the configured checks, write artifacts, and return the exit status."""
    wanted = functionals if functionals is not None else cfg.functionals
    try:
        with np.errstate(all="ignore"):  # a failure is reported in one line below
            reports = run_checks(cfg, wanted, with_compare)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except AdmfluxError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    _write_tables(reports, cfg)
    for name, report in reports.items():
        status = "PASS" if report.verdict else "FAIL"
        failure = f" ({report.failure})" if report.failure else ""
        print(f"[{status}] {name}: limit={_fmt(report.fitted_limit)} "
              f"rate={_fmt(report.fitted_rate)} tol={report.tolerance:g}{failure}")
    if all(r.verdict for r in reports.values()):
        return EXIT_PASS
    return EXIT_CERTIFICATION_FAILURE


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "(" + ", ".join(f"{float(v):.6g}" for v in np.atleast_1d(value)) + ")"
    return f"{float(value):.6g}"


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admflux",
        description="Convergence tables and verdicts for mass and center-of-mass "
        "invariants of asymptotically flat metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("mass", "flux and curvature mass sweeps"),
        ("center", "both center-of-mass sweeps"),
        ("compare", "difference certifications between the two routes"),
        ("identities", "integration-by-parts residual checks"),
        ("decay", "decay-class checks for the deviation and its odd part"),
        ("sweep", "full suite from the config's functional list"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="JSON run configuration")
        p.add_argument("--order", type=int, help="override quadrature order")
        p.add_argument("--radii", type=str, help="override schedule, comma-separated")
        p.add_argument("--out", type=Path, help="override output directory")
        p.add_argument("--format", choices=("csv", "json"), help="table format")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run a subcommand and return its exit status.

    An exception that neither the configuration (exit 2) nor the numerics
    (exit 3) account for is a crash, not a verdict: it prints one
    ``internal error`` line and returns :data:`EXIT_INTERNAL_ERROR`.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _main(args)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def _main(args: argparse.Namespace) -> int:
    try:
        if args.config is not None:
            cfg = load_config(args.config)
        else:
            cfg = RunConfig(metric=CatalogSpec(kind="schwarzschild", mass=1.0))
        if args.order is not None:
            cfg.order = args.order
        if args.radii is not None:
            cfg.radii = tuple(_finite(t, "--radii entry") for t in args.radii.split(","))
        if args.out is not None:
            cfg.out_dir = args.out
        if args.format is not None:
            cfg.fmt = args.format
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    functionals = SUBCOMMAND_FUNCTIONALS[args.command]
    with_compare = args.command in ("compare", "sweep")
    return run(cfg, functionals=functionals, with_compare=with_compare)


if __name__ == "__main__":
    sys.exit(main())
