"""Configuration-driven command line producing convergence tables and verdicts.

Subcommands select which checks run; a JSON config file describes the metric,
the surface schedule and tolerances.  Flags override the config, and the final
run is validated once, in :func:`run_checks`, which builds the one metric
field every check uses.  Each check writes a CSV (or JSON) table of
per-radius values plus an entry in ``summary.json``.  All quantities are
dimensionless (geometrized units).

Exit codes: 0 every requested check passes, 1 a certification failed, 2 a
usage or configuration error, 3 a numerical error (singular metric,
non-finite jets, undefined center, radius inside the excluded ball), 4 an
internal error (any other exception, reported in one line).  A numerical
error names the check that hit it and where: the functional and schedule
radius of a sweep, the identity surface, the decay check, or the annulus of
a scalar-curvature shell.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, invariants
from .catalog import CatalogSpec, build
from .errors import (
    ConfigError,
    DomainError,
    NonFiniteError,
    SingularMetricError,
    UndefinedCenterError,
)
from .metric_field import MetricField, decay_report, decreasing_to_zero
from .surfaces import sphere_quadrature

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

    JSON admits ``NaN``, ``Infinity`` and integers too large for a float;
    every numeric config value passes through here so that none reaches the
    certification.
    """
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc
    if not math.isfinite(out):
        raise ConfigError(f"{what} must be finite, got {value!r}")
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
    else :class:`ConfigError` naming ``what``.  Every config section and list
    is read through here."""
    if not isinstance(value, kind):
        json_kind = {dict: "an object", list: "an array", str: "a string"}[kind]
        raise ConfigError(f"{what} must be {json_kind}, got {value!r}")
    return value


def _parse_metric(obj: dict) -> CatalogSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("'metric' must be an object with a 'kind' entry")
    kind = obj["kind"]
    kwargs: dict = {"kind": kind, "dim": _integer(obj.get("dim", 3), "metric dim")}
    if "label" in obj:
        kwargs["label"] = str(obj["label"])
    if "inner_radius" in obj:
        kwargs["inner_radius"] = _finite(obj["inner_radius"], "inner_radius")
    if kind == "schwarzschild":
        kwargs["mass"] = _finite(obj.get("mass", 1.0), "mass")
        kwargs["center"] = _center(obj)
    elif kind == "conformal":
        pairs = [_typed(t, list, "'u' entry") for t in _typed(obj.get("u", []), list, "'u'")]
        for pair in pairs:
            if len(pair) != 2:
                raise ConfigError(f"'u' entry must be a [power, coefficient] pair, got {pair!r}")
        kwargs["u_coeffs"] = tuple(
            (_integer(k, "u power"), _finite(a, "u coefficient")) for k, a in pairs
        )
        kwargs["center"] = _center(obj)
    elif kind == "perturbed":
        if "base" not in obj:
            raise ConfigError("perturbed metric config needs a 'base'")
        kwargs["base"] = _parse_metric(obj["base"])
        bump = _typed(obj.get("bump", {}), dict, "'bump'")
        kwargs["bump_amplitude"] = _finite(bump.get("amplitude", 0.05), "bump amplitude")
        kwargs["bump_width"] = _finite(bump.get("width", 2.0), "bump width")
        kwargs["bump_location"] = tuple(
            _finite(t, "bump location entry")
            for t in _typed(bump.get("location", []), list, "bump 'location'")
        )
        kwargs["bump_parity"] = str(bump.get("parity", "none"))
        kwargs["bump_profile"] = str(bump.get("profile", "gaussian"))
        kwargs["bump_tail_power"] = _integer(bump.get("tail_power", 3), "bump tail_power")
    elif kind == "rt_violator":
        kwargs["amplitude"] = _finite(obj.get("amplitude", 0.5), "amplitude")
    elif kind != "flat":
        raise ConfigError(f"unknown metric kind {kind!r}")
    return CatalogSpec(**kwargs)


def _center(obj: dict) -> tuple[float, ...]:
    center = _typed(obj.get("center", []), list, "'center'")
    return tuple(_finite(t, "center entry") for t in center)


def load_config(path: str | Path) -> RunConfig:
    """Parse a JSON run configuration; :func:`run_checks` validates the run."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be an object")
    if "metric" not in obj:
        raise ConfigError(f"{path}: missing 'metric'")
    cfg = RunConfig(metric=_parse_metric(obj["metric"]))
    if "functionals" in obj:
        fns = tuple(str(t) for t in _typed(obj["functionals"], list, "'functionals'"))
        unknown = [t for t in fns if t not in ALL_FUNCTIONALS]
        if unknown:
            raise ConfigError(f"{path}: unknown functionals {unknown}; choose from {ALL_FUNCTIONALS}")
        if not fns:
            raise ConfigError(f"{path}: 'functionals' must not be empty")
        cfg.functionals = fns
    sched = _typed(obj.get("schedule", {}), dict, "'schedule'")
    if "radii" in sched:
        radii = _typed(sched["radii"], list, "schedule 'radii'")
        cfg.radii = tuple(_finite(t, "schedule radius") for t in radii)
    kind = str(sched.get("kind", "spheres"))
    if kind not in ("spheres", "ellipsoids"):
        raise ConfigError(f"{path}: schedule kind must be 'spheres' or 'ellipsoids'")
    ratios = _typed(sched.get("ratios", [2.0, 1.0, 1.0]), list, "schedule 'ratios'")
    ratios = tuple(_finite(t, "ellipsoid ratio") for t in ratios)
    cfg.ratios = ratios if kind == "ellipsoids" else None
    if "order" in obj:
        cfg.order = _integer(obj["order"], "order")
    tols = _typed(obj.get("tolerances", {}), dict, "'tolerances'")
    cfg.tol = _finite(tols.get("limit", cfg.tol), "limit tolerance")
    cfg.identity_tol = _finite(tols.get("identity", cfg.identity_tol), "identity tolerance")
    out = _typed(obj.get("output", {}), dict, "'output'")
    cfg.out_dir = Path(_typed(out.get("dir", str(cfg.out_dir)), str, "output 'dir'"))
    cfg.fmt = str(out.get("format", cfg.fmt))
    return cfg


def _validate_config(cfg: RunConfig) -> MetricField:
    """The field of the run ``cfg`` describes, or :class:`ConfigError` naming
    what makes the run invalid."""
    analysis.check_schedule(cfg.radii, cfg.order)
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError(f"output format must be 'csv' or 'json', got {cfg.fmt!r}")
    if cfg.tol <= 0 or cfg.identity_tol <= 0:
        raise ConfigError("tolerances must be positive")
    fld = build(cfg.metric)
    if cfg.ratios is not None and (len(cfg.ratios) != fld.dim or min(cfg.ratios) <= 0):
        raise ConfigError(
            f"schedule ratios must be {fld.dim} positive numbers, got {list(cfg.ratios)}"
        )
    ratios = cfg.ratios or (1.0,)
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


@dataclass
class Check:
    name: str
    verdict: bool
    fitted_limit: object
    fitted_rate: float | None
    tolerance: float
    table_columns: list[str] = field(default_factory=list)
    table_rows: list[list[float]] = field(default_factory=list)
    #: What failed where, when the table alone does not show it.
    failure: str | None = None

    def summary(self) -> dict:
        lim = self.fitted_limit
        if isinstance(lim, np.ndarray):
            lim = [float(t) for t in lim]
        out = {
            "functional": self.name,
            "fitted_limit": lim,
            "fitted_rate": self.fitted_rate,
            "verdict": bool(self.verdict),
            "tolerance": self.tolerance,
        }
        if self.failure is not None:
            out["failure"] = self.failure
        return out


def _report_check(report: analysis.ConvergenceReport, name: str) -> Check:
    if report.is_vector:
        cols = ["r"] + [f"value_{a + 1}" for a in range(report.values.shape[1])]
        rows = [[r, *map(float, report.values[i])] for i, r in enumerate(report.radii)]
    else:
        cols = ["r", "value"]
        rows = [[r, float(report.values[i])] for i, r in enumerate(report.radii)]
    return Check(
        name=name,
        verdict=report.verdict,
        fitted_limit=report.fitted_limit,
        fitted_rate=report.fitted_rate,
        tolerance=report.tolerance,
        table_columns=cols,
        table_rows=rows,
    )


def run_checks(cfg: RunConfig, functionals: tuple[str, ...], with_compare: bool) -> list[Check]:
    """Validate the run and build its field once, then run the requested checks."""
    fld = _validate_config(cfg)
    swept = [name for name in analysis.FUNCTIONALS if name in functionals]
    sweeps: dict[str, analysis.ConvergenceReport] = {}
    if swept:
        sweeps = analysis.sweep(
            fld, swept, cfg.radii, ratios=cfg.ratios, order=cfg.order, tol=cfg.tol
        )
    checks = [_report_check(sweeps[name], name) for name in swept]

    if with_compare and "adm_mass" in sweeps and "intrinsic_mass" in sweeps:
        diff = analysis.compare(sweeps["adm_mass"], sweeps["intrinsic_mass"], tol=cfg.tol)
        checks.append(_report_check(diff, "mass_difference"))
    if with_compare and "cs_center" in sweeps and "intrinsic_center" in sweeps:
        diff = analysis.compare(sweeps["cs_center"], sweeps["intrinsic_center"], tol=cfg.tol)
        checks.append(_report_check(diff, "center_difference"))

    if "identity_residuals" in functionals:
        checks.extend(_identity_checks(fld, cfg))
    if "scalar_moments" in functionals:
        checks.append(_scalar_moment_check(fld, cfg))
    if "decay_checks" in functionals:
        checks.extend(_decay_checks(fld, cfg))
    return checks


def _identity_checks(fld: MetricField, cfg: RunConfig) -> list[Check]:
    # The identities hold on any enclosing surface; small radii keep the
    # cancelled integrals O(1) so the residual reflects quadrature error
    # rather than rounding of large terms.
    if fld.metadata.get("globally_smooth", False):
        outer = sphere_quadrature(fld.dim, cfg.radii[0], cfg.order)
        inner = None
    else:
        outer = sphere_quadrature(fld.dim, cfg.radii[1], cfg.order)
        inner = sphere_quadrature(fld.dim, cfg.radii[0], cfg.order)
    r_used = outer.nominal_radius
    with analysis._naming(f"identity_residuals at schedule radius {r_used:g}"):
        res_x, res_y = invariants.identity_residuals(fld, outer, inner=inner)
    rows = [float(res) for res in res_y]
    return [
        Check(
            name="identity_residual_X",
            verdict=abs(res_x) <= cfg.identity_tol,
            fitted_limit=res_x,
            fitted_rate=None,
            tolerance=cfg.identity_tol,
            table_columns=["r", "value"],
            table_rows=[[r_used, res_x]],
        ),
        Check(
            name="identity_residual_Y",
            verdict=all(abs(res) <= cfg.identity_tol for res in rows),
            fitted_limit=np.array(rows),
            fitted_rate=None,
            tolerance=cfg.identity_tol,
            table_columns=["r"] + [f"value_{a + 1}" for a in range(fld.dim)],
            table_rows=[[r_used, *rows]],
        ),
    ]


def _scalar_moment_check(fld: MetricField, cfg: RunConfig) -> Check:
    """Shell integrals of the scalar curvature over the schedule's annuli.

    The outer half of the shells must decrease to zero, where a shell within
    :data:`SHELL_NOISE` of its scale counts as zero.  An annulus whose radial
    rule did not converge fails the check and is named in the failure.
    """
    annuli = list(zip(cfg.radii, cfg.radii[1:]))
    shells = []
    for r0, r1 in annuli:
        with analysis._naming(f"scalar_moment_shells on {r0:g} < |x| < {r1:g}"):
            shells.append(
                invariants.scalar_curvature_moment(fld, r0, r1, moment=0, order=min(cfg.order, 16))
            )
    tail = shells[len(shells) // 2 :]
    decays = decreasing_to_zero(
        [abs(s.value) for s in tail], floor=[SHELL_NOISE * s.scale for s in tail]
    )
    stalled = [f"{r0:g} < |x| < {r1:g}" for (r0, r1), s in zip(annuli, shells) if not s.converged]
    return Check(
        name="scalar_moment_shells",
        verdict=decays and not stalled,
        fitted_limit=shells[-1].value,
        fitted_rate=None,
        tolerance=cfg.tol,
        table_columns=["r", "value", "error", "scale"],
        table_rows=[[r1, s.value, s.error, s.scale] for (_, r1), s in zip(annuli, shells)],
        failure="radial rule unconverged on " + ", ".join(stalled) if stalled else None,
    )


def _decay_checks(fld: MetricField, cfg: RunConfig) -> list[Check]:
    with analysis._naming("decay_checks"):
        reports = decay_report(fld, cfg.radii)
    return [
        Check(
            name=f"decay_{rep.part}",
            verdict=rep.ok,
            fitted_limit=rep.sups[-1].tolist(),
            fitted_rate=None,
            tolerance=cfg.tol,
            table_columns=["r", "value_1", "value_2", "value_3"],
            table_rows=[[r, *map(float, rep.sups[a])] for a, r in enumerate(rep.radii)],
        )
        for rep in reports
    ]


# ---------------------------------------------------------------------------
# output


def _write_tables(checks: list[Check], cfg: RunConfig) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for check in checks:
        if cfg.fmt == "csv":
            path = cfg.out_dir / f"{check.name}.csv"
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(check.table_columns)
                for row in check.table_rows:
                    writer.writerow([repr(float(v)) for v in row])
        else:
            path = cfg.out_dir / f"{check.name}.json"
            records = [dict(zip(check.table_columns, map(float, row))) for row in check.table_rows]
            path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    summary = {"checks": [c.summary() for c in checks]}
    (cfg.out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def run(cfg: RunConfig, functionals: tuple[str, ...] | None = None, with_compare: bool = True) -> int:
    """Execute the configured checks, write artifacts, and return the exit status."""
    wanted = functionals if functionals is not None else cfg.functionals
    try:
        checks = run_checks(cfg, wanted, with_compare)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (DomainError, NonFiniteError, SingularMetricError, UndefinedCenterError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    _write_tables(checks, cfg)
    for check in checks:
        status = "PASS" if check.verdict else "FAIL"
        failure = f" ({check.failure})" if check.failure else ""
        print(f"[{status}] {check.name}: limit={_fmt(check.fitted_limit)} "
              f"rate={_fmt(check.fitted_rate)} tol={check.tolerance:g}{failure}")
    if all(c.verdict for c in checks):
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
