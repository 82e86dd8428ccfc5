"""Closed-form oracle for one admflux certification.

A certification counts as failed when the process crashed or exited with a
code other than 0 (all checks pass) or 1 (a verdict FAILed), when a requested
table or ``summary.json`` is missing, when an exact integration-by-parts
identity FAILs, or when a fitted mass or center limit misses the catalog's
closed-form value by more than that check's own ``tolerance``.  A FAIL verdict
whose limit is correct is a documented outcome and is only recorded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Certification

MASS_CHECKS = ("adm_mass", "intrinsic_mass")
CENTER_CHECKS = ("cs_center", "intrinsic_center")
DIFFERENCE_CHECKS = ("mass_difference", "center_difference")
IDENTITY_CHECKS = ("identity_residual_X", "identity_residual_Y")


@dataclass
class Verdict:
    """Outcome of one certification as the oracle judged it."""

    ok: bool
    exit_code: int | None
    problems: list[str] = field(default_factory=list)
    verdicts: dict[str, bool] = field(default_factory=dict)
    limit_err: float = 0.0

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "exit_code": self.exit_code,
            "problems": self.problems,
            "verdicts": self.verdicts,
            "limit_err": self.limit_err,
        }


def _gap(limit, expected) -> float:
    lim = limit if isinstance(limit, list) else [limit]
    exp = expected if isinstance(expected, (list, tuple)) else [expected]
    if len(lim) != len(exp):
        return float("inf")
    return max(abs(float(a) - float(b)) for a, b in zip(lim, exp))


def judge(cert: Certification, out_dir: Path, exit_code: int | None) -> Verdict:
    """Check the outputs ``cert`` wrote to ``out_dir``; ``exit_code`` None means it crashed."""
    problems: list[str] = []
    if exit_code not in (0, 1):
        problems.append(f"exit code {exit_code}, expected 0 or 1")
        return Verdict(ok=False, exit_code=exit_code, problems=problems)
    summary_path = out_dir / "summary.json"
    try:
        checks = json.loads(summary_path.read_text(encoding="utf-8"))["checks"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"summary.json unreadable: {exc}")
        return Verdict(ok=False, exit_code=exit_code, problems=problems)

    by_name = {c["functional"]: c for c in checks}
    verdicts = {c["functional"]: bool(c["verdict"]) for c in checks}
    for name in cert.expected_checks():
        if name not in by_name:
            problems.append(f"check {name} missing from summary.json")
        elif not (out_dir / f"{name}.csv").is_file():
            problems.append(f"table {name}.csv missing")

    expected = {name: cert.mass for name in MASS_CHECKS}
    expected.update({name: list(cert.center) for name in CENTER_CHECKS})
    expected["mass_difference"] = 0.0
    expected["center_difference"] = [0.0, 0.0, 0.0]
    worst = 0.0
    for name, value in expected.items():
        if name not in by_name:
            continue
        check = by_name[name]
        gap = _gap(check["fitted_limit"], value)
        if name not in DIFFERENCE_CHECKS:
            worst = max(worst, gap)
        if not gap <= float(check["tolerance"]):
            problems.append(
                f"{name}: limit {check['fitted_limit']} misses {value} by {gap:.3e} "
                f"> tolerance {check['tolerance']:.3e}"
            )
    for name in IDENTITY_CHECKS:
        if name in by_name and not by_name[name]["verdict"]:
            problems.append(f"{name} FAILed: residual {by_name[name]['fitted_limit']}")
    return Verdict(
        ok=not problems, exit_code=exit_code, problems=problems, verdicts=verdicts, limit_err=worst
    )
