"""Seeded workload generator: admflux run configs plus their closed-form answers.

Each workload is a fixed list of certifications drawn from ``--seed``.  The
program under test sees only the generated JSON config; the expected mass and
center travel separately to the oracle.  Parameter ranges are fixed per
workload and are not tuned per seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

RADII = [100.0 * 2**k for k in range(9)]  # 100 ... 25600

ALL_FUNCTIONALS = [
    "adm_mass",
    "intrinsic_mass",
    "cs_center",
    "intrinsic_center",
    "identity_residuals",
    "scalar_moments",
    "decay_checks",
]
FLUX_FUNCTIONALS = ["adm_mass", "cs_center", "identity_residuals", "decay_checks"]
COMPARE_FUNCTIONALS = ["adm_mass", "intrinsic_mass", "cs_center", "intrinsic_center"]

WORKLOADS = ("sphere-suite", "flux-cold")


@dataclass(frozen=True)
class Certification:
    """One admflux invocation: subcommand, generated config and its closed-form answer."""

    name: str
    subcommand: str
    functionals: tuple[str, ...]
    config: dict
    mass: float
    center: tuple[float, float, float]

    def expected_checks(self) -> list[str]:
        """Check names the run must report, in the order ``admflux`` writes them."""
        fns = self.functionals
        names = [f for f in COMPARE_FUNCTIONALS if f in fns]
        if self.subcommand in ("compare", "sweep"):
            if "adm_mass" in fns and "intrinsic_mass" in fns:
                names.append("mass_difference")
            if "cs_center" in fns and "intrinsic_center" in fns:
                names.append("center_difference")
        if "identity_residuals" in fns:
            names += ["identity_residual_X", "identity_residual_Y"]
        if "scalar_moments" in fns:
            names.append("scalar_moment_shells")
        if "decay_checks" in fns:
            names += ["decay_all", "decay_odd"]
        return names

    def write(self, directory: Path, out_dir: Path) -> Path:
        """Write the config with ``out_dir`` as its output directory; return its path."""
        cfg = dict(self.config, output={"dir": str(out_dir), "format": "csv"})
        path = directory / f"{self.name}.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
        return path


def _point(rng: random.Random, half_width: float) -> list[float]:
    return [rng.uniform(-half_width, half_width) for _ in range(3)]


def _schwarzschild(rng: random.Random) -> tuple[dict, float, list[float]]:
    mass = rng.uniform(0.5, 2.0)
    center = _point(rng, 4.0)
    return {"kind": "schwarzschild", "dim": 3, "mass": mass, "center": center}, mass, center


def _conformal(rng: random.Random) -> tuple[dict, float, list[float]]:
    # u = 1 + a1/rho + a2/rho^2 about ``center``: mass 2*a1, center ``center``.
    a1 = rng.uniform(0.25, 1.0)
    a2 = rng.uniform(-0.5, 1.0)
    center = _point(rng, 4.0)
    metric = {"kind": "conformal", "dim": 3, "u": [[1, a1], [2, a2]], "center": center}
    return metric, 2.0 * a1, center


def _rational_bump(rng: random.Random, base: dict) -> dict:
    # An |x|^-3 tail leaves both the mass and the center of the base unchanged.
    return {
        "kind": "perturbed",
        "dim": 3,
        "base": base,
        "bump": {
            "amplitude": rng.uniform(0.02, 0.08),
            "width": rng.uniform(1.0, 3.0),
            "location": _point(rng, 5.0),
            "profile": "rational",
            "tail_power": 3,
        },
    }


def _config(metric: dict, functionals, surface: dict) -> dict:
    return {
        "metric": metric,
        "functionals": list(functionals),
        "schedule": dict(surface, radii=RADII),
        "order": 24,
        "tolerances": {"limit": 1e-4, "identity": 1e-8},
    }


def generate(workload: str, seed: int) -> list[Certification]:
    """The certifications of ``workload`` for ``seed``; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    spheres = {"kind": "spheres"}
    if workload == "sphere-suite":
        metric, mass, center = _schwarzschild(rng)
        cfg = _config(metric, ALL_FUNCTIONALS, spheres)
        return [Certification("suite", "sweep", tuple(ALL_FUNCTIONALS), cfg, mass, tuple(center))]
    if workload == "flux-cold":
        out = []
        for name, draw in (("schwarzschild", _schwarzschild), ("conformal", _conformal)):
            metric, mass, center = draw(rng)
            cfg = _config(metric, FLUX_FUNCTIONALS, spheres)
            out.append(Certification(name, "sweep", tuple(FLUX_FUNCTIONALS), cfg, mass, tuple(center)))
        base, mass, center = _schwarzschild(rng)
        cfg = _config(_rational_bump(rng, base), FLUX_FUNCTIONALS, spheres)
        out.append(Certification("perturbed", "sweep", tuple(FLUX_FUNCTIONALS), cfg, mass, tuple(center)))
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
