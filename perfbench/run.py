"""admflux benchmark: seeded certification workloads, closed-form oracle, traced layers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sphere-suite --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

Every certification is checked by ``oracle.judge``.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it reports per-layer metrics
from a separate traced pass.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (provenance, every sample and verdict) is written to ``.perfbench_run/``.
See ``perfbench/README.md`` for the workloads and the layer-to-metric table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
import tracing
import workloads
from spawner import Spawner

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORD_DIR = ROOT / ".perfbench_run"

SETUP_SAMPLES = 5
TRACED_SETUP_SAMPLES = 3
#: Children are killed after this long, so a hung run still exits within 180 s.
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "cli_s": "s",
    "setup_s": "s",
    "certify_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
#: The functionals ``analysis.sweep`` evaluates once per radius and order.
SWEPT_FUNCTIONALS = ("adm_mass", "intrinsic_mass", "cs_center", "intrinsic_center")
FUNCTIONAL_LAYERS = (
    "adm_mass",
    "cs_center",
    "intrinsic_mass",
    "intrinsic_center",
    "ibp_X",
    "ibp_Y",
    "scalar_moment",
)


class Program:
    """The admflux modules imported from this checkout's ``src``."""

    def __init__(self) -> None:
        if not (SRC / "admflux" / "cli.py").is_file():
            raise SystemExit(f"perfbench: no admflux source under {SRC}; run from a checkout root")
        sys.path.insert(0, str(SRC))
        import admflux
        from admflux import analysis, cli, invariants, metric_field

        if Path(admflux.__file__).resolve().parent != (SRC / "admflux").resolve():
            raise SystemExit(f"perfbench: imported admflux from {admflux.__file__}, not {SRC}")
        self.cli = cli
        self.analysis = analysis
        self.invariants = invariants
        self.metric_field = metric_field
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def sites(self):
        return tracing.bindings(self.cli, self.analysis, self.invariants, self.metric_field)

    def warm_certify(self, cert, config: Path, out_dir: Path) -> tuple[int | None, float, str]:
        """``cli.run`` in this interpreter; returns (exit code or None on a crash, wall s, log)."""
        cfg = self.cli.load_config(config)
        cfg.out_dir = out_dir
        functionals = self.cli.SUBCOMMAND_FUNCTIONALS[cert.subcommand]
        with_compare = cert.subcommand in ("compare", "sweep")
        log = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = self.cli.run(cfg, functionals=functionals, with_compare=with_compare)
        except Exception:
            return None, time.perf_counter() - t0, log.getvalue() + traceback.format_exc()
        return code, time.perf_counter() - t0, log.getvalue()

    def traced_main(self, tracer: tracing.Tracer, cert, config: Path) -> tuple[int | None, str]:
        """``cli.main`` with every layer rebound to ``tracer``; names restored afterwards."""
        log = io.StringIO()
        try:
            with tracer.installed(self.sites()), tracer.span("cli.main"):
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    code = self.cli.main([cert.subcommand, "--config", str(config)])
        except Exception:
            return None, log.getvalue() + traceback.format_exc()
        return code, log.getvalue()


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative seconds of the outermost ``scipy`` imports in ``-X importtime`` output."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, int(cumulative), name.strip()))
    # Entries come children first; walking backwards meets each parent first.
    total_us, stack = 0, []
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(anc for _, anc in stack):
            total_us += cumulative
        stack.append((depth, is_scipy))
    return total_us / 1e6


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": _tree_sha256(SRC),
        "platform": platform.platform(),
    }


def layer_metrics(spans: list[tracing.Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (every certification once)."""
    t = tracing.layer_totals(spans)

    def row(name):
        return t.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_order": 0})

    kernel, quad, jet, sweep = row("curvature.kernel"), row("surfaces.quad"), row("metric_field.jet"), row("analysis.sweep")
    run, checks = row("cli.run"), row("cli.run_checks")
    evals = sum(row(f"invariants.{f}")["calls"] for f in SWEPT_FUNCTIONALS)
    m = {
        "catalog.build.calls": row("catalog.build")["calls"],
        "catalog.build.s": row("catalog.build")["s"],
        "metric_field.jet.calls": jet["calls"],
        "metric_field.jet.points": jet.get("points", 0),
        "metric_field.jet.s": jet["s"],
        "metric_field.decay.calls": row("metric_field.decay")["calls"],
        "metric_field.decay.s": row("metric_field.decay")["s"],
        "surfaces.quad.calls": quad["calls"],
        "surfaces.quad.nodes": quad.get("nodes", 0),
        "surfaces.quad.s": quad["s"],
        "surfaces.normals.calls": row("surfaces.normals")["calls"],
        "surfaces.normals.s": row("surfaces.normals")["s"],
        "curvature.kernel.calls": kernel["calls"],
        "curvature.kernel.points": kernel.get("points", 0),
        "curvature.kernel.s": kernel["s"],
        "curvature.kernel.us_per_point": 1e6 * kernel["s"] / kernel["points"] if kernel.get("points") else 0.0,
        "curvature.kernel.bytes": kernel.get("bytes", 0),
    }
    for f in FUNCTIONAL_LAYERS:
        r = row(f"invariants.{f}")
        m[f"invariants.{f}.calls"] = r["calls"]
        m[f"invariants.{f}.s"] = r["s"]
        m[f"invariants.{f}.self_s"] = r["self_s"]
    m.update({
        "analysis.sweep.calls": sweep["calls"],
        "analysis.sweep.s": sweep["s"],
        "analysis.sweep.self_s": sweep["self_s"],
        "analysis.evals": evals,
        "analysis.max_order": quad["max_order"],
        "analysis.useful_ratio": sweep.get("radii", 0) / evals if evals else 0.0,
        "analysis.fit.calls": row("analysis.fit")["calls"],
        "analysis.fit.s": row("analysis.fit")["s"],
        "cli.load_config.s": row("cli.load_config")["s"],
        "cli.run_checks.s": checks["s"],
        "cli.output_s": run["s"] - checks["s"],
    })
    return m


class Bench:
    """One run of one workload: generated configs, samples, verdicts and metrics."""

    def __init__(self, program: Program, spawner: Spawner | None, workload: str, seed: int,
                 seconds: float, traced: bool):
        self.program = program
        self.spawner = spawner
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.certs = workloads.generate(workload, seed)
        self.work_dir = RECORD_DIR / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.samples: dict[str, list] = {}
        self.by_cert: dict[str, dict[str, list]] = {}
        self.outcomes: list[dict] = []
        self.passes: list[dict[str, float]] = []
        self.spans: list[list[dict]] = []
        self.missing_sites: set[str] = set()
        self.t0 = 0.0
        self.elapsed = 0.0

    # -- helpers -------------------------------------------------------
    def _config(self, cert) -> Path:
        return self.work_dir / f"{cert.name}.json"

    def _fresh(self, directory: Path) -> Path:
        shutil.rmtree(directory, ignore_errors=True)
        return directory

    def _timeout(self) -> float:
        return max(1.0, CHILD_TIMEOUT_S - (time.perf_counter() - self.t0))

    def _sample(self, metric: str, cert, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)
        self.by_cert.setdefault(metric, {}).setdefault(cert.name, []).append(value)

    def _per_cert(self, metric: str) -> float:
        """Mean over the certifications of each one's median, so a mix of sizes has a stable centre."""
        medians = [_median(v) for v in self.by_cert.get(metric, {}).values()]
        return statistics.fmean(medians) if medians else 0.0

    def _judge(self, mode: str, cert, out_dir: Path, code, log: str) -> None:
        verdict = oracle.judge(cert, out_dir, code)
        record = {"mode": mode, "certification": cert.name, **verdict.as_dict()}
        if not verdict.ok:
            record["log"] = log[-4000:]
        self.outcomes.append(record)

    # -- operations ------------------------------------------------------
    def setup_probe(self, cert, importtime: bool) -> None:
        argv = [sys.executable, *(["-X", "importtime"] if importtime else []), str(HERE / "probe_setup.py"), str(self._config(cert))]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.program.env, capture_output=True,
                                  text=True, timeout=self._timeout())
        except subprocess.TimeoutExpired:
            proc = subprocess.CompletedProcess(argv, None, "", "timed out")
        if proc.returncode != 0:
            self.outcomes.append({"mode": "setup", "certification": cert.name, "ok": False,
                                  "exit_code": proc.returncode, "log": proc.stderr[-4000:]})
            return
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        self.samples.setdefault("setup_s", []).append(probe["setup_s"])
        self.samples.setdefault("import_s", []).append(probe["import_s"])
        if importtime:
            self.samples.setdefault("import_scipy_s", []).append(scipy_import_s(proc.stderr))
        self.outcomes.append({"mode": "setup", "certification": cert.name, "ok": True})

    def cli_sample(self, cert) -> None:
        out_dir = self._fresh(self.work_dir / f"out-{cert.name}")
        log_path = self.work_dir / f"cli-{cert.name}.log"
        argv = [sys.executable, "-m", "admflux.cli", cert.subcommand, "--config", str(self._config(cert))]
        code, wall, rss = self.spawner.run(argv, self.program.env, ROOT, log_path, self._timeout())
        self._sample("cli_s", cert, wall)
        self._sample("peak_rss_mb", cert, rss)
        self._judge("cli", cert, out_dir, code, log_path.read_text(errors="replace"))

    def warm_one(self, cert) -> float:
        out_dir = self._fresh(self.work_dir / f"warm-{cert.name}")
        code, wall, log = self.program.warm_certify(cert, self._config(cert), out_dir)
        self._sample("certify_s", cert, wall)
        self._judge("warm", cert, out_dir, code, log)
        return wall

    def warm_pass(self) -> None:
        total = sum(self.warm_one(cert) for cert in self.certs)
        self.samples.setdefault("warm_pass_s", []).append(total)

    def traced_pass(self) -> None:
        tracer = tracing.Tracer()
        for cert in self.certs:
            out_dir = self._fresh(self.work_dir / f"out-{cert.name}")
            code, log = self.program.traced_main(tracer, cert, self._config(cert))
            self._judge("traced", cert, out_dir, code, log)
        self.missing_sites.update(tracer.missing)
        self.passes.append(layer_metrics(tracer.spans))
        self.samples.setdefault("traced_pass_s", []).append(
            sum(s.duration for s in tracer.spans if s.name == "cli.run"))
        self.spans.append(tracer.dump())

    # -- schedule ----------------------------------------------------------
    def _loop(self, tasks) -> None:
        """Round-robin over ``tasks``; every task runs once, then stop before one would overrun."""
        last: dict[int, float] = {}
        i = 0
        while True:
            slot = i % len(tasks)
            elapsed = time.perf_counter() - self.t0
            if i >= len(tasks) and elapsed + last[slot] > self.seconds:
                return
            start = time.perf_counter()
            tasks[slot]()
            last[slot] = time.perf_counter() - start
            i += 1

    def prepare(self) -> None:
        """Write every certification's config into a fresh work directory."""
        self._fresh(self.work_dir).mkdir(parents=True)
        for cert in self.certs:
            cert.write(self.work_dir, self.work_dir / f"out-{cert.name}")

    def run(self) -> dict:
        try:
            self.prepare()
            self.t0 = time.perf_counter()
            probes = TRACED_SETUP_SAMPLES if self.traced else SETUP_SAMPLES
            for k in range(probes):
                self.setup_probe(self.certs[k % len(self.certs)], importtime=self.traced)
            if self.traced:
                self._loop([self.warm_pass, self.traced_pass])
            else:
                tasks = []
                for cert in self.certs:
                    tasks += [lambda c=cert: self.cli_sample(c), lambda c=cert: self.warm_one(c)]
                self._loop(tasks)
            self.elapsed = time.perf_counter() - self.t0
        finally:
            shutil.rmtree(self.work_dir, ignore_errors=True)
        return self.metrics()

    def metrics(self) -> dict[str, float]:
        s = self.samples
        failed = sum(1 for o in self.outcomes if not o["ok"])
        if not self.traced:
            return {
                "cli_s": self._per_cert("cli_s"),
                "setup_s": _median(s.get("setup_s", [])),
                "certify_s": self._per_cert("certify_s"),
                "peak_rss_mb": self._per_cert("peak_rss_mb"),
                "ok_frac": (len(self.outcomes) - failed) / max(1, len(self.outcomes)),
            }
        m = {"import.s": _median(s.get("import_s", [])), "import.scipy_s": _median(s.get("import_scipy_s", []))}
        for name in layer_metrics([]):
            m[name] = _median([p[name] for p in self.passes])
        m["trace.overhead_s"] = _median(s.get("traced_pass_s", [])) - _median(s.get("warm_pass_s", []))
        m["oracle.limit_err"] = max((o.get("limit_err", 0.0) for o in self.outcomes), default=0.0)
        return m

    def sample_count(self, metric: str) -> int:
        """How many samples ``metric`` is the median (or share) of."""
        if metric in self.samples:
            return len(self.samples[metric])
        if metric in ("ok_frac", "oracle.limit_err"):
            return len(self.outcomes)
        if metric.startswith("import."):
            return len(self.samples.get("import_s", []))
        return len(self.passes)

    def counts_repeat(self) -> bool:
        """Whether every count-type metric is identical across traced passes."""
        keys = [k for k in (self.passes[0] if self.passes else {}) if not k.endswith(("_s", ".s", "us_per_point"))]
        return all(p[k] == self.passes[0][k] for p in self.passes for k in keys)

    def record(self, metrics: dict, prov: dict) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.traced),
            "elapsed_s": self.elapsed,
            "provenance": prov,
            "certifications": [
                {"name": c.name, "subcommand": c.subcommand, "config": c.config,
                 "expected_mass": c.mass, "expected_center": list(c.center)}
                for c in self.certs
            ],
            "samples": self.samples,
            "samples_by_certification": self.by_cert,
            "outcomes": self.outcomes,
            "traced_passes": self.passes,
            "counts_repeat": self.counts_repeat() if self.traced else None,
            "missing_trace_sites": sorted(self.missing_sites),
            "metrics": metrics,
            "sample_counts": {name: self.sample_count(name) for name in metrics},
        }


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units = {"import.s": "s", "import.scipy_s": "s"}
    for name in layer_metrics([]):
        if name.endswith(("_s", ".s")):
            units[name] = "s"
        elif name.endswith("us_per_point"):
            units[name] = "us"
        elif name.endswith("bytes"):
            units[name] = "B"
        elif name.endswith("useful_ratio"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    units["trace.overhead_s"] = "s"
    units["oracle.limit_err"] = "abs"
    return units


def run_workload(program: Program, spawner: Spawner, workload: str, seed: int, seconds: float,
                 traced: bool, prov: dict):
    bench = Bench(program, spawner, workload, seed, seconds, traced)
    metrics = bench.run()
    RECORD_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(traced)}"
    (RECORD_DIR / f"{stem}.json").write_text(json.dumps(bench.record(metrics, prov), indent=1) + "\n")
    if traced:
        (RECORD_DIR / f"{stem}-spans.json").write_text(json.dumps(bench.spans) + "\n")
    failed = sum(1 for o in bench.outcomes if not o["ok"])
    for o in bench.outcomes:
        if not o["ok"]:
            print(f"# FAILED {workload} {o['mode']} {o['certification']}: {o.get('problems') or o.get('log', '')[-300:]}")
    return bench, metrics, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")
    program = Program()
    prov = provenance(args.seed)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    units = per_layer_units() if args.trace else END_TO_END
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    spawner = Spawner()
    try:
        for workload in names:
            bench, m, f = run_workload(program, spawner, workload, args.seed, args.seconds,
                                       bool(args.trace), prov)
            attempted += len(bench.outcomes)
            failed += f
            for name, value in m.items():
                key = name if args.workload != "all" else f"{workload}.{name}"
                metrics[key] = {"value": value, "unit": units[name]}
                print(f"# {workload:17s} {name:32s} {value:>14.6g} {units[name]:6s} "
                      f"n={bench.sample_count(name)}")
    finally:
        spawner.close()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
