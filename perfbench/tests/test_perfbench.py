"""Tests of the benchmark itself: oracle, tracer restoration, count determinism, per-child RSS."""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import run  # noqa: E402
import spawner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def program():
    return run.Program()


def small(cert: workloads.Certification) -> workloads.Certification:
    """The same certification on a short, low-order schedule so a test runs in well under a second."""
    schedule = dict(cert.config["schedule"], radii=[100.0, 200.0, 400.0, 800.0])
    return dataclasses.replace(cert, config=dict(cert.config, schedule=schedule, order=8))


# -- oracle ------------------------------------------------------------------


def write_outputs(out_dir: Path, cert: workloads.Certification, shift: float = 0.0,
                  identity_ok: bool = True, adm_verdict: bool = True) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    limits = {
        "adm_mass": cert.mass + shift,
        "intrinsic_mass": cert.mass,
        "cs_center": list(cert.center),
        "intrinsic_center": list(cert.center),
        "mass_difference": 0.0,
        "center_difference": [0.0, 0.0, 0.0],
        "identity_residual_X": 0.0 if identity_ok else 1.0,
        "identity_residual_Y": [0.0, 0.0, 0.0],
    }
    checks = []
    for name in cert.expected_checks():
        verdict = adm_verdict if name == "adm_mass" else identity_ok if name == "identity_residual_X" else True
        checks.append({"functional": name, "fitted_limit": limits.get(name, 0.0),
                       "fitted_rate": None, "verdict": verdict, "tolerance": 1e-4})
        (out_dir / f"{name}.csv").write_text("r,value\n")
    (out_dir / "summary.json").write_text(json.dumps({"checks": checks}))


@pytest.fixture()
def cert():
    return workloads.generate("sphere-suite", 3)[0]


def test_oracle_accepts_exact_limits_and_a_documented_fail_verdict(tmp_path, cert):
    write_outputs(tmp_path, cert, adm_verdict=False)
    verdict = oracle.judge(cert, tmp_path, exit_code=1)
    assert verdict.ok, verdict.problems
    assert verdict.verdicts["adm_mass"] is False


def test_oracle_flags_shifted_limit(tmp_path, cert):
    write_outputs(tmp_path, cert, shift=1e-3)
    verdict = oracle.judge(cert, tmp_path, exit_code=0)
    assert not verdict.ok
    assert any(p.startswith("adm_mass") for p in verdict.problems)
    assert verdict.limit_err == pytest.approx(1e-3)


def test_oracle_flags_missing_table(tmp_path, cert):
    write_outputs(tmp_path, cert)
    (tmp_path / "cs_center.csv").unlink()
    verdict = oracle.judge(cert, tmp_path, exit_code=0)
    assert not verdict.ok
    assert verdict.problems == ["table cs_center.csv missing"]
    (tmp_path / "summary.json").unlink()
    assert not oracle.judge(cert, tmp_path, exit_code=0).ok


@pytest.mark.parametrize("exit_code", [None, 2, 3])
def test_oracle_flags_crash_exit(tmp_path, cert, exit_code):
    write_outputs(tmp_path, cert)
    assert not oracle.judge(cert, tmp_path, exit_code=exit_code).ok


def test_oracle_flags_failed_identity(tmp_path, cert):
    write_outputs(tmp_path, cert, identity_ok=False)
    verdict = oracle.judge(cert, tmp_path, exit_code=1)
    assert not verdict.ok
    assert any("identity_residual_X" in p for p in verdict.problems)


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_seeded(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


# -- tracer ------------------------------------------------------------------


def test_traced_run_restores_names_and_writes_identical_outputs(tmp_path, program, cert):
    cert = small(cert)
    config = cert.write(tmp_path, tmp_path / "traced")
    originals = [(c, k, tracing._get(c, k)) for c, k, _, _ in program.sites()]

    code, _, _ = program.warm_certify(cert, config, tmp_path / "plain")
    tracer = tracing.Tracer()
    traced_code, log = program.traced_main(tracer, cert, config)

    assert traced_code == code, log
    assert all(tracing._get(c, k) is fn for c, k, fn in originals)
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "cli.run", "curvature.kernel", "analysis.sweep", "catalog.build"} <= names
    plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert plain == sorted(p.name for p in (tmp_path / "traced").iterdir())
    for name in plain:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()


def test_names_are_restored_when_the_traced_call_raises(program):
    originals = [(c, k, tracing._get(c, k)) for c, k, _, _ in program.sites()]
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed(program.sites()):
            raise RuntimeError("boom")
    assert all(tracing._get(c, k) is fn for c, k, fn in originals)


def test_a_lookup_site_the_program_no_longer_has_is_skipped():
    module = types.SimpleNamespace(kept=len)
    tracer = tracing.Tracer()
    with tracer.installed([(module, "gone", "layer.gone", None), (module, "kept", "layer.kept", None)]):
        assert module.kept("abc") == 3
    assert tracer.missing == {"layer.gone (gone)"}
    assert module.kept is len and not hasattr(module, "gone")
    assert [s.name for s in tracer.spans] == ["layer.kept"]


def counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith((".calls", ".points", ".nodes", ".bytes"))
            or k in ("analysis.evals", "analysis.max_order")}


def traced_counts(program, tmp_path: Path, certs) -> dict:
    bench = run.Bench(program, None, "flux-cold", 0, 1.0, traced=True)
    bench.certs = certs
    bench.work_dir = tmp_path
    bench.prepare()
    bench.traced_pass()
    # The short schedule need not reach the closed-form limits; it must not crash.
    assert all(o["exit_code"] in (0, 1) for o in bench.outcomes), bench.outcomes
    return counts(bench.passes[0])


def test_counts_repeat_between_traced_runs_with_the_same_seed(tmp_path, program):
    certs = [small(c) for c in workloads.generate("flux-cold", 5)]
    certs.append(small(workloads.generate("sphere-suite", 5)[0]))
    first = traced_counts(program, tmp_path / "a", certs)
    second = traced_counts(program, tmp_path / "b", certs)
    assert first == second
    assert first["curvature.kernel.calls"] > 0 and first["analysis.evals"] > 0


def test_flux_route_never_calls_the_kernel(tmp_path, program):
    certs = [small(c) for c in workloads.generate("flux-cold", 2)]
    assert traced_counts(program, tmp_path, certs)["curvature.kernel.calls"] == 0


# -- measurement helpers -------------------------------------------------------


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_end_to_end_times_average_each_certifications_median(program):
    bench = run.Bench(program, None, "flux-cold", 0, 1.0, traced=False)
    small_cert, big_cert = bench.certs[:2]
    for value in (1.0, 1.2, 9.0):
        bench._sample("certify_s", small_cert, value)
    for value in (3.0, 3.4):
        bench._sample("certify_s", big_cert, value)
    assert bench.metrics()["certify_s"] == pytest.approx((1.2 + 3.2) / 2)
    assert bench.sample_count("certify_s") == 5


def test_peak_rss_is_per_child_even_after_the_caller_grew(tmp_path):
    big = [sys.executable, "-c", "b = bytearray(128 * 2**20); b[::4096] = b'x' * len(b[::4096])"]
    tiny = [sys.executable, "-c", "pass"]
    ballast = bytearray(160 * 2**20)
    ballast[::4096] = b"x" * len(ballast[::4096])  # this process now peaks above both children
    launcher = spawner.Spawner()
    try:
        code_big, _, rss_big = launcher.run(big, {}, tmp_path, tmp_path / "big.log", 60)
        code_tiny, _, rss_tiny = launcher.run(tiny, {}, tmp_path, tmp_path / "tiny.log", 60)
    finally:
        launcher.close()
    del ballast
    assert code_big == code_tiny == 0
    assert rss_big > 128 > rss_tiny


def test_run_child_reports_a_crash_as_none(tmp_path):
    argv = [sys.executable, "-c", "import os, signal; os.kill(os.getpid(), signal.SIGKILL)"]
    assert spawner.run_child(argv, {}, str(tmp_path), str(tmp_path / "crash.log"), 60)["code"] is None


def test_scipy_import_time_counts_only_outermost_scipy_entries():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         20 |       numpy.linalg",
        "import time:        30 |         60 |     scipy.special",
        "import time:         5 |        100 |   scipy",
        "import time:         1 |          1 |   json",
        "import time:        40 |        300 | admflux",
    ])
    assert run.scipy_import_s(log) == pytest.approx(100e-6)
