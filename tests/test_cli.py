import csv
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from admflux import analysis, cli, invariants
from admflux.catalog import CatalogSpec, build
from admflux.cli import ALL_FUNCTIONALS, decreasing_to_zero, load_config, main, run_checks

from conftest import decay_verdicts


def write_config(tmp_path, **overrides):
    cfg = {
        "metric": {"kind": "schwarzschild", "dim": 3, "mass": 1.0, "center": [1, 2, 3]},
        "schedule": {"kind": "spheres", "radii": [10.0 * 2**k for k in range(7)]},
        "order": 16,
        "tolerances": {"limit": 5e-3, "identity": 1e-8},
        "output": {"dir": str(tmp_path / "out"), "format": "csv"},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def in_tmp_out(tmp_path, overrides):
    """``overrides`` with an ``output`` object writing under ``tmp_path / "out"``."""
    if "output" not in overrides:
        return overrides
    return dict(overrides, output=dict(overrides["output"], dir=str(tmp_path / "out")))


SCHWARZSCHILD_TRANSLATED = {"kind": "schwarzschild", "dim": 3, "mass": 1.0, "center": [1, 2, 3]}
#: A Gaussian bump at the origin: the radial rule must bisect the annulus 1 < |x| < 10.
NEAR_ORIGIN_BUMP = {
    "kind": "perturbed", "dim": 3, "base": {"kind": "schwarzschild", "dim": 3, "mass": 1.0},
    "bump": {"amplitude": 0.05, "width": 1.0, "location": [0, 0, 0]},
}


def read_summary(tmp_path):
    return json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))


class TestMassSubcommand:
    def test_exit_zero_and_tables(self, tmp_path, capsys):
        code = main(["mass", "--config", str(write_config(tmp_path))])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] adm_mass" in out and "[PASS] intrinsic_mass" in out
        with (tmp_path / "out" / "adm_mass.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "value"]
        assert len(rows) == 8
        assert float(rows[1][0]) == 10.0
        summary = read_summary(tmp_path)
        names = [c["functional"] for c in summary["checks"]]
        assert names == ["adm_mass", "intrinsic_mass"]
        for check in summary["checks"]:
            assert check["verdict"] is True
            assert check["fitted_limit"] == pytest.approx(1.0, abs=5e-3)

    def test_summary_values_match_tables(self, tmp_path):
        main(["mass", "--config", str(write_config(tmp_path))])
        with (tmp_path / "out" / "adm_mass.csv").open() as fh:
            rows = list(csv.reader(fh))
        # every table row is a (r, value) sample actually swept
        radii = [float(r) for r, _ in [row for row in rows[1:]]]
        assert radii == [10.0 * 2**k for k in range(7)]


class TestFullSuite:
    def test_sweep_exit_zero(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(write_config(tmp_path))])
        assert code == 0
        out = capsys.readouterr().out
        for name in (
            "adm_mass",
            "intrinsic_mass",
            "cs_center",
            "intrinsic_center",
            "mass_difference",
            "center_difference",
            "identity_residual_X",
            "identity_residual_Y",
            "scalar_moment_shells",
            "decay_all",
            "decay_odd",
        ):
            assert f"[PASS] {name}" in out
        summary = read_summary(tmp_path)
        by_name = {c["functional"]: c for c in summary["checks"]}
        assert by_name["cs_center"]["fitted_limit"] == pytest.approx([1, 2, 3], abs=5e-3)

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["sweep", "--config", str(cfg)])
        first = {
            p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())
        }
        main(["sweep", "--config", str(cfg)])
        second = {
            p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())
        }
        assert first == second

    def test_json_tables(self, tmp_path):
        cfg = write_config(tmp_path, output={"dir": str(tmp_path / "out"), "format": "json"})
        assert main(["mass", "--config", str(cfg)]) == 0
        records = json.loads((tmp_path / "out" / "adm_mass.json").read_text())
        assert records[0]["r"] == 10.0 and "value" in records[0]


class TestTableLayout:
    RADII = [10.0 * 2**k for k in range(7)]
    VECTOR = ["r", "value_1", "value_2", "value_3"]
    #: Every table of a full sweep: its header and the radii of its rows.
    TABLES = {
        "adm_mass": (["r", "value"], RADII),
        "intrinsic_mass": (["r", "value"], RADII),
        "cs_center": (VECTOR, RADII),
        "intrinsic_center": (VECTOR, RADII),
        "mass_difference": (["r", "value"], RADII),
        "center_difference": (VECTOR, RADII),
        # the translated Schwarzschild field excludes a ball: the annulus form,
        # with the outer surface at the second radius
        "identity_residual_X": (["r", "value"], RADII[1:2]),
        "identity_residual_Y": (VECTOR, RADII[1:2]),
        "scalar_moment_shells": (["r", "value", "error", "scale"], RADII[1:]),
        "decay_all": (VECTOR, RADII),
        "decay_odd": (VECTOR, RADII),
    }

    def test_every_table_has_its_header_and_rows_in_both_formats(self, tmp_path):
        csv_dir, json_dir = tmp_path / "csv", tmp_path / "json"
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(csv_dir)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(json_dir), "--format", "json"]) == 0
        assert {p.stem for p in csv_dir.glob("*.csv")} == set(self.TABLES)
        assert {p.stem for p in json_dir.glob("*.json")} == {*self.TABLES, "summary"}
        for name, (header, radii) in self.TABLES.items():
            with (csv_dir / f"{name}.csv").open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == header, name
            assert [float(row[0]) for row in rows[1:]] == radii, name
            assert all(len(row) == len(header) for row in rows), name
            records = json.loads((json_dir / f"{name}.json").read_text(encoding="utf-8"))
            assert len(records) == len(rows) - 1, name
            for record, row in zip(records, rows[1:]):
                assert sorted(record) == sorted(header), name
                assert [record[c] for c in header] == [float(v) for v in row], name


def test_tables_are_replaced_atomically(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["mass", "--config", str(cfg)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["adm_mass.csv", "intrinsic_mass.csv", "summary.json"]
    first = (out / "summary.json").read_bytes()
    replace = os.replace

    def failing(src, dst):
        if Path(dst).name == "summary.json":
            raise OSError("no space left")
        return replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", failing)
    assert main(["identities", "--config", str(cfg)]) == cli.EXIT_INTERNAL_ERROR == 4
    assert capsys.readouterr().err == "internal error: OSError: no space left\n"
    assert (out / "summary.json").read_bytes() == first
    assert sorted(p.name for p in out.iterdir()) == [
        "adm_mass.csv",
        "identity_residual_X.csv",
        "identity_residual_Y.csv",
        "intrinsic_mass.csv",
        "summary.json",
    ]


def test_a_successful_write_unlinks_nothing(tmp_path, monkeypatch):
    # each table is renamed into place; only a write that failed leaves a temporary to remove
    unlinked, unlink = [], Path.unlink
    monkeypatch.setattr(Path, "unlink", lambda self, *args, **kwargs: unlinked.append(self.name) or unlink(self, *args, **kwargs))
    assert main(["mass", "--config", str(write_config(tmp_path))]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["adm_mass.csv", "intrinsic_mass.csv", "summary.json"]
    assert unlinked == []


class TestEvaluationCounts:
    RADII = [100.0, 200.0, 400.0, 800.0]

    @staticmethod
    def surfaces_built(monkeypatch, run):
        """``(radius, order)`` of every sphere a sweep builds while ``run()`` runs."""
        built = []
        real = analysis.sphere_quadrature

        def recording(n, r, order):
            built.append((r, order))
            return real(n, r, order)

        monkeypatch.setattr(analysis, "sphere_quadrature", recording)
        try:
            run()
        finally:
            monkeypatch.setattr(analysis, "sphere_quadrature", real)
        return built

    def test_one_evaluation_per_surface_and_batched_shells(self, tmp_path, monkeypatch):
        cfg = load_config(
            write_config(tmp_path, schedule={"kind": "spheres", "radii": self.RADII}, order=24)
        )
        fld = build(cfg.metric)
        mass = float(analysis.sweep(fld, ["adm_mass"], self.RADII)["adm_mass"].fitted_limit)
        visits = {}
        for name in analysis.FUNCTIONALS:
            sweep_one = functools.partial(analysis.sweep, fld, [name], self.RADII, mass=mass)
            visits[name] = set(self.surfaces_built(monkeypatch, sweep_one))
        swept = set().union(*visits.values())

        kernel, jets = [], []
        real_kernel, real_jets = invariants.curvature_arrays, invariants.jet2_batch

        def counting_kernel(g, dg, ddg):
            kernel.append(len(g))
            return real_kernel(g, dg, ddg)

        def counting_jets(field, points, derivatives=2):
            jets.append(len(points))
            return real_jets(field, points, derivatives)

        monkeypatch.setattr(invariants, "curvature_arrays", counting_kernel)
        monkeypatch.setattr(invariants, "jet2_batch", counting_jets)
        built = self.surfaces_built(monkeypatch, lambda: run_checks(cfg, ALL_FUNCTIONALS, True))

        assert sorted(built) == sorted(swept)  # each swept surface built once
        # second-order blocks take at most one order-24 surface's jet bytes:
        # the four order-12 spheres (338 nodes) in blocks of three and one,
        # then each of the four order-24 spheres (1,250 nodes), each block in
        # kernel calls of at most 400 nodes
        assert invariants.KERNEL_BYTES // 864 == 400 and max(kernel) <= 400  # 864 bytes a node in R^3
        assert kernel[:20] == [400, 400, 214, 338] + [400, 400, 400, 50] * 4
        # the 15 shells of every one of the three annuli go through the kernel
        # together at orders 2 and 4, in whole shells of 18 and 50 nodes
        annuli = len(self.RADII) - 1
        assert kernel[20:] == [396, 396, 18] + [400] * 5 + [250] and 15 * annuli * (18 + 50) == 3060
        # one jet evaluation per block, per identity surface (an annulus
        # here) and per kernel call of shells
        assert len(jets) == 2 + 4 + 2 + 9 == 17


class TestScalarMomentCheck:
    def run_moments(self, tmp_path, metric, radii):
        cfg = write_config(
            tmp_path, metric=metric, functionals=["scalar_moments"],
            schedule={"kind": "spheres", "radii": radii},
        )
        code = main(["sweep", "--config", str(cfg)])
        with (tmp_path / "out" / "scalar_moment_shells.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "value", "error", "scale"]
        return code, [[float(v) for v in row] for row in rows[1:]], read_summary(tmp_path)["checks"][0]

    def test_schwarzschild_noise_shells_pass(self, tmp_path, capsys):
        code, rows, summary = self.run_moments(tmp_path, SCHWARZSCHILD_TRANSLATED, RADII)
        assert code == 0 and summary["verdict"] is True and "failure" not in summary
        assert "[PASS] scalar_moment_shells" in capsys.readouterr().out
        for _, value, error, scale in rows:
            # R vanishes: every shell is rounding noise, well inside the floor
            assert abs(value) <= cli.SHELL_NOISE * scale
            assert error <= analysis.REFINEMENT_TOL * scale

    def test_stalled_shells_fail(self, tmp_path, monkeypatch, capsys):
        real = invariants.scalar_curvature_moment

        def stalled(*args, **kwargs):
            return [shell._replace(value=1e-13) for shell in real(*args, **kwargs)]

        monkeypatch.setattr(invariants, "scalar_curvature_moment", stalled)
        code, rows, summary = self.run_moments(tmp_path, SCHWARZSCHILD_TRANSLATED, RADII)
        assert code == 1 and summary["verdict"] is False
        assert "[FAIL] scalar_moment_shells" in capsys.readouterr().out
        # the absolute floor of 1e-12 took these for decayed
        assert decreasing_to_zero([abs(row[1]) for row in rows[len(rows) // 2 :]])

    def test_a_failure_names_the_annulus_that_fails_alone(self, tmp_path, monkeypatch, capsys):
        # jets are NaN beyond |x| = 30: the pass over every annulus fails, and of the
        # annuli evaluated alone 10 < |x| < 20 passes and 20 < |x| < 40 fails first
        def spoiled_build(spec):
            field = build(spec)

            def jet_batch(points, derivatives):
                g, dg, ddg = field.jet_batch(points, 2)
                ddg = ddg.copy()
                ddg[np.linalg.norm(points, axis=1) > 30.0] = np.nan
                return g, dg, ddg

            return dataclasses.replace(field, jet_batch=jet_batch)

        monkeypatch.setattr(cli, "build", spoiled_build)
        cfg = write_config(tmp_path, functionals=["scalar_moments"])
        assert main(["sweep", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: scalar_moment_shells on 20 < |x| < 40: non-finite jet"), err

    def test_unconverged_annulus_fails_and_is_named(self, tmp_path, monkeypatch, capsys):
        radii = [1.0, 10.0, 100.0, 1000.0, 10000.0]
        code, _, summary = self.run_moments(tmp_path, NEAR_ORIGIN_BUMP, radii)
        assert code == 0 and summary["verdict"] is True
        capsys.readouterr()
        monkeypatch.setattr(invariants, "MAX_RADIAL_BISECTIONS", 0)
        code, _, summary = self.run_moments(tmp_path, NEAR_ORIGIN_BUMP, radii)
        assert code == 1 and summary["verdict"] is False
        assert summary["failure"] == "radial rule unconverged on 1 < |x| < 10"
        out = capsys.readouterr().out
        assert "[FAIL] scalar_moment_shells" in out and "1 < |x| < 10" in out

    def test_angular_rule_at_its_cap_fails_and_is_named(self, tmp_path, monkeypatch, capsys):
        # the bump's directions on 5 < |x| < 10 need order 64; capped at 16 they stall
        metric = dict(NEAR_ORIGIN_BUMP, bump={
            "amplitude": 0.05, "width": 2.0, "location": [3, -1, 2], "profile": "rational",
        })
        monkeypatch.setattr(invariants, "MAX_ORDER", 16)
        code, _, summary = self.run_moments(tmp_path, metric, [5.0, 10.0, 20.0, 40.0, 80.0])
        assert code == 1 and summary["verdict"] is False
        assert summary["failure"] == "angular rule unconverged on 5 < |x| < 10"
        assert "[FAIL] scalar_moment_shells" in capsys.readouterr().out


def test_decreasing_to_zero_semantics():
    assert decreasing_to_zero([1.0, 0.5, 0.25])
    assert decreasing_to_zero([0.0, 0.0, 0.0])
    assert decreasing_to_zero([1.0, 1e-30, 0.0, 0.0])
    assert not decreasing_to_zero([0.5, 0.5, 0.5])
    assert not decreasing_to_zero([1.0, 0.5, 0.75])


def test_decreasing_to_zero_per_entry_floor():
    stalled = [1e-13, 1e-13, 1e-13]
    assert decreasing_to_zero(stalled)  # under the default floor of 1e-12
    assert not decreasing_to_zero(stalled, floor=1e-14)
    assert decreasing_to_zero(stalled, floor=[1e-12, 1e-12, 1e-12])
    # an entry above its own floor must decrease from the one before
    assert not decreasing_to_zero([1e-13, 2e-13], floor=[1e-12, 1e-14])
    assert decreasing_to_zero([1.0, 0.5, 2e-13], floor=[1e-12, 1e-12, 1e-12])


class TestUnconvergedSweep:
    def test_radius_whose_orders_never_agree_fails_and_is_named(self, tmp_path, monkeypatch, capsys):
        # at radius 800 the flux mass moves by 1e-8 per unit of order, so
        # consecutive orders differ by at least 1.2e-7 against a tolerance of
        # about 2e-8; every other radius reads 1 at every order
        scale = 2.0 * (3 - 1) * 4.0 * math.pi

        def never_agrees(field, surfaces, names):
            return {name: [scale * (1.0 + (1e-8 * order if r == 800.0 else 0.0)) for r, order in surfaces]
                    for name in names}

        monkeypatch.setattr(analysis, "sphere_quadrature", lambda n, r, order: (r, order))
        monkeypatch.setattr(analysis, "surface_totals", never_agrees)
        cfg = write_config(
            tmp_path, functionals=["adm_mass"], order=24,
            schedule={"kind": "spheres", "radii": list(cli.DEFAULT_RADII)},
        )
        assert main(["sweep", "--config", str(cfg)]) == 1
        summary = read_summary(tmp_path)["checks"][0]
        assert summary["verdict"] is False
        assert summary["failure"] == "adm_mass unconverged at schedule radius 800 (order 96)"
        out = capsys.readouterr().out
        assert "[FAIL] adm_mass" in out and "radius 800 (order 96)" in out


class TestOtherSubcommands:
    def test_center_positive_path(self, tmp_path, capsys):
        code = main(["center", "--config", str(write_config(tmp_path))])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] cs_center" in out and "[PASS] intrinsic_center" in out
        summary = read_summary(tmp_path)
        names = [c["functional"] for c in summary["checks"]]
        assert names == ["cs_center", "intrinsic_center"]

    def test_identities_subcommand(self, tmp_path, capsys):
        code = main(["identities", "--config", str(write_config(tmp_path))])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] identity_residual_X" in out
        assert "[PASS] identity_residual_Y" in out


class TestExitCodes:
    def test_malformed_config_negative_order(self, tmp_path, capsys):
        cfg = write_config(tmp_path, order=-3)
        assert main(["mass", "--config", str(cfg)]) == 2
        assert "order" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [False, True])
    def test_order_above_cap(self, tmp_path, capsys, flag):
        # one above analysis.MAX_ORDER; rejected before any quadrature is built
        order = analysis.MAX_ORDER + 1
        cfg = write_config(tmp_path) if flag else write_config(tmp_path, order=order)
        argv = ["mass", "--config", str(cfg)] + (["--order", str(order)] if flag else [])
        assert main(argv) == 2
        assert "order" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_json_positions(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"metric": }', encoding="utf-8")
        assert main(["mass", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["mass", "--config", str(tmp_path / "nope.json")]) == 2

    def test_flat_center_is_numerical_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, metric={"kind": "flat", "dim": 3})
        assert main(["center", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "cs_center" in err and "undefined" in err

    def test_overflowing_mass_is_numerical_error(self, tmp_path, capsys):
        # finite, but the flux integrand overflows to NaN on every sphere
        metric = {"kind": "schwarzschild", "dim": 3, "mass": 1e300, "inner_radius": 1.0}
        cfg = write_config(tmp_path, metric=metric)
        with np.errstate(all="ignore"):
            assert main(["mass", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "adm_mass at schedule radius 10" in err and "non-finite" in err

    def test_flat_without_centers_passes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            metric={"kind": "flat", "dim": 3},
            functionals=["adm_mass", "intrinsic_mass", "identity_residuals"],
        )
        assert main(["sweep", "--config", str(cfg)]) == 0

    def test_rt_violator_decay_fails_certification(self, tmp_path, capsys):
        cfg = write_config(tmp_path, metric={"kind": "rt_violator", "dim": 3, "amplitude": 0.5})
        assert main(["decay", "--config", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "[PASS] decay_all" in out
        assert "[FAIL] decay_odd" in out

    def test_a_failing_decay_check_names_its_derivative_orders(self, tmp_path, capsys):
        # the rt_violator's odd part is scale invariant, so no order's weighted sup
        # decreases; on a rational bump over it, the order-2 sups do
        cfg = write_config(tmp_path, metric={"kind": "rt_violator", "dim": 3, "amplitude": 0.5})
        assert main(["decay", "--config", str(cfg)]) == 1
        failure = "derivative orders 0, 1, 2 do not decrease to zero"
        assert f"({failure})" in capsys.readouterr().out
        checks = {c["functional"]: c for c in read_summary(tmp_path)["checks"]}
        assert checks["decay_odd"]["failure"] == failure and "failure" not in checks["decay_all"]
        bump = build(CatalogSpec(
            kind="perturbed", base=CatalogSpec(kind="rt_violator", amplitude=0.5), bump_amplitude=0.05,
            bump_width=2.0, bump_location=(3.0, -1.0, 2.0), bump_profile="rational",
        ))
        reports = decay_verdicts(bump, cli.DEFAULT_RADII)
        assert reports["decay_odd"].failure == "derivative orders 0, 1 do not decrease to zero"
        assert reports["decay_all"].verdict and reports["decay_all"].failure is None

    def test_schedule_below_inner_radius(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, schedule={"kind": "spheres", "radii": [1.0, 2.0, 4.0, 8.0]}
        )
        assert main(["mass", "--config", str(cfg)]) == 2
        assert "inner radius" in capsys.readouterr().err

    def test_unknown_functional_in_config(self, tmp_path):
        cfg = write_config(tmp_path, functionals=["adm_mass", "bondi_mass"])
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["masses"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "command, functionals, where",
        [
            pytest.param(
                "identities", None, "identity_residuals at schedule radius 20", id="identities"
            ),
            pytest.param("decay", None, "decay_checks", id="decay"),
            pytest.param(
                "sweep", ["scalar_moments"], "scalar_moment_shells on 10 < |x| < 20",
                id="scalar_moments",
            ),
        ],
    )
    def test_non_finite_jets_are_numerical_errors(
        self, tmp_path, capsys, monkeypatch, command, functionals, where
    ):
        def spoiled_build(spec):
            field = build(spec)

            def jet_batch(points, derivatives):
                g, dg, ddg = field.jet_batch(points, 2)
                ddg = ddg.copy()
                ddg[:, 0, 0, 0, 0] = np.nan
                return g, dg, ddg

            return dataclasses.replace(field, jet_batch=jet_batch)

        monkeypatch.setattr(cli, "build", spoiled_build)
        cfg = write_config(tmp_path, **({"functionals": functionals} if functionals else {}))
        assert main([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"numerical error: {where}: ")
        assert "non-finite jet of field 'schwarzschild' at radius" in err

    def test_unexpected_exception_is_internal_error(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("checks could not start")

        monkeypatch.setattr(cli, "run_checks", broken)
        assert main(["mass", "--config", str(write_config(tmp_path))]) == cli.EXIT_INTERNAL_ERROR == 4
        assert capsys.readouterr().err == "internal error: RuntimeError: checks could not start\n"

    def test_oversized_dimension_is_config_error(self, tmp_path, capsys):
        # 2*17^4999 nodes on the order-16 start sphere: refused before any rule is built
        metric = {"kind": "schwarzschild", "dim": 5000, "mass": 1.0}
        assert main(["mass", "--config", str(write_config(tmp_path, metric=metric))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: metric dim 5000: ") and err.count("\n") == 1
        assert "2*17^4999 nodes" in err
        assert not (tmp_path / "out").exists()

    def test_huge_dimension_is_refused_without_forming_the_node_count(self, tmp_path, capsys):
        # 2*17^(10^12 - 1) has about 10^12 digits: the check compares logarithms instead
        metric = {"kind": "flat", "dim": 1e12}
        assert main(["mass", "--config", str(write_config(tmp_path, metric=metric))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: metric dim 1000000000000: ") and err.count("\n") == 1


NAN, INF = math.nan, math.inf
SCHWARZSCHILD = {"kind": "schwarzschild", "dim": 3, "mass": 1.0}
PERTURBED = {"kind": "perturbed", "dim": 3, "base": SCHWARZSCHILD}
RADII = [10.0 * 2**k for k in range(7)]


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"metric": dict(SCHWARZSCHILD, mass=NAN)}, "mass"),
        ({"metric": dict(SCHWARZSCHILD, mass=INF)}, "mass"),
        ({"metric": dict(SCHWARZSCHILD, center=[1.0, -INF, 0.0])}, "center"),
        ({"metric": dict(SCHWARZSCHILD, inner_radius=NAN)}, "inner_radius"),
        ({"metric": {"kind": "conformal", "dim": 3, "u": [[1, NAN]]}}, "u coefficient"),
        ({"metric": {"kind": "conformal", "dim": 3, "u": [[INF, 0.5]]}}, "u power"),
        ({"metric": dict(PERTURBED, bump={"amplitude": NAN})}, "bump amplitude"),
        ({"metric": dict(PERTURBED, bump={"width": INF})}, "bump width"),
        ({"metric": dict(PERTURBED, bump={"location": [0, NAN, 0]})}, "bump location"),
        ({"metric": {"kind": "rt_violator", "dim": 3, "amplitude": NAN}}, "amplitude"),
        ({"schedule": {"kind": "spheres", "radii": RADII[:3] + [NAN] + RADII[4:]}}, "radius"),
        ({"schedule": {"kind": "spheres", "radii": RADII[:-1] + [INF]}}, "radius"),
        ({"schedule": {"kind": "ellipsoids", "ratios": [2, 1, NAN], "radii": RADII}}, "ratio"),
        ({"order": INF}, "order"),
        ({"tolerances": {"limit": NAN, "identity": 1e-8}}, "limit tolerance"),
        ({"tolerances": {"limit": 5e-3, "identity": INF}}, "identity tolerance"),
        ({"metric": dict(SCHWARZSCHILD, mass=10**400)}, "mass"),
        ({"order": 10**400}, "order"),
    ],
)
def test_non_finite_config_value_is_config_error(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path, **overrides)
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert field in err and "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"metric": {"kind": "conformal", "dim": 3, "u": 5}}, "'u'"),
        ({"metric": {"kind": "conformal", "dim": 3, "u": [5]}}, "'u' entry"),
        ({"metric": dict(SCHWARZSCHILD, center=5)}, "'center'"),
        ({"metric": dict(PERTURBED, bump=3)}, "'bump'"),
        ({"metric": dict(PERTURBED, bump={"location": 1.0})}, "bump 'location'"),
        ({"schedule": [1]}, "'schedule'"),
        ({"schedule": {"kind": "spheres", "radii": 100.0}}, "schedule 'radii'"),
        ({"schedule": {"kind": "ellipsoids", "ratios": 2, "radii": RADII}}, "schedule 'ratios'"),
        ({"tolerances": 5}, "'tolerances'"),
        ({"output": 5}, "'output'"),
        ({"output": {"dir": 5}}, "output 'dir'"),
        ({"functionals": "adm_mass"}, "'functionals'"),
        ({"metric": {"kind": "conformal", "dim": 3, "u": [[1]]}}, "'u' entry"),
        ({"metric": {"kind": "conformal", "dim": 3, "u": [[1, 0.5, 2]]}}, "'u' entry"),
        # a key the kind does not use is read all the same
        ({"metric": {"kind": "flat", "dim": 3, "mass": "heavy"}}, "mass"),
    ],
)
def test_wrong_json_type_is_config_error(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path, **overrides)
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err and "must be" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"order": 2.5}, "order"),
        ({"metric": dict(SCHWARZSCHILD, dim=3.7)}, "metric dim"),
        ({"metric": {"kind": "conformal", "dim": 3, "u": [[1.5, 0.5]]}}, "u power"),
        ({"metric": dict(PERTURBED, bump={"tail_power": 2.5, "profile": "rational"})}, "bump tail_power"),
    ],
)
def test_non_integer_config_value_is_config_error(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path, **overrides)
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err and "must be an integer" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, field",
    [
        # Python reads a JSON boolean as the number 1 or 0
        ({"metric": dict(SCHWARZSCHILD, mass=True)}, "mass"),
        ({"metric": {"kind": "conformal", "dim": 3, "u": [[1, True]]}}, "u coefficient"),
        ({"metric": {"kind": "conformal", "dim": 3, "u": [[True, 0.5]]}}, "u power"),
        ({"metric": dict(SCHWARZSCHILD, dim=True)}, "metric dim"),
        ({"tolerances": {"limit": True}}, "limit tolerance"),
        ({"tolerances": {"limit": 5e-3, "identity": False}}, "identity tolerance"),
        ({"schedule": {"kind": "spheres", "radii": RADII[:-1] + [True]}}, "schedule radius"),
        ({"metric": dict(SCHWARZSCHILD, label=[1, 2])}, "metric 'label'"),
        # a label is reported as the JSON value it is, not as Python's str() of it
        ({"output": {"format": True}}, "output 'format', got True"),
        ({"schedule": {"kind": True, "radii": RADII}}, "schedule 'kind', got True"),
        ({"metric": dict(PERTURBED, bump={"parity": 1})}, "bump 'parity', got 1"),
        ({"metric": dict(PERTURBED, bump={"profile": False})}, "bump 'profile', got False"),
        ({"functionals": ["adm_mass", 1]}, "'functionals' entry, got 1"),
        ({"metric": dict(SCHWARZSCHILD, kind=True)}, "metric 'kind', got True"),
    ],
)
def test_boolean_number_or_non_string_label_is_config_error(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path, **in_tmp_out(tmp_path, overrides))
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    name, _, got = field.partition(", ")
    assert err.startswith("config error:") and name in err and "must be" in err and got in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, key, section",
    [
        ({"tolerance": {"limit": 1e-3}}, "tolerance", "the top level"),
        ({"metric": dict(SCHWARZSCHILD, unknown_key=1)}, "unknown_key", "'metric'"),
        ({"metric": dict(PERTURBED, base=dict(SCHWARZSCHILD, masss=2.0))}, "masss", "metric 'base'"),
        ({"metric": dict(PERTURBED, bump={"amplitude": 0.05, "shape": "gaussian"})}, "shape", "'bump'"),
        ({"schedule": {"kind": "spheres", "radii": RADII, "ratio": [2, 1, 1]}}, "ratio", "'schedule'"),
        ({"tolerances": {"limt": 1.0}}, "limt", "'tolerances'"),
        ({"output": {"fmt": "json"}}, "fmt", "'output'"),
    ],
)
def test_unknown_key_is_config_error(tmp_path, capsys, overrides, key, section):
    # a misspelled key would otherwise leave its default in force: "limt" ran at the default 1e-4
    cfg = write_config(tmp_path, **in_tmp_out(tmp_path, overrides))
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: unknown key {key!r} in {section};")
    assert not (tmp_path / "out").exists()


def test_whole_number_floats_are_integers(tmp_path):
    cfg = load_config(write_config(tmp_path, order=16.0, metric=dict(SCHWARZSCHILD, dim=3.0)))
    assert cfg.order == 16 and cfg.metric.dim == 3
    assert isinstance(cfg.order, int) and isinstance(cfg.metric.dim, int)


def test_u_pair_of_wrong_length_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, metric={"kind": "conformal", "dim": 3, "u": [[1, 0.5], [1]]})
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "[power, coefficient] pair" in err and "[1]" in err and "unpack" not in err


ELLIPSOIDS = {"kind": "ellipsoids", "radii": RADII}


@pytest.mark.parametrize(
    "command, overrides, field",
    [
        ("mass", {"schedule": dict(ELLIPSOIDS, ratios=[2, 1])}, "ratios"),
        ("mass", {"schedule": dict(ELLIPSOIDS, ratios=[2, 1, 1, 1])}, "ratios"),
        ("mass", {"metric": dict(SCHWARZSCHILD, dim=4), "schedule": ELLIPSOIDS}, "ratios"),
        ("mass", {"schedule": dict(ELLIPSOIDS, ratios=[2, -1, 1])}, "ratios must be 3 positive"),
        ("mass", {"schedule": dict(ELLIPSOIDS, ratios=[])}, "ratios must be 3 positive"),
        ("decay", {"metric": dict(PERTURBED, bump={"location": [1, 2, 3, 4]})}, "location"),
        ("decay", {"metric": dict(PERTURBED, base=dict(SCHWARZSCHILD, dim=4))}, "base"),
        ("mass", {"metric": dict(SCHWARZSCHILD, center=[1, 2, 3, 4])}, "center"),
        ("mass", {"schedule": {"radii": [10.0, 20.0, 40.0, 1e300]}}, "radius"),
        ("decay", {"schedule": {"radii": [10.0, 20.0, 40.0, 1e300]}}, "radius"),
        ("mass", {"metric": {"kind": "flat"}, "schedule": {"radii": [0, 20, 40, 80]}}, "radii"),
        ("mass", {"metric": dict(PERTURBED, bump={"profile": "rational", "tail_power": 0})},
         "bump tail_power"),
    ],
)
def test_well_formed_config_the_run_cannot_use_is_config_error(
    tmp_path, capsys, command, overrides, field
):
    cfg = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


#: Ellipsoid schedules whose scaled surfaces pass the bounds that the schedule
#: radii themselves, the spheres of the identity, shell and decay checks, miss.
SPHERES_INSIDE = {"kind": "ellipsoids", "ratios": [2, 2, 2], "radii": [0.6, 1.2, 2.4, 4.8]}
SPHERES_OVERFLOW = {"kind": "ellipsoids", "ratios": [1e-10] * 3, "radii": [1e67, 2e67, 4e67, 8e67]}


@pytest.mark.parametrize("functional", ["identity_residuals", "scalar_moments", "decay_checks"])
@pytest.mark.parametrize(
    "schedule, message",
    [
        (SPHERES_INSIDE, "smallest schedule radius 0.6 "),
        (SPHERES_OVERFLOW, "largest schedule radius 8e+67 (scale 1) is too large: its power 5 overflows a float"),
    ],
    ids=["inside", "overflow"],
)
def test_sphere_checks_bound_the_schedule_radii_themselves(tmp_path, capsys, functional, schedule, message):
    cfg = write_config(tmp_path, metric={"kind": "schwarzschild"}, schedule=schedule, functionals=[functional])
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_a_sweep_alone_keeps_its_ellipsoid_bounds(tmp_path):
    # its surfaces are ellipsoids of scale 1.2 and more, outside the inner radius 1: it runs, and fails
    cfg = write_config(tmp_path, metric={"kind": "schwarzschild"}, schedule=SPHERES_INSIDE)
    assert cli.run(load_config(cfg), functionals=("adm_mass",)) == cli.EXIT_CERTIFICATION_FAILURE


@pytest.mark.parametrize(
    "metric, radii",
    [
        (dict(PERTURBED, bump={"profile": "rational", "width": 1e-300}), RADII),
        (dict(PERTURBED, bump={"profile": "rational", "tail_power": 1e300}), RADII),
        (dict(SCHWARZSCHILD, mass=1e58, inner_radius=0.5), [1.0, 2.0, 4.0, 8.0]),
    ],
)
def test_overflowing_jets_and_integrands_are_numerical_errors(tmp_path, capsys, metric, radii):
    cfg = write_config(tmp_path, metric=metric, schedule={"radii": radii}, order=8)
    with np.errstate(all="ignore"):
        assert main(["mass", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1
    assert "non-finite jet" in err or "surface integrand overflows" in err


def run_in_subprocess(*args):
    """``python -m admflux.cli *args`` in a new interpreter, where numpy prints its warnings."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "admflux.cli", *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )


def test_numpy_warnings_stay_off_the_one_line_error(tmp_path):
    # the field overflows inside numpy; the jet check names the radius instead
    metric = dict(PERTURBED, bump={"profile": "rational", "tail_power": 1e300})
    cfg = write_config(tmp_path, metric=metric, schedule={"radii": RADII}, order=8)
    out = run_in_subprocess("mass", "--config", str(cfg))
    assert out.returncode == 3
    assert out.stderr.count("\n") == 1, out.stderr
    # adm_mass alone evaluates from its finite first-order jets; the second-order ones overflow
    assert out.stderr.startswith("numerical error: intrinsic_mass at schedule radius")


def test_numpy_warnings_of_the_checks_stay_off_the_one_line_error(tmp_path):
    # finite jets whose determinant and Einstein contraction overflow inside numpy
    metric = dict(SCHWARZSCHILD, mass=1e58, inner_radius=0.5)
    cfg = write_config(tmp_path, metric=metric, schedule={"radii": [1.0, 2.0, 4.0, 8.0]}, order=8)
    out = run_in_subprocess("mass", "--config", str(cfg))
    assert out.returncode == 3
    assert out.stderr.count("\n") == 1, out.stderr
    assert out.stderr.startswith("numerical error: ") and "at schedule radius 1: " in out.stderr


@pytest.mark.parametrize("under", [(), ("sub",)], ids=["file", "under-a-file"])
def test_unusable_output_dir_is_config_error_before_any_check(
    tmp_path, capsys, monkeypatch, under
):
    def forbidden(*args, **kwargs):
        raise AssertionError("a check ran before the output directory was checked")

    monkeypatch.setattr(analysis, "sweep", forbidden)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["mass", "--out", str(taken.joinpath(*under))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output 'dir'") and err.count("\n") == 1
    assert taken.is_file()


def test_shorter_center_and_location_are_zero_padded(tmp_path):
    metric = dict(PERTURBED, base=dict(SCHWARZSCHILD, center=[1.0]), bump={"location": [5.0]})
    fld = cli._validate_config(load_config(write_config(tmp_path, metric=metric)))
    base = CatalogSpec(kind="schwarzschild", center=(1.0, 0.0, 0.0))
    padded = build(CatalogSpec(kind="perturbed", base=base, bump_location=(5.0, 0.0, 0.0)))
    points = np.array([[20.0, 3.0, -4.0], [-7.0, 15.0, 2.0]])
    for got, want in zip(fld.jet_batch(points, 2), padded.jet_batch(points, 2)):
        assert np.array_equal(got, want)


def test_far_schedule_below_the_overflow_runs(tmp_path):
    # (1e58)^5 is a float; the largest power any check forms is r^(2 + n/2)
    cfg = write_config(tmp_path, schedule={"radii": [1e55, 1e56, 1e57, 1e58]})
    assert main(["mass", "--config", str(cfg)]) == 0


def test_flags_override_the_config_before_it_is_checked(tmp_path):
    cfg = write_config(tmp_path, order=500)
    assert main(["mass", "--config", str(cfg), "--order", "24"]) == 0


def test_run_maps_a_config_error_to_exit_two(tmp_path, capsys):
    cfg = load_config(write_config(tmp_path, schedule=dict(ELLIPSOIDS, ratios=[2, 1])))
    assert cli.run(cfg, functionals=("adm_mass",)) == cli.EXIT_CONFIG_ERROR == 2
    assert capsys.readouterr().err.startswith("config error: schedule ratios")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["mass", "sweep"])
def test_one_validation_and_one_build_per_invocation(tmp_path, monkeypatch, command):
    calls = {"build": 0, "validate": 0}
    real_build, real_validate = cli.build, cli._validate_config

    def counting(name, real):
        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        return wrapped

    monkeypatch.setattr(cli, "build", counting("build", real_build))
    monkeypatch.setattr(cli, "_validate_config", counting("validate", real_validate))
    cfg = write_config(tmp_path, functionals=["adm_mass", "identity_residuals", "decay_checks"])
    assert main([command, "--config", str(cfg)]) == 0
    assert calls == {"build": 1, "validate": 1}


def test_non_finite_radii_flag_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["mass", "--config", str(cfg), "--radii", "10,20,nan,80"]) == 2
    assert "--radii" in capsys.readouterr().err


def test_import_loads_no_scipy():
    code = (
        "import sys, admflux, admflux.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


class TestOverridesAndSchedules:
    def test_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "elsewhere"
        code = main(
            [
                "mass",
                "--config",
                str(cfg),
                "--order",
                "12",
                "--radii",
                "10,20,40,80,160",
                "--out",
                str(out_dir),
                "--format",
                "json",
            ]
        )
        assert code == 0
        records = json.loads((out_dir / "adm_mass.json").read_text())
        assert [rec["r"] for rec in records] == [10.0, 20.0, 40.0, 80.0, 160.0]

    def test_ellipsoid_schedule(self, tmp_path):
        cfg = write_config(
            tmp_path,
            metric={"kind": "schwarzschild", "dim": 3, "mass": 1.0},
            schedule={
                "kind": "ellipsoids",
                "ratios": [2, 1, 1],
                "radii": [10.0 * 2**k for k in range(7)],
            },
            functionals=["adm_mass", "intrinsic_mass"],
        )
        assert main(["compare", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path)
        by_name = {c["functional"]: c for c in summary["checks"]}
        assert abs(by_name["mass_difference"]["fitted_limit"]) < 1e-3
