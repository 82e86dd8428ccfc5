import dataclasses
import re
from pathlib import Path

import pytest

import admflux
from admflux.metric_field import MetricField

REMOVED = (
    "curvature_bundle",
    "christoffel",
    "ricci",
    "scalar_curvature",
    "einstein",
    "linearized_scalar",
    "field_X",
    "field_Y",
    "KillingFieldId",
    "g_normal_and_area",
    "MetricJet2",
    "jet2",
    "default_fd_step",
    "ibp_residual_X",
    "ibp_residual_Y",
    "check_surface_in_domain",
    "adm_mass_at",
    "intrinsic_mass_at",
    "cs_center_at",
    "intrinsic_center_at",
    "sweep_all",
    "rt_violator",
    "translated",
    "sphere_family",
    "ellipsoid_family",
    "field_from_values",
    "standard_catalog",
    "linearized_scalar_arrays",
    "parity_split",
    "DecayReport",
    "SurfaceEval",
)


def test_every_exported_name_resolves():
    assert len(admflux.__all__) == len(set(admflux.__all__)) == 25
    for name in admflux.__all__:
        assert getattr(admflux, name) is not None, name


def test_single_point_api_is_gone():
    from admflux import analysis, catalog, curvature, invariants, metric_field, surfaces

    modules = (admflux, analysis, catalog, curvature, invariants, metric_field, surfaces)
    for name in REMOVED:
        assert name not in admflux.__all__
        assert not any(hasattr(m, name) for m in modules), name
    assert "jet_at" not in {f.name for f in dataclasses.fields(MetricField)}


def test_record_fields_nobody_read_are_gone():
    from admflux.analysis import FUNCTIONALS, ConvergenceReport, PowerLawFit
    from admflux.catalog import CatalogSpec, build
    from admflux import cli
    from admflux.invariants import ShellIntegral, surface_totals
    from admflux.surfaces import QuadSurface, sphere_quadrature

    def names(record):
        return {f.name for f in dataclasses.fields(record)}

    assert not {"quantity", "residual", "is_vector"} & names(ConvergenceReport)
    assert not hasattr(ConvergenceReport, "is_vector")
    assert "residual" not in names(PowerLawFit)
    assert not {"label", "nominal_radius"} & names(QuadSurface)
    assert not hasattr(QuadSurface, "area")
    assert not hasattr(ShellIntegral, "converged")
    assert all(set(spec) == {"fn"} for spec in FUNCTIONALS.values())
    # every check's record is a ConvergenceReport, which names its table's columns
    assert not hasattr(cli, "Check")
    assert {"radii", "values", "columns"} <= names(ConvergenceReport)
    # surface_totals takes a block of surfaces only: a bare surface is not one
    surf = sphere_quadrature(3, 10.0, order=4)
    with pytest.raises(TypeError):
        surface_totals(build(CatalogSpec(kind="flat")), surf, ["adm_mass"])


def test_readme_tour_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
