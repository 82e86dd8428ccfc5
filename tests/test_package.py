import dataclasses

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
)


def test_every_exported_name_resolves():
    assert len(admflux.__all__) == len(set(admflux.__all__)) == 35
    for name in admflux.__all__:
        assert getattr(admflux, name) is not None, name


def test_single_point_api_is_gone():
    from admflux import catalog, curvature, invariants, metric_field, surfaces

    modules = (admflux, catalog, curvature, invariants, metric_field, surfaces)
    for name in REMOVED:
        assert name not in admflux.__all__
        assert not any(hasattr(m, name) for m in modules), name
    assert "jet_at" not in {f.name for f in dataclasses.fields(MetricField)}
