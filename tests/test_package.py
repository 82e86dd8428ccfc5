import admflux

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
)


def test_every_exported_name_resolves():
    assert len(admflux.__all__) == len(set(admflux.__all__)) == 40
    for name in admflux.__all__:
        assert getattr(admflux, name) is not None, name


def test_single_point_api_is_gone():
    from admflux import curvature, invariants, surfaces

    for name in REMOVED:
        assert name not in admflux.__all__
        assert not any(hasattr(m, name) for m in (admflux, curvature, invariants, surfaces)), name
