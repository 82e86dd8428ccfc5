"""Property test of the one run validator, ``cli._validate_config``.

Configs are drawn as JSON from well-typed and ill-typed values alike.  Parsing
and validating one either raises :class:`ConfigError` or returns the field the
run would use; on that field the run's first surface and its first sphere
evaluate, or fail with a numerical error that names itself, never with any
other exception.
"""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admflux import analysis, cli
from admflux.errors import ConfigError, DomainError, NonFiniteError, SingularMetricError
from admflux.invariants import surface_totals
from admflux.surfaces import ellipsoid_quadrature, sphere_quadrature

JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(), max_size=2))
#: Finite numbers, with one draw in six an edge value: zero, tiny, huge or not finite.
NUMBER = st.integers(0, 5).flatmap(
    lambda i: st.one_of(st.integers(-3, 8), st.floats(-10.0, 10.0)) if i else st.sampled_from(
        [0.0, 1e-300, 1e58, 1e300, -1e300, math.nan, math.inf, 10**400]
    )
)
# The catalog probes the inner radius with 18 * 9^(n-2) nodes, so dimension 8
# would allocate about 10M of them.  -2..6 covers the rejected dimensions below
# 3 and four accepted ones; 3 in 7 draws are 3.
DIMS = [3, 3, 3, 3, 3, 3, 4, 5, 6, -2, -1, 0, 1, 2]
KINDS = ["flat", "schwarzschild", "conformal", "perturbed", "rt_violator"] * 3 + ["kerr"]


def configs(dirty: bool):
    """JSON run configs; with ``dirty``, one value in four has the wrong JSON type."""

    def typed(well):
        return st.integers(0, 3).flatmap(lambda i: JUNK if dirty and not i else well)

    value = typed(NUMBER)
    vector = typed(st.lists(NUMBER, max_size=5))
    bump = typed(
        st.fixed_dictionaries(
            {},
            optional={
                "amplitude": value,
                "width": value,
                "location": vector,
                "parity": st.sampled_from(["none", "even", "odd", "twisted"]),
                "profile": st.sampled_from(["gaussian", "rational", "boxcar"]),
                "tail_power": value,
            },
        )
    )
    pair = st.tuples(st.integers(-1, 4), NUMBER).map(list)
    u_term = typed(st.one_of(pair, pair, pair, st.lists(NUMBER, max_size=3)))  # mostly pairs
    fields = {
        "mass": value,
        "center": vector,
        "inner_radius": value,
        "bump": bump,
        "amplitude": value,
    }
    head = {
        "kind": st.sampled_from(KINDS),
        "dim": typed(st.sampled_from(DIMS)),
        "u": typed(st.lists(u_term, max_size=3)),
    }
    base = st.fixed_dictionaries(head, optional=fields)
    metric = st.fixed_dictionaries(dict(head, base=base), optional=fields)
    radii = st.builds(
        lambda r0, q: [r0 * q**k for k in range(5)],
        st.sampled_from([0.0, 1.0, 10.0, 100.0, 1e55, 1e300]),
        st.sampled_from([0.5, 1.0, 2.0, 10.0]),
    )
    ratios = st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 1e300]), max_size=7)
    schedule = typed(
        st.fixed_dictionaries(
            {},
            optional={
                "kind": st.sampled_from(["spheres", "ellipsoids", "ellipsoids", "cubes"]),
                "radii": st.one_of(radii, vector),
                "ratios": typed(ratios),
            },
        )
    )
    tolerances = st.fixed_dictionaries({}, optional={"limit": value, "identity": value})
    output = st.fixed_dictionaries({}, optional={"format": st.sampled_from(["csv", "json", "xml"])})
    return st.fixed_dictionaries(
        {"metric": metric},
        optional={
            "schedule": schedule,
            "order": st.one_of(st.integers(2, 40), st.integers(-1, 100), value),
            "tolerances": typed(tolerances),
            "output": typed(output),
        },
    )


CONFIG = st.booleans().flatmap(configs)

SCHWARZSCHILD = {"kind": "schwarzschild", "dim": 3, "mass": 1.0}
PERTURBED = {"kind": "perturbed", "base": SCHWARZSCHILD}
RADII = [10.0 * 2**k for k in range(7)]
ELLIPSOIDS = {"kind": "ellipsoids", "radii": RADII}


@settings(max_examples=120, deadline=None)
@given(config=CONFIG)
@example(config={"metric": SCHWARZSCHILD, "schedule": dict(ELLIPSOIDS, ratios=[2, 1])})
@example(config={"metric": SCHWARZSCHILD, "schedule": dict(ELLIPSOIDS, ratios=[2, 1, 1, 1])})
@example(config={"metric": dict(SCHWARZSCHILD, dim=4), "schedule": ELLIPSOIDS})
@example(config={"metric": dict(PERTURBED, bump={"location": [1, 2, 3, 4]})})
@example(config={"metric": dict(PERTURBED, base=dict(SCHWARZSCHILD, dim=4))})
@example(config={"metric": SCHWARZSCHILD, "schedule": {"radii": [10.0, 20.0, 40.0, 1e300]}})
@example(config={"metric": dict(SCHWARZSCHILD, center=[1, 2, 3, 4])})
@example(config={"metric": SCHWARZSCHILD, "schedule": dict(ELLIPSOIDS, ratios=[])})
@example(config={"metric": SCHWARZSCHILD, "schedule": dict(ELLIPSOIDS, ratios=[2, 2, 2], radii=[0.6, 1.2, 2.4, 4.8])})
def test_validation_gives_a_config_error_or_a_usable_field(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    try:
        cfg = cli.load_config(path)
        fld = cli._validate_config(cfg, cfg.functionals)
    except ConfigError:
        return
    r = cfg.radii[0]
    # the first sphere of the identity, shell and decay checks, and the sweep's first ellipsoid
    surfaces = [sphere_quadrature(fld.dim, r, 2)]
    if cfg.ratios is not None:
        surfaces.append(ellipsoid_quadrature([t * r for t in cfg.ratios], 2))
    for surface in surfaces:
        try:
            with np.errstate(all="ignore"):
                surface_totals(fld, [surface], [*analysis.FUNCTIONALS, "identity_X", "identity_Y"])
        except (DomainError, NonFiniteError, SingularMetricError):
            pass
