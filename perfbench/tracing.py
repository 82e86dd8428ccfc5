"""Layer tracing by rebinding admflux's public names where callers look them up.

admflux modules import with ``from x import y``, so a function is found through
the caller's module globals (or through ``analysis.FUNCTIONALS``), not through
the defining module.  :class:`Tracer` replaces each such binding with a wrapper
that records a span (id, parent, name, start, end, attributes) in memory, and
puts every original back on exit.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _points(fn, args, kwargs, result) -> dict:
    return {"points": len(_arguments(fn, args, kwargs)["points"])}


def _nodes(fn, args, kwargs, result) -> dict:
    return {"nodes": len(result.weights), "order": int(_arguments(fn, args, kwargs)["order"])}


def _kernel(fn, args, kwargs, result) -> dict:
    # Computed from array sizes: input jets plus the returned bundle.
    moved = sum(a.nbytes for a in args) + sum(
        getattr(result, f).nbytes
        for f in ("gamma", "dgamma", "ricci", "scalar", "einstein", "ginv")
    )
    return {"points": len(args[0]), "bytes": moved}


def _radii(fn, args, kwargs, result) -> dict:
    return {"radii": len(_arguments(fn, args, kwargs)["radii"])}


def bindings(cli, analysis, invariants, metric_field):
    """``(container, key, span name, attribute fn)`` for every traced lookup site."""
    out = [
        (cli, "load_config", "cli.load_config", None),
        (cli, "run", "cli.run", None),
        (cli, "run_checks", "cli.run_checks", None),
        (cli, "build", "catalog.build", None),
        (cli, "decay_report", "metric_field.decay", None),
        (cli, "sphere_quadrature", "surfaces.quad", _nodes),
        (analysis, "sweep", "analysis.sweep", _radii),
        (analysis, "fit_power_law", "analysis.fit", None),
        (analysis, "sphere_quadrature", "surfaces.quad", _nodes),
        (analysis, "ellipsoid_quadrature", "surfaces.quad", _nodes),
        (invariants, "jet2_batch", "metric_field.jet", _points),
        (metric_field, "jet2_batch", "metric_field.jet", _points),
        (invariants, "curvature_arrays", "curvature.kernel", _kernel),
        (invariants, "g_normals_and_areas", "surfaces.normals", None),
        (invariants, "ibp_residual_X", "invariants.ibp_X", None),
        (invariants, "ibp_residual_Y", "invariants.ibp_Y", None),
        (invariants, "scalar_curvature_moment", "invariants.scalar_moment", None),
    ]
    for name, spec in getattr(analysis, "FUNCTIONALS", {}).items():
        out.append((spec, "fn", f"invariants.{name}", None))
    return out


def _get(container, key):
    """The bound object, or None when this lookup site no longer exists."""
    if isinstance(container, dict):
        return container.get(key)
    return getattr(container, key, None)


def _set(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """In-memory span recorder; :meth:`installed` rebinds and restores the names."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(id=len(self.spans), parent=parent, name=name, start=time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if attrs is not None:
                sp.attrs = attrs(fn, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, sites):
        """Rebind every ``(container, key, name, attrs)`` site for the duration.

        A site the program no longer has is skipped and named in ``missing``:
        its layer then reads as never called from there.
        """
        saved = []
        try:
            for container, key, name, attrs in sites:
                original = _get(container, key)
                if original is None:
                    self.missing.add(f"{name} ({key})")
                    continue
                saved.append((container, key, original))
                _set(container, key, self.wrap(name, original, attrs))
            yield self
        finally:
            for container, key, original in reversed(saved):
                _set(container, key, original)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, wall seconds, self seconds and summed attributes."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_order": 0})
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += s.duration - child_time.get(s.id, 0.0)
        for key, value in s.attrs.items():
            if key == "order":
                row["max_order"] = max(row["max_order"], value)
            else:
                row[key] = row.get(key, 0) + value
    return out
