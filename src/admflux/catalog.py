"""Closed-form metric families with known invariants, used as ground truth.

All families are conformally flat or flat-plus-bump, chosen so that every jet
entry has a closed form.  The conformal factor is restricted to finite sums
``u = 1 + sum_k a_k |x - c|^(-k)``, which keeps its Laplacian analytic and the
scalar-flatness oracle exact.  :func:`build` turns a :class:`CatalogSpec` into
a field; ``dataclasses.replace`` derives one spec from another.

The ``rt_violator`` kind is the negative control: the flat metric plus the odd
deviation ``h_11 = amplitude * x^1 |x|^(-n/2 - 1)``.  The deviation decays
exactly like ``|x|^(-n/2)``, so its odd part fails the ``o(|x|^(-n/2))``
parity condition needed by the center-of-mass equivalence, while the plain
``o(|x|^(-(n-2)/2))`` hypothesis for the mass equivalence still holds.  Its
flux mass vanishes identically by parity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .metric_field import Array, MetricField, parity_parts

KINDS = ("flat", "schwarzschild", "conformal", "perturbed", "rt_violator")
BUMP_PROFILES = ("gaussian", "rational")
BUMP_PARITIES = ("none", "even", "odd")


@dataclass(frozen=True)
class CatalogSpec:
    """Declarative description of a catalog metric.

    ``u_coeffs`` lists ``(power, coefficient)`` pairs of the conformal factor
    for the ``conformal`` kind; ``schwarzschild`` is the single-term special
    case ``u = 1 + mass / (2 |x - c|^(n-2))`` with metric ``u^(4/(n-2)) delta``.
    ``perturbed`` adds a parity-tagged bump to a base spec, and ``rt_violator``
    is flat plus an odd tail that decays exactly like ``|x|^(-n/2)``.
    """

    kind: str
    dim: int = 3
    mass: float = 1.0
    center: tuple[float, ...] = ()
    u_coeffs: tuple[tuple[int, float], ...] = ()
    base: "CatalogSpec | None" = None
    bump_amplitude: float = 0.05
    bump_width: float = 2.0
    bump_location: tuple[float, ...] = ()
    bump_parity: str = "none"
    bump_profile: str = "gaussian"
    bump_tail_power: int = 3
    amplitude: float = 0.5  # rt_violator only
    inner_radius: float | None = None
    label: str | None = None

    def _center(self) -> Array:
        c = np.zeros(self.dim)
        if self.center:
            c[: len(self.center)] = self.center
        return c

    def _location(self) -> Array:
        c = np.zeros(self.dim)
        if self.bump_location:
            c[: len(self.bump_location)] = self.bump_location
        return c


def _validate(spec: CatalogSpec) -> None:
    if spec.kind not in KINDS:
        raise ConfigError(f"unknown catalog kind {spec.kind!r}; choose one of {KINDS}")
    if spec.dim < 3:
        raise ConfigError(f"catalog metrics need dimension >= 3, got {spec.dim}")
    for what, entries in (("center", spec.center), ("bump location", spec.bump_location)):
        if len(entries) > spec.dim:
            raise ConfigError(f"{what} has {len(entries)} entries, more than dim {spec.dim}")
    if spec.kind == "conformal":
        if not spec.u_coeffs:
            raise ConfigError("conformal metrics need at least one (power, coefficient) pair")
        if any(k < 1 for k, _ in spec.u_coeffs):
            raise ConfigError("conformal factor powers must be >= 1")
    if spec.kind == "perturbed":
        if spec.base is None:
            raise ConfigError("perturbed metrics need a base spec")
        if spec.base.dim != spec.dim:
            raise ConfigError(f"perturbed dim {spec.dim} differs from its base's {spec.base.dim}")
        if spec.bump_profile not in BUMP_PROFILES:
            raise ConfigError(f"bump profile must be one of {BUMP_PROFILES}")
        if spec.bump_parity not in BUMP_PARITIES:
            raise ConfigError(f"bump parity must be one of {BUMP_PARITIES}")
        if spec.bump_width <= 0:
            raise ConfigError("bump width must be positive")
        if abs(spec.bump_amplitude) >= 1.0:
            raise ConfigError("bump amplitude must stay below 1 to keep the metric positive")
    if spec.inner_radius is not None and spec.inner_radius < 0:
        raise ConfigError("inner_radius must be nonnegative")


# ---------------------------------------------------------------------------
# conformal factors u = 1 + sum a_k |x - c|^(-k)


def _powers_u(points: Array, coeffs, center: Array):
    y = points - center
    rho = np.linalg.norm(y, axis=1)
    eye = np.eye(points.shape[1])
    u = np.ones(len(points))
    du = np.zeros_like(points)
    ddu = np.zeros((len(points), points.shape[1], points.shape[1]))
    for k, a in coeffs:
        u += a * rho**(-k)
        du += -a * k * rho[:, None] ** (-k - 2) * y
        ddu += -a * k * (
            rho[:, None, None] ** (-k - 2) * eye
            - (k + 2) * rho[:, None, None] ** (-k - 4) * y[:, :, None] * y[:, None, :]
        )
    return u, du, ddu


def _coeffs(spec: CatalogSpec) -> tuple[tuple[int, float], ...]:
    if spec.kind == "schwarzschild":
        return ((spec.dim - 2, spec.mass / 2.0),)
    return tuple((int(k), float(a)) for k, a in spec.u_coeffs)


def _conformal_jets(points: Array, coeffs, center: Array, n: int):
    u, du, ddu = _powers_u(points, coeffs, center)
    p = 4.0 / (n - 2)
    eye = np.eye(n)
    g = u[:, None, None] ** p * eye
    dg = p * u[:, None, None, None] ** (p - 1) * du[:, :, None, None] * eye
    dd = (
        p * (p - 1) * u[:, None, None] ** (p - 2) * du[:, :, None] * du[:, None, :]
        + p * u[:, None, None] ** (p - 1) * ddu
    )
    ddg = dd[:, :, :, None, None] * eye
    return g, dg, ddg


# ---------------------------------------------------------------------------
# bump profiles


def _bump_jets_raw(points: Array, spec: CatalogSpec):
    y = points - spec._location()
    # numpy and float arithmetic: powers out of range give non-finite jets, not errors
    sigma2 = np.float64(spec.bump_width) ** 2
    eye = np.eye(points.shape[1])
    if spec.bump_profile == "gaussian":
        v = spec.bump_amplitude * np.exp(-np.einsum("pi,pi->p", y, y) / (2 * sigma2))
        dv = -v[:, None] * y / sigma2
        ddv = v[:, None, None] * (y[:, :, None] * y[:, None, :] / sigma2**2 - eye / sigma2)
        return v, dv, ddv
    k = float(spec.bump_tail_power)
    q = 1.0 + np.einsum("pi,pi->p", y, y) / sigma2
    s = k / 2.0
    v = spec.bump_amplitude * q**(-s)
    dv = -spec.bump_amplitude * k / sigma2 * q[:, None] ** (-s - 1) * y
    ddv = spec.bump_amplitude * (
        k * (k + 2) / sigma2**2 * q[:, None, None] ** (-s - 2) * y[:, :, None] * y[:, None, :]
        - k / sigma2 * q[:, None, None] ** (-s - 1) * eye
    )
    return v, dv, ddv


def _bump_jets(points: Array, spec: CatalogSpec):
    jets = _bump_jets_raw(points, spec)
    if spec.bump_parity == "none":
        return jets
    even, odd = parity_parts(jets, _bump_jets_raw(-points, spec))
    return even if spec.bump_parity == "even" else odd


# ---------------------------------------------------------------------------
# builders


def _default_inner_radius(spec: CatalogSpec) -> float:
    n = spec.dim
    if spec.kind == "flat":
        return 0.0
    if spec.kind == "rt_violator":
        return max(1.0, (2.0 * abs(spec.amplitude)) ** (2.0 / n))
    if spec.kind == "perturbed":
        return _default_inner_radius(spec.base)
    # conformal factor is singular at its center; stay clear of the radius
    # where the leading coefficient could drive u toward zero
    c = float(np.linalg.norm(spec._center()))
    bound = max(abs(a) ** (1.0 / k) for k, a in _coeffs(spec))
    return c + max(1.0, 1.5 * bound)


def _expected_mass(spec: CatalogSpec) -> float | None:
    n = spec.dim
    if spec.kind in ("flat", "rt_violator"):
        return 0.0
    if spec.kind == "schwarzschild":
        return spec.mass
    if spec.kind == "perturbed":
        return _expected_mass(spec.base)
    coeffs = dict(_coeffs(spec))
    if any(k < n - 2 for k in coeffs):
        return None  # flux integral diverges
    return 2.0 * coeffs.get(n - 2, 0.0)


def build(spec: CatalogSpec) -> MetricField:
    """Construct the metric field described by ``spec``, with analytic jets."""
    _validate(spec)
    n = spec.dim
    eye = np.eye(n)
    metadata = {
        "label": spec.label or spec.kind,
        "globally_smooth": spec.kind == "flat",
        "expected_mass": _expected_mass(spec),
    }

    if spec.kind == "flat":
        def batch(points: Array):
            N = len(points)
            return (
                np.broadcast_to(eye, (N, n, n)).copy(),
                np.zeros((N, n, n, n)),
                np.zeros((N, n, n, n, n)),
            )

        inner = spec.inner_radius if spec.inner_radius is not None else 0.0
        return MetricField(n, batch, inner, metadata)

    if spec.kind in ("schwarzschild", "conformal"):
        coeffs = _coeffs(spec)
        center = spec._center()
        metadata["scalar_flat"] = all(k == n - 2 for k, _ in coeffs)
        if spec.kind == "schwarzschild" and spec.mass != 0.0:
            metadata["expected_center"] = center.copy()

        def batch(points: Array):
            return _conformal_jets(points, coeffs, center, n)

        inner = spec.inner_radius if spec.inner_radius is not None else _default_inner_radius(spec)
        # u alone, summed as _powers_u sums it: the probe needs no derivatives
        rho = np.linalg.norm(_probe_points(n, inner) - center, axis=1)
        if np.any(sum((a * rho**(-k) for k, a in coeffs), np.ones(len(rho))) <= 1e-10):
            raise ConfigError(
                "conformal factor is not positive down to the inner radius; "
                "raise inner_radius or adjust coefficients"
            )
        return MetricField(n, batch, inner, metadata)

    if spec.kind == "perturbed":
        base_field = build(spec.base)
        pattern = np.zeros((n, n))
        pattern[0, 0] = 1.0

        def batch(points: Array):
            g, dg, ddg = base_field.jet_batch(points)
            v, dv, ddv = _bump_jets(points, spec)
            g = g + v[:, None, None] * pattern
            dg = dg + dv[:, :, None, None] * pattern
            ddg = ddg + ddv[:, :, :, None, None] * pattern
            return g, dg, ddg

        inner = spec.inner_radius if spec.inner_radius is not None else base_field.inner_radius
        metadata["globally_smooth"] = base_field.metadata.get("globally_smooth", False)
        return MetricField(n, batch, inner, metadata)

    return _build_rt_violator(spec, metadata)


def _probe_points(n: int, radius: float) -> Array:
    # sample the domain boundary |x| = inner_radius, the worst case for u > 0
    from .surfaces import unit_sphere_rule

    dirs, _ = unit_sphere_rule(n, 8)
    return max(radius, 1e-6) * dirs


def _build_rt_violator(spec: CatalogSpec, metadata: dict) -> MetricField:
    n = spec.dim
    A = spec.amplitude
    p = n / 2.0 + 1.0
    pattern = np.zeros((n, n))
    pattern[0, 0] = 1.0

    def batch(points: Array):
        r = np.linalg.norm(points, axis=1)
        x1 = points[:, 0]
        eye = np.eye(n)
        f = A * x1 * r**(-p)
        e1 = eye[0]
        df = A * (
            e1[None, :] * r[:, None] ** (-p) - p * x1[:, None] * points * r[:, None] ** (-p - 2)
        )
        ddf = A * (
            -p * r[:, None, None] ** (-p - 2)
            * (
                e1[None, :, None] * points[:, None, :]
                + e1[None, None, :] * points[:, :, None]
                + x1[:, None, None] * eye
            )
            + p * (p + 2) * x1[:, None, None] * points[:, :, None] * points[:, None, :]
            * r[:, None, None] ** (-p - 4)
        )
        N = len(points)
        g = np.broadcast_to(eye, (N, n, n)).copy() + f[:, None, None] * pattern
        dg = df[:, :, None, None] * pattern[None, None, :, :]
        ddg = ddf[:, :, :, None, None] * pattern[None, None, None, :, :]
        return g, dg, ddg

    inner = spec.inner_radius if spec.inner_radius is not None else _default_inner_radius(spec)
    return MetricField(n, batch, inner, metadata)
