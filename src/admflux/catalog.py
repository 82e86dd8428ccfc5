"""Closed-form metric families with known invariants, used as ground truth.

All families are conformally flat, or a base metric plus a term in ``g_11``,
chosen so that every jet entry has a closed form.  The conformal factor is
restricted to finite sums ``u = 1 + sum_k a_k |x - c|^(-k)``, which keeps its
Laplacian analytic, the scalar-flatness oracle exact and ``u > 0`` a check of
a polynomial in ``t = 1 / |x - c|`` over the domain.  :func:`build` turns
a :class:`CatalogSpec` into a field and decides each kind in one branch;
``dataclasses.replace`` derives one spec from another.  Every jet and term
comes from one radial chain rule, to the derivative count asked for (no
Hessian at count 1), and is stored with the point axis last;
fields return point-first views, which the curvature kernel reads as they are.

The ``rt_violator`` kind is the negative control: the flat metric plus the odd
``g_11`` tail ``h_11 = amplitude * x^1 |x|^(-n/2 - 1)``.  The deviation decays
exactly like ``|x|^(-n/2)``, so its odd part fails the ``o(|x|^(-n/2))``
parity condition needed by the center-of-mass equivalence, while the plain
``o(|x|^(-(n-2)/2))`` hypothesis for the mass equivalence still holds.  Its
flux mass vanishes identically by parity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def _padded(entries: tuple[float, ...], n: int) -> Array:
    """``entries`` as a point of R^n, its missing coordinates zero."""
    out = np.zeros(n)
    out[: len(entries)] = entries
    return out


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
        if spec.bump_tail_power < 1:
            raise ConfigError(f"bump tail_power must be >= 1, got {spec.bump_tail_power}")
    if spec.inner_radius is not None and spec.inner_radius < 0:
        raise ConfigError("inner_radius must be nonnegative")


# ---------------------------------------------------------------------------
# radial jets and conformal factors u = 1 + sum a_k |x - c|^(-k)


def _point_first(*storage: Array) -> tuple[Array, ...]:
    """Point-first views of jet arrays stored with the point axis last."""
    return tuple(a.transpose(-1, *range(a.ndim - 1)) for a in storage)


def _radial(y: Array, a1: Array, a2: Array, derivatives: int):
    """Gradient ``a1 y`` and, for ``derivatives == 2``, Hessian ``a1 delta + a2 y y`` of
    ``f(|y|)``, ``a1 = f'(r) / r``, ``a2 = a1'(r) / r``; ``y`` is ``(n, N)``, the point
    axis last in and out.
    """
    if derivatives == 1:
        return (a1 * y,)
    n, N = y.shape
    dd = a2 * y[:, None] * y[None, :]
    dd.reshape(n * n, N)[:: n + 1] += a1
    return a1 * y, dd


def _conformal_jets(points: Array, coeffs, center: Array, n: int, derivatives: int = 2):
    """Jets of ``u^p delta``, ``p = 4 / (n - 2)``, written only into their diagonal slots.

    One loop over the coefficients forms ``u`` and the radial factors of
    ``du = a1 y`` and ``ddu = a1 delta + a2 y y`` from the one reciprocal
    ``s = 1 / |y|^2``; the chain rule gives those of ``u^p``, and the ``i = j``
    slots of zeroed point-last arrays take its jets.
    """
    y = points - center
    N = len(points)
    s = 1.0 / np.einsum("pi,pi->p", y, y)  # point-first: each sum independent of the batch
    u, a1, a2 = np.ones(N), np.zeros(N), np.zeros(N)
    for k, a in coeffs:
        term = a * s ** (0.5 * k)
        u += term
        a1 -= k * term
        a2 += k * (k + 2) * term
    a1 *= s
    a2 *= s * s
    p = 4.0 / (n - 2)
    f1 = p * u ** (p - 1)  # d(u^p)/du; (p - 1) f1 / u is its second derivative
    d = _radial(np.ascontiguousarray(y.T), f1 * a1, (p - 1) * f1 / u * a1 * a1 + f1 * a2, derivatives)
    jets = [np.zeros((n,) * (k + 2) + (N,)) for k in range(derivatives + 1)]
    jets[0].reshape(n * n, N)[:: n + 1] = u**p
    for k, dk in enumerate(d, 1):
        jets[k].reshape(n**k, n * n, N)[:, :: n + 1] = dk.reshape(n**k, 1, N)
    return _point_first(*jets)


# ---------------------------------------------------------------------------
# g_11 terms


def _bump_jets_raw(points: Array, spec: CatalogSpec, derivatives: int):
    y = points - _padded(spec.bump_location, points.shape[1])
    # numpy and float arithmetic: powers out of range give non-finite jets, not errors
    sigma2 = np.float64(spec.bump_width) ** 2
    r2 = np.einsum("pi,pi->p", y, y)  # point-first, as in _conformal_jets
    if spec.bump_profile == "gaussian":
        v = spec.bump_amplitude * np.exp(-r2 / (2 * sigma2))
        a1, a2 = -v / sigma2, v / sigma2**2
    else:
        k = float(spec.bump_tail_power)
        w = 1.0 + r2 / sigma2
        v = spec.bump_amplitude * w ** (-k / 2.0)
        a1, a2 = -k * v / (sigma2 * w), k * (k + 2) * v / (sigma2**2 * w * w)
    return _point_first(v, *_radial(np.ascontiguousarray(y.T), a1, a2, derivatives))


def _bump_jets(points: Array, spec: CatalogSpec, derivatives: int = 2):
    jets = _bump_jets_raw(points, spec, derivatives)
    if spec.bump_parity == "none":
        return jets
    even, odd = parity_parts(jets, _bump_jets_raw(-points, spec, derivatives))
    return even if spec.bump_parity == "even" else odd


def _rt_tail_jets(points: Array, A: float, derivatives: int = 2):
    """Jets of the ``rt_violator`` tail ``x^1 psi`` with ``psi = A |x|^(-n/2 - 1)``."""
    p = points.shape[1] / 2.0 + 1.0
    r2 = np.einsum("pi,pi->p", points, points)
    psi = A * r2 ** (-p / 2.0)
    a1, a2 = -p * psi / r2, p * (p + 2) * psi / (r2 * r2)
    x = np.ascontiguousarray(points.T)
    d = _radial(x, x[0] * a1, x[0] * a2, derivatives)  # x^1 times the jets of psi
    d[0][0] += psi
    if derivatives == 2:
        d[1][0] += a1 * x  # plus e_1 dpsi + dpsi e_1
        d[1][:, 0] += a1 * x
    return _point_first(x[0] * psi, *d)


def _plus_g11(base: MetricField, term, inner: float, metadata: dict) -> MetricField:
    """``base`` with the jets ``term(points, derivatives) = (v, dv[, ddv])`` added to its ``g_11``.

    Every catalog field and term returns fresh point-first views of point-last
    storage, so the term is added in place, one contiguous run of points per slot.
    """

    def batch(points: Array, derivatives: int):
        jets = base.jet_batch(points, derivatives)
        for level, t in zip(jets, term(points, derivatives)):
            level[..., 0, 0] += t
        return jets

    return MetricField(base.dim, batch, inner, metadata)


# ---------------------------------------------------------------------------
# builder


def build(spec: CatalogSpec) -> MetricField:
    """Construct the metric field described by ``spec``, with analytic jets.

    Each kind is decided in one branch, which sets the field's default inner
    radius and its metadata: ``expected_mass`` (None when the flux integral
    diverges), plus ``expected_center`` and ``scalar_flat`` where the kind
    knows them.  ``perturbed`` builds its base on its own inner radius, if
    any, and takes the base's inner radius and expected mass; ``rt_violator``
    is the flat field plus its ``g_11`` tail.  The coefficients of a power
    that ``u_coeffs`` repeats add.
    """
    _validate(spec)
    n = spec.dim
    inner = spec.inner_radius
    metadata = {"label": spec.label or spec.kind}

    if spec.kind == "flat":
        eye = np.eye(n)[:, :, None]

        def batch(points: Array, derivatives: int):
            N = len(points)
            g = np.broadcast_to(eye, (n, n, N)).copy()
            return _point_first(g, *(np.zeros((n,) * (k + 2) + (N,)) for k in range(1, derivatives + 1)))

        metadata["expected_mass"] = 0.0
        return MetricField(n, batch, 0.0 if inner is None else inner, metadata)

    if spec.kind == "perturbed":
        base = build(spec.base if inner is None else replace(spec.base, inner_radius=inner))
        mass, k = base.metadata["expected_mass"], spec.bump_tail_power
        if spec.bump_profile == "rational" and mass is not None and k <= n - 2:
            # the tail is A sigma^k |x|^-k; a numpy power overflows to inf, not to an error
            tail = (n - 2) * spec.bump_amplitude * np.float64(spec.bump_width) ** k / (2 * n)
            mass = None if k < n - 2 else mass if spec.bump_parity == "odd" else mass + tail
        metadata["expected_mass"] = mass
        return _plus_g11(base, lambda x, k: _bump_jets(x, spec, k), base.inner_radius, metadata)

    if spec.kind == "rt_violator":
        metadata["expected_mass"] = 0.0
        inner = max(1.0, (2.0 * abs(spec.amplitude)) ** (2.0 / n)) if inner is None else inner
        flat = build(CatalogSpec(kind="flat", dim=n))
        return _plus_g11(flat, lambda x, k: _rt_tail_jets(x, spec.amplitude, k), inner, metadata)

    # schwarzschild and conformal: u^(4/(n-2)) delta about ``center``
    center = _padded(spec.center, n)
    if spec.kind == "schwarzschild":
        coeffs = ((n - 2, spec.mass / 2.0),)
        metadata["expected_mass"] = spec.mass
        if spec.mass != 0.0:
            metadata["expected_center"] = center.copy()
    else:
        powers: dict[int, float] = {}
        for k, a in spec.u_coeffs:  # a repeated power adds its coefficients
            k, a = int(k), float(a)
            powers[k] = powers[k] + a if k in powers else a
        coeffs = tuple(powers.items())
        # a term of u slower than |x|^(2-n) makes the flux integral diverge
        slow = any(k < n - 2 for k in powers)
        metadata["expected_mass"] = None if slow else 2.0 * powers.get(n - 2, 0.0)
    metadata["scalar_flat"] = all(k == n - 2 for k, _ in coeffs)
    distance = float(np.linalg.norm(center))
    if inner is None:
        # u is singular at its center; stay clear of the radius where the
        # leading coefficient could drive u toward zero
        bound = max(abs(a) ** (1.0 / k) for k, a in coeffs)
        inner = distance + max(1.0, 1.5 * bound)
    # the jets are singular at c, which the inner radius must enclose; then t = 1 / |x - c|
    # covers (0, 1 / (inner - |c|)] on the domain, where u = 1 + sum a_k t^k must stay positive
    if inner <= distance:
        raise ConfigError(
            f"inner_radius {inner:g} does not enclose the center of the conformal factor "
            f"at distance {distance:g}; raise inner_radius"
        )
    t = np.arange(1, 1025) / (1024 * (inner - distance))
    if np.any(sum((a * t**k for k, a in coeffs), np.ones(len(t))) <= 1e-10):
        raise ConfigError(
            "conformal factor is not positive outside the inner radius; "
            "raise inner_radius or adjust coefficients"
        )
    return MetricField(n, lambda x, k: _conformal_jets(x, coeffs, center, n, k), inner, metadata)

