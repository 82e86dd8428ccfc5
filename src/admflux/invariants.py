"""Mass and center-of-mass functionals and the exact integral identities behind them.

Two routes to the same invariants are kept deliberately separate:

* flux form -- first derivatives of the metric against the *Euclidean* normal
  and area element (``adm_mass``, ``cs_center``);
* curvature form -- the Einstein tensor contracted with a conformal Killing
  field against the *metric* normal and area element
  (``intrinsic_mass``, ``intrinsic_center``).

Their agreement in the large-radius limit is what the analysis layer
certifies, so no silent substitution of normals or measures is made anywhere.
:func:`surface_totals` is the one way to evaluate a functional: it evaluates
a block of surfaces' jets once for every functional asked for, to second order
only when a name of :data:`SECOND_ORDER` reads them, each route with its own
normals and measure, and gives one total per surface.
The integration-by-parts identities (:func:`identity_residuals`) are rows of
the same totals as their boundary terms.  Both routes and the identities
work with the point axis last, as the curvature kernel does, and contract all
``n`` conformal generators at once; every kernel call is bounded in bytes
(:data:`KERNEL_BYTES`), and :func:`scalar_curvature_moment` takes every
annulus of a schedule through the kernel together.  :func:`refine` is the one
quadrature-refinement walk, of the swept surfaces and of the shells, and the
one rule that names the piece a failure is blamed on.  Every jet comes through
:func:`~admflux.metric_field.jet2_batch`, which checks that the points lie in
the field's domain and that the jets asked for are finite.  Every surface
total is correctly rounded (``math.fsum`` to the bit) for run-to-run
determinism, every row of a call in one vectorized sum.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Hashable, NamedTuple, Sequence

import numpy as np

from .curvature import curvature_arrays
from .errors import AdmfluxError, DomainError, NonFiniteError, UndefinedCenterError
from .metric_field import Array, MetricField, jet2_batch
from .surfaces import (
    QuadSurface,
    g_normals_and_areas,
    gauss_kronrod15,
    unit_sphere_area,
    unit_sphere_rule,
)

#: Center functionals are undefined for |mass| below this threshold.
MASS_THRESHOLD = 1e-8
#: Bytes of temporaries any one call of the curvature kernel may make: those of
#: 400 nodes in R^3.  Temporaries this small are served again from the
#: allocator's free memory on the next call instead of being mapped afresh.
KERNEL_BYTES = 345_600
#: Relative disagreement that still counts as converged: between consecutive
#: quadrature orders of a swept surface or of an annulus's directions, and
#: between the Kronrod and Gauss estimates of a radial piece of an annulus.
REFINEMENT_TOL = 1e-8
#: The highest quadrature order any refinement evaluates; doubling stops there.
MAX_ORDER = 96
#: Bisections of a radial piece before its annulus counts as unconverged.
MAX_RADIAL_BISECTIONS = 6


def refinement_orders(start: int) -> list[int]:
    """The orders the refinement rule evaluates from ``start``: the companion
    ``start // 2``, then ``start``, doubling up to :data:`MAX_ORDER`.  Each order
    is accepted when it :func:`agrees` with the one before.  A start below 4 has
    no companion of order 2 or more; it comes first and its double follows."""
    orders = [start // 2, start] if start >= 4 else [start, 2 * start]
    while orders[-1] < MAX_ORDER:
        orders.append(min(2 * orders[-1], MAX_ORDER))
    return orders


def agrees(finer, coarser, scale: float) -> bool:
    """Whether consecutive orders' values agree to :data:`REFINEMENT_TOL` times ``scale``."""
    return float(np.max(np.abs(np.subtract(finer, coarser)))) <= REFINEMENT_TOL * scale


@contextmanager
def _naming(where: str):
    """Name ``where`` a failure happened, keeping its type: the package's own errors are raised again
    with ``where`` leading their message, any other passes through with a note (Python 3.11 on)."""
    try:
        yield
    except AdmfluxError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    except Exception as exc:
        if hasattr(exc, "add_note"):
            exc.add_note(f"while evaluating {where}")
        raise


def refine(start: int, keys: Sequence[Hashable], evaluate: Callable, where: Callable) -> tuple[dict, list]:
    """The one refinement walk: each of ``keys`` through :func:`refinement_orders` from ``start``.

    ``evaluate(order, refining)`` gives ``(value, scale, result)`` for each key still refining, in key
    order.  A key accepts the result of the first order whose value :func:`agrees` with the order
    before's to its ``scale``; one that never agrees keeps its result at :data:`MAX_ORDER` and is
    stalled.  Returns the results in key order and the stalled keys.  When an order raises, each
    refining key is evaluated alone at it, in key order, and the first that fails is named
    ``where(key)``; an error that no key repeats alone is raised again.
    """
    results, previous, refining = {}, {}, list(keys)
    for order in refinement_orders(start):
        if not refining:
            break
        try:
            got = evaluate(order, refining)
        except Exception:
            for key in refining:
                with _naming(where(key)):
                    evaluate(order, [key])
            raise
        accepted = set()
        for key, (value, scale, result) in zip(refining, got):
            if key in previous and agrees(value, previous[key], scale):
                accepted.add(key)
            results[key], previous[key] = result, value
        refining = [key for key in refining if key not in accepted]
    return results, refining


#: The functionals read from the curvature bundle; the others need only the jets.
CURVATURE_FUNCTIONALS = ("intrinsic_mass", "intrinsic_center")
#: The functionals normalized by a mass as well.
CENTER_FUNCTIONALS = ("cs_center", "intrinsic_center")


def _fsum_rows(rows: Array) -> list[float]:
    """The correctly rounded sum of each row of ``rows``: its ``math.fsum``, to the bit.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008) with
    ``sigma = 2^M 2^e >= 2^M max |row|`` and ``2^M >= N + 2`` makes the parts ``(sigma + x) - sigma``
    and their sum exact; passes repeat on the residuals until none is left, and ``math.fsum`` of
    the exact pass sums rounds once.  Rows with a non-finite entry, an entry near overflow or only
    zeros take ``math.fsum`` itself, so NaN passes and ``inf - inf`` raises :class:`NonFiniteError`.
    """
    shift = (rows.shape[1] + 1).bit_length()
    top = np.abs(rows).max(axis=1)
    split = (top > 0) & (top < 2.0 ** (1022 - shift))
    residual, top, parts = rows[split], top[split], []
    q = np.empty_like(residual)
    while top.any():
        sigma = np.ldexp(1.0, shift + np.frexp(top)[1])[:, None]
        np.add(sigma, residual, out=q)
        q -= sigma
        residual -= q
        parts.append(q.sum(axis=1))
        top = np.abs(residual, out=q).max(axis=1)
    exact, plain = iter([math.fsum(p) for p in zip(*parts)]), iter(rows[~split].tolist())
    try:
        return [next(exact) if s else math.fsum(next(plain)) for s in split.tolist()]
    except (OverflowError, ValueError) as exc:
        raise NonFiniteError(f"surface integrand overflows: {exc}") from None


def _kernel_slices(total: int, n: int, block: int = 1) -> list[slice]:
    """Slices of ``total`` points in R^n for one curvature-kernel call each.

    A call takes at most :data:`KERNEL_BYTES` over the ``3 n^2 (n + 1)`` floats
    of temporaries a node costs, which bound the kernel's peak; each slice
    holds as many whole ``block``s of points as fit, or that many points when
    one block is larger.
    """
    cap = KERNEL_BYTES // (24 * n * n * (n + 1))
    step = cap // block * block or cap
    return [slice(k, k + step) for k in range(0, total, step)]


def _point_last(a: Array) -> Array:
    """The view of a point-first array with its point axis moved last."""
    return a.transpose(*range(1, a.ndim), 0)


def _generator_rows(x: Array, v: Array) -> Array:
    """``Y_alpha . v`` for every conformal generator ``Y_alpha = |x|^2 e_alpha - 2 x_alpha x``,
    as rows ``alpha`` over the points, from ``x[i, p]`` and ``v[i, p]``."""
    return np.einsum("i...,i...->...", x, x) * v - 2.0 * x * np.einsum("i...,i...->...", x, v)


#: The names whose rows read second-order jets; the others need only first-order jets.
SECOND_ORDER = (*CURVATURE_FUNCTIONALS, "identity_X", "identity_Y")


def _flux(dg: Array, nu: Array) -> Array:
    """``(d_k g_ki - d_i g_kk) nu_e^i``, the flux-mass integrand before its weight."""
    dG = _point_last(dg)  # dG[k, i, j, p] = d_k g_ij
    bracket = np.einsum("kki...->i...", dG) - np.einsum("ikk...->i...", dG)
    return np.einsum("i...,i...->...", bracket, nu)


def _curvature_frame(g: Array, dg: Array, ddg: Array, nu: Array, w: Array) -> tuple[Array, Array]:
    """``G(., nu_g)`` and the metric area weights, point-last.

    The kernel takes the nodes in slices of :data:`KERNEL_BYTES`; their
    Einstein tensors, inverse metrics and determinants are joined along
    the point axis.
    """
    parts = []
    for part in _kernel_slices(len(g), g.shape[-1]):
        bundle = curvature_arrays(g[part], dg[part], ddg[part])
        parts.append((_point_last(bundle.einstein), _point_last(bundle.ginv), bundle.det))
    einstein, ginv, det = (np.concatenate(column, axis=-1) for column in zip(*parts))
    nu_g, w_g = g_normals_and_areas(nu, w, ginv, det)
    return np.einsum("ij...,j...->i...", einstein, nu_g), w_g


def _identity(ddg: Array, nu: Array) -> tuple[Array, Array]:
    """``M(., nu_e)`` and ``s`` of the integration-by-parts identities, point-last.

    ``M = T + D - A - A^T`` and ``s = tr D - tr A``, from ``T_ij = d_k d_k g_ij``,
    ``D_ij = d_i d_j g_kk`` and ``A_ij = d_k d_j g_ki``.
    """
    ddG = _point_last(ddg)  # ddG[k, l, i, j, p] = d_k d_l g_ij
    A = np.einsum("kjki...->ij...", ddG)
    D_minus_A = np.einsum("ijkk...->ij...", ddG) - A
    M = np.einsum("kkij...->ij...", ddG) + D_minus_A - A.swapaxes(0, 1)
    return np.einsum("ij...,j...->i...", M, nu), np.einsum("ii...->...", D_minus_A)


def surface_totals(field: MetricField, surfaces: Sequence[QuadSurface], names: Sequence[str]) -> dict[str, list]:
    """The unnormalized totals of each functional of ``names`` on same-rule ``surfaces``, one per
    surface: a float, or one per component, the same to the bit as alone.  One jet call, to second
    order only for a name of :data:`SECOND_ORDER`, and one correctly rounded row sum serve them all,
    as do the flux integrand, the curvature frame and the identities' form, each built if a name reads it.

    * ``adm_mass``, the flux mass: ``(d_j g_ij - d_i g_jj) nu_e^i`` against
      the Euclidean weights, over ``2 (n-1) omega_(n-1)``.
    * ``cs_center``, the flux center (Hamiltonian form): component alpha
      integrates ``x^alpha (d_i g_ij - d_j g_ii) nu_e^j - (h_(i alpha) nu_e^i
      - h_ii nu_e^alpha)`` against the Euclidean weights, over
      ``2 (n-1) omega_(n-1) * mass``.  The deviation ``h = g - identity``
      drops a pure-trace term whose integral vanishes only by closed-surface
      symmetry, which reduces quadrature error.
    * ``intrinsic_mass``, the curvature mass: ``(Ric - R/2 g)(X, nu_g)`` with
      the metric normal and weights, over ``(n-1)(2-n) omega_(n-1)``; the
      negative ``2 - n`` makes it positive for positive-mass metrics.
    * ``intrinsic_center``, the curvature center: component alpha integrates
      ``(Ric - R/2 g)(Y_alpha, nu_g)`` with the metric normal and weights,
      over ``2 (n-1)(n-2) omega_(n-1) * mass``.

    :func:`normalized` divides by these normalizations.  The rows of the
    identities of :func:`identity_residuals` stay unnormalized: ``identity_X``
    integrates ``M(x, nu_e)`` and ``s x.nu_e``, ``identity_Y`` each
    ``-M(Y_alpha, nu_e)`` and then each ``-s Y_alpha.nu_e``, all against the
    Euclidean weights.
    """
    if any(surf.dim != field.dim or len(surf) != len(surfaces[0]) for surf in surfaces):
        raise ValueError(f"surfaces must share one rule and the field's dimension {field.dim}")
    points, normals, w = (np.concatenate([getattr(surf, a) for surf in surfaces])
                          for a in ("points", "normals", "weights"))
    g, dg, ddg = (*jet2_batch(field, points, 2 if any(f in SECOND_ORDER for f in names) else 1), None)[:3]
    # the nodes and normals with the point axis last, as the jets are read
    x, nu, asked = points.T, normals.T, set(names)
    flux = _flux(dg, nu) if asked & {"adm_mass", "cs_center"} else None
    m_nu, s = _identity(ddg, nu) if asked & {"identity_X", "identity_Y"} else (None, None)
    e_nu, w_g = _curvature_frame(g, dg, ddg, nu, w) if asked & set(CURVATURE_FUNCTIONALS) else (None, None)

    def rows(name: str) -> Array:
        """The weighted integrand of functional ``name``: a row over the nodes, or one per component."""
        if name == "adm_mass":
            return flux * w
        if name == "cs_center":
            h = _point_last(g) - np.eye(field.dim)[:, :, None]
            t2 = np.einsum("ia...,i...->a...", h, nu) - np.einsum("ii...->...", h) * nu
            del h  # before the rows, which are the peak of a flux block
            return (x * flux - t2) * w
        if name == "identity_X":  # M(x, nu_e) and s x.nu_e
            return np.stack([np.einsum("i...,i...->...", x, m_nu), s * np.einsum("i...,i...->...", x, nu)]) * w
        if name == "identity_Y":
            return np.concatenate([-_generator_rows(x, m_nu), -s * _generator_rows(x, nu)]) * w
        if name in CURVATURE_FUNCTIONALS:
            mass = name == "intrinsic_mass"
            return (np.einsum("i...,i...->...", x, e_nu) if mass else _generator_rows(x, e_nu)) * w_g
        raise ValueError(f"unknown functional {name!r}")

    count = len(surfaces)
    parts = [rows(name).reshape(-1, len(w) // count) for name in names]
    sums, out = _fsum_rows(np.concatenate(parts)), {}  # a row per component and surface
    for name, r in zip(names, parts):
        got, sums = sums[: len(r)], sums[len(r):]
        out[name] = got if len(r) == count else list(np.reshape(got, (-1, count)).T)
    return out


def normalized(name: str, total, n: int, mass: float | None = None) -> float | Array:
    """Functional ``name`` in R^n from its surface total.

    Divides by the functional's normalization and, for a center functional,
    by ``mass`` as well, which must satisfy ``|mass| >= MASS_THRESHOLD``.
    """
    if name in ("adm_mass", "cs_center"):
        scale = 2.0 * (n - 1) * unit_sphere_area(n)
    elif name == "intrinsic_mass":
        scale = (n - 1) * (2.0 - n) * unit_sphere_area(n)
    elif name == "intrinsic_center":
        scale = 2.0 * (n - 1) * (n - 2) * unit_sphere_area(n)
    else:
        raise ValueError(f"unknown functional {name!r}")
    if name not in CENTER_FUNCTIONALS:
        return total / scale
    if mass is None:
        raise ValueError(f"functional {name!r} needs the mass normalization")
    if abs(mass) < MASS_THRESHOLD:
        raise UndefinedCenterError(
            f"center of mass undefined for |mass| = {abs(mass):.3e} < {MASS_THRESHOLD}"
        )
    return total / (scale * float(mass))


def _require_enclosable(field: MetricField, surf: QuadSurface, inner: QuadSurface | None) -> None:
    if inner is None:
        if field.inner_radius != 0:
            raise DomainError(
                f"field {field.label!r} is not defined on the whole enclosed region "
                f"(inner radius {field.inner_radius:g}); pass an inner surface to use the annulus form"
            )
        return
    inner_max = float(np.max(np.linalg.norm(inner.points, axis=1)))
    outer_min = float(np.min(np.linalg.norm(surf.points, axis=1)))
    if inner_max >= outer_min:
        raise ValueError(
            f"inner surface (max radius {inner_max:.6g}) must lie strictly inside "
            f"the outer one (min radius {outer_min:.6g})"
        )


def identity_residuals(
    field: MetricField, surf: QuadSurface, inner: QuadSurface | None = None
) -> tuple[float, Array]:
    """Defects of the exact integration-by-parts identities on ``surf``.

    For the dilation field ``X = x``: the surface integral of the
    second-derivative combination
    ``(-dd_(kj) g_ki - dd_(ki) g_kj + dd_(kk) g_ij + dd_(ij) g_kk) x^i nu_e^j``
    equals ``(n-2)`` times the flux-mass integrand plus the radial moment of
    ``(-dd_(kj) g_kj + dd_(jj) g_kk)``, for any metric that is C^3 on the
    enclosed region.  The identity for each conformal generator ``Y_alpha``
    has the same structure, with the center-of-mass flux integrand as its
    boundary term.  Returns left side minus right side for ``X`` and, as an
    array, for ``Y_alpha`` with ``alpha = 1..n``, from one
    :func:`surface_totals` call per surface; only quadrature error
    remains for smooth fields.

    When ``inner`` is given the identities are applied on the annulus between
    the two surfaces instead, which makes fields with an excluded ball
    testable.
    """
    _require_enclosable(field, surf, inner)
    n = field.dim

    def forms(one: QuadSurface) -> tuple[float, Array]:
        """Both sides' difference on ``one``; the boundary terms are ``(n-2)`` times the flux mass
        and ``2(n-2)`` times each flux-center total."""
        got = surface_totals(field, [one], ["identity_X", "identity_Y", "adm_mass", "cs_center"])
        (lhs_x, radial), sums = got["identity_X"][0], got["identity_Y"][0]
        return (lhs_x - (n - 2) * got["adm_mass"][0] - radial,
                np.subtract(sums[:n], sums[n:]) - 2.0 * (n - 2) * got["cs_center"][0])

    res_x, res_y = forms(surf)
    if inner is not None:
        inner_x, inner_y = forms(inner)
        res_x, res_y = res_x - inner_x, res_y - inner_y
    return res_x, res_y


class ShellIntegral(NamedTuple):
    """An annulus integral of the scalar curvature, summed over its radial pieces.

    ``error`` sums the pieces' Kronrod-minus-Gauss estimates and ``scale``
    the same integral of ``max |R_ij|``, the size the rounding of ``R`` is
    relative to.  ``order`` is the angular order accepted.  ``stalled`` names
    the rule that hit its cap: ``"radial"`` when a piece still missed
    ``REFINEMENT_TOL * scale`` after :data:`MAX_RADIAL_BISECTIONS` bisections,
    else ``"angular"`` when no two orders up to :data:`MAX_ORDER` agreed.
    """

    value: float
    error: float
    scale: float
    order: int
    stalled: str | None = None


def _scalar_densities(field: MetricField, points: Array) -> tuple[Array, Array]:
    """``R sqrt(det g)`` and ``max |R_ij| sqrt(det g)`` at ``points``, from one
    jet evaluation and one kernel call."""
    bundle = curvature_arrays(*jet2_batch(field, points))
    volume = np.sqrt(bundle.det)
    return bundle.scalar * volume, np.abs(_point_last(bundle.ricci)).max(axis=(0, 1)) * volume


def scalar_curvature_moment(field: MetricField, radii: Sequence[float], moment: int = 0) -> list[ShellIntegral]:
    """Volume integrals of ``R`` (or ``x^i R``) over the annuli ``r_k < |x| < r_(k+1)`` of ``radii``.

    Uses a unit-sphere rule in the directions and the embedded 7/15-point
    Gauss-Kronrod pair in the radius, with the metric volume element
    ``sqrt(det g)``.  ``moment=0`` integrates the scalar curvature itself;
    ``moment=i`` (1-based) weights it by the coordinate ``x^i``.  One
    :class:`ShellIntegral` per annulus exposes the convergence of the tail.

    Each annulus's angular order is refined by :func:`refine` from 4, to
    :data:`REFINEMENT_TOL` times the finer order's scale; every annulus still
    refining at an order is evaluated in one pass, and a failure names the
    first that fails alone (``scalar_moment_shells on 20 < |x| < 40``).  Each
    gets the :class:`ShellIntegral` of its accepted order; at the cap it is
    marked ``"angular"`` unless its radial rule stalled.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 2 or not radii[0] >= field.inner_radius or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"need increasing radii from inner_radius={field.inner_radius} on, got {radii}")
    if not 0 <= moment <= field.dim:
        raise ValueError(f"moment must be 0 or a 1-based index <= {field.dim}, got {moment}")
    annuli = list(zip(radii, radii[1:]))
    shells, stalled = refine(4, range(len(annuli)), lambda order, refining: [
        (s.value, s.scale, s) for s in _radial_moment(field, [annuli[k] for k in refining], moment, order)
    ], lambda k: f"scalar_moment_shells on {annuli[k][0]:g} < |x| < {annuli[k][1]:g}")
    return [s._replace(stalled=s.stalled or "angular") if k in stalled else s for k, s in shells.items()]


def _radial_moment(field: MetricField, annuli: Sequence[tuple[float, float]], moment: int,
                   order: int) -> list[ShellIntegral]:
    """The integral over each annulus ``(r0, r1)`` of ``annuli`` on the order-``order`` unit-sphere rule.

    Each radial interval starts as one piece.  A piece is accepted when its
    Kronrod and Gauss estimates agree to :data:`REFINEMENT_TOL` times its
    scale, the Kronrod integral of ``max |R_ij| sqrt(det g)`` (times ``|x^i|``
    for a moment); otherwise it is bisected, up to
    :data:`MAX_RADIAL_BISECTIONS` times.  The 15 shells of every open piece of
    every annulus go through the curvature kernel together, in slices of whole
    shells within :data:`KERNEL_BYTES`; each shell is reduced in node order,
    both densities of a depth in one row sum, the Kronrod, Gauss and scale sums
    of all its pieces in another, and each annulus's pieces are summed in
    radial order.
    """
    n = field.dim
    dirs, w_dir = unit_sphere_rule(n, order)
    t, w_kronrod, w_gauss = gauss_kronrod15()
    pieces = [(k, r0, r1) for k, (r0, r1) in enumerate(annuli)]
    accepted, stalled = [[] for _ in annuli], [None] * len(annuli)
    for depth in range(MAX_RADIAL_BISECTIONS + 1):
        ends = np.array([(a, b) for _, a, b in pieces])
        mid, half = ends.mean(axis=1), 0.5 * (ends[:, 1] - ends[:, 0])
        radii = (mid[:, None] + half[:, None] * t).reshape(-1)
        pts = (radii[:, None, None] * dirs).reshape(-1, n)
        parts = [_scalar_densities(field, pts[part]) for part in _kernel_slices(len(pts), n, len(dirs))]
        dens, size = (np.concatenate(column) for column in zip(*parts))
        if moment:
            dens, size = dens * pts[:, moment - 1], size * np.abs(pts[:, moment - 1])
        rows = np.concatenate([dens, size]).reshape(-1, len(dirs)) * w_dir
        shells, sizes = (radii ** (n - 1) * np.reshape(_fsum_rows(rows), (2, -1))).reshape(2, len(pieces), -1)
        terms = np.zeros((len(pieces), 3, len(t)))  # each piece's Kronrod, Gauss and scale terms
        terms[:, 0], terms[:, 2] = w_kronrod * shells, w_kronrod * sizes
        terms[:, 1, 1::2] = w_gauss * shells[:, 1::2]
        sums = half[:, None] * np.reshape(_fsum_rows(terms.reshape(-1, len(t))), (-1, 3))
        still_open = []
        for (k, a, b), c, (kronrod, gauss, scale) in zip(pieces, mid, sums):
            error = abs(kronrod - gauss)
            settled = bool(error <= REFINEMENT_TOL * scale)
            if settled or depth == MAX_RADIAL_BISECTIONS:
                accepted[k].append((a, kronrod, error, scale))
                stalled[k] = stalled[k] if settled else "radial"
            else:
                still_open += [(k, a, c), (k, c, b)]
        pieces = still_open
        if not pieces:
            break
    out = []
    for pieces_of, why in zip(accepted, stalled):
        _, values, errors, scales = zip(*sorted(pieces_of))
        out.append(ShellIntegral(math.fsum(values), math.fsum(errors), math.fsum(scales), order, why))
    return out
