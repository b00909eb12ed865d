"""Constrained optimization of the class mixing weights.

With cannot-links present, the expected complete-data log-likelihood is no
longer linear in ``log α``: every cannot-link pair contributes a
``−log(1 − Σ_m α_m²)`` normalizer.  Collecting the α-dependent terms gives
the concentrated objective

    f(α) = Σ_m c_m · log α_m  −  n_cannot · log(1 − Σ_m α_m²)

over the probability simplex, where ``c_m`` is the total responsibility
mass of class ``m`` (unsupervised points + one shared weight per must-link
pair + both marginals of each cannot-link pair).  The maximizer is found
by one of three routes:

* without cannot-links, the classical closed form ``c / Σc``;
* with two classes that both have ``c_m > n_cannot``, the closed form
  ``α = (c − n_cannot) / (c₁ + c₂ − 2·n_cannot)``: on the simplex
  ``1 − α₁² − α₂² = 2α₁α₂``, so f is
  ``(c₁ − n_cannot)·log α₁ + (c₂ − n_cannot)·log α₂ + const``;
* otherwise (three or more classes, or two with some ``c_m ≤ n_cannot``,
  where the maximum lies at a vertex) a safeguarded projected-Newton
  method on the simplex:

  - Newton step from the equality-constrained KKT system, with a
    projected-gradient fallback whenever the step is not an ascent
    direction;
  - Armijo backtracking so every accepted step increases ``f``; a solve
    never ends below its start, the one guarantee EM needs, since the EM
    engine starts each solve from the previous weights (the closed forms
    are exact maximizers and cannot end below it either);
  - a fraction-to-boundary cap plus a hard floor (``ALPHA_FLOOR``, which
    also clamps the two-class closed form) keeping all weights strictly
    positive;
  - once that phase stops off the boundary, up to three plain Newton steps
    (the polish), so the solve ends at the maximizer to within a few ulps
    instead of wherever its stopping test happened to pass.

:func:`optimize_mixing_info` checks its arguments and hands them to
``_solve_mixing``; the EM engine, whose counts come from its own E-step,
calls ``_solve_mixing`` directly.  A closed form's diagnostics are made by
:func:`optimize_mixing_info` alone, since the engine keeps only the weights.

The objective is unbounded exactly when some class's complement mass
``Σ_{m'≠m} c_{m'}`` is smaller than ``n_cannot`` (the supremum is +∞ at the
vertex ``e_m``).  Responsibility tables produced by an E-step always give
``Σ_{m'≠m} c_{m'} ≥ n_cannot``, but the solver stays graceful off that
regime: it rails toward the vertex until the floored point satisfies the
projected optimality test and returns it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateNormalizerError,
    InvariantViolationError,
    NoConvergenceError,
    NotFiniteError,
)

ALPHA_FLOOR = 1e-10
_ACTIVE_THRESH = 10.0 * ALPHA_FLOOR
_TOL = 1e-8  # scaled KKT residual at which a solve stops
_MAX_STEPS = 200  # Newton steps a solve may take
_POLISH_STEPS = 3  # plain Newton steps after the safeguarded phase stops
_POLISH_ULPS = 32  # how far, in ulps of f's terms, a polish step may lower f


def _check_counts(counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1 or counts.size == 0:
        raise InvariantViolationError("counts must be a non-empty 1-D vector")
    if not np.isfinite(counts).all():
        raise NotFiniteError("counts contain non-finite entries")
    if (counts < 0).any():
        raise InvariantViolationError("counts must be nonnegative")
    if counts.sum() <= 0:
        raise InvariantViolationError("counts must have positive total mass")
    return counts


def mixing_objective(alpha, counts, n_cannot: int) -> float:
    """Evaluate f(α); defined for any positive vector with ``Σα² < 1``.

    Entries with ``c_m = 0`` contribute nothing even at ``α_m = 0``
    (the ``0·log 0 = 0`` convention).
    """
    alpha = np.asarray(alpha, dtype=float)
    counts = np.asarray(counts, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(counts > 0, counts * np.log(alpha), 0.0)
    value = float(logs.sum())
    if n_cannot:
        norm = 1.0 - float(alpha @ alpha)
        if norm <= 0.0:
            return -np.inf if np.any((counts > 0) & (alpha <= 0)) else np.inf
        value -= n_cannot * np.log(norm)
    return value


def mixing_gradient(alpha, counts, n_cannot: int) -> np.ndarray:
    """∂f/∂α_m = c_m/α_m + 2·n_cannot·α_m / (1 − Σα²)."""
    alpha = np.asarray(alpha, dtype=float)
    counts = np.asarray(counts, dtype=float)
    grad = counts / alpha
    if n_cannot:
        norm = 1.0 - float(alpha @ alpha)
        grad = grad + 2.0 * n_cannot * alpha / norm
    return grad


def _newton_system(a, c, n_cannot, grad):
    """Equality-constrained KKT matrix ``[[H, -1], [1ᵀ, 0]]`` and right-hand
    side ``[-∇f, 0]``, with the Hessian of f

        H = diag(−c/α²) + 2·n_cannot/(1 − Σα²) · I + 4·n_cannot/(1 − Σα²)² · ααᵀ
    """
    k = a.size
    norm = 1.0 - float(a @ a)
    kkt = np.zeros((k + 1, k + 1))
    h = kkt[:k, :k]
    np.multiply(4.0 * n_cannot / norm**2, a[:, None] * a, out=h)
    h.flat[:: k + 1] += -c / a**2 + 2.0 * n_cannot / norm
    kkt[:k, k] = -1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    np.negative(grad, out=rhs[:k])
    return kkt, rhs


@dataclass(frozen=True)
class MixingInfo:
    """Diagnostics from one :func:`optimize_mixing` run."""

    n_steps: int
    kkt_residual: float
    objective: float
    railed: bool


def _kkt_residual(alpha: np.ndarray, grad: np.ndarray) -> float:
    """Scaled projected-optimality residual on the simplex.

    Coordinates at the floor are allowed gradient below the multiplier
    (they would leave the simplex by shrinking further); free coordinates
    must share a common multiplier ν.
    """
    # Python floats on the solver's short vectors; rounding is monotone, so the
    # largest |g − ν| is at max(g) or min(g), a floor coordinate's excess at max(g)
    g = grad.tolist()
    free = [gi for ai, gi in zip(alpha.tolist(), g) if ai > _ACTIVE_THRESH]
    # with no free coordinate, all of them share the multiplier
    shared = free or g
    hi, lo = max(shared), min(shared)
    nu = 0.5 * (hi + lo)
    resid = max(hi - nu, nu - lo)
    if len(shared) < len(g):
        resid = max(resid, max(g) - nu)
    return resid / max(1.0, abs(nu))


def optimize_mixing_info(counts, n_cannot: int,
                         alpha_init=None) -> tuple[np.ndarray, MixingInfo]:
    """Maximize f(α) on the simplex; returns ``(alpha, diagnostics)``.

    ``alpha_init`` defaults to the linear-part closed form ``c / Σc``.
    Classes with ``c_m = 0`` are pinned to weight 0.  Two supported classes
    that both have ``c_m > n_cannot`` take the closed form
    ``(c − n_cannot) / (c₁ + c₂ − 2·n_cannot)`` with ``n_steps = 0``.
    Raises :class:`DegenerateNormalizerError` when cannot-links are present
    but fewer than two classes carry mass, and :class:`NoConvergenceError`
    if the safeguarded iteration stops (after 200 Newton steps, or with no
    admissible ascent step) with its KKT residual above 1e-6 and no weight
    at the floor.
    """
    counts = _check_counts(counts)
    n_cannot = int(n_cannot)
    if n_cannot < 0:
        raise InvariantViolationError("n_cannot must be nonnegative")
    if alpha_init is not None:
        alpha_init = np.asarray(alpha_init, dtype=float)
        if alpha_init.shape != counts.shape:
            raise InvariantViolationError(
                f"alpha_init has shape {alpha_init.shape}, expected ({counts.size},)"
            )
        if not np.all(np.isfinite(alpha_init)) or np.any(alpha_init < 0):
            raise InvariantViolationError("alpha_init must be finite and nonnegative")
    alpha, info = _solve_mixing(counts, n_cannot, alpha_init)
    return alpha, info or _closed_form_info(alpha, counts, n_cannot)


def _closed_form_info(alpha: np.ndarray, counts: np.ndarray, n_cannot: int) -> MixingInfo:
    """Diagnostics of a closed-form maximizer, which takes no Newton step."""
    if n_cannot == 0:
        return MixingInfo(0, 0.0, mixing_objective(alpha, counts, 0), False)
    support = counts > 0
    a, c = alpha[support], counts[support]
    resid = _kkt_residual(a, mixing_gradient(a, c, n_cannot))
    return MixingInfo(0, resid, mixing_objective(a, c, n_cannot),
                      bool((a <= _ACTIVE_THRESH).any()))


def _solve_mixing(counts: np.ndarray, n_cannot: int,
                 start) -> tuple[np.ndarray, MixingInfo | None]:
    """:func:`optimize_mixing_info` on arguments it has already checked:
    finite nonnegative float counts with positive mass, ``n_cannot ≥ 0``,
    and ``start`` either None or a finite nonnegative vector of the same
    length.  The EM engine calls it directly with its own E-step counts.
    A closed form returns ``None`` for the diagnostics."""
    if n_cannot == 0:
        return counts / counts.sum(), None

    support = counts > 0
    c = counts[support]
    k = c.size
    if k < 2:
        raise DegenerateNormalizerError(
            "cannot-links require at least two classes with responsibility mass"
        )
    if k == 2 and min(c.tolist()) > n_cannot:
        # 1 − α₁² − α₂² = 2α₁α₂ on the simplex, so f is
        # (c₁ − n)·log α₁ + (c₂ − n)·log α₂ + const, maximized at α ∝ c − n;
        # on Python floats, with the IEEE operations of the array formula
        # np.maximum((c − n) / Σ(c − n), ALPHA_FLOOR), renormalized
        a1, a2 = (x - n_cannot for x in c.tolist())
        total = a1 + a2
        a1, a2 = max(a1 / total, ALPHA_FLOOR), max(a2 / total, ALPHA_FLOOR)
        total = a1 + a2
        alpha = np.zeros(counts.size)
        alpha[support] = a1 / total, a2 / total
        return alpha, None

    if start is None:
        a = c / c.sum()
    else:
        a = np.maximum(start[support], 1e-12)
        a = a / a.sum()

    f_cur = mixing_objective(a, c, n_cannot)
    grad = mixing_gradient(a, c, n_cannot)
    resid = _kkt_residual(a, grad)
    steps = 0
    while resid > _TOL and steps < _MAX_STEPS:
        steps += 1
        # Newton direction from the equality-constrained KKT system
        try:
            delta = np.linalg.solve(*_newton_system(a, c, n_cannot, grad))[:k]
            slope = float(grad @ delta)
        except np.linalg.LinAlgError:
            delta = None
        if delta is None or not np.isfinite(delta).all() or slope <= 0.0:
            delta = grad - grad.mean()  # projected gradient, always ascent
            if float(np.abs(delta).max()) == 0.0:
                break
            slope = float(grad @ delta)

        # keep every weight strictly positive: step at most 99% of the way
        # to the nearest zero, and keep Σα² < 1 automatically on the simplex
        shrink = delta < 0
        t_max = 1.0
        if shrink.any():
            t_max = min(1.0, float((0.99 * a[shrink] / -delta[shrink]).min()))

        t = t_max
        accepted = False
        for _ in range(60):
            cand = np.maximum(a + t * delta, ALPHA_FLOOR)
            cand /= cand.sum()
            f_cand = mixing_objective(cand, c, n_cannot)
            if math.isfinite(f_cand) and f_cand >= f_cur + 1e-4 * t * slope:
                a, f_cur = cand, f_cand
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # no admissible ascent step: either at the floor against the
            # boundary or at numerical stationarity — the residual test
            # below decides which
            break
        grad = mixing_gradient(a, c, n_cannot)
        resid = _kkt_residual(a, grad)

    railed = bool((a <= _ACTIVE_THRESH).any())
    if not railed:
        a, f_cur, grad, polished = _polish(a, c, n_cannot, grad, f_cur)
        steps += polished
        resid = _kkt_residual(a, grad)
    if resid > _TOL and not railed:
        # allow a near-converged return when progress is machine-limited
        if resid > 1e-6:
            raise NoConvergenceError(
                f"mixing optimization stalled at KKT residual {resid:.3e} "
                f"after {steps} steps"
            )
    alpha = np.zeros(counts.size)
    alpha[support] = a / a.sum()
    return alpha, MixingInfo(steps, resid, f_cur, railed)


def _polish(a: np.ndarray, c: np.ndarray, n_cannot: int, grad: np.ndarray,
            f_cur: float) -> tuple[np.ndarray, float, np.ndarray, int]:
    """Up to ``_POLISH_STEPS`` plain Newton steps, no line search, from the
    point ``a`` where the safeguarded phase stopped off the boundary: its
    residual test stops it wherever rounding puts it below the tolerance,
    and Newton's quadratic convergence takes every such point on to the
    maximizer to within a few ulps.  A step is kept only if every weight
    stays above ``ALPHA_FLOOR`` and ``f`` falls no further below its value
    at ``a`` than ``f``'s own rounding error, ``_POLISH_ULPS`` ulps of the
    size of its terms.  Returns the point, ``f`` and the gradient there,
    and the number of steps kept."""
    # f's rounding error scales with its terms c·log α and n·log(1 − Σα²),
    # both ≤ 0, which can be far larger than f itself
    scale = float(c @ -np.log(a)) - n_cannot * math.log(1.0 - float(a @ a))
    f_floor = f_cur - _POLISH_ULPS * math.ulp(scale)
    for kept in range(_POLISH_STEPS):
        try:
            delta = np.linalg.solve(*_newton_system(a, c, n_cannot, grad))[:a.size]
        except np.linalg.LinAlgError:
            return a, f_cur, grad, kept
        cand = a + delta
        if not (cand > ALPHA_FLOOR).all():  # NaN fails the test too
            return a, f_cur, grad, kept
        cand /= cand.sum()
        f_cand = mixing_objective(cand, c, n_cannot)
        if not f_cand >= f_floor:
            return a, f_cur, grad, kept
        a, f_cur = cand, f_cand
        grad = mixing_gradient(a, c, n_cannot)
    return a, f_cur, grad, _POLISH_STEPS


def optimize_mixing(counts, n_cannot: int, alpha_init=None) -> np.ndarray:
    """Maximizer of the concentrated mixing objective (see module docstring)."""
    alpha, _ = optimize_mixing_info(counts, n_cannot, alpha_init)
    return alpha
