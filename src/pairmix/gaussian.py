"""The Gaussian layer of the EM engine: one log-density kernel, a log-space
reduction and the covariance repair of the M-step.

Everything here works in log space; densities are exponentiated only after
normalization by the callers.  Covariances are handled through Cholesky
factors ``L``; every density is ``‖L⁻¹(x-μ)‖²`` from :func:`log_density_stack`,
which evaluates a whole stack of Gaussians and sweeps the points in row
blocks of a fixed size, so its temporaries do not grow with N.
:func:`log_sum_exp` reduces in log space, and :func:`regularize_covariances`
ridges a stack of covariances until each is positive definite.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvariantViolationError,
    NotFiniteError,
)

LOG_2PI = math.log(2.0 * math.pi)

DEFAULT_RIDGE = 1e-6

# float64 values in one row block of the density sweep; see log_density_stack
_ROW_FLOATS = 1 << 14


def log_density_stack(
    points: np.ndarray,
    means: np.ndarray,
    chols: np.ndarray,
    log_dets: np.ndarray,
) -> np.ndarray:
    """Log-densities of N points under a stack of C Gaussians → (N, C).

    ``means`` is (C, d), ``chols`` (C, d, d) lower factors, ``log_dets`` (C,).
    One batched inverse gives every ``L_c⁻¹``; the quadratic form is the
    row-wise squared norm of ``(X - μ_c) L_c⁻ᵀ``.  The rows are swept in
    blocks of ``_ROW_FLOATS // d``: each block makes one (C, rows, d)
    deviation array, one batched product and one reduction, so the
    temporaries stay the same size whatever N is.  Every block holds
    ``min(N, _ROW_FLOATS // d)`` rows, the last one overlapping the one
    before it, so each product takes the BLAS path of a whole-N product and
    the values equal those of one whole-N product per component bit for bit.

    Raises :class:`DimensionMismatchError` when the shapes disagree.  The
    points are not scanned for non-finite entries here: ``Dataset``,
    ``predict_*`` and ``resp_*`` check them at the edge.
    """
    points = np.asarray(points, dtype=float)
    shapes = (points.shape, np.shape(means), np.shape(chols), np.shape(log_dets))
    c, d = shapes[1] if len(shapes[1]) == 2 else (-1, -1)
    if points.shape[1:] != (d,) or shapes[2:] != ((c, d, d), (c,)):
        raise DimensionMismatchError(
            f"shapes {shapes} are not (N, d), (C, d), (C, d, d) and (C,)"
        )
    n = points.shape[0]
    quad = np.empty((n, c))
    try:
        inv_t = np.linalg.inv(chols).swapaxes(1, 2)
    except np.linalg.LinAlgError as exc:
        raise InvariantViolationError(f"Cholesky factor is singular: {exc}") from exc
    rows = max(1, min(n, _ROW_FLOATS // d))
    # each mean repeated once per row, so that the subtraction below runs
    # over a whole flattened block instead of d values at a time
    tiled = np.tile(means, (1, rows))
    for lo in range(0, n, rows):
        # the last block ends at row n and may overlap the one before it:
        # a short tail would take another BLAS path with other roundings
        lo = min(lo, n - rows)
        block = points[lo:lo + rows].reshape(1, -1)
        z = (block - tiled).reshape(c, rows, d) @ inv_t
        quad[lo:lo + rows] = np.einsum("crd,crd->cr", z, z).T
    quad += d * LOG_2PI + np.asarray(log_dets, dtype=float)
    quad *= -0.5
    return quad


def log_sum_exp(v, axis=None):
    """``log Σ exp(v)`` with shift-by-max; ``-inf`` entries are absorbed.

    Raises :class:`EmptyInputError` if the reduction has no elements.
    A summand of ``+inf`` or NaN raises :class:`NotFiniteError`.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0 or (axis is not None and v.shape[axis] == 0):
        raise EmptyInputError("log_sum_exp over an empty set")
    hi = v.max(axis=axis, keepdims=True)
    if np.isfinite(hi).all():
        out = np.log(np.exp(v - hi).sum(axis=axis, keepdims=True)) + hi
    else:
        # the max of a slice is NaN when the slice holds a NaN and +inf when
        # it holds a +inf, so the reduced array stands in for the input
        if not (hi < np.inf).all():
            raise NotFiniteError("log_sum_exp input contains NaN or +inf")
        # an all -inf slice stays -inf; the shifted exp would produce nan there
        finite = hi > -np.inf
        safe_hi = np.where(finite, hi, 0.0)
        with np.errstate(divide="ignore"):
            s = np.log(np.exp(v - safe_hi).sum(axis=axis, keepdims=True)) + safe_hi
        out = np.where(finite, s, -np.inf)
    if axis is None:
        return float(out.reshape(()))
    return out.squeeze(axis=axis)


def regularize_covariances(
    stack, rel_floor: float = DEFAULT_RIDGE
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetrize every matrix ``S_c`` of a (C, d, d) stack and add the
    smallest ridge that makes it SPD.

    Each matrix climbs the ladder ``ε ∈ {0, f_c, 10·f_c, 100·f_c, ...}``
    until a Cholesky factorization succeeds *at the working scale*: every
    pivot must clear ``f_c/2``, so a rank-deficient matrix that sneaks
    through a raw factorization on rounding noise is still repaired (a
    mixture component collapsed onto too few points would otherwise
    alternate between spiked and ridged states from one M-step to the
    next).  The floor is scale-aware: ``f_c = rel_floor · trace(S_c)/d``,
    or ``rel_floor`` itself when the trace is not positive.

    Returns the regularized stack ``(S_c + S_cᵀ)/2 + ε_c I``, the (C,)
    ridges ``ε_c`` and the lower Cholesky factors of the regularized
    matrices, the ones the pivot test accepted.  One batched Cholesky
    settles every matrix that needs no ridge; the rest climb the ladder one
    by one, so each matrix gets what it would get in a stack of its own.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionMismatchError(
            f"expected a stack of square matrices, got shape {stack.shape}"
        )
    if not np.isfinite(stack).all():
        raise NotFiniteError("covariance contains non-finite entries")
    rel_floor = float(rel_floor)
    if rel_floor <= 0.0:
        raise InvariantViolationError(f"floor must be positive, got {rel_floor!r}")
    n, d, _ = stack.shape
    tr = np.trace(stack, axis1=1, axis2=2)
    floors = np.where(tr > 0.0, rel_floor * tr / d, rel_floor)
    sym = 0.5 * (stack + stack.swapaxes(1, 2))
    eps = np.zeros(n)
    # the ladder's first rung, S + 0·I, for every matrix at once
    out = sym + eps[:, None, None] * np.eye(d)
    chols = np.empty_like(out)
    try:
        chols = np.linalg.cholesky(out)
        pivots = np.diagonal(chols, axis1=1, axis2=2)
        settled = (pivots**2 >= 0.5 * floors[:, None]).all(axis=1)
    except np.linalg.LinAlgError:
        settled = np.zeros(n, dtype=bool)
    for c in np.flatnonzero(~settled):
        out[c], eps[c], chols[c] = _ridge_ladder(sym[c], float(floors[c]))
    return out, eps, chols


def _ridge_ladder(sym: np.ndarray, floor: float) -> tuple[np.ndarray, float, np.ndarray]:
    """The first rung ``sym + εI`` whose pivots all clear ``floor/2``, its
    ε and its lower Cholesky factor."""
    eye = np.eye(sym.shape[0])
    pivot_floor = 0.5 * floor
    eps = 0.0
    for _ in range(64):
        candidate = sym + eps * eye
        try:
            chol = np.linalg.cholesky(candidate)
            if (np.diag(chol) ** 2 >= pivot_floor).all():
                return candidate, eps, chol
        except np.linalg.LinAlgError:
            pass
        eps = floor if eps == 0.0 else eps * 10.0
    raise InvariantViolationError(
        "could not regularize covariance: ridge ladder exhausted"
    )
