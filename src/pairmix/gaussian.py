"""The Gaussian layer of the EM engine: one log-density kernel, a log-space
reduction and the covariance repair of the M-step.

Everything here works in log space; densities are exponentiated only after
normalization by the callers.  Covariances are handled through Cholesky
factors ``L``; every density is ``‖L⁻¹(x-μ)‖²`` from :func:`log_density_stack`,
which evaluates a whole stack of Gaussians and sweeps the points in row
blocks of a fixed size, so its temporaries do not grow with N.  Inputs that
fit in one block (``C·N·d ≤ _ROW_FLOATS``, every A1-sized fit) take a
one-block path with no block bookkeeping: one subtraction, the same
batched product and one row-wise reduction, so both paths give the same
bits.  :func:`log_sum_exp` reduces in log space, and
:func:`regularize_covariances` ridges a stack of covariances until each is
positive definite; when one batched factorization settles every matrix,
the ridge ladder is not entered.

The density kernel and the covariance repair are public wrappers that
check their arguments and hand them to private cores,
``_log_density_stack`` and ``_regularize_covariances``, which hold all the
logic.  The EM engine calls the cores directly on arrays it made itself;
the cores keep only the guards its values can trip (a non-finite
covariance, a singular factor).  The engine normalizes its posterior
tables itself (:mod:`pairmix.hier`), so :func:`log_sum_exp` has no core.

An overflow past float64 in the cores becomes ``+inf``, which the guards
and the engine turn into :class:`NotFiniteError`.  The cores leave the
floating-point error state to their callers, which ignore overflow: the
public wrappers here and the engine's entry points set it once per call,
so the fit loop does not pay for it on every iteration.
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
_ROW_FLOATS = 1 << 15


@np.errstate(over="ignore")
def log_density_stack(
    points: np.ndarray,
    means: np.ndarray,
    chols: np.ndarray,
    log_dets: np.ndarray,
) -> np.ndarray:
    """Log-densities of N points under a stack of C Gaussians → (N, C).

    ``means`` is (C, d), ``chols`` (C, d, d) lower factors, ``log_dets`` (C,).
    The quadratic form is the row-wise squared norm of ``(X - μ_c) L_c⁻ᵀ``,
    with every ``L_c⁻ᵀ`` from one batched inverse, copied C-contiguous.
    Every block of rows holds ``min(N, _ROW_FLOATS // d)`` rows, the last
    one overlapping the one before it, so each product takes the BLAS path
    of a whole-N product and the values equal those of one whole-N product
    per component bit for bit; see :func:`_log_density_stack`.

    The (N, C) result is the transpose of a C-contiguous (C, N) buffer,
    which the EM engine reads directly (``.T``).

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
    return _log_density_stack(points, np.asarray(means, dtype=float),
                              np.asarray(chols, dtype=float),
                              np.asarray(log_dets, dtype=float))


def _log_density_stack(points: np.ndarray, means: np.ndarray, chols: np.ndarray,
                       log_dets: np.ndarray) -> np.ndarray:
    """:func:`log_density_stack` of float arrays of matching shapes, without
    the checks: the core the EM engine calls.

    When the deviations of every component from every point fit in
    ``_ROW_FLOATS`` values (one block), they are one subtraction (see
    :func:`_deviations`), one batched product and one row-wise reduction.
    Otherwise each block of rows takes one component at a time, or all of
    them when their deviations fit in ``_ROW_FLOATS`` values, in two buffers
    made once per call, so no temporary grows with N or C.  Both paths make
    the same batched product on a (components, rows, d) stack, so they
    agree bit for bit.  A quadratic form past float64 is ``+inf``, a
    log-density of ``-inf``, which the caller may take for zero density:
    its callers ignore overflow (see the module docstring)."""
    (n, d), c = points.shape, means.shape[0]
    try:
        inv_t = np.ascontiguousarray(np.linalg.inv(chols).swapaxes(1, 2))
    except np.linalg.LinAlgError as exc:
        raise InvariantViolationError(f"Cholesky factor is singular: {exc}") from exc
    if c * n * d <= _ROW_FLOATS:
        z = np.matmul(_deviations(points, means), inv_t)
        quad = np.einsum("crd,crd->cr", z, z)
    else:
        quad = _blocked_quad(points, means, inv_t)
    quad += (d * LOG_2PI + log_dets)[:, None]
    quad *= -0.5
    return quad.T


def _deviations(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``points - centers[:, None, :]`` → (C, n, d), from one subtraction
    over whole flattened rows: each centre is repeated once per point first,
    since a broadcast over the points would subtract d values at a time."""
    (n, d), c = points.shape, centers.shape[0]
    dev = np.repeat(centers, n, axis=0).reshape(c, n * d)
    np.subtract(points.reshape(1, n * d), dev, out=dev)
    return dev.reshape(c, n, d)


def _blocked_quad(points: np.ndarray, means: np.ndarray, inv_t: np.ndarray) -> np.ndarray:
    """The (C, N) quadratic forms of :func:`_log_density_stack`, a block of
    rows at a time."""
    (n, d), c = points.shape, means.shape[0]
    quad = np.empty((c, n))
    rows = max(1, min(n, _ROW_FLOATS // d))
    # each mean repeated for a group of up to 64 rows, so the subtraction runs
    # over a group at a time, not d values; the rows left over take one more
    reps = min(rows, 64)
    whole = rows - rows % reps
    tiled = np.repeat(means, reps, axis=0).reshape(c, 1, reps * d)
    group = c if c * rows * d <= _ROW_FLOATS else 1  # components per product
    dev, z = np.empty((group, rows, d)), np.empty((group, rows, d))
    dev_whole = dev[:, :whole].reshape(group, -1, reps * d)
    for lo in range(0, n, rows):
        # the last block ends at row n and may overlap the one before it:
        # a short tail would take another BLAS path with other roundings
        lo = min(lo, n - rows)
        head = points[lo:lo + whole].reshape(-1, reps * d)
        for k in range(0, c, group):
            np.subtract(head, tiled[k:k + group], out=dev_whole)
            if whole < rows:
                np.subtract(points[lo + whole:lo + rows], tiled[k:k + group, :, :d],
                            out=dev[:, whole:])
            np.matmul(dev, inv_t[k:k + group], out=z)
            np.einsum("crd,crd->cr", z, z, out=quad[k:k + group, lo:lo + rows])
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
        shifted = v - hi
        out = np.log(np.exp(shifted, out=shifted).sum(axis=axis, keepdims=True)) + hi
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


@np.errstate(over="ignore", invalid="ignore")  # invalid: inf + -inf in (S + Sᵀ)/2
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
    rel_floor = float(rel_floor)
    if rel_floor <= 0.0:
        raise InvariantViolationError(f"floor must be positive, got {rel_floor!r}")
    return _regularize_covariances(stack, rel_floor)


def _regularize_covariances(
    stack: np.ndarray, rel_floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`regularize_covariances` of a float (C, d, d) stack and a
    positive floor, without the shape and floor checks: the core the EM
    engine calls.  Non-finite entries still raise :class:`NotFiniteError`,
    since an M-step can produce them, and so do finite entries whose
    symmetrization overflows."""
    n, d, _ = stack.shape
    # entries near the float64 limit, or a huge rel_floor, can take the
    # symmetrization, the trace, a floor or a squared pivot past it, to +inf
    # (its callers ignore overflow): the symmetrized stack is checked, and
    # an infinite floor fails the pivot test, whose ladder raises
    sym = 0.5 * (stack + stack.swapaxes(1, 2))  # the ladder's first rung, ε = 0
    if not np.isfinite(sym).all():
        raise NotFiniteError("covariance contains non-finite entries")
    tr = np.trace(stack, axis1=1, axis2=2)
    floors = np.where(tr > 0.0, rel_floor * tr / d, rel_floor)
    eps = np.zeros(n)
    try:
        chols = np.linalg.cholesky(sym)
        pivots = np.diagonal(chols, axis1=1, axis2=2)
        cleared = pivots**2 >= 0.5 * floors[:, None]  # (C, d): pivot by pivot
    except np.linalg.LinAlgError:
        chols, cleared = np.empty_like(sym), np.zeros((n, 1), dtype=bool)
    if not cleared.all():  # otherwise every matrix settled on the first rung
        for c in np.flatnonzero(~cleared.all(axis=1)):
            sym[c], eps[c], chols[c] = _ridge_ladder(sym[c], float(floors[c]))
    return sym, eps, chols


def _ridge_ladder(sym: np.ndarray, floor: float) -> tuple[np.ndarray, float, np.ndarray]:
    """The first rung ``sym + εI`` whose pivots all clear ``floor/2``, its
    ε and its lower Cholesky factor.  A rung that is not finite (the matrix,
    its floor or ε past float64) raises :class:`NotFiniteError`."""
    eye = np.eye(sym.shape[0])
    pivot_floor = 0.5 * floor
    eps = 0.0
    for _ in range(64):
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite ε gives NaN
            candidate = sym + eps * eye
        if not np.isfinite(candidate).all():
            raise NotFiniteError(
                "covariance ridge overflows float64; rescale the data or lower "
                "the ridge floor"
            )
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
