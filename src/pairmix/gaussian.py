"""Stable multivariate-Gaussian log-densities and log-space reductions.

Everything here works in log space; densities are exponentiated only after
normalization by the callers.  Covariances are handled through Cholesky
factors ``L``; every density is ``‖L⁻¹(x-μ)‖²`` from :func:`log_density_stack`,
which sweeps the points in row blocks of a fixed size, so its temporaries do
not grow with N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class CholeskyGaussian:
    """A Gaussian stored as mean + lower Cholesky factor of its covariance.

    ``log_det`` is ``log|Σ| = 2 Σ_k log L_kk``, fixed at construction.
    """

    mean: np.ndarray
    chol: np.ndarray
    log_det: float = field(init=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        chol = np.asarray(self.chol, dtype=float)
        if mean.ndim != 1:
            raise InvariantViolationError("mean must be a 1-D vector")
        d = mean.size
        if chol.shape != (d, d):
            raise DimensionMismatchError(
                f"chol has shape {chol.shape}, expected ({d}, {d})"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(chol))):
            raise NotFiniteError("CholeskyGaussian parameters are non-finite")
        if np.any(np.triu(chol, k=1) != 0.0):
            raise InvariantViolationError("chol must be lower-triangular")
        diag = np.diag(chol)
        if np.any(diag <= 0.0):
            raise InvariantViolationError("chol must have positive diagonal")
        mean = mean.copy()
        chol = chol.copy()
        mean.setflags(write=False)
        chol.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "chol", chol)
        object.__setattr__(self, "log_det", 2.0 * float(np.log(diag).sum()))

    @classmethod
    def from_covariance(cls, mean, cov) -> "CholeskyGaussian":
        """Factor ``cov`` once; raises if it is not positive definite."""
        cov = np.asarray(cov, dtype=float)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise InvariantViolationError(
                f"covariance is not positive definite: {exc}"
            ) from exc
        return cls(mean=mean, chol=chol)

    @property
    def dim(self) -> int:
        return self.mean.size


def log_density(g: CholeskyGaussian, x) -> float:
    """Gaussian log-density of one point.

    Returns ``-d/2 log(2π) - 1/2 log|Σ| - 1/2 (x-μ)ᵀ Σ⁻¹ (x-μ)`` where the
    quadratic form is ``‖L⁻¹(x-μ)‖²`` for the stored factor ``L``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (g.dim,):
        raise DimensionMismatchError(f"x has shape {x.shape}, expected ({g.dim},)")
    if not np.all(np.isfinite(x)):
        raise NotFiniteError("x contains non-finite entries")
    return float(log_density_batch(g, x[None, :])[0])


def log_density_batch(g: CholeskyGaussian, points: np.ndarray) -> np.ndarray:
    """Vectorized :func:`log_density` over the rows of ``points`` (N, d)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != g.dim:
        raise DimensionMismatchError(
            f"points have shape {points.shape}, expected (N, {g.dim})"
        )
    return log_density_stack(points, g.mean[None], g.chol[None], [g.log_det])[:, 0]


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
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    c = means.shape[0]
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


def scaled_ridge(s: np.ndarray, rel_floor: float = DEFAULT_RIDGE) -> float:
    """Scale-aware ridge: ``rel_floor · trace(S)/d``, or ``rel_floor`` itself
    when the trace is not positive (e.g. a zero scatter matrix)."""
    s = np.asarray(s, dtype=float)
    tr = float(np.trace(s))
    d = s.shape[0]
    if tr > 0.0:
        return rel_floor * tr / d
    return rel_floor


def regularize_covariance(s, floor: float | None = None) -> np.ndarray:
    """Symmetrize ``S`` and add the smallest ridge that makes it SPD.

    Tries ``ε ∈ {0, floor, 10·floor, 100·floor, ...}`` until a Cholesky
    factorization succeeds *at the working scale* — every pivot must clear
    ``floor/2``, so a rank-deficient matrix that sneaks through a raw
    factorization on rounding noise is still repaired (a mixture component
    collapsed onto too few points would otherwise alternate between spiked
    and ridged states from one M-step to the next).  Returns
    ``(S + Sᵀ)/2 + εI``.  When ``floor`` is omitted it defaults to the
    scale-aware value ``1e-6 · trace(S)/d`` (plain ``1e-6`` for a traceless
    matrix).
    """
    cov, _ = regularize_covariance_eps(s, floor)
    return cov


def regularize_covariance_eps(
    s, floor: float | None = None
) -> tuple[np.ndarray, float]:
    """:func:`regularize_covariance` plus the ridge ε it applied (0 if none)."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise NotFiniteError("covariance contains non-finite entries")
    if floor is None:
        floor = scaled_ridge(s)
    floor = float(floor)
    if floor <= 0.0:
        raise InvariantViolationError(f"floor must be positive, got {floor!r}")
    return _ridge_ladder(0.5 * (s + s.T), floor)[:2]


def regularize_covariances(
    stack, rel_floor: float = DEFAULT_RIDGE
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`regularize_covariance_eps` for every matrix of a (C, d, d)
    stack, each with its scale-aware floor ``scaled_ridge(S_c, rel_floor)``.

    Returns the regularized stack, the (C,) ridges and the lower Cholesky
    factors of the regularized matrices, the ones the pivot test accepted.
    One batched Cholesky settles every matrix that needs no ridge; the rest
    climb the ridge ladder one by one, with results identical to the
    single-matrix function.
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
