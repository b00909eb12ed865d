"""PCA projection for reducing feature dimension before clustering.

Covariance PCA with biased (1/N) normalization and a deterministic sign
convention: each component's largest-magnitude coordinate is positive, so
repeated fits never flip basis directions between runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvariantViolationError,
    KTooLargeError,
    NotFiniteError,
)
from .types import Dataset


@dataclass(frozen=True)
class PcaTransform:
    """Affine projection onto the leading principal directions.

    ``components`` has orthonormal rows (k, d); ``eigenvalues`` are the
    corresponding data variances, nonincreasing.
    """

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        comp = np.asarray(self.components, dtype=float)
        eig = np.asarray(self.eigenvalues, dtype=float)
        if mean.ndim != 1:
            raise InvariantViolationError("mean must be a 1-D vector")
        if comp.ndim != 2 or comp.shape[1] != mean.size:
            raise InvariantViolationError(
                f"components must have shape (k, {mean.size}), got {comp.shape}"
            )
        if eig.shape != (comp.shape[0],):
            raise InvariantViolationError(
                f"eigenvalues must have shape ({comp.shape[0]},), got {eig.shape}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(comp))
                and np.all(np.isfinite(eig))):
            raise NotFiniteError("transform parameters are non-finite")
        gram = comp @ comp.T
        if np.abs(gram - np.eye(comp.shape[0])).max() > 1e-8:
            raise InvariantViolationError("component rows are not orthonormal")
        if np.any(eig < -1e-12) or np.any(np.diff(eig) > 1e-12):
            raise InvariantViolationError(
                "eigenvalues must be nonnegative and nonincreasing"
            )
        for name, arr in (("mean", mean), ("components", comp), ("eigenvalues", eig)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def dim(self) -> int:
        return self.mean.size


def fit_pca(dataset: Dataset, k: int) -> PcaTransform:
    """Top-``k`` eigenpairs of the sample covariance (biased, 1/N).

    Raises :class:`NotFiniteError` when the covariance overflows float64."""
    if not 1 <= k <= min(dataset.n, dataset.dim):
        raise KTooLargeError(
            f"k={k} is outside [1, min(N={dataset.n}, d={dataset.dim})]"
        )
    x = dataset.points
    mean = x.mean(axis=0)
    dev = x - mean
    with np.errstate(over="ignore"):
        cov = dev.T @ dev / x.shape[0]
    if not np.isfinite(cov).all():
        raise NotFiniteError("the data's covariance overflows float64; rescale the data")
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    eigvals = np.maximum(eigvals[order], 0.0)
    components = eigvecs[:, order].T
    # sign convention: the largest-|coordinate| of each component is positive
    for row in range(k):
        pivot = int(np.argmax(np.abs(components[row])))
        if components[row, pivot] < 0:
            components[row] = -components[row]
    return PcaTransform(mean=mean, components=components, eigenvalues=eigvals)


def apply_pca(transform: PcaTransform, points) -> np.ndarray:
    """Project points: ``(x − mean) · componentsᵀ`` → (N, k)."""
    points = np.asarray(points, dtype=float)
    squeeze = points.ndim == 1
    if squeeze:
        points = points[None, :]
    if points.ndim != 2 or points.shape[1] != transform.dim:
        raise DimensionMismatchError(
            f"points have shape {points.shape}, expected (N, {transform.dim})"
        )
    out = (points - transform.mean) @ transform.components.T
    return out[0] if squeeze else out
