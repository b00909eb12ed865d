"""Core value objects: datasets, pairwise relations, and model parameters.

All containers here are immutable: numpy arrays are copied on construction
and marked read-only, so instances can be shared freely across threads.
Constructors validate their invariants and raise
:class:`~pairmix.errors.InvariantViolationError` (or a more specific error)
on violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConflictingPairError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvariantViolationError,
    LengthMismatchError,
    NotFiniteError,
    SelfPairError,
)

SIMPLEX_ATOL = 1e-12
SYMMETRY_ATOL = 1e-10

Pair = tuple[int, int]


def _readonly(a, dtype=float) -> np.ndarray:
    """A read-only copy of ``a`` as ``dtype``: the caller's array stays its own."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_simplex(w: np.ndarray, name: str) -> None:
    if w.ndim != 1 or w.size == 0:
        raise InvariantViolationError(f"{name} must be a non-empty 1-D vector")
    if not np.isfinite(w).all():
        raise NotFiniteError(f"{name} contains non-finite entries")
    if (w < 0).any():
        raise InvariantViolationError(f"{name} has negative entries")
    if abs(float(w.sum()) - 1.0) > SIMPLEX_ATOL:
        raise InvariantViolationError(
            f"{name} sums to {float(w.sum())!r}, expected 1 within {SIMPLEX_ATOL}"
        )


def _check_covariances(covs: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Validate a stack of covariance matrices; return (chol factors, log dets)."""
    if not np.isfinite(covs).all():
        raise NotFiniteError(f"{name} contains non-finite entries")
    asym = np.abs(covs - np.swapaxes(covs, -1, -2)).max(initial=0.0)
    if asym > SYMMETRY_ATOL:
        raise InvariantViolationError(
            f"{name} is asymmetric by {asym:.3e} (tolerance {SYMMETRY_ATOL})"
        )
    try:
        chols = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise InvariantViolationError(f"{name} is not positive definite: {exc}") from exc
    diag = np.diagonal(chols, axis1=-2, axis2=-1)
    if (diag <= 0).any():
        raise InvariantViolationError(f"{name} has a non-positive Cholesky pivot")
    log_dets = 2.0 * np.log(diag).sum(axis=-1)
    return chols, log_dets


def _init_components(obj, weights_name: str, prefix: str) -> None:
    """Validate and freeze the simplex weights ``obj.<weights_name>``, the
    ``means`` and the ``covs`` of a stack of Gaussians, and cache their
    Cholesky factors (``chols``) and log-determinants (``log_dets``).
    ``prefix`` starts the names used in error messages."""
    weights = np.asarray(getattr(obj, weights_name), dtype=float)
    means = np.asarray(obj.means, dtype=float)
    covs = np.asarray(obj.covs, dtype=float)
    _check_simplex(weights, weights_name)
    k = weights.size
    if means.ndim != 2 or means.shape[0] != k:
        raise InvariantViolationError(
            f"{prefix}means must have shape ({k}, d), got {means.shape}"
        )
    d = means.shape[1]
    if covs.shape != (k, d, d):
        raise InvariantViolationError(
            f"{prefix}covs must have shape ({k}, {d}, {d}), got {covs.shape}"
        )
    if not np.isfinite(means).all():
        raise NotFiniteError(f"{prefix}means contain non-finite entries")
    chols, log_dets = _check_covariances(covs, f"{prefix}covs")
    for name, value in ((weights_name, weights), ("means", means), ("covs", covs),
                        ("chols", chols), ("log_dets", log_dets)):
        object.__setattr__(obj, name, _readonly(value))


# ---------------------------------------------------------------------------
# data


@dataclass(frozen=True)
class Dataset:
    """A fixed collection of points with optional integer ground-truth labels.

    Parameters
    ----------
    points : array of shape (n, d)
        Feature matrix; every entry must be finite.
    labels : array of shape (n,), optional
        Non-negative integer class ids.  Labels are carried for evaluation
        and pair sampling only; fitting never reads them.
    """

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise InvariantViolationError(
                f"points must be 2-D (n, d), got shape {np.shape(self.points)}"
            )
        n, d = pts.shape
        if n < 1 or d < 1:
            raise InvariantViolationError(f"need n >= 1 and d >= 1, got shape ({n}, {d})")
        if not np.all(np.isfinite(pts)):
            raise NotFiniteError("points contain non-finite entries")
        object.__setattr__(self, "points", _readonly(pts))
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != (n,):
                raise LengthMismatchError(
                    f"labels have shape {lab.shape}, expected ({n},)"
                )
            if not np.issubdtype(lab.dtype, np.integer):
                fl = np.asarray(lab, dtype=float)
                if not np.all(np.isfinite(fl)) or np.any(fl != np.floor(fl)):
                    raise InvariantViolationError("labels must be integers")
                lab = fl.astype(np.int64)
            if lab.size and lab.min() < 0:
                raise InvariantViolationError("labels must be non-negative")
            object.__setattr__(self, "labels", _readonly(lab, np.int64))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


# ---------------------------------------------------------------------------
# relations


def _as_pairs(pairs: Iterable[Sequence[int]], kind: str) -> tuple[Pair, ...]:
    out = []
    for p in pairs:
        seq = tuple(p)
        if len(seq) != 2:
            raise InvariantViolationError(f"{kind} entry {p!r} is not a pair")
        try:
            i, j = int(seq[0]), int(seq[1])
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvariantViolationError(f"{kind} pair {p!r} is not integer") from exc
        # int() truncates: 1.7 would name a different point
        if i != seq[0] or j != seq[1]:
            raise InvariantViolationError(f"{kind} pair {p!r} is not integer")
        out.append((i, j))
    return tuple(out)


@dataclass(frozen=True)
class RelationSet:
    """Must-link and cannot-link pairs over point indices.

    The constructor only normalizes entries to integer tuples; call
    :func:`validate_relations` to bounds-check against a dataset and obtain
    the canonical form (each pair sorted as ``i < j``, duplicates dropped,
    pairs in ascending order).
    """

    must: tuple[Pair, ...] = ()
    cannot: tuple[Pair, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "must", _as_pairs(self.must, "must-link"))
        object.__setattr__(self, "cannot", _as_pairs(self.cannot, "cannot-link"))

    @property
    def n_must(self) -> int:
        return len(self.must)

    @property
    def n_cannot(self) -> int:
        return len(self.cannot)

    def is_empty(self) -> bool:
        return not self.must and not self.cannot

    def linked_indices(self) -> np.ndarray:
        """Sorted unique point indices that appear in any relation."""
        flat = [i for p in self.must + self.cannot for i in p]
        return np.unique(np.asarray(flat, dtype=np.int64))


def validate_relations(relations: RelationSet, n_points: int) -> RelationSet:
    """Return the canonical form of ``relations`` for a dataset of ``n_points``.

    Pairs are reordered so that ``i < j``, duplicates within each kind are
    dropped (set semantics), and the pair lists are sorted.  Raises
    :class:`SelfPairError`, :class:`IndexOutOfRangeError`, or
    :class:`ConflictingPairError` on invalid input.  Idempotent.
    """

    def canon(pairs: tuple[Pair, ...], kind: str) -> tuple[Pair, ...]:
        seen = set()
        for i, j in pairs:
            if i == j:
                raise SelfPairError(f"{kind} pair ({i}, {j}) links a point to itself")
            if not (0 <= i < n_points and 0 <= j < n_points):
                raise IndexOutOfRangeError(
                    f"{kind} pair ({i}, {j}) is outside [0, {n_points})"
                )
            seen.add((min(i, j), max(i, j)))
        return tuple(sorted(seen))

    must = canon(relations.must, "must-link")
    cannot = canon(relations.cannot, "cannot-link")
    overlap = set(must) & set(cannot)
    if overlap:
        pair = min(overlap)
        raise ConflictingPairError(
            f"pair {pair} appears as both must-link and cannot-link"
        )
    return RelationSet(must=must, cannot=cannot)


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class FlatModel:
    """Gaussian mixture with one component per class.

    Attributes
    ----------
    alpha : array of shape (M,)
        Class mixing weights on the simplex.
    means : array of shape (M, d)
    covs : array of shape (M, d, d)
        Symmetric positive-definite covariances.

    Cholesky factors and log-determinants are computed once at construction
    and cached (``chols``, ``log_dets``).
    """

    alpha: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    chols: np.ndarray = field(init=False, repr=False, compare=False)
    log_dets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _init_components(self, "alpha", "")

    @property
    def n_classes(self) -> int:
        return self.alpha.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def to_hier(self) -> "HierModel":
        """Equivalent hierarchical model with a single cluster per class."""
        classes = tuple(
            ClassMixture(
                pi=np.ones(1), means=self.means[m : m + 1], covs=self.covs[m : m + 1]
            )
            for m in range(self.n_classes)
        )
        return HierModel(alpha=self.alpha, classes=classes)


@dataclass(frozen=True)
class ClassMixture:
    """Within-class Gaussian mixture: weights ``pi`` over K clusters."""

    pi: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    chols: np.ndarray = field(init=False, repr=False, compare=False)
    log_dets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _init_components(self, "pi", "cluster ")

    @property
    def n_clusters(self) -> int:
        return self.pi.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class HierModel:
    """Two-level mixture: classes weighted by ``alpha``, each class a
    Gaussian mixture over its own clusters."""

    alpha: np.ndarray
    classes: tuple[ClassMixture, ...]

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        _check_simplex(alpha, "alpha")
        classes = tuple(self.classes)
        if len(classes) != alpha.size:
            raise InvariantViolationError(
                f"got {len(classes)} class mixtures for {alpha.size} mixing weights"
            )
        if not all(isinstance(c, ClassMixture) for c in classes):
            raise InvariantViolationError("classes must be ClassMixture instances")
        dims = {c.dim for c in classes}
        if len(dims) > 1:
            raise DimensionMismatchError(f"classes disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "alpha", _readonly(alpha))
        object.__setattr__(self, "classes", classes)

    @property
    def n_classes(self) -> int:
        return self.alpha.size

    @property
    def dim(self) -> int:
        return self.classes[0].dim

    @property
    def cluster_counts(self) -> tuple[int, ...]:
        return tuple(c.n_clusters for c in self.classes)

    @property
    def cluster_offsets(self) -> np.ndarray:
        """Offsets into the flattened cluster axis; length ``M + 1``."""
        return np.concatenate([[0], np.cumsum(self.cluster_counts)])

    @property
    def is_flat_equivalent(self) -> bool:
        """True when every class has a single cluster (behaves as a FlatModel)."""
        return all(c.n_clusters == 1 for c in self.classes)

    def to_flat(self) -> FlatModel:
        """Collapse to a flat model; requires one cluster per class."""
        if not self.is_flat_equivalent:
            raise InvariantViolationError(
                "only a hierarchy with one cluster per class collapses to flat"
            )
        return FlatModel(
            alpha=self.alpha,
            means=np.stack([c.means[0] for c in self.classes]),
            covs=np.stack([c.covs[0] for c in self.classes]),
        )
