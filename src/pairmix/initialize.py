"""Model initialization and simulated pairwise relations.

Randomness runs through numpy's ``Generator`` over the PCG64 bit generator
— a fixed, documented algorithm, so a seed reproduces the same draws on
every platform.  Parallel trial harnesses derive one child seed per trial
with :func:`trial_seed` (SeedSequence hashing of ``(base_seed, *key)``),
making results independent of scheduling order.

Initialization follows a seeding-only scheme: k-means++ chooses seed means
(no Lloyd refinement), every point joins its nearest seed, and per-class
moments are read off the assignment.  Mixing weights start uniform.

Simulated relations are one exact draw of a uniform subset of the
qualifying pairs, numbered through the labels' stable sort.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import (
    ExhaustedPairsError,
    InvariantViolationError,
    KTooLargeError,
    LengthMismatchError,
    NotFiniteError,
)
from .gaussian import DEFAULT_RIDGE, regularize_covariances
from .types import ClassMixture, Dataset, FlatModel, HierModel, RelationSet

_ROW_FLOATS = 1 << 14  # float64 values in one row block of _sq_dists


def make_rng(seed: int) -> np.random.Generator:
    """A PCG64 generator seeded with ``seed``."""
    return np.random.Generator(np.random.PCG64(seed))


def trial_seed(base_seed: int, *key: int) -> int:
    """Deterministic 63-bit child seed for a trial keyed by integers."""
    ss = np.random.SeedSequence([int(base_seed), *[int(k) for k in key]])
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


def kmeanspp_seeds(dataset: Dataset, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first seed uniform, then D²-weighted draws.

    Returns the (k, d) seed matrix; no Lloyd iterations are performed.
    """
    return _kmeanspp(dataset.points, k, rng)[0]


def _kmeanspp(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeds of the rows of ``points`` → (k, d), and the index of
    each point's nearest seed → (N,).

    Each seed's distance vector is computed once: it updates the running
    minimum that weighs the next draw, and a point moves to the new seed
    only when strictly closer, so ties go to the lowest index.  Raises
    :class:`NotFiniteError` when the squared distances or their sum overflow
    float64 (points beyond about 1e153 in magnitude), which would leave the
    draw's weights undefined.
    """
    n = points.shape[0]
    if not 1 <= k <= n:
        raise KTooLargeError(f"cannot draw {k} seeds from {n} points")
    seeds = np.empty((k, points.shape[1]))
    assign = np.zeros(n, dtype=np.intp)
    seeds[0] = points[int(rng.integers(n))]
    if k == 1:
        return seeds, assign
    d2 = _sq_dists(points, seeds[0])
    for s in range(1, k):
        with np.errstate(over="ignore"):  # finite distances can sum past float64
            total = d2.sum()
        if not math.isfinite(total):
            raise NotFiniteError(
                "squared distances between points overflow float64; "
                "rescale the data"
            )
        if total > 0:
            probs = d2 / total
            choice = int(rng.choice(n, p=probs))
        else:
            # all remaining distances zero (duplicate points): uniform draw
            choice = int(rng.integers(n))
        seeds[s] = points[choice]
        new = _sq_dists(points, seeds[s])
        assign[new < d2] = s
        np.minimum(d2, new, out=d2)
    return seeds, assign


def _sq_dists(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared distance of every point to ``center`` → (N,), over row blocks
    of ``_ROW_FLOATS // d``: each row sums its own d terms, so the blocks
    change no value, and the temporaries do not grow with N.  A distance
    that overflows is ``inf``, without a warning: :func:`_kmeanspp` tests
    their total."""
    span = max(1, _ROW_FLOATS // points.shape[1])
    with np.errstate(over="ignore"):
        return np.concatenate([np.square(points[lo:lo + span] - center).sum(axis=1)
                               for lo in range(0, points.shape[0], span)])


def _seeded_moments(
    points: np.ndarray, seeds: np.ndarray, assign: np.ndarray, ridge_floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Read each seed's group of points (``assign``) off as a mean and a
    regularized biased covariance; an empty group keeps its seed and gets
    a ``ridge_floor·I`` covariance.  A covariance past float64 raises
    :class:`NotFiniteError`."""
    k, d = seeds.shape
    means = seeds.copy()
    covs = np.broadcast_to(ridge_floor * np.eye(d), (k, d, d)).copy()
    filled = np.bincount(assign, minlength=k) > 0
    for c in np.flatnonzero(filled):
        dev = points[assign == c]  # a copy, centred in place
        means[c] = dev.mean(axis=0)
        dev -= means[c]
        # _kmeanspp checks no distance for one seed; regularize_covariances
        # raises for a covariance that overflows
        with np.errstate(over="ignore"):
            covs[c] = dev.T @ dev / dev.shape[0]
    covs[filled] = regularize_covariances(covs[filled], ridge_floor)[0]
    return means, covs


def init_flat(
    dataset: Dataset,
    n_classes: int,
    rng: np.random.Generator,
    ridge_floor: float = DEFAULT_RIDGE,
) -> FlatModel:
    """Seed means by k-means++, assign points to nearest seed, read moments.

    Mixing weights are uniform ``1/M``.  A class with no assigned points
    keeps its seed mean and gets a ``ridge_floor·I`` covariance.
    """
    seeds, assign = _kmeanspp(dataset.points, n_classes, rng)
    means, covs = _seeded_moments(dataset.points, seeds, assign, ridge_floor)
    alpha = np.full(n_classes, 1.0 / n_classes)
    return FlatModel(alpha=alpha, means=means, covs=covs)


def _normalize_cluster_counts(n_classes: int, clusters_per_class) -> tuple[int, ...]:
    """``clusters_per_class`` as one count per class: an int applies to
    every class, a sequence must have one positive entry per class.  There
    must be at least one class."""
    if n_classes < 1:
        raise InvariantViolationError("need at least one class")
    if np.isscalar(clusters_per_class):
        clusters_per_class = (clusters_per_class,) * n_classes
    counts = tuple(int(k) for k in clusters_per_class)
    if len(counts) != n_classes:
        raise LengthMismatchError(
            f"got {len(counts)} cluster counts for {n_classes} classes"
        )
    if any(k < 1 for k in counts):
        raise InvariantViolationError("every class needs at least one cluster")
    return counts


def init_hier(
    dataset: Dataset,
    n_classes: int,
    clusters_per_class,
    rng: np.random.Generator,
    ridge_floor: float = DEFAULT_RIDGE,
) -> HierModel:
    """Two-level initialization: class split as :func:`init_flat`, then the
    same seeding procedure within each class's assigned points.

    A class with fewer assigned points than requested clusters falls back
    to duplicating the class mean with a small jitter (``ridge_floor·I``
    covariance), so initialization never fails on small classes.
    """
    counts = _normalize_cluster_counts(n_classes, clusters_per_class)
    seeds, assign = _kmeanspp(dataset.points, n_classes, rng)
    d = dataset.dim
    classes = []
    for m in range(n_classes):
        k_m = counts[m]
        members = dataset.points[assign == m]
        if members.shape[0] < max(k_m, 1):
            # too few points: duplicate the class center with jitter
            center = members.mean(axis=0) if members.shape[0] else seeds[m]
            jitter = 1e-3 * math.sqrt(ridge_floor)
            means = center + jitter * rng.standard_normal((k_m, d))
            covs = np.broadcast_to(ridge_floor * np.eye(d), (k_m, d, d)).copy()
        else:
            means, covs = _seeded_moments(
                members, *_kmeanspp(members, k_m, rng), ridge_floor
            )
        classes.append(
            ClassMixture(pi=np.full(k_m, 1.0 / k_m), means=means, covs=covs)
        )
    alpha = np.full(n_classes, 1.0 / n_classes)
    return HierModel(alpha=alpha, classes=tuple(classes))


# ---------------------------------------------------------------------------
# simulated relations

SAMPLING_MODES = ("both", "must-only", "cannot-only")


def _check_mode(mode: str) -> None:
    if mode not in SAMPLING_MODES:
        raise InvariantViolationError(f"unknown sampling mode {mode!r}")


def sample_relations(
    labels,
    n_pairs: int,
    rng: np.random.Generator,
    mode: str = "both",
) -> RelationSet:
    """Draw unordered point pairs and route them by ground-truth labels.

    The pairs are a uniform subset, without replacement, of the pairs of
    distinct indices that ``mode`` admits: all (``both``), same-label
    (``must-only``) or different-label (``cannot-only``), drawn exactly in
    one pass.  Same-label pairs become must-links, the others cannot-links,
    each ``i < j`` and in ascending order.  ``n_pairs`` must be an integer;
    raises :class:`ExhaustedPairsError` when fewer qualifying pairs exist.
    """
    _check_mode(mode)
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size < 1:
        raise InvariantViolationError("labels must be a non-empty 1-D vector")
    if not np.issubdtype(labels.dtype, np.integer):
        raise InvariantViolationError("labels must be integers")
    if not isinstance(n_pairs, numbers.Integral):
        raise InvariantViolationError("n_pairs must be an integer")
    if n_pairs < 0:
        raise InvariantViolationError("n_pairs must be nonnegative")
    i, j = _draw_pairs(labels, n_pairs, rng, mode)
    same = labels[i] == labels[j]
    return RelationSet(
        must=zip(i[same].tolist(), j[same].tolist()),
        cannot=zip(i[~same].tolist(), j[~same].tolist()),
    )


def _draw_pairs(labels, n_pairs, rng, mode):
    """The sorted ``(i, j)`` vectors, ``i < j``, of :func:`sample_relations`'
    draw; its N-length index arrays die before the relation tuples are built."""
    n = labels.size
    order = np.argsort(labels, kind="stable")
    # sorted stably by label, position p pairs with positions [first[p],
    # last[p]): every later one (both), the rest of its label group
    # (must-only) or all past the group (cannot-only); the ranges' cumulative
    # counts number the pairs, so uniform ranks map one to one onto pairs
    first, last = np.arange(1, n + 1), n
    if mode != "both":
        sorted_labels = labels[order]
        group_end = np.searchsorted(sorted_labels, sorted_labels, side="right")
        first, last = (first, group_end) if mode == "must-only" else (group_end, n)
    counts = last - first
    ends = np.cumsum(counts)
    if n_pairs > ends[-1]:
        raise ExhaustedPairsError(
            f"requested {n_pairs} pairs in mode {mode!r} but only "
            f"{ends[-1]} qualifying pairs exist"
        )
    ranks = rng.choice(ends[-1], n_pairs, replace=False, shuffle=False)
    p = np.searchsorted(ends, ranks, side="right")
    a, b = order[p], order[first[p] + ranks - ends[p] + counts[p]]
    keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    return keys // n, keys % n
