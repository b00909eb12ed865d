"""Model initialization and simulated pairwise relations.

Randomness runs through numpy's ``Generator`` over the PCG64 bit generator
— a fixed, documented algorithm, so a seed reproduces the same draws on
every platform.  Parallel trial harnesses derive one child seed per trial
with :func:`trial_seed` (SeedSequence hashing of ``(base_seed, *key)``),
making results independent of scheduling order.

Initialization follows a seeding-only scheme: k-means++ chooses seed means
(no Lloyd refinement), every point joins its nearest seed, and per-class
moments are read off the assignment.  Mixing weights start uniform.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ExhaustedPairsError,
    InvariantViolationError,
    KTooLargeError,
    LengthMismatchError,
)
from .gaussian import regularize_covariances
from .types import ClassMixture, Dataset, FlatModel, HierModel, RelationSet


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
    points = dataset.points
    n = points.shape[0]
    if not 1 <= k <= n:
        raise KTooLargeError(f"cannot draw {k} seeds from {n} points")
    seeds = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    seeds[0] = points[first]
    if k == 1:
        return seeds
    d2 = np.sum((points - seeds[0]) ** 2, axis=1)
    for s in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            choice = int(rng.choice(n, p=probs))
        else:
            # all remaining distances zero (duplicate points): uniform draw
            choice = int(rng.integers(n))
        seeds[s] = points[choice]
        d2 = np.minimum(d2, np.sum((points - seeds[s]) ** 2, axis=1))
    return seeds


def _nearest(points: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Index of each point's nearest mean, the lowest index on ties: a
    running argmin over the means, one (N, d) temporary at a time."""
    best = ((points - means[0]) ** 2).sum(axis=1)
    assign = np.zeros(points.shape[0], dtype=np.intp)
    for m in range(1, means.shape[0]):
        d2 = ((points - means[m]) ** 2).sum(axis=1)
        assign[d2 < best] = m
        np.minimum(best, d2, out=best)
    return assign


def _seeded_moments(
    points: np.ndarray, seeds: np.ndarray, ridge_floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Join every point to its nearest seed and read off each group's mean
    and regularized biased covariance; an empty group keeps its seed and
    gets a ``ridge_floor·I`` covariance."""
    assign = _nearest(points, seeds)
    k, d = seeds.shape
    means = seeds.copy()
    covs = np.broadcast_to(ridge_floor * np.eye(d), (k, d, d)).copy()
    filled = np.bincount(assign, minlength=k) > 0
    for c in np.flatnonzero(filled):
        group = points[assign == c]
        means[c] = group.mean(axis=0)
        dev = group - means[c]
        covs[c] = dev.T @ dev / group.shape[0]
    covs[filled] = regularize_covariances(covs[filled], ridge_floor)[0]
    return means, covs


def init_flat(
    dataset: Dataset,
    n_classes: int,
    rng: np.random.Generator,
    ridge_floor: float = 1e-6,
) -> FlatModel:
    """Seed means by k-means++, assign points to nearest seed, read moments.

    Mixing weights are uniform ``1/M``.  A class with no assigned points
    keeps its seed mean and gets a ``ridge_floor·I`` covariance.
    """
    seeds = kmeanspp_seeds(dataset, n_classes, rng)
    means, covs = _seeded_moments(dataset.points, seeds, ridge_floor)
    alpha = np.full(n_classes, 1.0 / n_classes)
    return FlatModel(alpha=alpha, means=means, covs=covs)


def _normalize_cluster_counts(n_classes: int, clusters_per_class) -> tuple[int, ...]:
    """``clusters_per_class`` as one count per class: an int applies to
    every class, a sequence must have one positive entry per class."""
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
    ridge_floor: float = 1e-6,
) -> HierModel:
    """Two-level initialization: class split as :func:`init_flat`, then the
    same seeding procedure within each class's assigned points.

    A class with fewer assigned points than requested clusters falls back
    to duplicating the class mean with a small jitter (``ridge_floor·I``
    covariance), so initialization never fails on small classes.
    """
    counts = _normalize_cluster_counts(n_classes, clusters_per_class)
    seeds = kmeanspp_seeds(dataset, n_classes, rng)
    assign = _nearest(dataset.points, seeds)
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
            sub_seeds = kmeanspp_seeds(Dataset(points=members), k_m, rng)
            means, covs = _seeded_moments(members, sub_seeds, ridge_floor)
        classes.append(
            ClassMixture(pi=np.full(k_m, 1.0 / k_m), means=means, covs=covs)
        )
    alpha = np.full(n_classes, 1.0 / n_classes)
    return HierModel(alpha=alpha, classes=tuple(classes))


# ---------------------------------------------------------------------------
# simulated relations


def _pair_capacity(labels: np.ndarray) -> tuple[int, int]:
    """(number of same-label pairs, number of different-label pairs)."""
    n = labels.size
    total = n * (n - 1) // 2
    # np.unique, not np.bincount: memory grows with n, not with the largest label
    counts = np.unique(labels, return_counts=True)[1].tolist()
    same = sum(c * (c - 1) // 2 for c in counts)
    return same, total - same


def _remaining_pairs(labels: np.ndarray, mode: str, chosen) -> np.ndarray:
    """The pairs ``i < j`` of ``mode``'s kind that are not in ``chosen``, in
    lexicographic order → (R, 2).

    Pairs are enumerated label group by label group: each point ``i`` pairs
    with the later points of its own group (``must-only``), of the other
    groups (``cannot-only``) or of the whole vector (``both``), so the cost
    is O(n + qualifying pairs), not O(n²).
    """
    n = labels.size
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(labels[order][1:] != labels[order][:-1]) + 1
    groups = [np.arange(n)] if mode == "both" else np.split(order, starts)
    if mode == "must-only":  # a group of one has no pair
        groups = [group for group in groups if group.size > 1]
    keys = [np.zeros(0, dtype=np.int64)]
    for group in groups:  # indices ascending within a group
        if mode == "cannot-only":
            partners = np.flatnonzero(labels != labels[group[0]])
        else:
            partners = group
        start = np.searchsorted(partners, group, side="right")
        counts = partners.size - start
        offset = np.repeat(np.cumsum(counts) - counts - start, counts)
        j = partners[np.arange(offset.size) - offset]
        keys.append(np.repeat(group, counts).astype(np.int64) * n + j)
    keys = np.sort(np.concatenate(keys))
    taken = np.array([i * n + j for i, j in chosen], dtype=np.int64)
    keys = keys[~np.isin(keys, taken)]
    return np.stack([keys // n, keys % n], axis=1)


def sample_relations(
    labels,
    n_pairs: int,
    rng: np.random.Generator,
    mode: str = "both",
) -> RelationSet:
    """Draw unordered point pairs and route them by ground-truth labels.

    Pairs are uniform over distinct indices, without replacement (no pair
    repeats, endpoints may).  Same-label pairs become must-links,
    different-label pairs cannot-links.  In ``must-only`` /
    ``cannot-only`` mode, pairs of the other kind are rejected and redrawn
    until ``n_pairs`` of the requested kind are collected.  Raises
    :class:`ExhaustedPairsError` when fewer qualifying pairs exist.
    """
    if mode not in ("both", "must-only", "cannot-only"):
        raise InvariantViolationError(f"unknown sampling mode {mode!r}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size < 1:
        raise InvariantViolationError("labels must be a non-empty 1-D vector")
    if not np.issubdtype(labels.dtype, np.integer):
        raise InvariantViolationError("labels must be integers")
    if n_pairs < 0:
        raise InvariantViolationError("n_pairs must be nonnegative")
    n = labels.size
    same_cap, diff_cap = _pair_capacity(labels)
    capacity = {
        "both": same_cap + diff_cap,
        "must-only": same_cap,
        "cannot-only": diff_cap,
    }[mode]
    if n_pairs > capacity:
        raise ExhaustedPairsError(
            f"requested {n_pairs} pairs in mode {mode!r} but only "
            f"{capacity} qualifying pairs exist"
        )

    def qualifies(i: int, j: int) -> bool:
        if mode == "must-only":
            return labels[i] == labels[j]
        if mode == "cannot-only":
            return labels[i] != labels[j]
        return True

    chosen: set[tuple[int, int]] = set()
    must: list[tuple[int, int]] = []
    cannot: list[tuple[int, int]] = []
    max_attempts = max(10_000, 1_000 * n_pairs)
    # a draw qualifies with probability 2·capacity/n²: when max_attempts
    # draws would not yield n_pairs in expectation, enumerate at once
    attempts = max_attempts if n_pairs * n * n > 2 * capacity * max_attempts else 0
    while len(chosen) < n_pairs:
        if attempts >= max_attempts:
            # rejection sampling has become inefficient (qualifying pairs
            # nearly exhausted): enumerate the remainder and draw directly
            remaining = _remaining_pairs(labels, mode, chosen)
            take = n_pairs - len(chosen)
            idx = rng.choice(len(remaining), size=take, replace=False)
            for t in sorted(int(i) for i in idx):
                pair = (int(remaining[t, 0]), int(remaining[t, 1]))
                chosen.add(pair)
                (must if labels[pair[0]] == labels[pair[1]] else cannot).append(pair)
            break
        attempts += 1
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        if i == j:
            continue
        pair = (min(i, j), max(i, j))
        if pair in chosen or not qualifies(*pair):
            continue
        chosen.add(pair)
        (must if labels[pair[0]] == labels[pair[1]] else cannot).append(pair)

    return RelationSet(must=tuple(sorted(must)), cannot=tuple(sorted(cannot)))
