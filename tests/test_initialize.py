"""Seeding, model initialization, and simulated-relation sampling."""

import tracemalloc

import numpy as np
import pytest

from pairmix import (
    Dataset,
    ExhaustedPairsError,
    InvariantViolationError,
    KTooLargeError,
    LengthMismatchError,
    RelationSet,
)
from pairmix.datasets import gen_synthetic
from pairmix.initialize import (
    _nearest,
    _remaining_pairs,
    init_flat,
    init_hier,
    kmeanspp_seeds,
    make_rng,
    sample_relations,
    trial_seed,
)


# ---------------------------------------------------------------------------
# seeding


def test_trial_seed_deterministic_and_distinct():
    seen = set()
    for base in (0, 1, 456):
        for t in range(200):
            s = trial_seed(base, t)
            assert s == trial_seed(base, t)
            assert 0 <= s < 2**63
            seen.add(s)
    assert len(seen) == 600


def test_trial_seed_multi_key():
    assert trial_seed(5, 1, 2) != trial_seed(5, 2, 1)
    assert trial_seed(5, 1, 2) == trial_seed(5, 1, 2)


def test_kmeanspp_all_points_when_k_equals_n():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(8, 3)) * 3.0
    ds = Dataset(pts)
    seeds = kmeanspp_seeds(ds, 8, make_rng(4))
    # distinct points each get picked exactly once (chosen points have
    # zero squared distance, hence zero selection probability)
    got = {tuple(row) for row in seeds}
    want = {tuple(row) for row in pts}
    assert got == want


def test_kmeanspp_k_one_and_bounds():
    ds = Dataset(np.random.default_rng(1).normal(size=(5, 2)))
    seeds = kmeanspp_seeds(ds, 1, make_rng(0))
    assert seeds.shape == (1, 2)
    with pytest.raises(KTooLargeError):
        kmeanspp_seeds(ds, 6, make_rng(0))
    with pytest.raises(KTooLargeError):
        kmeanspp_seeds(ds, 0, make_rng(0))


def test_kmeanspp_seeds_are_data_points():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(30, 2))
    ds = Dataset(pts)
    seeds = kmeanspp_seeds(ds, 4, make_rng(9))
    rows = {tuple(row) for row in pts}
    for s in seeds:
        assert tuple(s) in rows


def test_kmeanspp_duplicate_points_fallback():
    # every point identical: D² weights vanish and sampling must not crash
    ds = Dataset(np.ones((6, 2)))
    seeds = kmeanspp_seeds(ds, 3, make_rng(0))
    np.testing.assert_array_equal(seeds, np.ones((3, 2)))


def test_kmeanspp_deterministic():
    ds = Dataset(np.random.default_rng(3).normal(size=(40, 2)))
    a = kmeanspp_seeds(ds, 5, make_rng(123))
    b = kmeanspp_seeds(ds, 5, make_rng(123))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# flat initialization


def blob_pair(seed=1234, sep=8.0):
    rng = make_rng(seed)
    a = rng.normal(size=(40, 2)) * 0.5
    b = rng.normal(size=(40, 2)) * 0.5 + np.array([sep, 0.0])
    return Dataset(np.vstack([a, b]), labels=np.repeat([0, 1], 40))


def test_init_flat_shapes_and_uniform_alpha():
    ds = blob_pair()
    model = init_flat(ds, 3, make_rng(0))
    assert model.alpha.shape == (3,)
    np.testing.assert_allclose(model.alpha, 1.0 / 3.0)
    assert model.means.shape == (3, 2)
    assert model.covs.shape == (3, 2, 2)
    for cov in model.covs:
        np.linalg.cholesky(cov)


def test_init_flat_separates_two_blobs():
    # far-apart blobs: each class mean must land on its own blob in at
    # least 95 of 100 seeded trials
    ds = blob_pair()
    centers = np.array([[0.0, 0.0], [8.0, 0.0]])
    hits = 0
    for t in range(100):
        model = init_flat(ds, 2, make_rng(trial_seed(77, t)))
        sides = sorted(
            int(np.argmin(np.linalg.norm(centers - mu, axis=1)))
            for mu in model.means
        )
        hits += sides == [0, 1]
    assert hits >= 95


def test_nearest_matches_dense_argmin_with_ties():
    rng = np.random.default_rng(0)
    for case in range(200):
        n, m, d = rng.integers(1, 40), rng.integers(1, 9), rng.integers(1, 5)
        if case % 2:  # integer grids: many equal distances
            points = rng.integers(-2, 3, size=(n, d)).astype(float)
            means = rng.integers(-2, 3, size=(m, d)).astype(float)
        else:
            points, means = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        dense = ((points[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(_nearest(points, means), np.argmin(dense, axis=1))
    # exact ties go to the lowest index
    means = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(_nearest(np.zeros((1, 2)), means), [0])


def test_init_flat_peak_memory_is_bounded():
    # N = 1e5, d = 16, M = 8: an (N, M, d) distance table alone is 102 MB
    ds = Dataset(np.random.default_rng(1).normal(size=(100_000, 16)))
    tracemalloc.start()
    try:
        init_flat(ds, 8, make_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6


def test_init_flat_deterministic():
    ds = blob_pair()
    m1 = init_flat(ds, 2, make_rng(42))
    m2 = init_flat(ds, 2, make_rng(42))
    np.testing.assert_array_equal(m1.means, m2.means)
    np.testing.assert_array_equal(m1.covs, m2.covs)


def test_init_flat_single_point_class():
    # one far outlier: whichever class captures only it gets ridge·I
    pts = np.vstack([np.random.default_rng(5).normal(size=(20, 2)), [[100.0, 100.0]]])
    ds = Dataset(pts)
    for t in range(20):
        model = init_flat(ds, 2, make_rng(t), ridge_floor=1e-6)
        lone = int(np.argmin(np.linalg.norm(model.means - [100.0, 100.0], axis=1)))
        if np.allclose(model.means[lone], [100.0, 100.0]):
            np.testing.assert_allclose(model.covs[lone], 1e-6 * np.eye(2))
            break
    else:
        pytest.fail("no trial isolated the outlier")


# ---------------------------------------------------------------------------
# hierarchical initialization


def test_init_hier_single_cluster_reduces_to_flat():
    ds = blob_pair()
    for seed in range(10):
        flat = init_flat(ds, 2, make_rng(seed))
        hier = init_hier(ds, 2, 1, make_rng(seed))
        back = hier.to_flat()
        np.testing.assert_array_equal(back.alpha, flat.alpha)
        np.testing.assert_array_equal(back.means, flat.means)
        np.testing.assert_array_equal(back.covs, flat.covs)


def test_init_hier_spreads_clusters_over_moons():
    # two-moons, two classes with two clusters each: the four cluster
    # means usually split two per moon, and collapsing all four onto a
    # single moon stays rare (counts frozen with these seeds: 50 and 10)
    ds = gen_synthetic("two-moons", 100, 0.05, seed=7)
    pts, labels = ds.points, ds.labels

    def moon_of(mean):
        return labels[np.argmin(((pts - mean) ** 2).sum(axis=1))]

    split, collapse = 0, 0
    for t in range(100):
        model = init_hier(ds, 2, (2, 2), make_rng(trial_seed(99, t)))
        sides = [moon_of(c.means[k]) for c in model.classes for k in range(2)]
        split += sum(sides) == 2
        collapse += sum(sides) in (0, 4)
    assert split >= 40
    assert collapse <= 20


def test_init_hier_jitter_fallback_on_tiny_class():
    # 3 points cannot supply 2 clusters for both classes: the starved
    # class duplicates its center with jitter and ridge·I covariances
    ds = Dataset(np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0]]))
    model = init_hier(ds, 2, (2, 2), make_rng(0), ridge_floor=1e-6)
    assert model.cluster_counts == (2, 2)
    # the class that captured only the outlier duplicates its center
    lone = min(
        model.classes,
        key=lambda c: np.linalg.norm(c.means.mean(axis=0) - [5.0, 0.0]),
    )
    np.testing.assert_allclose(lone.covs, np.broadcast_to(1e-6 * np.eye(2), (2, 2, 2)))
    gap = np.linalg.norm(lone.means[0] - lone.means[1])
    assert 0.0 < gap < 1e-2
    for k in range(2):
        assert np.linalg.norm(lone.means[k] - [5.0, 0.0]) < 1e-2


def test_init_hier_validation():
    # the same rule and error classes as fit_hier
    ds = blob_pair()
    with pytest.raises(LengthMismatchError):
        init_hier(ds, 2, (2, 2, 2), make_rng(0))
    with pytest.raises(LengthMismatchError):
        init_hier(ds, 2, (1, 2, 3), make_rng(0))
    with pytest.raises(InvariantViolationError):
        init_hier(ds, 2, 0, make_rng(0))


def test_init_hier_pi_uniform():
    ds = blob_pair()
    model = init_hier(ds, 2, (3, 2), make_rng(1))
    np.testing.assert_allclose(model.classes[0].pi, 1.0 / 3.0)
    np.testing.assert_allclose(model.classes[1].pi, 1.0 / 2.0)


# ---------------------------------------------------------------------------
# relation sampling


def test_sample_relations_routes_by_label():
    labels = np.repeat([0, 1, 2], 10)
    rel = sample_relations(labels, 40, make_rng(0))
    assert len(rel.must) + len(rel.cannot) == 40
    for i, j in rel.must:
        assert labels[i] == labels[j]
    for i, j in rel.cannot:
        assert labels[i] != labels[j]


def test_sample_relations_no_duplicate_pairs():
    labels = np.repeat([0, 1], 12)
    rel = sample_relations(labels, 60, make_rng(3))
    pairs = list(rel.must) + list(rel.cannot)
    assert len(pairs) == len(set(pairs)) == 60
    for i, j in pairs:
        assert i < j


def test_sample_relations_modes():
    labels = np.repeat([0, 1], 10)
    only_must = sample_relations(labels, 15, make_rng(1), mode="must-only")
    assert len(only_must.must) == 15 and len(only_must.cannot) == 0
    only_cannot = sample_relations(labels, 15, make_rng(1), mode="cannot-only")
    assert len(only_cannot.cannot) == 15 and len(only_cannot.must) == 0
    with pytest.raises(InvariantViolationError):
        sample_relations(labels, 5, make_rng(0), mode="nope")


def test_sample_relations_exhaustion():
    labels = np.array([0, 0, 1])
    # one same-label pair, two different-label pairs, three total
    assert len(sample_relations(labels, 3, make_rng(0)).must) == 1
    with pytest.raises(ExhaustedPairsError):
        sample_relations(labels, 4, make_rng(0))
    with pytest.raises(ExhaustedPairsError):
        sample_relations(labels, 2, make_rng(0), mode="must-only")
    full = sample_relations(labels, 2, make_rng(0), mode="cannot-only")
    assert sorted(full.cannot) == [(0, 2), (1, 2)]


@pytest.mark.parametrize("mode", ["both", "must-only", "cannot-only"])
def test_remaining_pairs_match_enumeration(mode):
    def qualifies(i, j):
        if mode == "must-only":
            return labels[i] == labels[j]
        if mode == "cannot-only":
            return labels[i] != labels[j]
        return True

    rng = np.random.default_rng(2)
    for case in range(100):
        n = int(rng.integers(1, 25))
        labels = rng.integers(-1, rng.integers(1, 6), size=n)
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = {p for p in all_pairs if qualifies(*p) and rng.random() < 0.3}
        # the enumeration the fallback used to make
        reference = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (i, j) not in chosen and qualifies(i, j)
        ]
        got = _remaining_pairs(labels, mode, chosen)
        assert got.shape == (len(reference), 2)
        assert [tuple(p) for p in got.tolist()] == reference


def test_sample_relations_fallback_at_scale():
    # one same-label pair among 100 000 points: rejection sampling gives up
    # and the fallback must find the pair without listing every pair
    labels = np.arange(100_000)
    labels[73_210] = labels[4_051]
    rel = sample_relations(labels, 1, make_rng(0), mode="must-only")
    assert rel.must == ((4_051, 73_210),) and rel.cannot == ()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_relations_enumerates_when_rejection_cannot_finish(seed):
    # 6 qualifying pairs among 3 000 points: a draw qualifies with
    # probability 2·6/3000², so 10 000 draws would not find 2 pairs in
    # expectation; the fallback runs first, on the untouched generator
    labels = np.arange(3_000)
    labels[[1_000, 2_000]] = 7
    labels[[1_500, 2_500]] = 9
    pairs = _remaining_pairs(labels, "must-only", set())
    picked = make_rng(seed).choice(len(pairs), 2, replace=False)
    rel = sample_relations(labels, 2, make_rng(seed), mode="must-only")
    assert rel.must == tuple(sorted(map(tuple, pairs[picked].tolist())))
    assert rel.cannot == ()


def test_sample_relations_large_label_values():
    # pair counting must not allocate a table indexed by label value
    labels = np.array([0, 0, 2**62, 2**62, 2**62])
    rel = sample_relations(labels, 4, make_rng(0), mode="must-only")
    assert len(rel.must) == 4 and rel.cannot == ()
    with pytest.raises(ExhaustedPairsError):
        sample_relations(labels, 7, make_rng(0), mode="cannot-only")


def test_sample_relations_zero_and_validation():
    labels = np.repeat([0, 1], 5)
    rel = sample_relations(labels, 0, make_rng(0))
    assert rel.is_empty()
    with pytest.raises(InvariantViolationError):
        sample_relations(labels, -1, make_rng(0))
    with pytest.raises(InvariantViolationError):
        sample_relations(np.array([0.5, 1.5]), 1, make_rng(0))
    with pytest.raises(InvariantViolationError):
        sample_relations(np.zeros((2, 2), dtype=int), 1, make_rng(0))


def test_sample_relations_deterministic():
    labels = np.repeat([0, 1, 2], 20)
    a = sample_relations(labels, 30, make_rng(7))
    b = sample_relations(labels, 30, make_rng(7))
    assert a.must == b.must and a.cannot == b.cannot


def test_sample_relations_returns_relationset():
    labels = np.repeat([0, 1], 8)
    rel = sample_relations(labels, 10, make_rng(2))
    assert isinstance(rel, RelationSet)
