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
    NotFiniteError,
    RelationSet,
)
from pairmix import initialize
from pairmix.datasets import gen_synthetic
from pairmix.initialize import (
    _kmeanspp,
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
    # one seed: every point is assigned to it
    seeds_again, assign = _kmeanspp(ds.points, 1, make_rng(0))
    np.testing.assert_array_equal(seeds_again, seeds)
    np.testing.assert_array_equal(assign, np.zeros(5))
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
    # every distance ties, so every point stays with seed 0
    np.testing.assert_array_equal(_kmeanspp(ds.points, 3, make_rng(0))[1], np.zeros(6))


@pytest.mark.parametrize("scale", [1e160, 1e153], ids=["distances", "sum"])
def test_kmeanspp_overflow_raises_not_finite(scale):
    # at 1e160 every squared distance overflows to inf; at 1e153 each one is
    # finite but their sum overflows.  Either would make the D² weights NaN:
    # the seeding and both initializers raise, with no RuntimeWarning
    # (the suite turns warnings into errors)
    ds = gen_synthetic("two-cluster", 25, 0.25, seed=0)
    huge = Dataset(ds.points * scale, labels=ds.labels)
    for init in (lambda: kmeanspp_seeds(huge, 2, make_rng(0)),
                 lambda: init_flat(huge, 2, make_rng(0)),
                 lambda: init_hier(huge, 2, 2, make_rng(0))):
        with pytest.raises(NotFiniteError, match="overflow"):
            init()
    # one seed draws nothing, and the largest finite spread still seeds
    assert kmeanspp_seeds(huge, 1, make_rng(0)).shape == (1, 2)
    assert np.isfinite(kmeanspp_seeds(Dataset(ds.points * 1e150), 2, make_rng(0))).all()


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


def _dense_nearest(points, means):
    """Index of each point's nearest mean from the full (N, M) distance
    table; ``np.argmin`` takes the lowest index on ties."""
    dense = ((points[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(dense, axis=1)


def test_kmeanspp_assignment_matches_dense_argmin_with_ties():
    rng = np.random.default_rng(0)
    for case in range(200):
        n, d = rng.integers(1, 40), rng.integers(1, 5)
        k = rng.integers(1, min(9, n) + 1)
        if case % 2:  # integer grids: many equal distances and duplicate points
            points = rng.integers(-2, 3, size=(n, d)).astype(float)
        else:
            points = rng.normal(size=(n, d))
        seeds, assign = _kmeanspp(points, k, make_rng(case))
        np.testing.assert_array_equal(seeds, kmeanspp_seeds(Dataset(points), k, make_rng(case)))
        assert assign.dtype == np.intp
        np.testing.assert_array_equal(assign, _dense_nearest(points, seeds))
    # exact ties go to the lowest index: (0, 0) is as far from (1, 0) as
    # from (-1, 0), whichever of them is drawn first
    points = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
    tied = 0
    for seed in range(40):
        seeds, assign = _kmeanspp(points, 2, make_rng(seed))
        if sorted(seeds[:, 0].tolist()) == [-1.0, 1.0]:
            tied += 1
            assert assign.tolist() == [int(seeds[0, 0] != 1.0), int(seeds[0, 0] == 1.0), 0]
    assert tied > 0


def _init_hier_reference(ds, counts, rng, ridge_floor=1e-6):
    """init_hier as the public seeding followed by a separate nearest-seed
    pass, each class's points wrapped in a Dataset of their own."""
    seeds = kmeanspp_seeds(ds, len(counts), rng)
    assign = _dense_nearest(ds.points, seeds)
    classes = []
    for m, k_m in enumerate(counts):
        members = ds.points[assign == m]
        if members.shape[0] < k_m:
            center = members.mean(axis=0) if members.shape[0] else seeds[m]
            means = center + 1e-3 * np.sqrt(ridge_floor) * rng.standard_normal((k_m, ds.dim))
            covs = np.broadcast_to(ridge_floor * np.eye(ds.dim), (k_m, ds.dim, ds.dim))
        else:
            sub = kmeanspp_seeds(Dataset(points=members), k_m, rng)
            means, covs = initialize._seeded_moments(
                members, sub, _dense_nearest(members, sub), ridge_floor
            )
        classes.append((means, covs))
    return classes


def test_init_matches_seeding_then_nearest_pass():
    # init_flat and init_hier against the public seeding plus a dense
    # nearest-seed pass, bit for bit over 20 seeds; a far outlier starves
    # one class of points for two clusters on some seeds
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.normal(size=(60, 2)), rng.normal(size=(60, 2)) + 5.0, [[40.0, 40.0]]])
    ds = Dataset(pts)
    starved = 0
    for seed in range(20):
        model = init_flat(ds, 3, make_rng(seed))
        seeds = kmeanspp_seeds(ds, 3, make_rng(seed))
        means, covs = initialize._seeded_moments(
            pts, seeds, _dense_nearest(pts, seeds), 1e-6
        )
        np.testing.assert_array_equal(model.means, means)
        np.testing.assert_array_equal(model.covs, covs)
        model = init_hier(ds, 3, (2, 3, 2), make_rng(seed))
        want = _init_hier_reference(ds, (2, 3, 2), make_rng(seed))
        for got, (means, covs) in zip(model.classes, want):
            np.testing.assert_array_equal(got.means, means)
            np.testing.assert_array_equal(got.covs, covs)
        starved += any(c.covs[0, 0, 1] == 0.0 and c.covs[0, 0, 0] == 1e-6
                       for c in model.classes)
    assert starved > 0


@pytest.mark.parametrize("d", [1, 3, 16])
def test_sq_dists_row_blocks_match_whole_rows(d):
    # every block boundary and a ragged last block change no bit
    rng = np.random.default_rng(1)
    span = initialize._ROW_FLOATS // d
    center = rng.normal(size=d)
    for n in (1, span - 1, span, span + 1, 3 * span + 17):
        points = rng.normal(size=(n, d)) * 3.0
        want = np.sum((points - center) ** 2, axis=1)
        assert np.array_equal(initialize._sq_dists(points, center), want)


def test_init_flat_peak_memory_is_bounded():
    # N = 1e5, d = 16, M = 8: an (N, M, d) distance table alone is 102 MB
    ds = Dataset(np.random.default_rng(1).normal(size=(100_000, 16)))
    tracemalloc.start()
    try:
        init_flat(ds, 8, make_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


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
    with pytest.raises(InvariantViolationError, match="need at least one class"):
        init_hier(ds, 0, 1, make_rng(0))


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


def _qualifying_pairs(labels, mode):
    """Every pair ``i < j`` that ``mode`` admits, in ascending order."""
    n = labels.size
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if mode == "both" or (labels[i] == labels[j]) == (mode == "must-only")
    ]


@pytest.mark.parametrize("mode", ["both", "must-only", "cannot-only"])
def test_sample_relations_matches_brute_force(mode):
    rng = np.random.default_rng(2)
    # negative labels, singleton groups and a single label among the cases
    cases = [np.array([5]), np.array([-3, -3, -3, -3]), np.array([0, 1, 2, 3, 4])]
    for _ in range(300):
        n = int(rng.integers(1, 16))
        cases.append(rng.integers(-2, rng.integers(-1, 6), size=n))
    for case, labels in enumerate(cases):
        qualifying = _qualifying_pairs(labels, mode)
        capacity = len(qualifying)
        full = sample_relations(labels, capacity, make_rng(case), mode=mode)
        assert sorted(full.must + full.cannot) == qualifying
        k = int(rng.integers(0, capacity + 1))
        rel = sample_relations(labels, k, make_rng(case), mode=mode)
        assert list(rel.must) == sorted(set(rel.must))
        assert list(rel.cannot) == sorted(set(rel.cannot))
        assert len(rel.must) + len(rel.cannot) == k
        assert set(rel.must) <= set(qualifying) and set(rel.cannot) <= set(qualifying)
        assert all(labels[i] == labels[j] for i, j in rel.must)
        assert all(labels[i] != labels[j] for i, j in rel.cannot)
        assert all(type(i) is int and i < j for i, j in rel.must + rel.cannot)
        message = (
            f"requested {capacity + 1} pairs in mode {mode!r} but only "
            f"{capacity} qualifying pairs exist"
        )
        with pytest.raises(ExhaustedPairsError) as info:
            sample_relations(labels, capacity + 1, make_rng(case), mode=mode)
        assert str(info.value) == message
        with pytest.raises(InvariantViolationError, match="must be an integer"):
            sample_relations(labels, 2.5, make_rng(case), mode=mode)


@pytest.mark.parametrize(
    "mode, k", [("both", 4), ("must-only", 2), ("cannot-only", 5)]
)
def test_sample_relations_uniform_over_pairs(mode, k):
    # each of the C qualifying pairs is drawn with probability k / C: over
    # T draws its count is Binomial(T, k / C), and every count must lie
    # within 4.5 standard deviations of T·k / C
    labels = np.array([2, 0, 2, 1, 0, 2, -1])
    qualifying = _qualifying_pairs(labels, mode)
    draws = 4_000
    counts = dict.fromkeys(qualifying, 0)
    for seed in range(draws):
        rel = sample_relations(labels, k, make_rng(seed), mode=mode)
        for pair in rel.must + rel.cannot:
            counts[pair] += 1
    p = k / len(qualifying)
    bound = 4.5 * np.sqrt(draws * p * (1 - p))
    assert max(abs(c - draws * p) for c in counts.values()) <= bound


def test_sample_relations_fallback_at_scale():
    # one same-label pair among 100 000 points: rejection sampling gives up
    # and the fallback must find the pair without listing every pair
    labels = np.arange(100_000)
    labels[73_210] = labels[4_051]
    rel = sample_relations(labels, 1, make_rng(0), mode="must-only")
    assert rel.must == ((4_051, 73_210),) and rel.cannot == ()


def test_sample_relations_memory_at_scale():
    # 30 000 cannot-links among 100 000 points take one pass of O(N + pairs)
    # arrays: no pair table, and no set of drawn pairs; the N-long index
    # arrays are freed before the relation tuples are built (6.4 MB here,
    # 10.7 MB while they were kept)
    labels = np.arange(100_000) % 8
    tracemalloc.start()
    try:
        rel = sample_relations(labels, 30_000, make_rng(0), mode="cannot-only")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rel.must == () and len(rel.cannot) == 30_000
    assert all(labels[i] != labels[j] for i, j in rel.cannot)
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


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
