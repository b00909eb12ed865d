"""Purity scoring and the repeated-trials evaluation harness."""

import tracemalloc

import numpy as np
import pytest

from pairmix import (
    Dataset,
    FitConfig,
    InvariantViolationError,
    LengthMismatchError,
    TrialReport,
    hard_assign,
    purity,
    run_trials,
)
from pairmix.metrics import trials_to_csv
from pairmix.datasets import gen_synthetic

from oracles import purity_reference


# ---------------------------------------------------------------------------
# hard_assign / purity


def test_hard_assign_argmax_and_ties():
    post = np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
    np.testing.assert_array_equal(hard_assign(post), [1, 0, 0])
    with pytest.raises(InvariantViolationError):
        hard_assign(np.array([0.2, 0.8]))


def test_hard_assign_matches_argmax_in_either_order():
    # coarse values give many ties; NaN and infinities follow argmax's rules
    rng = np.random.default_rng(802)
    for m in (1, 2, 3, 8):
        post = rng.integers(0, 3, size=(500, m)).astype(float)
        post[rng.random(size=post.shape) < 0.05] = np.nan
        post[rng.random(size=post.shape) < 0.05] = np.inf
        post[rng.random(size=post.shape) < 0.05] = -np.inf
        for table in (post, np.asfortranarray(post), post[::-1]):
            np.testing.assert_array_equal(hard_assign(table), np.argmax(table, axis=1))


def test_hard_assign_peak_memory_is_bounded():
    # N = 1e5, M = 8, laid out as predict_*_batch returns it: a C-ordered
    # copy would be 6.4 MB, and the (N,) result and running best 1.6 MB
    post = np.random.default_rng(803).random(size=(8, 100_000)).T
    tracemalloc.start()
    try:
        hard_assign(post)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_purity_matches_counting_oracle():
    rng = np.random.default_rng(800)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        k_a = int(rng.integers(1, 6))
        k_t = int(rng.integers(1, 6))
        a = rng.integers(0, k_a, size=n)
        t = rng.integers(0, k_t, size=n)
        assert purity(a, t) == pytest.approx(purity_reference(a, t), abs=1e-12)


def test_purity_permutation_invariant():
    rng = np.random.default_rng(801)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        a = rng.integers(0, 4, size=n)
        t = rng.integers(0, 4, size=n)
        base = purity(a, t)
        perm = rng.permutation(4)
        assert purity(perm[a], t) == pytest.approx(base, abs=1e-15)


def test_purity_known_values():
    assert purity([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert purity([0, 0, 0, 0], [0, 0, 1, 1]) == 0.5
    assert purity([5, 5, 9, 9], [1, 1, 0, 0]) == 1.0  # ids are arbitrary
    # non-contiguous and negative ids allowed
    assert purity([-3, -3, 7], [0, 0, 1]) == 1.0


def test_purity_validation():
    with pytest.raises(LengthMismatchError):
        purity([0, 1], [0, 1, 2])
    with pytest.raises(InvariantViolationError):
        purity([], [])


# ---------------------------------------------------------------------------
# run_trials


def small_dataset():
    return gen_synthetic("two-cluster", 30, 0.25, seed=5)


def test_run_trials_basic_report():
    ds = small_dataset()
    cfg = FitConfig(max_iters=50)
    reports = run_trials(ds, 2, 1, [0, 4], n_trials=5, base_seed=9, config=cfg)
    assert [r.budget for r in reports] == [0, 4]
    for r in reports:
        assert isinstance(r, TrialReport)
        assert r.n_trials == 5
        assert r.purities.shape == (5,)
        assert r.n_failed == 0
        assert 0.0 <= r.mean <= 1.0
        assert np.all(r.iterations >= 1)
        assert r.errors == ("",) * 5


def test_run_trials_per_trial_seeds_are_stable():
    # adding trials extends the seed list without changing earlier entries
    ds = small_dataset()
    cfg = FitConfig(max_iters=30)
    short = run_trials(ds, 2, 1, [4], n_trials=3, base_seed=11, config=cfg)
    longer = run_trials(ds, 2, 1, [4], n_trials=5, base_seed=11, config=cfg)
    assert longer[0].seeds[:3] == short[0].seeds
    np.testing.assert_array_equal(longer[0].purities[:3], short[0].purities)


def test_run_trials_csv_written_and_deterministic(tmp_path):
    ds = small_dataset()
    cfg = FitConfig(max_iters=30)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    run_trials(ds, 2, 1, [0, 2], n_trials=4, base_seed=1, config=cfg, csv_path=p1)
    run_trials(ds, 2, 1, [0, 2], n_trials=4, base_seed=1, config=cfg, csv_path=p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    header, *rows = text.strip().split("\n")
    assert header == "budget,trial_index,seed,purity,iterations,converged"
    assert len(rows) == 8
    first = rows[0].split(",")
    assert first[0] == "0" and first[1] == "0"
    float(first[3])  # purity parses
    int(first[4])
    assert first[5] in ("true", "false")


def test_run_trials_hier_path():
    ds = gen_synthetic("two-moons", 30, 0.05, seed=2)
    cfg = FitConfig(max_iters=25)
    reports = run_trials(ds, 2, (2, 2), [4], n_trials=3, base_seed=0, config=cfg)
    assert reports[0].n_failed == 0
    assert np.all(reports[0].purities > 0.4)


def test_run_trials_records_failures_without_aborting():
    # 2 classes over 3 points with 4 clusters requested: every trial fails
    ds = Dataset(
        np.random.default_rng(0).normal(size=(3, 2)),
        labels=np.array([0, 0, 1]),
    )
    reports = run_trials(ds, 2, (2, 2), [0], n_trials=3, base_seed=0)
    r = reports[0]
    assert r.n_failed == 3
    assert np.all(np.isnan(r.purities))
    assert np.isnan(r.mean) and np.isnan(r.std)
    assert all("KTooLargeError" in e for e in r.errors)


def test_run_trials_records_overflow_failures_without_aborting():
    # data at 1e160 overflow the k-means++ distances: each trial fails with
    # NotFiniteError and is recorded, flat and two-level
    ds = gen_synthetic("two-cluster", 25, 0.25, seed=0)
    huge = Dataset(ds.points * 1e160, labels=ds.labels)
    for clusters in (1, (2, 2)):
        reports = run_trials(huge, 2, clusters, [0, 2], n_trials=2, base_seed=0)
        assert [r.n_failed for r in reports] == [2, 2]
        assert all(e.startswith("NotFiniteError: ") for r in reports for e in r.errors)


def test_run_trials_validation():
    ds = small_dataset()
    with pytest.raises(InvariantViolationError):
        run_trials(Dataset(ds.points), 2, 1, [1])  # unlabeled
    with pytest.raises(InvariantViolationError):
        run_trials(ds, 2, 1, [-1])
    with pytest.raises(InvariantViolationError):
        run_trials(ds, 2, 1, [1], n_trials=0)
    # a class or cluster count that no data could fit raises before the
    # sweep starts, with the fit's message, instead of failing every trial
    for n_classes in (0, -1):
        with pytest.raises(InvariantViolationError, match="need at least one class"):
            run_trials(ds, n_classes, 1, [1])
    with pytest.raises(InvariantViolationError, match="at least one cluster"):
        run_trials(ds, 2, (0, 0), [1])
    for counts in ((1, 1, 1), (2, 2, 2), ()):
        with pytest.raises(LengthMismatchError):
            run_trials(ds, 2, counts, [1])
    with pytest.raises(InvariantViolationError,
                       match="unknown sampling mode 'sometimes'"):
        run_trials(ds, 2, 1, [1], mode="sometimes")


def test_trials_to_csv_failed_trials_blank_purity():
    report = TrialReport(
        budget=3,
        mode="both",
        seeds=(7, 8),
        purities=np.array([0.5, np.nan]),
        iterations=np.array([4, 0]),
        converged=np.array([True, False]),
        errors=("", "KTooLargeError: boom"),
    )
    text = trials_to_csv([report])
    rows = text.strip().split("\n")[1:]
    assert rows[0] == "3,0,7,0.5,4,true"
    assert rows[1] == "3,1,8,,0,false"


def test_trial_report_copies_the_callers_arrays():
    # the report freezes copies; the caller's arrays stay its own and writable
    arrays = {"purities": np.array([0.5, 1.0]), "iterations": np.array([4, 7]),
              "converged": np.array([True, False])}
    report = TrialReport(budget=1, mode="both", seeds=(1, 2), errors=("", ""), **arrays)
    for name, given in arrays.items():
        kept = getattr(report, name)
        assert not np.shares_memory(kept, given)
        assert not kept.flags.writeable and given.flags.writeable
        given[0] = 0
        assert kept[0] != 0
