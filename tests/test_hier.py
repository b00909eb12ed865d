"""Two-level model: cluster-resolved E-step, M-step, reduction to flat."""

import itertools
import re
import sys
import tracemalloc

import numpy as np
import pytest

from pairmix import (
    ClassMixture,
    Dataset,
    FitConfig,
    HierModel,
    InvariantViolationError,
    KTooLargeError,
    NotFiniteError,
    RelationSet,
    fit_flat,
    fit_hier,
    gen_synthetic,
    log_likelihood,
    log_likelihood_hier,
    log_sum_exp,
    predict_hier,
    predict_hier_batch,
)
from pairmix import hier, mixing
from pairmix.hier import hier_resp_cannotlink, hier_resp_mustlink, hier_resp_unsupervised
from pairmix.initialize import init_flat, init_hier, make_rng, sample_relations

from oracles import (
    cluster_tables_reference,
    enum_hier_cannot,
    enum_hier_must,
    enum_hier_unsup,
)
from test_flat import engine_estep


def random_hier_model(rng, m, cluster_counts, d):
    alpha = rng.dirichlet(np.ones(m) * 3.0)
    classes = []
    for k_count in cluster_counts:
        pi = rng.dirichlet(np.ones(k_count) * 3.0)
        means = rng.normal(size=(k_count, d)) * 2.0
        covs = np.empty((k_count, d, d))
        for k in range(k_count):
            a = rng.normal(size=(d, d))
            covs[k] = a @ a.T + 0.4 * np.eye(d)
        classes.append(ClassMixture(pi=pi, means=means, covs=covs))
    return HierModel(alpha=alpha, classes=tuple(classes))


def two_arcs_dataset(rng, n_per_class=40):
    """Two separated curved strips; each class needs two clusters to hug one."""
    t = np.linspace(0.0, np.pi, n_per_class)
    upper = np.column_stack([np.cos(t), np.sin(t)]) + 0.05 * rng.normal(
        size=(n_per_class, 2)
    )
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)]) + 0.05 * rng.normal(
        size=(n_per_class, 2)
    )
    labels = np.repeat([0, 1], n_per_class)
    return Dataset(np.vstack([upper, lower]), labels=labels)


# ---------------------------------------------------------------------------
# E-step vs enumeration over all (class, cluster) assignments


def test_hier_unsup_matches_enumeration():
    rng = np.random.default_rng(501)
    for _ in range(400):
        m = int(rng.integers(2, 4))
        counts = tuple(int(rng.integers(1, 4)) for _ in range(m))
        d = int(rng.integers(1, 3))
        model = random_hier_model(rng, m, counts, d)
        x = rng.normal(size=d) * 2.0
        joint, class_marg = hier_resp_unsupervised(model, x)
        want = enum_hier_unsup(model, x)
        assert np.max(np.abs(np.concatenate(joint) - want)) < 1e-12
        offs = model.cluster_offsets
        want_class = np.add.reduceat(want, offs[:-1])
        assert np.max(np.abs(class_marg - want_class)) < 1e-12


def test_hier_must_matches_enumeration():
    rng = np.random.default_rng(502)
    for _ in range(400):
        m = int(rng.integers(2, 4))
        counts = tuple(int(rng.integers(1, 4)) for _ in range(m))
        d = int(rng.integers(1, 3))
        model = random_hier_model(rng, m, counts, d)
        x_i = rng.normal(size=d) * 2.0
        x_j = rng.normal(size=d) * 2.0
        joint_i, joint_j, class_marg = hier_resp_mustlink(model, x_i, x_j)
        want_i, want_j, want_class = enum_hier_must(model, x_i, x_j)
        assert np.max(np.abs(np.concatenate(joint_i) - want_i)) < 1e-12
        assert np.max(np.abs(np.concatenate(joint_j) - want_j)) < 1e-12
        assert np.max(np.abs(class_marg - want_class)) < 1e-12


def test_hier_cannot_matches_enumeration():
    rng = np.random.default_rng(503)
    for _ in range(400):
        m = int(rng.integers(2, 4))
        counts = tuple(int(rng.integers(1, 4)) for _ in range(m))
        d = int(rng.integers(1, 3))
        model = random_hier_model(rng, m, counts, d)
        x_a = rng.normal(size=d) * 2.0
        x_b = rng.normal(size=d) * 2.0
        joint_a, joint_b, d_a, d_b, class_joint = hier_resp_cannotlink(
            model, x_a, x_b
        )
        want_a, want_b, want_joint = enum_hier_cannot(model, x_a, x_b)
        assert np.max(np.abs(np.concatenate(joint_a) - want_a)) < 1e-12
        assert np.max(np.abs(np.concatenate(joint_b) - want_b)) < 1e-12
        assert np.max(np.abs(class_joint - want_joint)) < 1e-12
        assert np.max(np.abs(d_a - want_joint.sum(axis=1))) < 1e-12
        assert np.max(np.abs(d_b - want_joint.sum(axis=0))) < 1e-12
        assert np.all(np.diag(class_joint) == 0.0)


def test_hier_estep_tables_match_per_point_ops():
    rng = np.random.default_rng(504)
    for _ in range(40):
        m = int(rng.integers(2, 4))
        counts = tuple(int(rng.integers(1, 4)) for _ in range(m))
        model = random_hier_model(rng, m, counts, 2)
        params = hier._hier_params(model)
        pts = rng.normal(size=(12, 2)) * 2.0
        ds = Dataset(pts)
        rel = RelationSet(must=[(0, 5)], cannot=[(2, 7)])
        plan, e = engine_estep(params, ds, rel)
        assert set(plan.unsup_idx) == set(range(12)) - {0, 5, 2, 7}
        assert e.unsup.shape == (m, 12)
        if max(counts) > 1:
            assert e.r.shape == (sum(counts), 12)
        else:
            assert e.r is None
        for i in plan.unsup_idx:
            _, marginal = hier_resp_unsupervised(model, pts[i])
            np.testing.assert_allclose(e.unsup[:, i], marginal, atol=1e-12)
        for col, (i, j) in enumerate(plan.must_pairs):
            _, _, mc = hier_resp_mustlink(model, pts[i], pts[j])
            np.testing.assert_allclose(e.must[:, col], mc, atol=1e-12)
        for col, (a, b) in enumerate(plan.cannot_pairs):
            _, _, da, db, cj = hier_resp_cannotlink(model, pts[a], pts[b])
            np.testing.assert_allclose(e.cannot_a[:, col], da, atol=1e-12)
            np.testing.assert_allclose(e.cannot_b[:, col], db, atol=1e-12)
            np.testing.assert_allclose(e.cannot_joint[:, :, col], cj, atol=1e-12)
        # every point is in one factor, so its column of expected counts is
        # that factor's joint class/cluster posterior (the table is made in
        # e.unsup and e.r, so last)
        resp = hier._responsibilities(e, plan, params.class_of)
        for i in plan.unsup_idx:
            joint, _ = hier_resp_unsupervised(model, pts[i])
            np.testing.assert_allclose(resp[:, i], np.concatenate(joint), atol=1e-12)
        for i, j in plan.must_pairs:
            mi, mj, _ = hier_resp_mustlink(model, pts[i], pts[j])
            np.testing.assert_allclose(resp[:, i], np.concatenate(mi), atol=1e-12)
            np.testing.assert_allclose(resp[:, j], np.concatenate(mj), atol=1e-12)
        for a, b in plan.cannot_pairs:
            ja, jb, _, _, _ = hier_resp_cannotlink(model, pts[a], pts[b])
            np.testing.assert_allclose(resp[:, a], np.concatenate(ja), atol=1e-12)
            np.testing.assert_allclose(resp[:, b], np.concatenate(jb), atol=1e-12)


def test_cluster_tables_uneven_classes_match_dense_reference():
    # uneven classes, each with a class of 8 or more clusters: numpy sums a
    # row of 8 or more entries pairwise but the rows of a (C, N) table one
    # after another, so these are where the summation order changed
    rng = np.random.default_rng(516)
    for counts in ((1, 9, 3, 2), (8, 1), (2, 12, 1, 5)):
        model = random_hier_model(rng, len(counts), counts, 2)
        pts = rng.normal(size=(40, 2)) * 2.0
        b, r = hier._cluster_tables(hier._hier_params(model), pts)
        assert b.shape == (len(counts), 40) and r.shape == (sum(counts), 40)
        want_b, want_r = cluster_tables_reference(model, pts)
        np.testing.assert_allclose(b, want_b, rtol=0, atol=1e-12)
        np.testing.assert_allclose(r, want_r, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 9, 64])
def test_normalize_matches_log_sum_exp_bits(k):
    # the in-place softmax against log_sum_exp over axis 0 and against
    # exp(w - max) / Σ, on tables with -inf entries, on one column (which
    # numpy sums pairwise once it has 8 entries) and with a column of -inf
    # (zero density under every row), which gets lse = -inf and posteriors 0
    rng = np.random.default_rng(517)
    for n, dead in itertools.product((1, 2, 7, 1000) * 25, (False, True)):
        w = rng.normal(size=(k, n)) * 3.0
        w[rng.random(size=(k, n)) < 0.2] = -np.inf
        w[rng.integers(k, size=n), np.arange(n)] = rng.normal(size=n) * 3.0
        if dead:
            w[:, rng.integers(n)] = -np.inf
        live = w.max(axis=0) > -np.inf
        with np.errstate(invalid="ignore"):  # the reference's dead columns are NaN
            e = np.exp(w - w.max(axis=0))
            want_w = e / e.sum(axis=0)
        got_w = w.copy()
        got = hier._normalize(got_w)
        assert np.array_equal(got, log_sum_exp(w, axis=0))
        assert np.array_equal(got_w[:, live], want_w[:, live])
        assert np.isneginf(got[~live]).all() and not got_w[:, ~live].any()
    for bad in (np.nan, np.inf):
        w = np.zeros((k, 3))
        w[-1, 1] = bad
        with pytest.raises(NotFiniteError, match="NaN or \\+inf"):
            hier._normalize(w)


def test_normalize_peak_memory_is_three_vectors():
    # in place, the kernel keeps three (n,) vectors alive (the column maxima,
    # the shifted maxima turned column sums, and lse): 2.4 MB at n = 1e5
    w = np.random.default_rng(521).normal(size=(8, 100_000))
    tracemalloc.start()
    hier._normalize(w)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 3 * 8 * 100_000 + 64_000


def test_responsibilities_rows_count_factors():
    # a point's expected counts sum to the number of factors it is in: 0 is
    # in a must-link and a cannot-link pair, 5 in two must-link pairs and 3
    # twice in one column of the cannot-link pairs
    rng = np.random.default_rng(508)
    model = random_hier_model(rng, 3, (2, 1, 3), 2)
    params = hier._hier_params(model)
    ds = Dataset(rng.normal(size=(12, 2)) * 2.0)
    rel = RelationSet(must=[(0, 5), (5, 6)], cannot=[(0, 7), (3, 9), (3, 10)])
    for count_linked in (False, True):
        plan, e = engine_estep(params, ds, rel, count_linked)
        factors = np.bincount(
            np.concatenate([plan.unsup_idx, plan.must_pairs.ravel(),
                            plan.cannot_pairs.ravel()]),
            minlength=ds.n,
        )
        assert factors.max() == 2 + count_linked
        resp = hier._responsibilities(e, plan, params.class_of)
        np.testing.assert_allclose(resp.sum(axis=0), factors, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Reduction: one cluster per class must reproduce the flat model exactly


def test_single_cluster_fit_matches_flat_fit():
    rng = np.random.default_rng(505)
    ds = two_arcs_dataset(rng)
    rel = RelationSet(must=[(0, 10), (40, 50)], cannot=[(0, 45), (20, 60)])
    seeds = make_rng(17)
    init_f = init_flat(ds, 2, seeds)
    init_h = init_f.to_hier()
    for n_iters in (1, 3, 8):
        cfg = FitConfig(max_iters=n_iters, tol=1e-300)
        mf, tf = fit_flat(ds, rel, 2, cfg, init=init_f)
        mh, th = fit_hier(ds, rel, 2, 1, cfg, init=init_h)
        back = mh.to_flat()
        assert np.max(np.abs(back.alpha - mf.alpha)) < 1e-10
        assert np.max(np.abs(back.means - mf.means)) < 1e-10
        assert np.max(np.abs(back.covs - mf.covs)) < 1e-10
        assert len(tf.log_likelihoods) == len(th.log_likelihoods)
        for a, b in zip(tf.log_likelihoods, th.log_likelihoods):
            assert abs(a - b) < 1e-10


def test_hier_log_likelihood_reduces_to_flat():
    rng = np.random.default_rng(506)
    ds = Dataset(rng.normal(size=(15, 2)))
    rel = RelationSet(must=[(0, 1)], cannot=[(2, 3)])
    from test_flat import random_flat_model

    model = random_flat_model(rng, 3, 2)
    assert (
        abs(
            log_likelihood(model, ds, rel)
            - log_likelihood_hier(model.to_hier(), ds, rel)
        )
        < 1e-10
    )


# ---------------------------------------------------------------------------
# M-step and mixing counts


def test_hier_update_weights_are_consistent():
    # every point contributes total weight 1 to the flattened cluster axis,
    # every pair weight 2 split across its endpoints
    rng = np.random.default_rng(507)
    model = random_hier_model(rng, 2, (2, 2), 2)
    params = hier._hier_params(model)
    pts = rng.normal(size=(10, 2)) * 2.0
    ds = Dataset(pts)
    rel = RelationSet(must=[(0, 5)], cannot=[(2, 7)])
    plan, e = engine_estep(params, ds, rel)
    counts = hier._class_counts(e)
    # class-level counts: 6 unsupervised + 1 shared must + 2 cannot marginals
    assert abs(counts.sum() - (6 + 1 + 2)) < 1e-9

    resp = hier._responsibilities(e, plan, params.class_of)
    weight, empty, means, covs, _, _ = hier._mstep(pts, resp, 1e-6)
    assert abs(weight.sum() - (6 + 2 + 2)) < 1e-9
    assert empty.size == 0
    assert means.shape == (4, 2)
    assert covs.shape == (4, 2, 2)
    for c in range(4):
        np.linalg.cholesky(covs[c])


def _scatter_reference(points, resp, idx, centers):
    # one component at a time over all rows
    return np.stack([
        ((points - centers[k]) * resp[c, :, None]).T @ (points - centers[k])
        for k, c in enumerate(idx.tolist())
    ])


@pytest.mark.parametrize("blocks", ["one"])
def test_scatter_stack_blocks_match_per_component_bits(blocks):
    # inputs of one block or less; five live components of seven, or all
    # seven through slice(None), the M-step's index when none is empty
    rng = np.random.default_rng(510)
    d = 3
    for n in (1, 2, 59):
        points, resp = rng.normal(size=(n, d)), rng.random((7, n))
        for idx in (np.array([0, 2, 3, 5, 6]), slice(None)):
            rows = np.arange(7)[idx]
            centers = rng.normal(size=(rows.size, d))
            got = hier._scatter_stack(points, resp, idx, centers)
            assert np.array_equal(got, _scatter_reference(points, resp, rows, centers))


def _scatter_row_block_reference(points, resp, idx, centers, span):
    # one component at a time, summed over row blocks of ``span`` rows
    total = np.zeros((idx.size, centers.shape[1], centers.shape[1]))
    for k, c in enumerate(idx.tolist()):
        for start in range(0, points.shape[0], span):
            dev = points[start:start + span] - centers[k]
            total[k] += (dev * resp[c, start:start + span, None]).T @ dev
    return total


@pytest.mark.parametrize("blocks", ["one"])
def test_scatter_stack_row_blocks(monkeypatch, blocks):
    # blocks of 4 rows: 1 and 3 rows are shorter than one block, 4 fill
    # it, and in 67 the last row block is ragged
    rng = np.random.default_rng(512)
    d, span = 3, 4
    idx = np.array([0, 2, 3, 5, 6])
    monkeypatch.setattr(hier, "_ROW_FLOATS", span * d)
    for n in (1, 3, 4, 67):
        points, resp = rng.normal(size=(n, d)), rng.random((7, n))
        centers = rng.normal(size=(idx.size, d))
        got = hier._scatter_stack(points, resp, idx, centers)
        want = _scatter_row_block_reference(points, resp, idx, centers, span)
        assert np.array_equal(got, want)
        whole = _scatter_reference(points, resp, idx, centers)
        assert np.abs(got - whole).max() <= 1e-13 * np.abs(whole).max()


@pytest.fixture(scope="module")
def a1_fixture():
    ds = gen_synthetic("two-cluster", 200, 0.25, seed=0)
    rel = sample_relations(ds.labels, 20, make_rng(513))
    return ds, rel


def _fit_with_span(monkeypatch, a1_fixture, span):
    ds, rel = a1_fixture
    if span is not None:
        monkeypatch.setattr(hier, "_ROW_FLOATS", span * ds.dim)
    return fit_flat(ds, rel, 2, FitConfig(seed=0))


def test_fit_does_not_depend_on_scatter_row_blocks(monkeypatch, a1_fixture):
    # N = 400: with the default span every term is one row block, as it is
    # with a span longer than N, so the fit is the same to the bit
    n = a1_fixture[0].n
    model, trace = _fit_with_span(monkeypatch, a1_fixture, None)
    assert n <= hier._ROW_FLOATS // a1_fixture[0].dim
    wide_model, wide_trace = _fit_with_span(monkeypatch, a1_fixture, n + 1)
    assert wide_trace == trace
    for name in ("alpha", "means", "covs"):
        assert np.array_equal(getattr(wide_model, name), getattr(model, name))
    # blocks of 7 rows split every term: a change of summation order only
    _, short_trace = _fit_with_span(monkeypatch, a1_fixture, 7)
    assert short_trace.n_iters == trace.n_iters
    want = np.array(trace.log_likelihoods)
    got = np.array(short_trace.log_likelihoods)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def _raise_public(*args, **kwargs):
    raise AssertionError("the EM loop called a public, checking helper")


def test_fit_loop_calls_only_private_cores(monkeypatch):
    # the public regularize_covariances and log_sum_exp raise wherever a
    # pairmix module holds them; fits from given starting models (their
    # initialization is an API edge) must still give the unpatched traces
    ds = gen_synthetic("two-cluster", 2100, 0.25, seed=3)
    rel = sample_relations(ds.labels, 40, make_rng(518))
    assert rel.must and rel.cannot
    config = FitConfig(seed=0, max_iters=15)
    flat_init = init_flat(ds, 2, make_rng(1))
    hier_init = init_hier(ds, 2, 2, make_rng(1))
    want = [fit_flat(ds, rel, 2, config, init=flat_init)[1],
            fit_hier(ds, rel, 2, 2, config, init=hier_init)[1]]
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "pairmix" or name.startswith("pairmix.")]
    for module in modules:
        for name in ("regularize_covariances", "log_sum_exp"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _raise_public)
    got = [fit_flat(ds, rel, 2, config, init=flat_init)[1],
           fit_hier(ds, rel, 2, 2, config, init=hier_init)[1]]
    assert got == want
    assert all(trace.n_iters > 2 for trace in got)


def test_scatter_stack_peak_memory_is_bounded():
    # N = 1e5, d = 16, C = 8: one (C, N, d) deviation array alone would be
    # 102 MB
    n, d, c = 100_000, 16, 8
    rng = np.random.default_rng(514)
    points = rng.normal(size=(n, d))
    resp = np.ascontiguousarray(rng.dirichlet(np.ones(c), size=n).T)
    idx = np.arange(c)
    centers = rng.normal(size=(c, d))
    tracemalloc.start()
    try:
        hier._scatter_stack(points, resp, idx, centers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_mstep_peak_memory_is_bounded():
    # N = 1e5, d = 16, C = 8: one stacked (C, N, d) temporary alone is 102 MB
    n, d, c = 100_000, 16, 8
    rng = np.random.default_rng(511)
    points = rng.normal(size=(n, d))
    resp = np.ascontiguousarray(rng.dirichlet(np.ones(c), size=n).T)
    tracemalloc.start()
    try:
        hier._mstep(points, resp, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48e6


@pytest.mark.parametrize("two_level", [False, True])
def test_fit_peak_memory_is_bounded(two_level):
    # N = 1e5, d = 16 with 1 000 sampled links, 4 iterations of an M = 8
    # flat fit or a 4 x 2 two-level fit: the (8, N) tables are 6.4 MB each
    n, d = 100_000, 16
    rng = np.random.default_rng(515)
    ds = Dataset(rng.normal(size=(n, d)), labels=rng.integers(8, size=n))
    rel = sample_relations(ds.labels, 1000, rng)
    cfg = FitConfig(max_iters=4, tol=1e-300, seed=0)
    tracemalloc.start()
    try:
        if two_level:
            fit_hier(ds, rel, 4, 2, cfg)
        else:
            fit_flat(ds, rel, 8, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


# ---------------------------------------------------------------------------
# Full EM loop


def test_fit_hier_monotone_and_deterministic():
    rng = np.random.default_rng(509)
    ds = two_arcs_dataset(rng)
    rel = RelationSet(must=[(0, 39), (40, 79)], cannot=[(0, 60), (20, 40)])
    m1, t1 = fit_hier(ds, rel, 2, (2, 2), FitConfig(seed=5))
    lls = np.array(t1.log_likelihoods)
    assert np.all(np.diff(lls) >= -1e-8)
    assert abs(lls[-1] - log_likelihood_hier(m1, ds, rel)) < 1e-9
    m2, t2 = fit_hier(ds, rel, 2, (2, 2), FitConfig(seed=5))
    assert t1.log_likelihoods == t2.log_likelihoods
    np.testing.assert_array_equal(m1.alpha, m2.alpha)
    for c1, c2 in zip(m1.classes, m2.classes):
        np.testing.assert_array_equal(c1.means, c2.means)


@pytest.mark.parametrize("two_level", [False, True])
def test_one_warm_mixing_solve_per_em_iteration(monkeypatch, two_level):
    # the solver's line search is the fit's only ascent check: every EM
    # iteration makes one solve, started from the previous weights, and
    # the fit never evaluates the objective itself nor re-checks the
    # counts its own E-step made
    solves = []
    solve = hier._solve_mixing

    def counted(counts, n_cannot, alpha_init):
        solves.append(alpha_init)
        return solve(counts, n_cannot, alpha_init)

    def forbidden(*args):
        raise AssertionError("the fit evaluated the mixing objective")

    def unchecked(*args):
        raise AssertionError("the fit validated its own mixing counts")

    monkeypatch.setattr(hier, "_solve_mixing", counted)
    monkeypatch.setattr(mixing, "mixing_objective", forbidden)
    monkeypatch.setattr(mixing, "_check_counts", unchecked)
    monkeypatch.setattr(hier, "mixing_objective", forbidden, raising=False)
    ds = gen_synthetic("two-moons", 100, 0.05, seed=11)
    both = RelationSet(must=[(0, 99), (100, 199)], cannot=[(0, 100), (99, 199)])
    # without cannot-links the solve is the closed form c / Σc
    for rel in (both, RelationSet(must=both.must)):
        solves.clear()
        if two_level:
            _, trace = fit_hier(ds, rel, 2, (2, 2), FitConfig(seed=6))
        else:
            _, trace = fit_flat(ds, rel, 2, FitConfig(seed=6))
        assert trace.n_iters > 1
        assert len(solves) == trace.n_iters
    assert all(alpha is not None for alpha in solves)


@pytest.mark.parametrize("count_linked", [False, True])
def test_fit_hier_trace_entries_match_log_likelihood(count_linked):
    # the hierarchical counterpart of the flat check: each trace entry comes
    # from the E-step normalizers and must agree with log_likelihood_hier
    rng = np.random.default_rng(512)
    ds = two_arcs_dataset(rng)
    rel = RelationSet(must=[(0, 39), (40, 79)], cannot=[(0, 60), (20, 40)])
    init = init_hier(ds, 2, (2, 2), make_rng(13))
    kw = {"count_linked_as_unsupervised": count_linked}
    for n_iters in (1, 2, 5):
        cfg = FitConfig(max_iters=n_iters, tol=1e-300, **kw)
        model, trace = fit_hier(ds, rel, 2, (2, 2), cfg, init=init)
        for got, m in ((trace.log_likelihoods[0], init), (trace.log_likelihoods[-1], model)):
            want = log_likelihood_hier(m, ds, rel, **kw)
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_fit_hier_mixed_cluster_counts():
    rng = np.random.default_rng(510)
    ds = two_arcs_dataset(rng)
    model, trace = fit_hier(ds, RelationSet(), 2, (1, 3), FitConfig(seed=2))
    assert model.cluster_counts == (1, 3)
    lls = np.array(trace.log_likelihoods)
    assert np.all(np.diff(lls) >= -1e-8)


def test_fit_hier_reseeds_empty_clusters():
    # both clusters of class 1 start far from the data and attract nothing:
    # the fit reseeds each at a data point, names it by cluster and class,
    # and raises the class's vanished mixing count to exactly 1
    rng = np.random.default_rng(513)
    pts = np.vstack(
        [
            rng.normal(size=(25, 2)),
            np.array([8.0, 8.0]) + 0.3 * rng.normal(size=(25, 2)),
        ]
    )
    ds = Dataset(pts)
    eye = np.eye(2)
    init = HierModel(
        alpha=np.array([0.5, 0.5]),
        classes=(
            ClassMixture(pi=np.ones(1), means=[[4.0, 4.0]], covs=[20.0 * eye]),
            ClassMixture(
                pi=np.array([0.5, 0.5]),
                means=[[500.0, 500.0], [-500.0, 500.0]],
                covs=[eye, eye],
            ),
        ),
    )
    model, trace = fit_hier(ds, RelationSet(), 2, (1, 2), FitConfig(max_iters=1), init=init)
    assert len(trace.warnings) == 2
    for k, warning in enumerate(trace.warnings):
        assert re.fullmatch(
            rf"iteration 1: cluster {k} of class 1 lost all responsibility mass; "
            r"reseeded at point \d+",
            warning,
        )
    # class counts: 50 points for class 0, the floor of 1 for class 1
    np.testing.assert_allclose(model.alpha, [50.0 / 51.0, 1.0 / 51.0], rtol=1e-12)
    np.testing.assert_array_equal(model.classes[1].pi, [0.5, 0.5])

    model, trace = fit_hier(ds, RelationSet(), 2, (1, 2), FitConfig(max_iters=40), init=init)
    for c in model.classes:
        assert np.all(np.isfinite(c.means)) and np.all(np.isfinite(c.covs))
    assert np.all(np.isfinite(trace.log_likelihoods))


def test_one_cluster_class_pi_is_exactly_one_after_an_iteration():
    # an init π within 1e-12 of 1 passes the simplex check; the M-step
    # recomputes it as weight / weight, so the fit returns π = 1 exactly
    rng = np.random.default_rng(601)
    ds = Dataset(np.vstack([rng.normal(size=(20, 2)), 6.0 + rng.normal(size=(20, 2))]))
    near_one = np.array([1.0 - 5e-13])
    init = HierModel(
        alpha=np.array([0.5, 0.5]),
        classes=tuple(ClassMixture(pi=near_one, means=[m], covs=[np.eye(2)])
                      for m in ([0.0, 0.0], [6.0, 6.0])),
    )
    model, _ = fit_hier(ds, RelationSet(), 2, (1, 1), FitConfig(max_iters=1), init=init)
    for c in model.classes:
        assert np.array_equal(c.pi, [1.0])


def test_fit_hier_rejects_too_many_clusters():
    ds = Dataset(np.random.default_rng(0).normal(size=(3, 2)))
    with pytest.raises(KTooLargeError):
        fit_hier(ds, RelationSet(), 2, (2, 2))


def test_fit_hier_cluster_count_validation():
    from pairmix import LengthMismatchError

    ds = Dataset(np.random.default_rng(0).normal(size=(10, 2)))
    with pytest.raises(LengthMismatchError):
        fit_hier(ds, RelationSet(), 2, (2, 2, 2))
    with pytest.raises(InvariantViolationError):
        fit_hier(ds, RelationSet(), 2, 0)


def test_hier_zero_density_point_raises_not_finite():
    # as in the flat model: a point with zero density under every cluster
    # has no posterior
    rng = np.random.default_rng(520)
    model = random_hier_model(rng, 3, (2, 1, 3), 2)
    far, near = np.array([-1e160, 1e160]), np.zeros(2)
    calls = [
        lambda: predict_hier(model, far),
        lambda: predict_hier_batch(model, np.stack([far, near])),
        lambda: hier_resp_unsupervised(model, far),
        lambda: hier_resp_mustlink(model, far, near),
        lambda: hier_resp_cannotlink(model, near, far),
        lambda: log_likelihood_hier(model, Dataset(np.stack([near, far])), RelationSet()),
    ]
    for call in calls:
        with pytest.raises(NotFiniteError, match="zero density"):
            call()
    # zero density under every cluster of one class only (covariances of
    # 1e-300 put the point 1e155 standard deviations out) leaves that class
    # a posterior of 0 and its clusters no NaN
    tight = ClassMixture(pi=np.array([0.5, 0.5]), means=np.array([[0.0, 0.0], [1.0, 0.0]]),
                         covs=np.tile(1e-300 * np.eye(2), (2, 1, 1)))
    broad = ClassMixture(pi=np.array([1.0]), means=np.zeros((1, 2)),
                         covs=(1e10 * np.eye(2))[None])
    model = HierModel(alpha=np.array([0.5, 0.5]), classes=(tight, broad))
    x = np.array([1e5, 0.0])
    assert np.array_equal(predict_hier_batch(model, np.stack([x, x])), [[0.0, 1.0]] * 2)
    (joint_tight, joint_broad), marginal = hier_resp_unsupervised(model, x)
    assert np.array_equal(joint_tight, [0.0, 0.0]) and np.array_equal(marginal, [0.0, 1.0])


def test_cluster_posteriors_sum_to_one_at_huge_log_densities():
    # member a at the origin, between two clusters of one class with
    # covariance 1e-300·I at (±0.5, 0): both log-densities are about
    # -1.25e299, where log 2 is below the ulp of the log-normalizer, so
    # exp(w - lse) would give sub-cluster posteriors [1, 1]; divided in the
    # shifted space they are [0.5, 0.5].  Member b sits on the other class,
    # so the cannot-link gives a's class posterior 1
    tiny = 1e-300 * np.eye(2)
    pair = ClassMixture(pi=np.array([0.5, 0.5]), means=np.array([[-0.5, 0.0], [0.5, 0.0]]),
                        covs=np.stack([tiny, tiny]))
    other = ClassMixture(pi=np.array([1.0]), means=np.array([[2.0, 0.0]]), covs=tiny[None])
    model = HierModel(alpha=np.array([0.5, 0.5]), classes=(pair, other))
    joint_a, _, d_a, _, _ = hier_resp_cannotlink(model, np.zeros(2), np.array([2.0, 0.0]))
    assert np.array_equal(d_a, [1.0, 0.0])
    assert np.array_equal(joint_a[0], [0.5, 0.5])


def test_predict_hier_consistency():
    rng = np.random.default_rng(511)
    model = random_hier_model(rng, 3, (2, 1, 3), 2)
    x = rng.normal(size=2)
    single = predict_hier(model, x)
    _, class_marg = hier_resp_unsupervised(model, x)
    np.testing.assert_allclose(single, class_marg, atol=1e-12)
    pts = rng.normal(size=(15, 2))
    batch = predict_hier_batch(model, pts)
    assert batch.shape == (15, 3)
    np.testing.assert_allclose(batch.sum(axis=1), 1.0, atol=1e-12)
    for i in range(15):
        np.testing.assert_allclose(batch[i], predict_hier(model, pts[i]), atol=1e-12)
