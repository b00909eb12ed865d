"""Two-level model: cluster-resolved E-step, M-step, reduction to flat."""

import re
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
    RelationSet,
    fit_flat,
    fit_hier,
    gen_synthetic,
    log_likelihood,
    log_likelihood_hier,
    predict_hier,
    predict_hier_batch,
)
from pairmix import hier, mixing
from pairmix.hier import hier_resp_cannotlink, hier_resp_mustlink, hier_resp_unsupervised
from pairmix.initialize import init_flat, init_hier, make_rng, sample_relations

from oracles import enum_hier_cannot, enum_hier_must, enum_hier_unsup
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
        # every point is in one factor, so its row of expected counts is
        # that factor's joint class/cluster posterior
        resp = hier._responsibilities(e, plan, params.class_of)
        assert set(plan.unsup_idx) == set(range(12)) - {0, 5, 2, 7}
        for row, i in enumerate(plan.unsup_idx):
            joint, marginal = hier_resp_unsupervised(model, pts[i])
            np.testing.assert_allclose(resp[i], np.concatenate(joint), atol=1e-12)
            np.testing.assert_allclose(e.unsup[row], marginal, atol=1e-12)
        for row, (i, j) in enumerate(plan.must_pairs):
            mi, mj, mc = hier_resp_mustlink(model, pts[i], pts[j])
            np.testing.assert_allclose(resp[i], np.concatenate(mi), atol=1e-12)
            np.testing.assert_allclose(resp[j], np.concatenate(mj), atol=1e-12)
            np.testing.assert_allclose(e.must[row], mc, atol=1e-12)
        for row, (a, b) in enumerate(plan.cannot_pairs):
            ja, jb, da, db, cj = hier_resp_cannotlink(model, pts[a], pts[b])
            np.testing.assert_allclose(resp[a], np.concatenate(ja), atol=1e-12)
            np.testing.assert_allclose(resp[b], np.concatenate(jb), atol=1e-12)
            np.testing.assert_allclose(e.cannot_a[row], da, atol=1e-12)
            np.testing.assert_allclose(e.cannot_b[row], db, atol=1e-12)
            np.testing.assert_allclose(e.cannot_joint[row], cj, atol=1e-12)


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
        np.testing.assert_allclose(resp.sum(axis=1), factors, rtol=0, atol=1e-12)


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
        ((points - centers[k]) * resp[:, c, None]).T @ (points - centers[k])
        for k, c in enumerate(idx.tolist())
    ])


@pytest.mark.parametrize("blocks", ["one"])
def test_scatter_stack_blocks_match_per_component_bits(blocks):
    rng = np.random.default_rng(510)
    d, n = 3, 59
    points, resp = rng.normal(size=(n, d)), rng.random((n, 7))
    idx = np.array([0, 2, 3, 5, 6])  # five live components of seven
    centers = rng.normal(size=(idx.size, d))
    got = hier._scatter_stack(points, resp, idx, centers)
    assert np.array_equal(got, _scatter_reference(points, resp, idx, centers))


def _scatter_row_block_reference(points, resp, idx, centers, span):
    # one component at a time, summed over row blocks of ``span`` rows
    total = np.zeros((idx.size, centers.shape[1], centers.shape[1]))
    for k, c in enumerate(idx.tolist()):
        for start in range(0, points.shape[0], span):
            dev = points[start:start + span] - centers[k]
            total[k] += (dev * resp[start:start + span, c, None]).T @ dev
    return total


@pytest.mark.parametrize("blocks", ["one"])
def test_scatter_stack_row_blocks(monkeypatch, blocks):
    rng = np.random.default_rng(512)
    d, span, n = 3, 4, 67  # the last row block is ragged
    points, resp = rng.normal(size=(n, d)), rng.random((n, 7))
    idx = np.array([0, 2, 3, 5, 6])
    centers = rng.normal(size=(idx.size, d))
    monkeypatch.setattr(hier, "_ROW_FLOATS", span * d)
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


def test_scatter_stack_peak_memory_is_bounded():
    # N = 1e5, d = 16, C = 8: one (C, N, d) deviation array alone would be
    # 102 MB
    n, d, c = 100_000, 16, 8
    rng = np.random.default_rng(514)
    points, resp = rng.normal(size=(n, d)), rng.dirichlet(np.ones(c), size=n)
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
    points, resp = rng.normal(size=(n, d)), rng.dirichlet(np.ones(c), size=n)
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
    # flat fit or a 4 x 2 two-level fit: the (N, 8) tables are 6.4 MB each
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
    assert peak <= 48e6


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
    rel = RelationSet(must=[(0, 99), (100, 199)], cannot=[(0, 100), (99, 199)])
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
