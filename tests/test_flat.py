"""Single-Gaussian-per-class model: E-step, M-step, likelihood, EM loop."""

import re

import numpy as np
import pytest

from pairmix import (
    Dataset,
    DegenerateNormalizerError,
    FitConfig,
    FlatModel,
    InvariantViolationError,
    KTooLargeError,
    RelationSet,
    cannotlink_prior,
    fit_flat,
    log_likelihood,
    predict_flat,
    predict_flat_batch,
    resp_cannotlink,
    resp_mustlink,
    resp_unsupervised,
)
from pairmix import hier
from pairmix.initialize import init_flat, make_rng

from oracles import (
    enum_flat_cannot,
    enum_flat_must,
    enum_flat_unsup,
    gmm_em_reference,
    mixing_counts_reference,
    mstep_reference,
)


def random_flat_model(rng, m, d):
    alpha = rng.dirichlet(np.ones(m) * 3.0)
    means = rng.normal(size=(m, d)) * 2.0
    covs = np.empty((m, d, d))
    for k in range(m):
        a = rng.normal(size=(d, d))
        covs[k] = a @ a.T + 0.4 * np.eye(d)
    return FlatModel(alpha=alpha, means=means, covs=covs)


def engine_estep(params, ds, rel, count_linked=False):
    """The relation plan and E-step a fit runs on ``rel`` as given, from a
    model's engine arrays ``params``."""
    plan = hier._relation_plan(ds, rel, count_linked)
    return plan, hier._estep(params, ds.points, plan)


def blob_dataset(rng, n_per_class=30, spread=4.0):
    centers = np.array([[0.0, 0.0], [spread, 0.0], [0.0, spread]])
    pts = np.vstack([c + 0.6 * rng.normal(size=(n_per_class, 2)) for c in centers])
    labels = np.repeat(np.arange(3), n_per_class)
    return Dataset(pts, labels=labels)


# ---------------------------------------------------------------------------
# Per-point posterior operations vs enumeration


def test_resp_unsupervised_matches_enumeration():
    rng = np.random.default_rng(401)
    for _ in range(1000):
        m = int(rng.integers(2, 4))
        d = int(rng.integers(1, 4))
        model = random_flat_model(rng, m, d)
        x = rng.normal(size=d) * 2.0
        got = resp_unsupervised(model, x)
        want = enum_flat_unsup(model.alpha, model.means, model.covs, x)
        assert np.max(np.abs(got - want)) < 1e-12


def test_resp_mustlink_matches_enumeration():
    rng = np.random.default_rng(402)
    for _ in range(1000):
        m = int(rng.integers(2, 4))
        d = int(rng.integers(1, 4))
        model = random_flat_model(rng, m, d)
        x_i = rng.normal(size=d) * 2.0
        x_j = rng.normal(size=d) * 2.0
        got = resp_mustlink(model, x_i, x_j)
        want = enum_flat_must(model.alpha, model.means, model.covs, x_i, x_j)
        assert np.max(np.abs(got - want)) < 1e-12


def test_resp_cannotlink_matches_enumeration():
    rng = np.random.default_rng(403)
    for _ in range(1000):
        m = int(rng.integers(2, 4))
        d = int(rng.integers(1, 4))
        model = random_flat_model(rng, m, d)
        x_a = rng.normal(size=d) * 2.0
        x_b = rng.normal(size=d) * 2.0
        d_a, d_b, joint = resp_cannotlink(model, x_a, x_b)
        want_joint, want_a, want_b = enum_flat_cannot(
            model.alpha, model.means, model.covs, x_a, x_b
        )
        assert np.max(np.abs(joint - want_joint)) < 1e-12
        assert np.max(np.abs(d_a - want_a)) < 1e-12
        assert np.max(np.abs(d_b - want_b)) < 1e-12
        assert np.all(np.diag(joint) == 0.0)


def test_estep_tables_match_per_point_ops():
    rng = np.random.default_rng(404)
    for _ in range(50):
        m = int(rng.integers(2, 4))
        model = random_flat_model(rng, m, 2)
        pts = rng.normal(size=(12, 2)) * 2.0
        ds = Dataset(pts)
        rel = RelationSet(must=[(0, 5), (1, 6)], cannot=[(2, 7), (3, 8)])
        plan, e = engine_estep(hier._flat_params(model), ds, rel)
        # every point is in one factor, so its row of expected counts is
        # that factor's posterior
        resp = hier._responsibilities(e, plan, np.arange(m))
        # linked points are excluded from the unsupervised table
        assert set(plan.unsup_idx) == set(range(12)) - {0, 5, 1, 6, 2, 7, 3, 8}
        for row, i in enumerate(plan.unsup_idx):
            want = resp_unsupervised(model, pts[i])
            np.testing.assert_allclose(e.unsup[row], want, atol=1e-12)
            np.testing.assert_allclose(resp[i], want, atol=1e-12)
        for row, (i, j) in enumerate(plan.must_pairs):
            want = resp_mustlink(model, pts[i], pts[j])
            np.testing.assert_allclose(e.must[row], want, atol=1e-12)
            np.testing.assert_allclose(resp[i], want, atol=1e-12)
            np.testing.assert_allclose(resp[j], want, atol=1e-12)
        for row, (a, b) in enumerate(plan.cannot_pairs):
            d_a, d_b, joint = resp_cannotlink(model, pts[a], pts[b])
            np.testing.assert_allclose(e.cannot_joint[row], joint, atol=1e-12)
            np.testing.assert_allclose(e.cannot_a[row], d_a, atol=1e-12)
            np.testing.assert_allclose(e.cannot_b[row], d_b, atol=1e-12)
            np.testing.assert_allclose(resp[a], d_a, atol=1e-12)
            np.testing.assert_allclose(resp[b], d_b, atol=1e-12)


def test_estep_count_linked_flag_keeps_all_points():
    rng = np.random.default_rng(405)
    model = random_flat_model(rng, 2, 2)
    ds = Dataset(rng.normal(size=(8, 2)))
    rel = RelationSet(must=[(0, 1)], cannot=[(2, 3)])
    plan, e = engine_estep(hier._flat_params(model), ds, rel, count_linked=True)
    assert list(plan.unsup_idx) == list(range(8))
    assert e.unsup.shape == (8, 2)


# ---------------------------------------------------------------------------
# Cannot-link prior


def test_cannotlink_prior_closed_form():
    rng = np.random.default_rng(406)
    for _ in range(300):
        m = int(rng.integers(2, 11))
        alpha = rng.dirichlet(np.ones(m))
        prior = cannotlink_prior(alpha)
        denom = 1.0 - float(np.sum(alpha**2))
        for p in range(m):
            for q in range(m):
                want = 0.0 if p == q else alpha[p] * alpha[q] / denom
                assert abs(prior.table[p, q] - want) < 1e-12
        assert abs(prior.table.sum() - 1.0) < 1e-12
        assert np.all(np.diag(prior.table) == 0.0)


def test_cannotlink_prior_single_class_rejected():
    with pytest.raises(DegenerateNormalizerError):
        cannotlink_prior(np.array([1.0]))


def test_cannotlink_prior_concentrated_weights_degenerate():
    # alpha so concentrated that 1 - sum(alpha^2) underflows the normalizer
    alpha = np.array([1.0 - 1e-16, 1e-16])
    with pytest.raises(DegenerateNormalizerError):
        cannotlink_prior(alpha)


# ---------------------------------------------------------------------------
# M-step


def test_update_mean_cov_matches_termwise_reference():
    # disjoint pairs, then points in several factors (0 is in a must-link
    # and a cannot-link pair, 5 in two must-link pairs, 3 twice in one
    # column of the cannot-link pairs); each also counting linked points
    # as independent ones
    relation_sets = (
        RelationSet(must=[(0, 5)], cannot=[(2, 7), (3, 9)]),
        RelationSet(must=[(0, 5), (5, 6)], cannot=[(0, 7), (3, 9), (3, 10)]),
    )
    rng = np.random.default_rng(407)
    for _ in range(200):
        m = int(rng.integers(2, 4))
        model = random_flat_model(rng, m, 2)
        pts = rng.normal(size=(14, 2)) * 2.0
        ds = Dataset(pts)
        for rel in relation_sets:
            for count_linked in (False, True):
                plan, e = engine_estep(hier._flat_params(model), ds, rel, count_linked)
                resp = hier._responsibilities(e, plan, np.arange(m))
                _, empty, means, covs, _, _ = hier._mstep(pts, resp, 1e-6)
                assert empty.size == 0
                want_means, want_covs = mstep_reference(
                    pts, plan.unsup_idx, e.unsup, plan.must_pairs, e.must,
                    plan.cannot_pairs, e.cannot_a, e.cannot_b,
                )
                assert np.max(np.abs(means - want_means)) < 1e-10
                assert np.max(np.abs(covs - want_covs)) < 1e-10


def test_mixing_counts_must_pairs_count_once():
    rng = np.random.default_rng(408)
    model = random_flat_model(rng, 2, 2)
    ds = Dataset(rng.normal(size=(10, 2)))
    rel = RelationSet(must=[(0, 1), (2, 3)], cannot=[(4, 5)])
    _, e = engine_estep(hier._flat_params(model), ds, rel)
    counts = hier._class_counts(e)
    want = mixing_counts_reference(e.unsup, e.must, e.cannot_a, e.cannot_b)
    np.testing.assert_allclose(counts, want, atol=1e-12)
    # 4 unsupervised points + 2 shared must weights + 2 cannot marginals
    assert abs(counts.sum() - (4 + 2 + 2)) < 1e-9


# ---------------------------------------------------------------------------
# Log-likelihood


def test_log_likelihood_matches_direct_sum():
    from oracles import dense_pdf

    rng = np.random.default_rng(410)
    for _ in range(200):
        m = int(rng.integers(2, 4))
        model = random_flat_model(rng, m, 2)
        pts = rng.normal(size=(9, 2)) * 2.0
        ds = Dataset(pts)
        rel = RelationSet(must=[(0, 4)], cannot=[(1, 5)])
        got = log_likelihood(model, ds, rel)

        alpha, means, covs = model.alpha, model.means, model.covs
        total = 0.0
        for i in (2, 3, 6, 7, 8):  # unsupervised points
            total += np.log(
                sum(alpha[k] * dense_pdf(pts[i], means[k], covs[k]) for k in range(m))
            )
        total += np.log(
            sum(
                alpha[k]
                * dense_pdf(pts[0], means[k], covs[k])
                * dense_pdf(pts[4], means[k], covs[k])
                for k in range(m)
            )
        )
        denom = 1.0 - float(np.sum(alpha**2))
        total += np.log(
            sum(
                alpha[p] * alpha[q] / denom
                * dense_pdf(pts[1], means[p], covs[p])
                * dense_pdf(pts[5], means[q], covs[q])
                for p in range(m)
                for q in range(m)
                if p != q
            )
        )
        assert abs(got - total) < 1e-10


def test_log_likelihood_single_class_with_cannot_rejected():
    model = FlatModel(
        alpha=np.array([1.0]), means=np.zeros((1, 2)), covs=np.eye(2)[None]
    )
    ds = Dataset(np.random.default_rng(0).normal(size=(4, 2)))
    with pytest.raises(DegenerateNormalizerError):
        log_likelihood(model, ds, RelationSet(cannot=[(0, 1)]))


# ---------------------------------------------------------------------------
# Full EM loop


def test_fit_reduces_to_plain_gmm_without_relations():
    rng = np.random.default_rng(411)
    ds = blob_dataset(rng)
    init = init_flat(ds, 3, make_rng(7))
    ref = gmm_em_reference(ds.points, init.alpha, init.means, init.covs, 4)
    # compare the trajectory one prefix at a time (the blob data reaches an
    # exact fixed point after four steps, so longer prefixes add nothing)
    for n_iters in (1, 2, 3, 4):
        config = FitConfig(max_iters=n_iters, tol=1e-300)
        model, trace = fit_flat(ds, RelationSet(), 3, config, init=init)
        ref_alpha, ref_means, ref_covs = ref[trace.n_iters - 1]
        assert np.max(np.abs(model.alpha - ref_alpha)) < 1e-10
        assert np.max(np.abs(model.means - ref_means)) < 1e-10
        assert np.max(np.abs(model.covs - ref_covs)) < 1e-10


def test_fit_trace_monotone_and_converged():
    rng = np.random.default_rng(412)
    ds = blob_dataset(rng)
    rel = RelationSet(must=[(0, 1), (30, 31)], cannot=[(0, 35), (61, 2)])
    model, trace = fit_flat(ds, rel, 3, FitConfig(seed=3))
    lls = np.array(trace.log_likelihoods)
    assert np.all(np.diff(lls) >= -1e-8)
    assert trace.converged
    assert trace.n_iters == len(lls) - 1  # first entry is the initial value
    # final trace value matches an independent evaluation
    assert abs(lls[-1] - log_likelihood(model, ds, rel)) < 1e-9


@pytest.mark.parametrize("count_linked", [False, True])
def test_fit_trace_entries_match_log_likelihood(count_linked):
    # every trace entry is the log-likelihood of the model after that many
    # iterations; the fit takes it from its E-step normalizers, and it must
    # agree with the independent evaluator
    rng = np.random.default_rng(416)
    ds = blob_dataset(rng)
    rel = RelationSet(must=[(0, 1), (30, 31)], cannot=[(0, 35), (61, 2)])
    init = init_flat(ds, 3, make_rng(9))
    kw = {"count_linked_as_unsupervised": count_linked}
    for n_iters in (1, 2, 5):
        cfg = FitConfig(max_iters=n_iters, tol=1e-300, **kw)
        model, trace = fit_flat(ds, rel, 3, cfg, init=init)
        for got, m in ((trace.log_likelihoods[0], init), (trace.log_likelihoods[-1], model)):
            want = log_likelihood(m, ds, rel, **kw)
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_fit_deterministic_given_seed():
    rng = np.random.default_rng(413)
    ds = blob_dataset(rng)
    rel = RelationSet(must=[(0, 1)], cannot=[(2, 40)])
    m1, t1 = fit_flat(ds, rel, 3, FitConfig(seed=11))
    m2, t2 = fit_flat(ds, rel, 3, FitConfig(seed=11))
    np.testing.assert_array_equal(m1.alpha, m2.alpha)
    np.testing.assert_array_equal(m1.means, m2.means)
    np.testing.assert_array_equal(m1.covs, m2.covs)
    assert t1.log_likelihoods == t2.log_likelihoods


def test_fit_rejects_more_classes_than_points():
    ds = Dataset(np.random.default_rng(0).normal(size=(3, 2)))
    with pytest.raises(KTooLargeError):
        fit_flat(ds, RelationSet(), 4)


def test_fit_single_class_with_cannot_links_degenerate():
    ds = Dataset(np.random.default_rng(0).normal(size=(6, 2)))
    with pytest.raises(DegenerateNormalizerError):
        fit_flat(ds, RelationSet(cannot=[(0, 1)]), 1)


def test_fit_recovers_empty_class():
    # a far-away init mean attracts nothing; the fit must reseed it and
    # report a warning instead of dying
    rng = np.random.default_rng(414)
    pts = np.vstack(
        [
            rng.normal(size=(25, 2)),
            np.array([8.0, 8.0]) + 0.3 * rng.normal(size=(25, 2)),
        ]
    )
    ds = Dataset(pts)
    init = FlatModel(
        alpha=np.array([0.5, 0.25, 0.25]),
        means=np.array([[0.0, 0.0], [8.0, 8.0], [500.0, 500.0]]),
        covs=np.stack([np.eye(2)] * 3),
    )
    model, trace = fit_flat(ds, RelationSet(), 3, FitConfig(max_iters=40), init=init)
    assert any("reseed" in w or "empty" in w for w in trace.warnings)
    assert np.all(np.isfinite(model.means))
    # a flat component is named by its class alone
    assert any(
        re.fullmatch(
            r"iteration \d+: class 2 lost all responsibility mass; reseeded at point \d+", w
        )
        for w in trace.warnings
    )
    assert not any("cluster" in w for w in trace.warnings)


def test_predict_matches_resp_unsupervised():
    rng = np.random.default_rng(415)
    model = random_flat_model(rng, 3, 2)
    x = rng.normal(size=2)
    np.testing.assert_allclose(predict_flat(model, x), resp_unsupervised(model, x), atol=0)
    pts = rng.normal(size=(20, 2))
    batch = predict_flat_batch(model, pts)
    assert batch.shape == (20, 3)
    np.testing.assert_allclose(batch.sum(axis=1), 1.0, atol=1e-12)
    for i in range(20):
        np.testing.assert_allclose(batch[i], predict_flat(model, pts[i]), atol=1e-12)


def test_fit_config_validation():
    with pytest.raises(InvariantViolationError):
        FitConfig(max_iters=0)
    with pytest.raises(InvariantViolationError):
        FitConfig(tol=-1.0)
    with pytest.raises(InvariantViolationError):
        FitConfig(ridge_floor=0.0)
