"""Density, log-sum-exp, and covariance-repair checks."""

import tracemalloc

import numpy as np
import pytest

from pairmix import (
    DimensionMismatchError,
    EmptyInputError,
    FlatModel,
    InvariantViolationError,
    NotFiniteError,
    log_sum_exp,
    predict_flat,
    predict_flat_batch,
)
from pairmix import gaussian
from pairmix.gaussian import LOG_2PI, log_density_stack, regularize_covariances

from oracles import dense_logpdf

# Reference value computed independently with 60-digit arithmetic:
# d=2, mean=(1,2), cov=[[2,0.3],[0.3,1]], x=(0,0).
FROZEN_LOGPDF = -4.203313504192541437538324


def one_component(mean, cov):
    """``log_density_stack``'s component arguments for one Gaussian, the
    arrays a one-class model caches for the fit."""
    model = FlatModel(alpha=np.ones(1), means=np.asarray(mean, dtype=float)[None],
                      covs=np.asarray(cov, dtype=float)[None])
    return model.means, model.chols, model.log_dets


def test_log_density_frozen_value():
    args = one_component([1.0, 2.0], [[2.0, 0.3], [0.3, 1.0]])
    value = log_density_stack(np.zeros((1, 2)), *args)[0, 0]
    assert abs(value - FROZEN_LOGPDF) < 1e-14


def test_log_density_matches_dense_formula():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        mean = rng.normal(size=d) * 3.0
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.5 * np.eye(d)
        x = rng.normal(size=d) * 3.0
        value = log_density_stack(x[None], *one_component(mean, cov))[0, 0]
        assert abs(value - dense_logpdf(x, mean, cov)) < 1e-10


def test_log_density_stack_matches_per_class():
    # every component against the dense oracle, for d = 1..16; the last
    # component is rank-deficient, so regularize_covariances ridges it.  Its
    # floor of 1e-4 keeps that matrix conditioned near 1e5: at the fits'
    # 1e-6, factoring it alone moves log p by about 1e-10 relative, in the
    # oracle and the kernel alike
    rng = np.random.default_rng(103)
    n = 25
    for d in range(1, 17):
        m = 2 + d % 3
        raws = np.empty((m, d, d))
        for k in range(m - 1):
            a = rng.normal(size=(d, d))
            raws[k] = a @ a.T + 0.5 * np.eye(d)
        a = rng.normal(size=(d, d - 1))
        raws[-1] = a @ a.T
        covs, eps, chols = regularize_covariances(raws, 1e-4)
        assert eps[-1] > 0.0
        log_dets = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
        means = rng.normal(size=(m, d))
        pts = rng.normal(size=(n, d)) * 3.0
        stack = log_density_stack(pts, means, chols, log_dets)
        assert stack.shape == (n, m)
        for k in range(m):
            for i in range(n):
                want = dense_logpdf(pts[i], means[k], covs[k])
                assert abs(stack[i, k] - want) <= 1e-10 * max(1.0, abs(want))


def _whole_rows_reference(points, means, chols, log_dets):
    # one component at a time over all N rows, with one product each; the
    # factors are laid out as the kernel's, C-contiguous, because a one-row
    # product takes BLAS's gemv path, whose rounding depends on that layout
    inv_t = np.ascontiguousarray(np.linalg.inv(chols).swapaxes(1, 2))
    quad = np.empty((points.shape[0], means.shape[0]))
    for m in range(means.shape[0]):
        z = (points - means[m]) @ inv_t[m]
        quad[:, m] = np.einsum("nd,nd->n", z, z)
    return -0.5 * ((points.shape[1] * LOG_2PI + log_dets) + quad)


@pytest.mark.parametrize("tight", [False, True])
@pytest.mark.parametrize("c", [1, 8])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 16])
def test_log_density_stack_row_blocks_match_whole_rows(d, c, tight):
    # the row blocks, their boundaries and a ragged tail change no bit, nor
    # does taking all components in one product (n = 1 and 7 with c = 8),
    # nor centring a block's rows in groups and the rows left over apart;
    # "tight" puts narrow components (covariance scale 1e-6) about 1e3
    # from the origin, where the deviations cancel most digits
    rng = np.random.default_rng(104)
    rows = max(1, gaussian._ROW_FLOATS // d)
    a = rng.normal(size=(c, d, d))
    covs = a @ a.swapaxes(1, 2) + 0.5 * np.eye(d)
    means = rng.normal(size=(c, d))
    if tight:
        covs *= 1e-6
        means += 1e3
    chols = np.linalg.cholesky(covs)
    log_dets = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    # every n up to 401 is shorter than one block for every d here: 63 and
    # 64 rows are centred in one group, and 65, 397, 400 and 401 in groups of
    # 64 plus the rows left over; blocks of the odd rows - 1 rows, and of
    # rows = _ROW_FLOATS // d at d = 3, 5 and 6, leave rows over too
    for n in (1, 7, 64, 400, rows - 1, rows, rows + 1, 3 * rows + 17,
              63, 65, 397, 401):
        if tight:
            pts = means[rng.integers(c, size=n)] + 1e-3 * rng.normal(size=(n, d))
        else:
            pts = 3.0 * rng.normal(size=(n, d))
        got = log_density_stack(pts, means, chols, log_dets)
        assert np.array_equal(got, _whole_rows_reference(pts, means, chols, log_dets))


def test_one_block_density_equals_blocked_path_bits(monkeypatch):
    # inputs of one block (C·n·d ≤ _ROW_FLOATS) take the one-block path;
    # with _ROW_FLOATS lowered the same inputs go through the row blocks,
    # one component per product (n·d values) or in shorter, overlapping
    # blocks of rows, and every value is the same to the bit
    rng = np.random.default_rng(106)
    blocked = []
    blocked_quad = gaussian._blocked_quad

    def spy(*args):
        blocked.append(args[0].shape)
        return blocked_quad(*args)

    monkeypatch.setattr(gaussian, "_blocked_quad", spy)
    for c, n, d in ((1, 1, 1), (2, 400, 2), (4, 200, 2), (1, 401, 2), (3, 65, 3),
                    (8, 63, 5), (2, 1000, 16), (8, 256, 16), (5, 97, 13)):
        a = rng.normal(size=(c, d, d))
        chols = np.linalg.cholesky(a @ a.swapaxes(1, 2) + 0.5 * np.eye(d))
        log_dets = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
        means = rng.normal(size=(c, d))
        pts = 3.0 * rng.normal(size=(n, d))
        assert c * n * d <= gaussian._ROW_FLOATS
        one = log_density_stack(pts, means, chols, log_dets)
        assert not blocked
        for row_floats in {c * n * d - 1, n * d, max(d, n * d // 3)} - {c * n * d}:
            monkeypatch.setattr(gaussian, "_ROW_FLOATS", row_floats)
            assert np.array_equal(log_density_stack(pts, means, chols, log_dets), one)
            assert blocked.pop() == (n, d)
        monkeypatch.undo()
        monkeypatch.setattr(gaussian, "_blocked_quad", spy)


def test_log_density_stack_peak_memory_is_bounded():
    # N = 1e5, d = 16, C = 8: one (N, d) temporary is 12.8 MB and the
    # (N, C) result 6.4 MB, so the sweep's own buffers get 1.6 MB
    n, d, c = 100_000, 16, 8
    rng = np.random.default_rng(105)
    pts = rng.normal(size=(n, d))
    means = rng.normal(size=(c, d))
    chols = np.tile(np.eye(d), (c, 1, 1))
    log_dets = np.zeros(c)
    tracemalloc.start()
    try:
        log_density_stack(pts, means, chols, log_dets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_log_density_never_overflows_far_from_mean():
    value = log_density_stack(np.array([[1e6]]), *one_component([0.0], [[1e-8]]))[0, 0]
    assert np.isfinite(value) and value < -1e12


def test_log_density_dimension_mismatch():
    # the kernel and its public callers reject a point of the wrong dimension
    model = FlatModel(alpha=np.array([1.0]), means=np.zeros((1, 2)), covs=np.eye(2)[None])
    with pytest.raises(DimensionMismatchError):
        predict_flat(model, [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        predict_flat_batch(model, np.zeros((4, 3)))
    # and the kernel rejects components that disagree on C or d
    means, chols, log_dets = np.zeros((2, 2)), np.tile(np.eye(2), (2, 1, 1)), np.zeros(2)
    for args in (
        (np.zeros((4, 3)), means, chols, log_dets),
        (np.zeros(2), means, chols, log_dets),
        (np.zeros((4, 2)), np.zeros(2), chols, log_dets),
        (np.zeros((4, 2)), means, chols[:1], log_dets),
        (np.zeros((4, 2)), means, np.tile(np.eye(3), (2, 1, 1)), log_dets),
        (np.zeros((4, 2)), means, chols, np.zeros(3)),
    ):
        with pytest.raises(DimensionMismatchError):
            log_density_stack(*args)


# ---------------------------------------------------------------------------
# log_sum_exp


def test_log_sum_exp_matches_logaddexp_reduce():
    rng = np.random.default_rng(104)
    for _ in range(300):
        v = rng.normal(size=int(rng.integers(1, 30))) * rng.uniform(1, 50)
        expected = np.logaddexp.reduce(v)
        assert abs(log_sum_exp(v) - expected) < 1e-12


def test_log_sum_exp_extreme_shift_is_stable():
    v = np.array([-1e9, -1e9 + 1.0])
    expected = -1e9 + np.log(1.0 + np.e)
    assert abs(log_sum_exp(v) - expected) < 1e-6
    assert log_sum_exp(np.array([-np.inf, 0.0])) == 0.0
    assert log_sum_exp(np.array([-np.inf, -np.inf])) == -np.inf
    # an all -inf slice reduces to -inf along either axis, the others as usual
    dead = np.array([[-np.inf, 0.0], [-np.inf, -np.inf]])
    assert np.array_equal(log_sum_exp(dead, axis=0), [-np.inf, 0.0])
    assert np.array_equal(log_sum_exp(dead, axis=1), [0.0, -np.inf])


def test_log_sum_exp_axis_semantics():
    rng = np.random.default_rng(105)
    m = rng.normal(size=(6, 4)) * 10
    rowwise = log_sum_exp(m, axis=1)
    for i in range(6):
        assert abs(rowwise[i] - log_sum_exp(m[i])) < 1e-12
    colwise = log_sum_exp(m, axis=0)
    for j in range(4):
        assert abs(colwise[j] - log_sum_exp(m[:, j])) < 1e-12


def test_log_sum_exp_rejects_empty_and_nan():
    with pytest.raises(EmptyInputError):
        log_sum_exp(np.array([]))
    with pytest.raises(NotFiniteError):
        log_sum_exp(np.array([0.0, np.nan]))
    with pytest.raises(NotFiniteError):
        log_sum_exp(np.array([0.0, np.inf]))


# ---------------------------------------------------------------------------
# Covariance repair


def test_scaled_ridge_uses_trace_scale():
    # a singular matrix takes the ladder's first ridge, the scale-aware
    # floor 1e-6 · trace/d, or 1e-6 itself for a traceless matrix
    _, eps, _ = regularize_covariances(np.diag([6.0, 0.0])[None], 1e-6)
    assert abs(eps[0] - 1e-6 * 3.0) < 1e-20
    _, eps, _ = regularize_covariances(np.zeros((1, 3, 3)), 1e-6)
    assert eps[0] == 1e-6


def test_regularize_leaves_healthy_matrix_untouched():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    out, _, _ = regularize_covariances(cov[None])
    np.testing.assert_array_equal(out[0], cov)


def test_regularize_symmetrizes():
    s = np.array([[2.0, 0.4], [0.2, 1.0]])
    out, _, _ = regularize_covariances(s[None])
    np.testing.assert_allclose(out[0], 0.5 * (s + s.T), atol=1e-15)


def test_regularize_repairs_rank_deficient():
    v = np.array([1.0, 2.0])
    s = np.outer(v, v)  # rank one
    out, _, _ = regularize_covariances(s[None], 1e-6)
    np.linalg.cholesky(out[0])  # must succeed
    assert np.all(np.linalg.eigvalsh(out[0]) > 0)
    # repair adds only a small diagonal shift
    assert np.max(np.abs(out[0] - s)) <= 1e-4


def test_regularize_repairs_negative_eigenvalue():
    s = np.array([[1.0, 0.0], [0.0, -0.5]])
    out, _, _ = regularize_covariances(s[None], 1e-3)
    assert np.all(np.linalg.eigvalsh(out[0]) > 0)


def test_regularize_rejects_bad_inputs():
    with pytest.raises(DimensionMismatchError):
        regularize_covariances(np.zeros((1, 2, 3)))
    with pytest.raises(NotFiniteError):
        regularize_covariances(np.array([[[np.nan, 0.0], [0.0, 1.0]]]))
    with pytest.raises(InvariantViolationError):
        regularize_covariances(np.eye(2)[None], rel_floor=-1.0)


def test_regularize_stack_matches_single_matrix():
    # the batched repair must give each matrix exactly what a stack of that
    # matrix alone gives it, whether or not it needed a ridge
    rng = np.random.default_rng(131)
    v = rng.normal(size=3)
    a = rng.normal(size=(3, 3))
    stack = np.stack([
        a @ a.T + 0.5 * np.eye(3),             # healthy
        np.outer(v, v),                        # rank one: ridged
        np.zeros((3, 3)),                      # zero scatter: ridged
        np.diag([1.0, 2.0, -0.5]),             # indefinite: ridged
        a @ a.T + np.diag([0.0, 1e-3, 0.0]),   # asymmetric below
    ])
    stack[4, 0, 1] += 1e-4
    out, eps, chols = regularize_covariances(stack, 1e-6)
    for c in range(stack.shape[0]):
        want, want_eps, want_chol = regularize_covariances(stack[c:c + 1], 1e-6)
        np.testing.assert_array_equal(out[c], want[0])
        assert eps[c] == want_eps[0]
        np.testing.assert_array_equal(chols[c], want_chol[0])
        # the factor the pivot test accepted, bit for bit
        np.testing.assert_array_equal(chols[c], np.linalg.cholesky(out[c]))
    assert np.count_nonzero(eps) == 3
    # a stack the one batched Cholesky settles returns that call's factors
    healthy, healthy_eps, healthy_chols = regularize_covariances(stack[[0, 4]], 1e-6)
    assert not healthy_eps.any()
    np.testing.assert_array_equal(healthy, out[[0, 4]])
    for c in range(2):
        np.testing.assert_array_equal(healthy_chols[c], np.linalg.cholesky(healthy[c]))
    with pytest.raises(DimensionMismatchError):
        regularize_covariances(np.zeros((2, 3)))
    with pytest.raises(NotFiniteError):
        regularize_covariances(np.full((1, 2, 2), np.nan))
    with pytest.raises(InvariantViolationError):
        regularize_covariances(np.eye(2)[None], rel_floor=0.0)


# ---------------------------------------------------------------------------
# the unchecked cores the EM engine calls


def test_cores_match_wrappers_bit_for_bit():
    # on valid input the core returns exactly what its checking wrapper
    # returns, on a stack whose indefinite matrix climbs the ladder
    rng = np.random.default_rng(107)
    a = rng.normal(size=(2, 3, 3))
    stack = np.stack([a[0] @ a[0].T + np.eye(3), np.diag([1.0, 2.0, -0.5]), a[1] @ a[1].T])
    got = gaussian._regularize_covariances(stack.copy(), 1e-6)
    want = regularize_covariances(stack, 1e-6)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert got[1][1] > 0.0 and got[1][0] == got[1][2] == 0.0
    # the core keeps the guard that an M-step's values can trip
    with pytest.raises(NotFiniteError):
        gaussian._regularize_covariances(np.full((1, 2, 2), np.inf), 1e-6)


def test_regularize_rejects_a_covariance_whose_symmetrization_overflows():
    # (S + Sᵀ)/2 of entries near the float64 limit is inf, which a Cholesky
    # factorization does not reject: the repair must not return it
    stack = np.array([[[1.5e308, 1.2e308], [1.2e308, 1.5e308]]])
    with pytest.raises(NotFiniteError):
        regularize_covariances(stack)
