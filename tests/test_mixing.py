"""Concentrated mixing-weight objective and its simplex optimizer."""

import numpy as np
import pytest

from pairmix import (
    DegenerateNormalizerError,
    InvariantViolationError,
    NotFiniteError,
    mixing_gradient,
    mixing_objective,
    optimize_mixing,
    optimize_mixing_info,
)
from pairmix import mixing
from pairmix.mixing import ALPHA_FLOOR

from oracles import grid_argmax_two_class, mixing_objective_reference


def _random_counts(rng, m):
    """Counts resembling responsibility masses: positive, varied magnitude."""
    return rng.uniform(0.5, 50.0, size=m)


def test_objective_matches_reference():
    rng = np.random.default_rng(310)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        counts = _random_counts(rng, m)
        alpha = rng.dirichlet(np.ones(m))
        n_cannot = int(rng.integers(0, 5))
        got = mixing_objective(alpha, counts, n_cannot)
        want = mixing_objective_reference(alpha, counts, n_cannot)
        assert abs(got - want) < 1e-10


def test_objective_zero_count_zero_weight_convention():
    # 0 * log 0 contributes nothing
    value = mixing_objective([0.0, 1.0], [0.0, 3.0], 0)
    assert abs(value - 0.0) < 1e-15
    # positive count at zero weight is -inf
    assert mixing_objective([0.0, 1.0], [2.0, 3.0], 0) == -np.inf


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(311)
    h = 1e-6
    for _ in range(100):
        m = int(rng.integers(2, 6))
        counts = _random_counts(rng, m)
        n_cannot = int(rng.integers(0, 4))
        # interior point, away from the boundary so central differences behave
        alpha = rng.dirichlet(np.ones(m) * 5.0)
        alpha = 0.9 * alpha + 0.1 / m
        grad = mixing_gradient(alpha, counts, n_cannot)
        for k in range(m):
            e = np.zeros(m)
            e[k] = h
            num = (
                mixing_objective(alpha + e, counts, n_cannot)
                - mixing_objective(alpha - e, counts, n_cannot)
            ) / (2 * h)
            denom = max(1.0, abs(num))
            assert abs(grad[k] - num) / denom < 1e-5


def test_closed_form_without_cannot_links():
    rng = np.random.default_rng(312)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        counts = _random_counts(rng, m)
        alpha, info = optimize_mixing_info(counts, 0)
        np.testing.assert_allclose(alpha, counts / counts.sum(), atol=1e-15)
        assert info.n_steps == 0


def test_optimizer_matches_grid_oracle_two_classes():
    rng = np.random.default_rng(313)
    for _ in range(25):
        counts = _random_counts(rng, 2)
        n_cannot = int(rng.integers(1, 6))
        alpha, info = optimize_mixing_info(counts, n_cannot)
        grid_alpha, grid_val = grid_argmax_two_class(counts, n_cannot)
        # either the weights agree or ours scores at least as well
        ours = mixing_objective(alpha, counts, n_cannot)
        assert np.max(np.abs(alpha - grid_alpha)) < 1e-4 or ours >= grid_val - 1e-9


def test_optimizer_kkt_convergence_rate():
    rng = np.random.default_rng(314)
    total, fast = 0, 0
    for _ in range(200):
        m = int(rng.integers(2, 7))
        counts = _random_counts(rng, m)
        n_cannot = int(rng.integers(1, 8))
        alpha, info = optimize_mixing_info(counts, n_cannot)
        total += 1
        if info.railed:
            continue  # boundary-divergent instances have no interior optimum
        if info.kkt_residual <= 1e-8 and info.n_steps <= 20:
            fast += 1
    assert fast / total >= 0.95


def test_boundary_divergent_instance_rails_to_vertex():
    # counts (4, 1) with two cannot-links: the objective increases toward
    # alpha -> (1, 0), so the optimizer must stop at the clipped boundary
    # rather than error out.
    counts = np.array([4.0, 1.0])
    alpha, info = optimize_mixing_info(counts, 2)
    grid_alpha, _ = grid_argmax_two_class(counts, 2)
    assert info.railed
    assert abs(alpha[0] - grid_alpha[0]) < 1e-4
    assert alpha[0] > 0.999


def test_zero_count_classes_stay_at_zero():
    counts = np.array([5.0, 0.0, 3.0])
    alpha, info = optimize_mixing_info(counts, 2)
    assert alpha[1] == 0.0
    assert abs(alpha.sum() - 1.0) < 1e-12


def test_single_supported_class_with_cannot_links_degenerate():
    with pytest.raises(DegenerateNormalizerError):
        optimize_mixing(np.array([3.0, 0.0]), 1)


def test_optimizer_never_leaves_simplex():
    rng = np.random.default_rng(315)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        counts = rng.uniform(0.0, 20.0, size=m)
        if np.count_nonzero(counts) < 2:
            counts[:2] = [1.0, 1.0]
        n_cannot = int(rng.integers(0, 6))
        alpha = optimize_mixing(counts, n_cannot)
        assert np.all(alpha >= 0.0)
        assert abs(alpha.sum() - 1.0) < 1e-9


def test_optimizer_improves_on_linear_start():
    rng = np.random.default_rng(316)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        counts = _random_counts(rng, m)
        n_cannot = int(rng.integers(1, 6))
        start = counts / counts.sum()
        alpha = optimize_mixing(counts, n_cannot)
        assert (
            mixing_objective(alpha, counts, n_cannot)
            >= mixing_objective(start, counts, n_cannot) - 1e-10
        )


def test_optimizer_deterministic():
    counts = np.array([7.0, 2.5, 4.0])
    a1, i1 = optimize_mixing_info(counts, 3)
    a2, i2 = optimize_mixing_info(counts, 3)
    np.testing.assert_array_equal(a1, a2)
    assert i1.n_steps == i2.n_steps


def _estep_counts(rng, m, n_unlinked, n_cannot):
    """Class counts as an E-step forms them: the posteriors of unlinked
    points plus both marginals of each cannot-link pair's zero-diagonal
    joint, so every class's complement mass is at least ``n_cannot``."""
    counts = rng.dirichlet(np.ones(m), size=n_unlinked).sum(axis=0)
    for _ in range(n_cannot):
        joint = rng.dirichlet(np.ones(m * m)).reshape(m, m)
        np.fill_diagonal(joint, 0.0)
        joint /= joint.sum()
        counts = counts + joint.sum(axis=0) + joint.sum(axis=1)
    return counts


def test_warm_start_never_descends_and_matches_cold_solve():
    # the EM engine starts each solve from the previous weights and relies
    # on the line search alone to keep the mixing update from lowering f;
    # at least one unlinked point keeps the maximizer unique (two classes
    # with cannot-links alone give c = (n, n), where f is constant)
    rng = np.random.default_rng(317)
    for _ in range(400):
        m = int(rng.integers(2, 9))
        n_cannot = int(rng.integers(1, 30))
        counts = _estep_counts(rng, m, int(rng.integers(1, 60)), n_cannot)
        alpha_old = rng.dirichlet(np.ones(m))
        f_old = mixing_objective(alpha_old, counts, n_cannot)
        warm = optimize_mixing(counts, n_cannot, alpha_old)
        f_warm = mixing_objective(warm, counts, n_cannot)
        assert f_warm >= f_old - 1e-12 * max(1.0, abs(f_old))
        np.testing.assert_allclose(warm, optimize_mixing(counts, n_cannot), rtol=0, atol=1e-6)


def test_two_class_interior_takes_closed_form():
    # with two classes 1 − Σα² = 2α₁α₂, so f is maximized at α ∝ c − n
    # whenever both counts exceed the cannot-link count
    rng = np.random.default_rng(318)
    for _ in range(300):
        n_cannot = int(rng.integers(1, 30))
        counts = _estep_counts(rng, 2, int(rng.integers(1, 60)), n_cannot)
        start = rng.dirichlet(np.ones(2)) if rng.random() < 0.5 else None
        alpha, info = optimize_mixing_info(counts, n_cannot, start)
        excess = counts - n_cannot
        want = excess / excess.sum()
        np.testing.assert_allclose(alpha, want, rtol=0, atol=1e-15)
        assert info.n_steps == 0
        assert info.kkt_residual <= 1e-12
        assert not info.railed
        assert info.objective == mixing_objective(alpha, counts, n_cannot)


def test_two_class_closed_form_on_two_class_support():
    # a class without mass is pinned to 0; the other two take the formula
    counts = np.array([30.0, 0.0, 10.0])
    alpha, info = optimize_mixing_info(counts, 4)
    np.testing.assert_allclose(alpha, [26 / 32, 0.0, 6 / 32], rtol=0, atol=1e-15)
    assert info.n_steps == 0 and alpha[1] == 0.0


def test_two_class_closed_form_equals_array_formula_bits():
    # the engine's two-class closed form runs on Python floats; it equals
    # the array formula np.maximum((c − n) / Σ(c − n), ALPHA_FLOOR),
    # renormalized, to the bit, on random counts (a third of them with a
    # count barely above n, where the floor clamps) and on a two-class
    # support of three classes
    rng = np.random.default_rng(319)
    clamped = 0
    for t in range(3000):
        n_cannot = int(rng.integers(1, 40))
        counts = n_cannot + rng.gamma(0.7, 30.0, size=2) + 1e-9
        if t % 3 == 0:
            counts[t % 2] = n_cannot + counts[1 - t % 2] * 10.0 ** -rng.uniform(9, 16)
        if t % 5 == 0:
            counts = np.insert(counts, int(rng.integers(3)), 0.0)
        support = counts > 0
        a = counts[support] - n_cannot
        a = np.maximum(a / a.sum(), ALPHA_FLOOR)
        a /= a.sum()
        want = np.zeros(counts.size)
        want[support] = a
        got, info = mixing._solve_mixing(counts, n_cannot, None)
        assert info is None
        assert np.array_equal(got, want)
        clamped += bool((a == a.min()).any() and a.min() < 2 * ALPHA_FLOOR)
    assert clamped > 500


def test_two_class_closed_form_clamps_at_floor():
    # a count barely above n gives a weight below the floor: it is clamped
    # and renormalized as the railed Newton path is, and reported railed
    alpha, info = optimize_mixing_info(np.array([50.0, 5.0 + 1e-13]), 5)
    assert info.n_steps == 0 and info.railed
    assert alpha[1] == pytest.approx(ALPHA_FLOOR, rel=1e-12)
    assert alpha.sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("counts, n_cannot", [
    ([30.0, 10.0], 40),  # both counts below n
    ([0.5, 0.3], 25),
    ([4.0, 1.0], 2),  # one count below n
    ([12.0, 5.0], 5),  # c₂ = n: f = 7·log α₁ + const rises toward e₁
    ([30.0, 10.0], 10),
])
def test_two_class_at_or_below_cannot_count_takes_newton_to_vertex(counts, n_cannot):
    # where some c_m ≤ n the formula would give a wrong interior point (or
    # divide by zero); projected Newton heads for the vertex instead
    counts = np.asarray(counts)
    alpha, info = optimize_mixing_info(counts, n_cannot)
    assert info.n_steps > 0
    assert alpha.max() > 1.0 - 1e-8
    assert int(np.argmax(alpha)) == int(np.argmax(counts))
    # below n it reaches the floor; at c₂ = n the KKT test, whose residual
    # is about α₂, stops it a few 1e-9 short of the floor
    assert info.railed == bool(counts.min() < n_cannot)


def test_three_classes_keep_newton_steps():
    alpha, info = optimize_mixing_info(np.array([24.0, 12.0, 4.0]), 4)
    assert info.n_steps > 0
    assert not info.railed
    assert info.kkt_residual <= 1e-8


@pytest.mark.parametrize("counts, alpha_init, error", [
    ([3.0, 2.0], [0.5, 0.3, 0.2], InvariantViolationError),  # wrong shape
    ([3.0, 2.0], [np.nan, 1.0], InvariantViolationError),
    ([3.0, 2.0], [-0.1, 1.1], InvariantViolationError),
    ([3.0, -2.0], None, InvariantViolationError),
    ([3.0, np.inf], None, NotFiniteError),
    ([0.0, 0.0], None, InvariantViolationError),
    ([[3.0, 2.0]], None, InvariantViolationError),
])
def test_public_solver_still_checks_its_arguments(counts, alpha_init, error):
    # the two-class closed form needs no start, but a bad one is still an error
    with pytest.raises(error):
        optimize_mixing_info(np.asarray(counts), 2, alpha_init)


def _nudged(rng, x):
    """``x`` with each entry moved by up to 2 ulps either way."""
    out = x.copy()
    for i, k in enumerate(rng.integers(-2, 3, size=x.size).tolist()):
        for _ in range(abs(k)):
            out[i] = np.nextafter(out[i], np.copysign(np.inf, k))
    return out


def test_newton_route_is_stable_under_ulp_moves():
    # 400 Newton-route solves (3 to 8 classes, cannot-links up to 30 % of
    # the mass, warm starts), each solved again with its counts and start
    # moved by up to 2 ulps: the polish steps take both solves to the same
    # maximizer, where the residual test alone stopped each of them
    # wherever rounding put it below the tolerance (weights moved by up to
    # 3.9e-9 without the polish)
    rng = np.random.default_rng(1)
    worst, solved = 0.0, 0
    for _ in range(400):
        m = int(rng.integers(3, 9))
        counts = rng.gamma(2.0, 10.0, size=m)
        n_cannot = max(1, int(rng.uniform(0.0, 0.3) * counts.sum()))
        start = rng.dirichlet(np.ones(m))
        a1, _ = optimize_mixing_info(counts, n_cannot, start)
        a2, _ = optimize_mixing_info(_nudged(rng, counts), n_cannot, _nudged(rng, start))
        worst = max(worst, float(np.abs(a1 - a2).max()))
        solved += 1
    assert solved == 400
    assert worst <= 1e-12
