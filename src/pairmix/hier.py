"""The EM engine, and the two-level model in which every class is its own
Gaussian mixture.

A class ``m`` carries sub-clusters ``k = 1..K_m`` with weights ``π_{m_k}``,
so one class can cover a curved, manifold-shaped region.  The pairwise
relations continue to act at the *class* level: a must-link pair shares a
single class label (each member keeps its own sub-cluster label), and a
cannot-link pair uses the zero-diagonal class-pair prior.

Internally the cluster axis is flattened over ``(class, cluster)`` with
offsets (see :class:`_Params`); the quantity
``B[n, m] = log Σ_k π_{m_k} N_{m_k}(x_n)`` — the within-class mixture
log-likelihood — plays the role the single log-density has in the flat
E-step, and the sub-cluster posterior ``r[n, (m,k)]`` factors every joint
table as ``(class table) × r``.

The flat model (:mod:`pairmix.flat`) is the case of one cluster per class
with ``log π = 0``: then ``B`` is the log-density itself and ``r = 1``.
Both models run through the one private engine here — the E-step, the
moments, the reseed of empty components, the fit loop, the log-likelihood
evaluator and the batch predictor.

Reseed policy: a cluster whose responsibility mass falls to ≤ ``Z_EPS`` is
moved to the point the model claims least, with the pooled data
covariance and weight 1; a class whose mixing count falls to ≤ ``Z_EPS``
gets count 1, so it can compete again in the mixing update.

Mixing update: one solve per iteration from the previous weights, whose
line search only ascends; a solve that fails keeps them, with a warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateNormalizerError,
    DimensionMismatchError,
    InvariantViolationError,
    KTooLargeError,
    LengthMismatchError,
    NoConvergenceError,
    NotFiniteError,
)
from .gaussian import (
    log_density_stack,
    log_sum_exp,
    regularize_covariances,
)
from .initialize import init_hier, make_rng
from .mixing import _solve_mixing
from .types import (
    ClassMixture,
    Dataset,
    FlatModel,
    HierModel,
    RelationSet,
    validate_relations,
)

Z_EPS = 1e-12
# float64 values in one M-step scatter temporary (16 MiB); see _scatter_stack
_BLOCK_FLOATS = 1 << 21
# float64 values in one row block of a component's scatter sum; see _scatter_stack
_ROW_FLOATS = 1 << 13


@dataclass(frozen=True)
class CannotLinkPrior:
    """Joint prior over the class labels of a cannot-link pair.

    ``table[m, m'] = α_m α_{m'} / norm`` off the diagonal, exactly zero on
    it, with ``norm = 1 − Σ_m α_m²`` so the table sums to one.
    """

    table: np.ndarray
    norm: float

    def __post_init__(self):
        table = np.array(self.table, dtype=float)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)


def cannotlink_prior(alpha) -> CannotLinkPrior:
    """Build the zero-diagonal pair prior for mixing weights ``alpha``.

    Raises :class:`DegenerateNormalizerError` when fewer than two classes
    exist or the weights are concentrated on one class (norm ≤ 1e-12).
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1:
        raise InvariantViolationError("alpha must be a 1-D vector")
    if alpha.size < 2:
        raise DegenerateNormalizerError(
            "cannot-link prior needs at least two classes"
        )
    if not np.isfinite(alpha).all():
        raise NotFiniteError("alpha contains non-finite entries")
    norm = _cannot_norm(alpha)
    table = np.outer(alpha, alpha) / norm
    np.fill_diagonal(table, 0.0)
    return CannotLinkPrior(table=table, norm=norm)


def _cannot_norm(alpha: np.ndarray) -> float:
    """The pair prior's normalizer ``1 − Σ_m α_m²``, which must clear 1e-12."""
    norm = 1.0 - float(alpha @ alpha)
    if norm <= 1e-12:
        raise DegenerateNormalizerError(
            f"cannot-link prior normalizer {norm!r} is not positive; "
            "mixing weights are concentrated on a single class"
        )
    return norm


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the EM loop.

    ``tol`` is the relative log-likelihood change that counts as converged;
    ``ridge_floor`` the relative covariance ridge (scaled by mean variance);
    ``seed`` drives initialization when no explicit starting model is
    supplied; ``count_linked_as_unsupervised`` also counts relation members
    as independent points (see :mod:`pairmix.flat`).
    """

    max_iters: int = 500
    tol: float = 1e-8
    ridge_floor: float = 1e-6
    seed: int = 0
    count_linked_as_unsupervised: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvariantViolationError("max_iters must be >= 1")
        if not self.tol > 0:
            raise InvariantViolationError("tol must be > 0")
        if not self.ridge_floor > 0:
            raise InvariantViolationError("ridge_floor must be > 0")


@dataclass(frozen=True)
class FitTrace:
    """Per-iteration observed-data log-likelihood trail.

    ``log_likelihoods[0]`` is the value at initialization, followed by one
    entry per EM iteration.  The sequence is nondecreasing except on
    iterations that needed an empty-component reseed or covariance ridge
    (recorded in ``warnings``, in component order within an iteration).
    """

    log_likelihoods: tuple[float, ...]
    n_iters: int
    converged: bool
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# model arrays and relation plan


class _Params(NamedTuple):
    """A model's arrays over the flattened ``(class, cluster)`` axis.

    ``offsets[m] : offsets[m + 1]`` slices out class ``m`` and
    ``class_of[c]`` is the class of cluster ``c``.  A fit carries these
    from iteration to iteration and builds the public model once, at the
    end.
    """

    alpha: np.ndarray
    log_alpha: np.ndarray
    pi: np.ndarray
    log_pi: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    chols: np.ndarray
    log_dets: np.ndarray
    offsets: np.ndarray
    class_of: np.ndarray


def _log(a: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(a)


def _flat_params(model: FlatModel) -> _Params:
    """A flat model read as one cluster per class with ``log π = 0``."""
    m = model.n_classes
    return _Params(
        model.alpha, _log(model.alpha), np.ones(m), np.zeros(m),
        model.means, model.covs, model.chols, model.log_dets,
        np.arange(m + 1), np.arange(m),
    )


def _hier_params(model: HierModel) -> _Params:
    def stack(name):
        return np.concatenate([getattr(c, name) for c in model.classes])

    pi = stack("pi")
    return _Params(
        model.alpha, _log(model.alpha), pi, _log(pi),
        stack("means"), stack("covs"), stack("chols"), stack("log_dets"),
        model.cluster_offsets,
        np.repeat(np.arange(model.n_classes), model.cluster_counts),
    )


def _updated_params(p: _Params, alpha, pi, means, covs, chols) -> _Params:
    """``p`` with the parameters of a fit's M-step (``pi > 0``) and the
    Cholesky factors of its covariances."""
    log_dets = 2.0 * np.log(np.diagonal(chols, axis1=-2, axis2=-1)).sum(axis=-1)
    return p._replace(
        alpha=alpha, log_alpha=_log(alpha), pi=pi, log_pi=np.log(pi),
        means=means, covs=covs, chols=chols, log_dets=log_dets,
    )


class _RelationPlan(NamedTuple):
    """Index arrays and gathered point blocks of one (dataset, relations) pair.

    Nothing here changes between EM iterations, so a fit builds it once.
    ``xu`` holds the points of the independent factor, ``xi`` / ``xj`` the
    must-link members and ``xa`` / ``xb`` the cannot-link members.
    """

    unsup_idx: np.ndarray
    must_pairs: np.ndarray
    cannot_pairs: np.ndarray
    xu: np.ndarray
    xi: np.ndarray
    xj: np.ndarray
    xa: np.ndarray
    xb: np.ndarray


def _relation_plan(
    dataset: Dataset, relations: RelationSet, count_linked_as_unsupervised: bool
) -> _RelationPlan:
    """Plan for ``relations`` as given (callers validate them first).  The
    independent factor takes the unlinked points, or every point with
    ``count_linked_as_unsupervised``."""
    unlinked = np.ones(dataset.n, dtype=bool)
    if not (count_linked_as_unsupervised or relations.is_empty()):
        unlinked[relations.linked_indices()] = False
    points, unsup_idx = dataset.points, np.flatnonzero(unlinked)
    must_pairs = np.asarray(relations.must, dtype=np.int64).reshape(-1, 2)
    cannot_pairs = np.asarray(relations.cannot, dtype=np.int64).reshape(-1, 2)
    return _RelationPlan(
        unsup_idx, must_pairs, cannot_pairs,
        points[unsup_idx],
        points[must_pairs[:, 0]], points[must_pairs[:, 1]],
        points[cannot_pairs[:, 0]], points[cannot_pairs[:, 1]],
    )


def _checked_relations(relations: RelationSet, dataset: Dataset, n_classes: int):
    relations = validate_relations(relations, dataset.n)
    if relations.cannot and n_classes < 2:
        raise DegenerateNormalizerError("cannot-links require at least two classes")
    return relations


# ---------------------------------------------------------------------------
# E-step


def _cluster_tables(p: _Params, points: np.ndarray):
    """Within-class log-likelihoods ``B`` (N, M) and sub-cluster posteriors
    ``r`` (N, total clusters) of ``points``; ``r`` is ``None`` when every
    class has one cluster, where ``B`` is the log-density itself (a
    log-sum-exp over one slot returns that slot)."""
    weighted = p.log_pi + log_density_stack(points, p.means, p.chols, p.log_dets)
    n_classes, class_of = p.alpha.size, p.class_of
    if class_of.size == n_classes:
        return weighted, None
    # one log-sum-exp over a (N, M, max K_m) table whose unused slots hold
    # -inf: they add exact zeros, so each class reduces as its own slice would
    slot = np.arange(class_of.size) - p.offsets[class_of]
    table = np.full((points.shape[0], n_classes, slot.max() + 1), -np.inf)
    table[:, class_of, slot] = weighted
    b = log_sum_exp(table, axis=2)
    return b, np.exp(weighted - b[:, class_of])


def _normalized_rows(w: np.ndarray):
    """Posterior rows ``exp(w - lse)`` and their log-normalizers ``lse``."""
    if not w.shape[0]:
        return np.zeros(w.shape), np.zeros(0)
    flat = w.reshape(w.shape[0], -1)
    lse = log_sum_exp(flat, axis=1)
    return np.exp(flat - lse[:, None]).reshape(w.shape), lse


class _EStep(NamedTuple):
    """One E-step: ``b`` / ``r`` of every point (see :func:`_cluster_tables`),
    the posterior tables, one row per entry of the plan, and the
    observed-data log-likelihood of the model — the sum of the class-level
    tables' log-normalizers.

    ``unsup``, ``must_i`` / ``must_j`` and ``cannot_a`` / ``cannot_b`` are
    cluster-level tables over the flattened ``(class, cluster)`` axis, for
    the unlinked points, the must-link members and the cannot-link members;
    each ``*_class`` table is the class marginal of its cluster-level table
    (``must_class`` is the one shared by both members of a pair), and
    ``cannot_class_joint`` is the M×M class-pair posterior of a cannot-link
    pair, zero on its diagonal."""

    b: np.ndarray
    r: np.ndarray | None
    unsup: np.ndarray
    unsup_class: np.ndarray
    must_i: np.ndarray
    must_j: np.ndarray
    must_class: np.ndarray
    cannot_a: np.ndarray
    cannot_b: np.ndarray
    cannot_a_class: np.ndarray
    cannot_b_class: np.ndarray
    cannot_class_joint: np.ndarray
    log_likelihood: float


def _estep(p: _Params, points: np.ndarray, plan: _RelationPlan) -> _EStep:
    """E-step over ``points`` with one density pass."""
    n_classes, class_of = p.alpha.size, p.class_of
    b, r = _cluster_tables(p, points)

    def spread(class_table, idx):
        # cluster-level table: class posterior × sub-cluster posterior
        return class_table if r is None else class_table[:, class_of] * r[idx]

    u = plan.unsup_idx
    i, j = plan.must_pairs[:, 0], plan.must_pairs[:, 1]
    # the unlinked-point rows and the must-link rows, normalized in one pass
    rows, lse = _normalized_rows(
        np.concatenate([p.log_alpha + b[u], p.log_alpha + b[i] + b[j]])
    )
    marg, must_class = rows[: u.size], rows[u.size :]
    ll = float(lse[: u.size].sum()) + float(lse[u.size :].sum())

    a_idx, b_idx = plan.cannot_pairs[:, 0], plan.cannot_pairs[:, 1]
    if a_idx.size:
        # log cannotlink_prior(alpha).table, from the carried log α
        log_prior = p.log_alpha[:, None] + p.log_alpha - np.log(_cannot_norm(p.alpha))
        np.fill_diagonal(log_prior, -np.inf)
        w = (
            log_prior[None, :, :]
            + b[a_idx][:, :, None]
            + b[b_idx][:, None, :]
        )
        class_joint, lse = _normalized_rows(w)
        ll += float(lse.sum())
    else:
        class_joint = np.zeros((0, n_classes, n_classes))
    d_a_class = class_joint.sum(axis=2)
    d_b_class = class_joint.sum(axis=1)
    return _EStep(
        b, r, spread(marg, u), marg,
        spread(must_class, i), spread(must_class, j), must_class,
        spread(d_a_class, a_idx), spread(d_b_class, b_idx),
        d_a_class, d_b_class, class_joint,
        ll,
    )


_MUST_PAIR = RelationSet(must=((0, 1),))
_CANNOT_PAIR = RelationSet(cannot=((0, 1),))


def _point_estep(p: _Params, relations: RelationSet, **named_points) -> _EStep:
    """E-step over the named points alone: one independent point, or a pair
    linked by ``relations`` (as indices 0 and 1)."""
    dim = p.means.shape[1]
    points = []
    for name, x in named_points.items():
        x = np.asarray(x, dtype=float)
        if x.shape != (dim,):
            raise DimensionMismatchError(f"{name} has shape {x.shape}, expected ({dim},)")
        if not np.all(np.isfinite(x)):
            raise NotFiniteError(f"{name} contains non-finite entries")
        points.append(x)
    points = np.stack(points)
    return _estep(p, points, _relation_plan(Dataset(points), relations, False))


def _split(model: HierModel, flat_row: np.ndarray) -> list[np.ndarray]:
    offsets = model.cluster_offsets
    return [flat_row[offsets[m] : offsets[m + 1]] for m in range(model.n_classes)]


def hier_resp_unsupervised(model: HierModel, x):
    """Joint class/cluster posterior of an independent point.

    Returns ``(joint, marginal)``: ``joint[m]`` is the length-``K_m`` table
    ``p(z^m, y^{m_k} | x) ∝ α_m π_{m_k} N_{m_k}(x)`` and ``marginal`` its
    per-class sums.
    """
    e = _point_estep(_hier_params(model), RelationSet(), x=x)
    return _split(model, e.unsup[0]), e.unsup_class[0]


def hier_resp_mustlink(model: HierModel, x_i, x_j):
    """Posteriors of a must-link pair sharing one class label.

    Returns ``(joint_i, joint_j, class_marginal)`` where the shared class
    posterior weighs ``α_m`` by both members' within-class mixture
    likelihoods, and each member's sub-cluster label is conditionally
    independent given the class.
    """
    e = _point_estep(_hier_params(model), _MUST_PAIR, x_i=x_i, x_j=x_j)
    return _split(model, e.must_i[0]), _split(model, e.must_j[0]), e.must_class[0]


def hier_resp_cannotlink(model: HierModel, x_a, x_b):
    """Posteriors of a cannot-link pair under the zero-diagonal class prior.

    Returns ``(joint_a, joint_b, d_a, d_b, class_joint)``: per-member joint
    class/cluster tables, their class marginals, and the M×M class-pair
    posterior.
    """
    e = _point_estep(_hier_params(model), _CANNOT_PAIR, x_a=x_a, x_b=x_b)
    return (
        _split(model, e.cannot_a[0]), _split(model, e.cannot_b[0]),
        e.cannot_a_class[0], e.cannot_b_class[0], e.cannot_class_joint[0],
    )


# ---------------------------------------------------------------------------
# M-step


def _class_counts(unsup, must_class, cannot_a_class, cannot_b_class, offsets):
    """Class counts ``c_m`` for the mixing-weight update: each must-link
    pair contributes its shared weight once, each cannot-link pair both
    marginals."""
    return (
        np.add.reduceat(unsup.sum(axis=0), offsets[:-1])
        + must_class.sum(axis=0)
        + cannot_a_class.sum(axis=0)
        + cannot_b_class.sum(axis=0)
    )


def _scatter_stack(terms, idx: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Weighted scatter matrices of components ``idx`` around ``centers``
    (one row per component) → (len(idx), d, d).

    Each component's matrix is ``Σ (dev * w).T @ dev`` over the rows of
    every term, summed in row blocks of ``_ROW_FLOATS // d`` rows in one
    fixed order, row block, then term, so results are bit-reproducible.
    A term of at most one block adds its whole-term product, as a
    component computed alone would.

    Components are processed in groups, with one batched product per group,
    row block and term.  A group holds as many components as keep its
    ``(group, rows, d)`` deviations and their weighted copy within
    ``_BLOCK_FLOATS`` values each, and at least one, so the temporaries
    stay bounded as N and the component count grow while a small fit takes
    a single group.
    """
    d = centers.shape[1]
    total = np.zeros((idx.size, d, d))
    span = max(1, _ROW_FLOATS // d)
    longest = max((pts.shape[0] for pts, _ in terms), default=1)
    rows = min(span, longest)
    step = max(1, _BLOCK_FLOATS // (rows * d))
    for lo in range(0, idx.size, step):
        group = slice(lo, lo + step)
        cols = idx[group]
        # each centre repeated once per row: the subtraction then runs over
        # a whole flattened block instead of d values at a time
        tiled = np.tile(centers[group], (1, rows))
        for start in range(0, longest, span):
            for pts, wts in terms:
                part = pts[start:start + span]
                k = part.shape[0]
                if k:
                    dev = (part.reshape(1, -1) - tiled[:, :k * d]).reshape(-1, k, d)
                    w = wts[start:start + span, cols].T[:, :, None]
                    total[group] += (dev * w).transpose(0, 2, 1) @ dev
    return total


def _mstep(plan: _RelationPlan, tables, total: int, ridge_floor: float):
    """Closed-form M-step from the cluster-level posteriors ``tables`` of
    the plan's point blocks ``(xu, xi, xj, xa, xb)`` over ``total``
    flattened clusters.  Each must-link member carries its own weight, so a
    flat must-link pair counts twice (two points, one shared weight).

    Returns ``(weight, empty, means, covs, chols, ridges)``: the weights,
    the clusters whose weight is ≤ ``Z_EPS``, and the means, regularized
    covariances, their Cholesky factors and ridges.  The rows of the empty
    clusters are unset; the caller reseeds them or rejects the step.
    """
    blocks = (plan.xu, plan.xi, plan.xj, plan.xa, plan.xb)
    terms = [(pts, wts) for pts, wts in zip(blocks, tables) if pts.shape[0]]
    d = plan.xu.shape[1]
    weight = np.zeros(total)
    first = np.zeros((total, d))
    for pts, wts in terms:
        weight += wts.sum(axis=0)
        first += wts.T @ pts
    is_empty = weight <= Z_EPS
    live = np.flatnonzero(~is_empty)
    means = np.empty((total, d))
    covs = np.empty((total, d, d))
    chols = np.empty((total, d, d))
    ridges = np.zeros(total)
    means[live] = first[live] / weight[live, None]
    raw = _scatter_stack(terms, live, means[live]) / weight[live, None, None]
    covs[live], ridges[live], chols[live] = regularize_covariances(raw, ridge_floor)
    return weight, np.flatnonzero(is_empty), means, covs, chols, ridges


# ---------------------------------------------------------------------------
# observed-data log-likelihood


def _log_likelihood(p: _Params, dataset, relations, count_linked_as_unsupervised) -> float:
    """The E-step's sum of log-normalizers: the log-likelihood with every
    latent label marginalized."""
    relations = _checked_relations(relations, dataset, p.alpha.size)
    plan = _relation_plan(dataset, relations, count_linked_as_unsupervised)
    return _estep(p, dataset.points, plan).log_likelihood


def log_likelihood_hier(
    model: HierModel,
    dataset: Dataset,
    relations: RelationSet,
    *,
    count_linked_as_unsupervised: bool = False,
) -> float:
    """Hierarchical analog of :func:`pairmix.flat.log_likelihood` with the
    within-class mixture likelihood in place of the single density."""
    return _log_likelihood(
        _hier_params(model), dataset, relations, count_linked_as_unsupervised
    )


# ---------------------------------------------------------------------------
# fit loop


def _pooled_covariance(dataset: Dataset, ridge_floor: float):
    """The regularized pooled data covariance and its Cholesky factor."""
    dev = dataset.points - dataset.points.mean(axis=0)
    covs, _, chols = regularize_covariances((dev.T @ dev / dataset.n)[None], ridge_floor)
    return covs[0], chols[0]


def _safeguarded_mixing(counts: np.ndarray, n_cannot: int, alpha_old: np.ndarray,
                        warnings: list[str], iteration: int) -> np.ndarray:
    """Mixing update that never decreases the concentrated objective: one
    solve started from the previous weights, whose line search accepts
    only ascent steps (two classes take the exact maximizer).  A solve that
    cannot converge keeps the previous weights and logs it.  The counts come
    from the fit's own E-step, so the solver's argument checks are skipped."""
    try:
        return _solve_mixing(counts, n_cannot, alpha_old)[0]
    except NoConvergenceError:
        warnings.append(f"iteration {iteration}: mixing update made no progress; "
                        "kept previous weights")
        return alpha_old


def _fit(dataset: Dataset, relations: RelationSet, p: _Params, config: FitConfig,
         name_of: Callable[[int], str]) -> tuple[_Params, FitTrace]:
    """EM from ``p`` on validated relations; ``name_of(c)`` names cluster
    ``c`` in the warnings.  Returns the final arrays and the trace."""
    plan = _relation_plan(dataset, relations, config.count_linked_as_unsupervised)
    offsets, class_of = p.offsets, p.class_of
    bounds = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
    total = class_of.size
    one_cluster = total == len(bounds)
    warnings: list[str] = []
    # each E-step also yields the log-likelihood of the model it starts from
    e = _estep(p, dataset.points, plan)
    trace = [e.log_likelihood]
    converged = False
    n_iters = 0

    for iteration in range(1, config.max_iters + 1):
        weight, empty, means, covs, chols, ridges = _mstep(
            plan, (e.unsup, e.must_i, e.must_j, e.cannot_a, e.cannot_b), total,
            config.ridge_floor,
        )
        class_counts = _class_counts(
            e.unsup, e.must_class, e.cannot_a_class, e.cannot_b_class, offsets
        )
        # warnings keyed by flattened cluster, reported in (class, cluster) order
        notes = {
            c: f"covariance of {name_of(c)} was degenerate; ridged by {r:.2e}"
            for c, r in enumerate(ridges.tolist())
            if r > 0.0
        }
        if empty.size:
            # reseed each dead cluster at the point the model currently
            # claims least, with the pooled covariance and unit weight
            w_all = p.log_alpha + e.b
            marg = np.exp(w_all - log_sum_exp(w_all, axis=1)[:, None])
            claimed = (marg if e.r is None else marg[:, class_of] * e.r).max(axis=1)
            order = np.argsort(claimed)
            pooled, pooled_chol = _pooled_covariance(dataset, config.ridge_floor)
            for rank, c in enumerate(empty.tolist()):
                target = int(order[rank % order.size])
                means[c] = dataset.points[target]
                covs[c], chols[c] = pooled, pooled_chol
                weight[c] = 1.0
                notes[c] = (
                    f"{name_of(c)} lost all responsibility mass; "
                    f"reseeded at point {target}"
                )
        warnings.extend(f"iteration {iteration}: {notes[c]}" for c in sorted(notes))

        class_counts[class_counts <= Z_EPS] = 1.0
        # π: each cluster's share of its class (1 with one cluster per class)
        pi = weight / (weight if one_cluster else
                       np.array([weight[lo:hi].sum() for lo, hi in bounds])[class_of])
        alpha = _safeguarded_mixing(
            class_counts, relations.n_cannot, p.alpha, warnings, iteration
        )
        p = _updated_params(p, alpha, pi, means, covs, chols)

        e = _estep(p, dataset.points, plan)
        ll_prev, ll = trace[-1], e.log_likelihood
        trace.append(ll)
        n_iters = iteration
        if abs(ll - ll_prev) <= config.tol * (1.0 + abs(ll_prev)):
            converged = True
            break

    return p, FitTrace(
        log_likelihoods=tuple(trace),
        n_iters=n_iters,
        converged=converged,
        warnings=tuple(warnings),
    )


def _normalize_cluster_counts(n_classes: int, clusters_per_class) -> tuple[int, ...]:
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


def fit_hier(
    dataset: Dataset,
    relations: RelationSet,
    n_classes: int,
    clusters_per_class,
    config: FitConfig | None = None,
    *,
    init: HierModel | None = None,
) -> tuple[HierModel, FitTrace]:
    """EM loop for the two-level model; mirrors :func:`pairmix.flat.fit_flat`.

    ``clusters_per_class`` is an int applied to every class or a per-class
    sequence.  Class mixing weights are re-optimized each iteration from
    the class-marginal counts; cluster weights π use the closed-form ratio.
    """
    config = config or FitConfig()
    if n_classes < 1:
        raise InvariantViolationError("need at least one class")
    counts_per_class = _normalize_cluster_counts(n_classes, clusters_per_class)
    if dataset.n < sum(counts_per_class):
        raise KTooLargeError(
            f"cannot fit {sum(counts_per_class)} clusters to {dataset.n} points"
        )
    relations = _checked_relations(relations, dataset, n_classes)
    if init is None:
        init = init_hier(
            dataset, n_classes, counts_per_class, make_rng(config.seed),
            config.ridge_floor,
        )
    elif init.n_classes != n_classes or init.cluster_counts != counts_per_class:
        raise InvariantViolationError(
            "init does not match the requested class/cluster structure"
        )
    elif init.dim != dataset.dim:
        raise DimensionMismatchError(
            f"init dimension {init.dim} does not match data dimension {dataset.dim}"
        )

    offsets = init.cluster_offsets

    def cluster_name(c: int) -> str:
        m = int(np.searchsorted(offsets, c, side="right")) - 1
        return f"cluster {c - offsets[m]} of class {m}"

    p, trace = _fit(dataset, relations, _hier_params(init), config, cluster_name)
    classes = tuple(
        ClassMixture(pi=p.pi[lo:hi], means=p.means[lo:hi], covs=p.covs[lo:hi])
        for lo, hi in zip(offsets[:-1], offsets[1:])
    )
    return HierModel(alpha=p.alpha, classes=classes), trace


def _predict_batch(p: _Params, points) -> np.ndarray:
    """Class-marginal posteriors of the rows of ``points`` → (N, M)."""
    points = np.asarray(points, dtype=float)
    dim = p.means.shape[1]
    if points.ndim != 2 or points.shape[1] != dim:
        raise DimensionMismatchError(
            f"points have shape {points.shape}, expected (N, {dim})"
        )
    if not np.all(np.isfinite(points)):
        raise NotFiniteError("points contain non-finite entries")
    b, _ = _cluster_tables(p, points)
    w = p.log_alpha + b
    return np.exp(w - log_sum_exp(w, axis=1)[:, None])


def predict_hier(model: HierModel, x) -> np.ndarray:
    """Soft class label of a point: the class-marginal posterior."""
    _, marginal = hier_resp_unsupervised(model, x)
    return marginal


def predict_hier_batch(model: HierModel, points) -> np.ndarray:
    """Row-wise class-marginal posteriors → (N, M) table."""
    return _predict_batch(_hier_params(model), points)
