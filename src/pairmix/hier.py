"""The EM engine, and the two-level model in which every class is its own
Gaussian mixture.

A class ``m`` carries sub-clusters ``k = 1..K_m`` with weights ``π_{m_k}``,
so one class can cover a curved, manifold-shaped region.  The pairwise
relations continue to act at the *class* level: a must-link pair shares a
single class label (each member keeps its own sub-cluster label), and a
cannot-link pair uses the zero-diagonal class-pair prior.

Internally the cluster axis is flattened over ``(class, cluster)`` with
offsets (see :class:`_Params`); the quantity
``B[m, n] = log Σ_k π_{m_k} N_{m_k}(x_n)`` — the within-class mixture
log-likelihood — plays the role the single log-density has in the flat
E-step, and the sub-cluster posterior ``r[(m,k), n]`` factors every joint
table as ``(class table) × r``.

Every table is component-major, (components, N): a normalization over the
classes is then a few elementwise passes over contiguous rows, not a
reduction along a short trailing axis.

The relations act in the E-step only.  Its class-level tables, one column
per factor, add up per point into one expected-count table (total
clusters, N) — a point's class posteriors summed over every factor it is
in, times ``r`` — and the M-step is the ordinary weighted-GMM update over
the dataset's own points with those weights (Shental et al., NIPS 2003,
make the same split for equivalence constraints).

The flat model (:mod:`pairmix.flat`) is the case of one cluster per class
with ``log π = 0``: then ``B`` is the log-density itself and ``r = 1``.
Both models run through the one private engine here — the E-step, the
moments, the reseed of empty components, the fit loop, the log-likelihood
evaluator and the batch predictor.

Arguments are checked at the edges (the public fit, likelihood and
posterior functions); inside the loop the engine calls the unchecked cores
of :mod:`pairmix.gaussian` (``_log_density_stack``, ``_regularize_covariances``)
and :mod:`pairmix.mixing`, and what does not change between iterations —
the relation plan with its pair-member index — is built once per fit.  The
entry points (the fit loop, the point and batch posteriors and the
log-likelihood) run under ``np.errstate(over="ignore")``: a density, scatter
or covariance floor past float64 becomes ``inf`` without a warning, which
the finiteness guards turn into :class:`NotFiniteError`.

Small fits are bound by numpy's per-call cost, not by arithmetic, so the
density of an input that fits in one row block (see :mod:`pairmix.gaussian`)
makes one batched product with no block bookkeeping: the operations of the
blocked path on one block, so every fit is the same to the bit whichever
path it takes.

Every table — a class's rows of the cluster table, and the point,
must-link and cannot-link class tables — goes through one in-place softmax
(:func:`_normalize`) whatever its size.  A column of ``-inf``, zero density
under every row, gets posteriors 0 and log-normalizer ``-inf`` there.  In a
cluster table that only zeroes the class's posterior; in a class table it
is a point or pair with no posterior, for which the E-step's
log-likelihood and the batch class posteriors raise
:class:`NotFiniteError`.

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
    NoConvergenceError,
    NotFiniteError,
)
from .gaussian import (
    DEFAULT_RIDGE,
    _log_density_stack,
    _regularize_covariances,
)
from .initialize import _normalize_cluster_counts, init_hier, make_rng
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
_LOWEST = np.finfo(float).min
_ZERO_DENSITY = ("a point or pair has zero density under every class (it lies too "
                 "far outside the model's scale); its posterior and the likelihood "
                 "are undefined")
# float64 values in one row block of a component's scatter sum; see _scatter_stack
_ROW_FLOATS = 1 << 13
# the engine's entry points ignore overflow (see the module docstring)
_overflow_to_inf = np.errstate(over="ignore")


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
    ridge_floor: float = DEFAULT_RIDGE
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
    """``p`` with the parameters of a fit's M-step (``alpha > 0``, ``pi > 0``)
    and the Cholesky factors of its covariances."""
    log_dets = 2.0 * np.log(np.diagonal(chols, axis1=-2, axis2=-1)).sum(axis=-1)
    return _Params(alpha, np.log(alpha), pi, np.log(pi),
                   means, covs, chols, log_dets, p.offsets, p.class_of)


class _RelationPlan(NamedTuple):
    """Index arrays of one (dataset, relations) pair: the points of the
    independent factor, the other points, the must-link and cannot-link
    pairs (L, 2), and every pair member in the column order of
    :func:`_responsibilities`' pair rows.

    Nothing here changes between EM iterations, so a fit builds it once.
    """

    unsup_idx: np.ndarray
    linked_idx: np.ndarray
    must_pairs: np.ndarray
    cannot_pairs: np.ndarray
    members: np.ndarray


def _relation_plan(
    dataset: Dataset, relations: RelationSet, count_linked_as_unsupervised: bool
) -> _RelationPlan:
    """Plan for ``relations`` as given (callers validate them first).  The
    independent factor takes the unlinked points, or every point with
    ``count_linked_as_unsupervised``."""
    must = np.asarray(relations.must, dtype=np.int64).reshape(-1, 2)
    cannot = np.asarray(relations.cannot, dtype=np.int64).reshape(-1, 2)
    members = np.concatenate([must.T.ravel(), cannot.T.ravel()])
    unlinked = np.ones(dataset.n, dtype=bool)
    if not count_linked_as_unsupervised:
        unlinked[members] = False
    return _RelationPlan(
        np.flatnonzero(unlinked), np.flatnonzero(~unlinked), must, cannot, members
    )


def _checked_relations(relations: RelationSet, dataset: Dataset, n_classes: int):
    relations = validate_relations(relations, dataset.n)
    if relations.cannot and n_classes < 2:
        raise DegenerateNormalizerError("cannot-links require at least two classes")
    return relations


# ---------------------------------------------------------------------------
# E-step


def _cluster_tables(p: _Params, points: np.ndarray):
    """Within-class log-likelihoods ``B`` (M, N) and sub-cluster posteriors
    ``r`` (total clusters, N) of ``points``; ``r`` is ``None`` when every
    class has one cluster, where ``B`` is the log-density itself.  Each
    class normalizes its rows of the density kernel's (C, N) buffer in
    place (see :func:`_normalize`), which leaves ``r`` in that buffer.  A
    point with zero density under every cluster of a class gets ``B = -inf``
    there and ``r = 0``: whether it has a posterior at all is decided by the
    class table."""
    weighted = _log_density_stack(points, p.means, p.chols, p.log_dets).T
    weighted += p.log_pi[:, None]
    n_classes, offsets = p.alpha.size, p.offsets.tolist()
    if p.class_of.size == n_classes:
        return weighted, None
    b = np.empty((n_classes, points.shape[0]))
    for m in range(n_classes):
        b[m] = _normalize(weighted[offsets[m]:offsets[m + 1]])
    return b, weighted


def _normalize(w: np.ndarray) -> np.ndarray:
    """Turn the columns of the log table ``w`` (K, n) into posteriors in
    place: subtract each column's max, exponentiate, divide by the column
    sums.  Returns the log-normalizers ``lse = log(sum) + max`` (n,), equal
    to ``log_sum_exp(w, axis=0)`` bit for bit.

    The division happens in the shifted space, so a column's posteriors sum
    to 1 even where its max is so large that ``lse`` rounds to it.  A column
    of ``-inf`` (zero density under every row) gets ``lse = -inf`` and
    posteriors 0; the caller decides whether that is an error.  A NaN or
    ``+inf`` entry raises :class:`NotFiniteError`."""
    hi = w.max(axis=0)
    # a column of -inf is shifted by the lowest float instead, which keeps
    # it -inf, so its exponentials and its sum are 0
    shift = np.maximum(hi, _LOWEST)
    if not np.isfinite(shift).all():  # a NaN or +inf max
        raise NotFiniteError("log_sum_exp input contains NaN or +inf")
    w -= shift
    np.exp(w, out=w)
    total = w.sum(axis=0, out=shift)  # the shift is spent: reuse its buffer
    # a live column's sum holds its max row's exp(0) = 1, so this changes
    # only the sums of the columns of -inf, whose posteriors stay 0
    np.maximum(total, 1.0, out=total)
    w /= total
    lse = np.log(total)
    lse += hi
    return lse


def _class_posteriors(p: _Params, points: np.ndarray):
    """Class posteriors (M, N) of ``points`` as independent points, and
    their sub-cluster posteriors ``r`` (see :func:`_cluster_tables`)."""
    b, r = _cluster_tables(p, points)
    b += p.log_alpha[:, None]
    if (_normalize(b) == -np.inf).any():
        raise NotFiniteError(_ZERO_DENSITY)
    return b, r


class _EStep(NamedTuple):
    """One E-step: the class posterior tables, one column per point or
    pair, ``r`` of every point (see :func:`_cluster_tables`) and the
    observed-data log-likelihood — the sum of the tables' log-normalizers.

    ``unsup`` (M, N) holds the independent points' posteriors and zeros in
    the columns of the points outside that factor, ``must`` (M, L) the
    posterior a must-link pair shares, ``cannot_a`` / ``cannot_b`` (M, P)
    the marginals of the cannot-link members and ``cannot_joint`` (M, M, P)
    a cannot-link pair's class-pair posterior, zero on its diagonal.  A
    member's cluster-level table is its class table times its column of
    ``r`` (see :func:`_responsibilities`)."""

    unsup: np.ndarray
    r: np.ndarray | None
    must: np.ndarray
    cannot_a: np.ndarray
    cannot_b: np.ndarray
    cannot_joint: np.ndarray
    log_likelihood: float


def _estep(p: _Params, points: np.ndarray, plan: _RelationPlan) -> _EStep:
    """E-step over ``points`` with one density pass: the pair members'
    columns of ``B`` are gathered with one ``take`` over ``plan.members``,
    then ``log α + B`` is normalized in place for all N points."""
    n_classes = p.alpha.size
    log_alpha = p.log_alpha[:, None]
    b, r = _cluster_tables(p, points)
    n_must, n_cannot = len(plan.must_pairs), len(plan.cannot_pairs)
    # columns i then j of the must-links, a then b of the cannot-links
    pairs = b.take(plan.members, axis=1)
    split = 2 * n_must + n_cannot
    b_i, b_j = pairs[:, :n_must], pairs[:, n_must:2 * n_must]
    b_a, b_b = pairs[:, 2 * n_must:split], pairs[:, split:]
    no_pairs = np.empty((n_classes, 0))  # the tables of a factor with no pair
    must = log_alpha + b_i + b_j if n_must else no_pairs
    b += log_alpha
    ll = float(_normalize(b)[plan.unsup_idx].sum())
    b[:, plan.linked_idx] = 0.0
    if n_must:
        ll += float(_normalize(must).sum())
    if n_cannot:
        # log cannotlink_prior(alpha).table, from the carried log α
        log_prior = log_alpha + p.log_alpha - np.log(_cannot_norm(p.alpha))
        np.fill_diagonal(log_prior, -np.inf)
        joint = log_prior[:, :, None] + b_a[:, None, :] + b_b[None, :, :]
        ll += float(_normalize(joint.reshape(n_classes**2, -1)).sum())
        cannot_a, cannot_b = joint.sum(axis=1), joint.sum(axis=0)
    else:
        joint, cannot_a, cannot_b = np.empty((n_classes, n_classes, 0)), no_pairs, no_pairs
    # a point or pair with zero density under every class has a table
    # column of -inf, whose lse = -inf makes the sum -inf
    if ll == -np.inf:
        raise NotFiniteError(_ZERO_DENSITY)
    return _EStep(b, r, must, cannot_a, cannot_b, joint, ll)


def _responsibilities(e: _EStep, plan: _RelationPlan, class_of: np.ndarray) -> np.ndarray:
    """Expected counts of every point in every cluster → (total clusters, N):
    the point's class posteriors summed over each factor it is in, times
    its sub-cluster posteriors ``r`` (the sum itself when ``r`` is ``None``).

    A must-link member carries its pair's shared posterior, so a flat
    must-link pair counts twice (two points, one shared weight); a point in
    several pairs accumulates a column from each.  The sums are made in
    ``e.unsup`` and the products in ``e.r``, in place, so read what else
    ``e`` is needed for first."""
    q = e.unsup
    pair_rows = np.concatenate([e.must, e.must, e.cannot_a, e.cannot_b], axis=1)
    # one row at a time takes numpy's 1-D add.at path, ~10x the 2-D one
    for row, add in zip(q, pair_rows):
        np.add.at(row, plan.members, add)
    if e.r is None:
        return q
    for c, m in enumerate(class_of.tolist()):
        e.r[c] *= q[m]
    return e.r


_MUST_PAIR = RelationSet(must=((0, 1),))
_CANNOT_PAIR = RelationSet(cannot=((0, 1),))


@_overflow_to_inf
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


def _split(model: HierModel, e: _EStep, class_row: np.ndarray, point: int):
    """Joint class/cluster table of point ``point`` of ``e`` — its class
    posterior ``class_row`` times its sub-cluster posteriors — per class."""
    if e.r is not None:
        class_row = np.repeat(class_row, model.cluster_counts) * e.r[:, point]
    return np.split(class_row, model.cluster_offsets[1:-1])


def hier_resp_unsupervised(model: HierModel, x):
    """Joint class/cluster posterior of an independent point.

    Returns ``(joint, marginal)``: ``joint[m]`` is the length-``K_m`` table
    ``p(z^m, y^{m_k} | x) ∝ α_m π_{m_k} N_{m_k}(x)`` and ``marginal`` its
    per-class sums.
    """
    e = _point_estep(_hier_params(model), RelationSet(), x=x)
    return _split(model, e, e.unsup[:, 0], 0), e.unsup[:, 0]


def hier_resp_mustlink(model: HierModel, x_i, x_j):
    """Posteriors of a must-link pair sharing one class label.

    Returns ``(joint_i, joint_j, class_marginal)`` where the shared class
    posterior weighs ``α_m`` by both members' within-class mixture
    likelihoods, and each member's sub-cluster label is conditionally
    independent given the class.
    """
    e = _point_estep(_hier_params(model), _MUST_PAIR, x_i=x_i, x_j=x_j)
    must = e.must[:, 0]
    return _split(model, e, must, 0), _split(model, e, must, 1), must


def hier_resp_cannotlink(model: HierModel, x_a, x_b):
    """Posteriors of a cannot-link pair under the zero-diagonal class prior.

    Returns ``(joint_a, joint_b, d_a, d_b, class_joint)``: per-member joint
    class/cluster tables, their class marginals, and the M×M class-pair
    posterior.
    """
    e = _point_estep(_hier_params(model), _CANNOT_PAIR, x_a=x_a, x_b=x_b)
    d_a, d_b = e.cannot_a[:, 0], e.cannot_b[:, 0]
    joint_a, joint_b = _split(model, e, d_a, 0), _split(model, e, d_b, 1)
    return joint_a, joint_b, d_a, d_b, e.cannot_joint[:, :, 0]


# ---------------------------------------------------------------------------
# M-step


def _class_counts(e: _EStep) -> np.ndarray:
    """Class counts ``c_m`` for the mixing-weight update: each must-link
    pair contributes its shared weight once, each cannot-link pair both
    marginals."""
    # an empty table would add zeros, which change no count
    return sum(table.sum(axis=1)
               for table in (e.unsup, e.must, e.cannot_a, e.cannot_b) if table.size)


def _scatter_stack(
    points: np.ndarray, resp: np.ndarray, idx: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Weighted scatter matrices of components ``idx`` (an index array or
    ``slice(None)``) around ``centers`` (one row per component) → (C, d, d),
    with the weights of rows ``idx`` of ``resp`` (components, N).

    Each component's matrix is ``Σ (dev * w).T @ dev``, summed over row
    blocks of ``_ROW_FLOATS // d`` rows in order with one batched product
    per block, so the (C, rows, d) temporaries do not grow with N
    and results are bit-reproducible.  Points of at most one block add
    their whole product, as a component computed alone would.
    """
    n, d = points.shape
    c = centers.shape[0]
    total = np.zeros((c, d, d))
    span = max(1, _ROW_FLOATS // d)
    # each centre repeated once per row of a block: the subtraction then
    # runs over a whole flattened block instead of d values at a time
    rows = min(span, n)
    tiled = np.repeat(centers, rows, axis=0).reshape(c, rows * d)
    for start in range(0, n, span):
        part = points[start:start + span]
        k = part.shape[0]
        dev = (part.reshape(1, -1) - tiled[:, :k * d]).reshape(-1, k, d)
        w = resp[idx, start:start + span][:, :, None]
        total += (dev * w).transpose(0, 2, 1) @ dev
    return total


def _mstep(points: np.ndarray, resp: np.ndarray, ridge_floor: float):
    """Closed-form weighted-GMM M-step over ``points`` with the expected
    counts ``resp`` (total clusters, N) of :func:`_responsibilities`.

    Returns ``(weight, empty, means, covs, chols, ridges)``: the weights,
    the clusters whose weight is ≤ ``Z_EPS``, and the means, regularized
    covariances, their Cholesky factors and ridges.  The rows of the empty
    clusters are zero; the caller reseeds them or rejects the step.  With
    no empty cluster the live rows are indexed by ``slice(None)``, which
    gathers nothing, and the live clusters' arrays are returned as made.
    """
    weight = resp.sum(axis=1)
    first = resp @ points
    is_empty = weight <= Z_EPS
    any_empty = is_empty.any()
    live = np.flatnonzero(~is_empty) if any_empty else slice(None)
    means = first[live] / weight[live, None]
    raw = _scatter_stack(points, resp, live, means) / weight[live, None, None]
    covs, ridges, chols = _regularize_covariances(raw, ridge_floor)
    if any_empty:
        means, covs, chols, ridges = (_at_rows(a, live, weight.size)
                                      for a in (means, covs, chols, ridges))
    return weight, np.flatnonzero(is_empty), means, covs, chols, ridges


def _at_rows(a: np.ndarray, rows: np.ndarray, total: int) -> np.ndarray:
    """``a`` placed at ``rows`` of a zero array of ``total`` rows."""
    out = np.zeros((total, *a.shape[1:]))
    out[rows] = a
    return out


# ---------------------------------------------------------------------------
# observed-data log-likelihood


@_overflow_to_inf
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
    within-class mixture likelihood in place of the single density.

    Raises :class:`NotFiniteError` when a point or pair has zero density
    under every class (its log-density underflows to ``-inf``)."""
    return _log_likelihood(
        _hier_params(model), dataset, relations, count_linked_as_unsupervised
    )


# ---------------------------------------------------------------------------
# fit loop


def _pooled_covariance(dataset: Dataset, ridge_floor: float):
    """The regularized pooled data covariance and its Cholesky factor."""
    dev = dataset.points - dataset.points.mean(axis=0)
    covs, _, chols = _regularize_covariances((dev.T @ dev / dataset.n)[None], ridge_floor)
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


@_overflow_to_inf
def _fit(dataset: Dataset, relations: RelationSet, p: _Params, config: FitConfig,
         name_of: Callable[[int], str]) -> tuple[_Params, FitTrace]:
    """EM from ``p`` on validated relations; ``name_of(c)`` names cluster
    ``c`` in the warnings.  Returns the final arrays and the trace."""
    plan = _relation_plan(dataset, relations, config.count_linked_as_unsupervised)
    offsets, class_of = p.offsets, p.class_of
    warnings: list[str] = []
    # each E-step also yields the log-likelihood of the model it starts from
    e = _estep(p, dataset.points, plan)
    trace = [e.log_likelihood]
    converged = False
    n_iters = 0

    for iteration in range(1, config.max_iters + 1):
        class_counts = _class_counts(e)
        weight, empty, means, covs, chols, ridges = _mstep(
            dataset.points, _responsibilities(e, plan, class_of), config.ridge_floor
        )
        del e  # its tables were the M-step's buffers; free them for the next E-step
        # warnings keyed by flattened cluster, reported in (class, cluster) order
        notes = {
            c: f"covariance of {name_of(c)} was degenerate; ridged by {r:.2e}"
            for c, r in enumerate(ridges.tolist())
            if r > 0.0
        }
        if empty.size:
            # reseed each dead cluster at the point the model currently
            # claims least (the E-step's tables became the M-step's, so they
            # are rebuilt), with the pooled covariance and unit weight
            marg, r = _class_posteriors(p, dataset.points)
            claimed = (marg if r is None else marg[class_of] * r).max(axis=0)
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
        # π: each cluster's share of its class (x/x = 1 with one cluster per class)
        pi = weight / np.add.reduceat(weight, offsets[:-1])[class_of]
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


@_overflow_to_inf
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
    return _class_posteriors(p, points)[0].T


def predict_hier(model: HierModel, x) -> np.ndarray:
    """Soft class label of a point: the class-marginal posterior."""
    _, marginal = hier_resp_unsupervised(model, x)
    return marginal


def predict_hier_batch(model: HierModel, points) -> np.ndarray:
    """Row-wise class-marginal posteriors → (N, M) table."""
    return _predict_batch(_hier_params(model), points)
