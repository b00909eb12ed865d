"""EM for a Gaussian mixture with pairwise must-link / cannot-link relations.

The model couples three data factors: independent points, must-link pairs
(the two members share a single latent class variable), and cannot-link
pairs (a joint prior over the two class labels with zero same-class mass).
:func:`fit_flat` runs EM over them: the E-step computes each factor's
posterior table (the per-pair formulas are :func:`resp_unsupervised`,
:func:`resp_mustlink` and :func:`resp_cannotlink`); the M-step updates
means and covariances in closed form and the mixing weights with the
solver of :mod:`pairmix.mixing` (see :func:`pairmix.mixing.optimize_mixing`).
:func:`log_likelihood` scores a model and :func:`predict_flat` /
:func:`predict_flat_batch` label new points.

By default a point that appears in any relation is *not* additionally
counted as an independent point: relation membership is treated as
exhaustive for that point, keeping the three factors disjoint.  Set
``FitConfig.count_linked_as_unsupervised`` to also duplicate relation
members into the independent factor (ablation).

The flat model is the two-level model of :mod:`pairmix.hier` with one
cluster per class: every function here reads a :class:`FlatModel`'s
arrays that way (``log π = 0``) and runs the shared engine there.
``FitConfig``, ``FitTrace``, ``CannotLinkPrior`` and ``cannotlink_prior``
live in :mod:`pairmix.hier` and are re-exported here.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, InvariantViolationError, KTooLargeError
from .hier import (  # the public names here are re-exported
    CannotLinkPrior,
    FitConfig,
    FitTrace,
    _CANNOT_PAIR,
    _MUST_PAIR,
    _checked_relations,
    _fit,
    _flat_params,
    _log_likelihood,
    _point_estep,
    _predict_batch,
    cannotlink_prior,
)
from .initialize import init_flat, make_rng
from .types import Dataset, FlatModel, RelationSet


def resp_unsupervised(model: FlatModel, x) -> np.ndarray:
    """Class posterior of an independent point: ``ℓ^m ∝ α_m N_m(x)``."""
    return _point_estep(_flat_params(model), RelationSet(), x=x).unsup[:, 0]


def resp_mustlink(model: FlatModel, x_i, x_j) -> np.ndarray:
    """Shared class posterior of a must-link pair: ``s^m ∝ α_m N_m(x_i) N_m(x_j)``."""
    e = _point_estep(_flat_params(model), _MUST_PAIR, x_i=x_i, x_j=x_j)
    return e.must[:, 0]


def resp_cannotlink(model: FlatModel, x_a, x_b):
    """Posteriors of a cannot-link pair.

    Returns ``(d_a, d_b, joint)`` where ``joint[m, m']`` is the posterior of
    the label pair under the zero-diagonal prior and ``d_a`` / ``d_b`` are
    its row / column marginals.
    """
    e = _point_estep(_flat_params(model), _CANNOT_PAIR, x_a=x_a, x_b=x_b)
    return e.cannot_a[:, 0], e.cannot_b[:, 0], e.cannot_joint[:, :, 0]


def log_likelihood(
    model: FlatModel,
    dataset: Dataset,
    relations: RelationSet,
    *,
    count_linked_as_unsupervised: bool = False,
) -> float:
    """Log-likelihood with all latent class variables marginalized.

    Sum of three parts: independent points ``log Σ_m α_m N_m(x_n)``,
    must-link pairs ``log Σ_m α_m N_m(x_i) N_m(x_j)``, and cannot-link
    pairs ``log Σ_{m≠m'} p(m, m') N_m(x_a) N_{m'}(x_b)``.  Points belonging
    to a relation enter the first sum only when
    ``count_linked_as_unsupervised`` is set.

    Raises :class:`NotFiniteError` when a point or pair has zero density
    under every class (its log-density underflows to ``-inf``), where the
    likelihood would be ``-inf``.
    """
    return _log_likelihood(
        _flat_params(model), dataset, relations, count_linked_as_unsupervised
    )


def fit_flat(
    dataset: Dataset,
    relations: RelationSet,
    n_classes: int,
    config: FitConfig | None = None,
    *,
    init: FlatModel | None = None,
) -> tuple[FlatModel, FitTrace]:
    """Run EM to convergence; returns the model and its likelihood trace.

    Initialization draws seed means via k-means++ unless ``init`` supplies
    a starting model.  An empty class encountered mid-run is reseeded at
    the point the current model claims least, with the pooled data
    covariance (recorded as a warning rather than an error); see
    :mod:`pairmix.hier` for the reseed policy.
    """
    config = config or FitConfig()
    if n_classes < 1:
        raise InvariantViolationError("need at least one class")
    if dataset.n < n_classes:
        raise KTooLargeError(
            f"cannot fit {n_classes} classes to {dataset.n} points"
        )
    relations = _checked_relations(relations, dataset, n_classes)
    if init is None:
        init = init_flat(dataset, n_classes, make_rng(config.seed), config.ridge_floor)
    elif init.n_classes != n_classes:
        raise InvariantViolationError(
            f"init has {init.n_classes} classes, expected {n_classes}"
        )
    elif init.dim != dataset.dim:
        raise DimensionMismatchError(
            f"init dimension {init.dim} does not match data dimension {dataset.dim}"
        )

    p, trace = _fit(
        dataset, relations, _flat_params(init), config, lambda k: f"class {k}"
    )
    return FlatModel(alpha=p.alpha, means=p.means, covs=p.covs), trace


def predict_flat(model: FlatModel, x) -> np.ndarray:
    """Soft class label of a (possibly unseen) point: Bayes posterior."""
    return resp_unsupervised(model, x)


def predict_flat_batch(model: FlatModel, points) -> np.ndarray:
    """Row-wise :func:`predict_flat` → (N, M) posterior table."""
    return _predict_batch(_flat_params(model), points)
