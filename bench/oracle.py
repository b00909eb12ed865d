"""Reference computations that the benchmark checks pairmix against.

Everything here is computed apart from the program: densities come from an
explicit inverse and ``numpy.linalg.slogdet`` per component (nothing from
``pairmix.gaussian``), the cannot-link factor is a plain sum over label
pairs ``m != m'``, and purity is read off a contingency table.  Models are
taken as plain arrays, so the same code scores a fitted model object and a
model file parsed here from its documented JSON schema.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


class RefModel(NamedTuple):
    """Class weights ``alpha`` (M,) and, per class, ``(pi, means, covs)``.

    A flat model is the case of one cluster per class with ``pi = [1]``.
    """

    alpha: np.ndarray
    classes: tuple


def ref_from_model(model) -> RefModel:
    """Copy the parameters out of a fitted ``FlatModel`` or ``HierModel``."""
    alpha = np.array(model.alpha, dtype=float)
    if hasattr(model, "classes"):
        classes = tuple(
            (np.array(c.pi, dtype=float), np.array(c.means, dtype=float),
             np.array(c.covs, dtype=float))
            for c in model.classes
        )
    else:
        classes = tuple(
            (np.ones(1), np.array(model.means[m : m + 1], dtype=float),
             np.array(model.covs[m : m + 1], dtype=float))
            for m in range(alpha.size)
        )
    return RefModel(alpha, classes)


def ref_from_json(text: str) -> RefModel:
    """Parse a model file (``{"alpha": [...], "classes": [{"pi", "means",
    "covs"}, ...]}``) without going through ``pairmix.serialize``."""
    doc = json.loads(text)
    return RefModel(
        np.array(doc["alpha"], dtype=float),
        tuple(
            (np.array(c["pi"], dtype=float), np.array(c["means"], dtype=float),
             np.array(c["covs"], dtype=float))
            for c in doc["classes"]
        ),
    )


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    hi = np.max(a, axis=axis, keepdims=True)
    hi = np.where(np.isfinite(hi), hi, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(np.log(np.sum(np.exp(a - hi), axis=axis, keepdims=True)) + hi, axis)


def gaussian_log_density(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """``log N(x_n | mean, cov)`` for every row of ``x``, by explicit inverse."""
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError("covariance is not positive definite")
    dev = x - mean
    quad = np.einsum("nd,nd->n", dev @ np.linalg.inv(cov), dev)
    return -0.5 * (x.shape[1] * LOG_2PI + logdet + quad)


def class_log_densities(model: RefModel, x: np.ndarray) -> np.ndarray:
    """(N, M) table of ``log p_m(x_n)``: the class's within-class mixture
    ``sum_k pi_k N_k(x)`` (a single Gaussian for a flat model)."""
    out = np.empty((x.shape[0], model.alpha.size))
    for m, (pi, means, covs) in enumerate(model.classes):
        with np.errstate(divide="ignore"):
            cols = np.stack(
                [math.log(pi[k]) + gaussian_log_density(x, means[k], covs[k])
                 if pi[k] > 0 else np.full(x.shape[0], -np.inf)
                 for k in range(pi.size)],
                axis=1,
            )
        out[:, m] = _logsumexp(cols, axis=1)
    return out


def log_likelihood(model: RefModel, x: np.ndarray, must, cannot) -> float:
    """Three-factor observed-data log-likelihood.

    Unlinked points (those in no relation) contribute ``log sum_m alpha_m
    p_m(x)``; a must-link pair ``log sum_m alpha_m p_m(x_i) p_m(x_j)``; a
    cannot-link pair ``log sum_{m != m'} alpha_m alpha_m' / (1 - sum alpha^2)
    p_m(x_a) p_m'(x_b)``.
    """
    x = np.asarray(x, dtype=float)
    must = np.asarray(must, dtype=np.int64).reshape(-1, 2)
    cannot = np.asarray(cannot, dtype=np.int64).reshape(-1, 2)
    logp = class_log_densities(model, x)
    alpha = model.alpha
    with np.errstate(divide="ignore"):
        log_alpha = np.log(alpha)

    linked = np.zeros(x.shape[0], dtype=bool)
    linked[must.ravel()] = True
    linked[cannot.ravel()] = True
    total = float(np.sum(_logsumexp(log_alpha + logp[~linked], axis=1)))
    if must.size:
        total += float(np.sum(_logsumexp(
            log_alpha + logp[must[:, 0]] + logp[must[:, 1]], axis=1)))
    if cannot.size:
        log_norm = math.log(1.0 - float(np.sum(alpha**2)))
        la, lb = logp[cannot[:, 0]], logp[cannot[:, 1]]
        terms = [
            log_alpha[m] + log_alpha[mp] - log_norm + la[:, m] + lb[:, mp]
            for m in range(alpha.size)
            for mp in range(alpha.size)
            if m != mp
        ]
        total += float(np.sum(_logsumexp(np.stack(terms, axis=1), axis=1)))
    return total


def contingency_purity(assigned, truth) -> float:
    """Purity from the (predicted x true) count table: each predicted class
    is credited with its largest cell."""
    assigned = np.asarray(assigned, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if assigned.shape != truth.shape or assigned.size == 0:
        raise ValueError("assignments and labels must be equal, non-empty vectors")
    rows = {}
    for a, t in zip(assigned.tolist(), truth.tolist()):
        row = rows.setdefault(a, {})
        row[t] = row.get(t, 0) + 1
    return sum(max(row.values()) for row in rows.values()) / assigned.size


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)
