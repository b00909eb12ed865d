"""Evaluation: hard assignment, purity, and the repeated-trial harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, LengthMismatchError, PairmixError
from .flat import FitConfig, fit_flat, predict_flat_batch
from .hier import fit_hier, predict_hier_batch
from .initialize import (
    _check_mode,
    _normalize_cluster_counts,
    init_flat,
    init_hier,
    make_rng,
    sample_relations,
    trial_seed,
)
from .types import Dataset, FlatModel, _readonly


def hard_assign(posteriors) -> np.ndarray:
    """Row-wise argmax of a posterior table; ties go to the lowest index and
    a row holding NaN to its first NaN, as with ``np.argmax``."""
    posteriors = np.asarray(posteriors, dtype=float)
    if posteriors.ndim != 2 or posteriors.shape[1] < 1:
        raise InvariantViolationError(
            f"posterior table must be 2-D (N, M), got shape {posteriors.shape}"
        )
    # a running argmax with (N,) temporaries (np.argmax copies a table that is
    # not C-contiguous); a column wins on a larger value or the first NaN
    best = posteriors[:, 0].copy()
    assign = np.zeros(posteriors.shape[0], dtype=np.intp)
    for m in range(1, posteriors.shape[1]):
        col = posteriors[:, m]
        wins = ~(col <= best)
        wins &= best == best
        assign[wins] = m
        np.maximum(best, col, out=best)
    return assign


def purity(assignments, truth) -> float:
    """Fraction of points whose predicted class's majority label matches.

    Each predicted class is credited its most frequent ground-truth label;
    the score is the credited count over N.  Permutation-invariant in the
    predicted ids.
    """
    assignments = np.asarray(assignments)
    truth = np.asarray(truth)
    if assignments.shape != truth.shape or assignments.ndim != 1:
        raise LengthMismatchError(
            f"assignments {assignments.shape} and truth {truth.shape} differ"
        )
    if assignments.size == 0:
        raise InvariantViolationError("purity needs at least one point")
    _, a_ids = np.unique(assignments, return_inverse=True)
    _, t_ids = np.unique(truth, return_inverse=True)
    n_a = int(a_ids.max()) + 1
    n_t = int(t_ids.max()) + 1
    contingency = np.zeros((n_a, n_t), dtype=np.int64)
    np.add.at(contingency, (a_ids, t_ids), 1)
    return float(contingency.max(axis=1).sum() / assignments.size)


@dataclass(frozen=True)
class TrialReport:
    """Outcome of ``n_trials`` runs at one link budget.

    ``purities`` holds NaN for failed trials; ``errors`` the corresponding
    messages (empty string for successes).  ``mean``/``std`` are over the
    successful trials only.
    """

    budget: int
    mode: str
    seeds: tuple[int, ...]
    purities: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    errors: tuple[str, ...]

    def __post_init__(self):
        for name, dtype in (("purities", float), ("iterations", np.int64),
                            ("converged", bool)):
            object.__setattr__(self, name, _readonly(getattr(self, name), dtype))

    @property
    def n_trials(self) -> int:
        return self.purities.size

    @property
    def n_failed(self) -> int:
        return int(np.isnan(self.purities).sum())

    @property
    def mean(self) -> float:
        ok = self.purities[~np.isnan(self.purities)]
        return float(ok.mean()) if ok.size else float("nan")

    @property
    def std(self) -> float:
        ok = self.purities[~np.isnan(self.purities)]
        return float(ok.std()) if ok.size else float("nan")


def _fit_model(dataset: Dataset, relations, n_classes: int, counts, config: FitConfig,
               init=None):
    """:func:`fit_flat` when every class has one cluster (``counts``, one per
    class), else :func:`fit_hier`; returns the model and its trace."""
    if all(k == 1 for k in counts):
        return fit_flat(dataset, relations, n_classes, config, init=init)
    return fit_hier(dataset, relations, n_classes, counts, config, init=init)


def _posteriors(model, points) -> np.ndarray:
    """The (N, M) class posteriors of ``points`` under a flat or two-level model."""
    if isinstance(model, FlatModel):
        return predict_flat_batch(model, points)
    return predict_hier_batch(model, points)


def _run_one(
    dataset: Dataset,
    n_classes: int,
    clusters_per_class,
    budget: int,
    mode: str,
    seed: int,
    config: FitConfig,
):
    rng = make_rng(seed)
    try:
        if all(c == 1 for c in clusters_per_class):
            start = init_flat(dataset, n_classes, rng, config.ridge_floor)
        else:
            start = init_hier(
                dataset, n_classes, clusters_per_class, rng, config.ridge_floor
            )
        relations = sample_relations(dataset.labels, budget, rng, mode)
        model, fit_trace = _fit_model(
            dataset, relations, n_classes, clusters_per_class, config, init=start
        )
        score = purity(hard_assign(_posteriors(model, dataset.points)), dataset.labels)
        return score, fit_trace.n_iters, fit_trace.converged, ""
    except PairmixError as exc:
        return float("nan"), 0, False, f"{type(exc).__name__}: {exc}"


def run_trials(
    dataset: Dataset,
    n_classes: int,
    clusters_per_class,
    link_budgets,
    mode: str = "both",
    n_trials: int = 100,
    base_seed: int = 0,
    config: FitConfig | None = None,
    *,
    csv_path=None,
) -> list[TrialReport]:
    """Repeated (init, sample-relations, fit, purity) pipelines per budget.

    ``clusters_per_class`` is read as by :func:`pairmix.hier.fit_hier`, and
    all counts 1 fit the flat model; a class or cluster count that no data
    could fit raises before the first trial.  Every trial owns a child seed
    derived from ``(base_seed, budget, trial_index)``, so its result does
    not depend on the other trials; failed trials (an error that depends on
    the data, such as too few points) are recorded as missing values
    without aborting the sweep.  When ``csv_path`` is given the sweep is
    also written as CSV (one row per trial: budget, trial_index, seed,
    purity, iterations, converged).
    """
    if dataset.labels is None:
        raise InvariantViolationError("run_trials needs a labeled dataset")
    if n_trials < 1:
        raise InvariantViolationError("n_trials must be >= 1")
    _check_mode(mode)
    clusters_per_class = _normalize_cluster_counts(n_classes, clusters_per_class)
    config = config or FitConfig()
    budgets = [int(b) for b in link_budgets]
    if any(b < 0 for b in budgets):
        raise InvariantViolationError("link budgets must be nonnegative")

    reports = []
    for budget in budgets:
        seeds = tuple(trial_seed(base_seed, budget, t) for t in range(n_trials))
        rows = [
            _run_one(dataset, n_classes, clusters_per_class, budget, mode, s, config)
            for s in seeds
        ]
        reports.append(
            TrialReport(
                budget=budget,
                mode=mode,
                seeds=seeds,
                purities=np.array([r[0] for r in rows]),
                iterations=np.array([r[1] for r in rows]),
                converged=np.array([r[2] for r in rows]),
                errors=tuple(r[3] for r in rows),
            )
        )

    if csv_path is not None:
        from .io import atomic_write_text

        atomic_write_text(csv_path, trials_to_csv(reports))
    return reports


def _missing_or_repr(value) -> str:
    """A float as its ``repr``, or as the empty text when it is NaN (missing)."""
    return "" if np.isnan(value) else repr(float(value))


def trials_to_csv(reports) -> str:
    """Render trial reports as the sweep CSV (deterministic formatting)."""
    lines = ["budget,trial_index,seed,purity,iterations,converged"]
    for report in reports:
        for t in range(report.n_trials):
            lines.append(
                f"{report.budget},{t},{report.seeds[t]},"
                f"{_missing_or_repr(report.purities[t])},"
                f"{int(report.iterations[t])},{str(bool(report.converged[t])).lower()}"
            )
    return "\n".join(lines) + "\n"
