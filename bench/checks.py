"""Correctness checks shared by the workloads.

Each check compares a program output with a computation from
:mod:`oracle` or with a property the method must have.  A check that does
not hold is recorded, not raised, so a run reports every failure at once.
"""

from __future__ import annotations

import numpy as np

import oracle

LL_RTOL = 1e-9
ASCENT_TOL = -1e-8  # the acceptance suite's bound on a log-likelihood step


class Checks:
    def __init__(self):
        self.n_checked = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, condition, what: str) -> bool:
        self.n_checked += 1
        if not condition:
            self.failures.append(what)
        return bool(condition)

    def loglik(self, ref: oracle.RefModel, x, must, cannot, reported: dict, what: str):
        """The dense log-likelihood agrees with every value in ``reported``
        (name -> value) to ``LL_RTOL`` relative."""
        dense = oracle.log_likelihood(ref, x, must, cannot)
        for name, value in reported.items():
            gap = oracle.relative_gap(dense, float(value))
            self.expect(
                gap <= LL_RTOL,
                f"{what}: {name} {float(value)!r} vs dense {dense!r} (rel {gap:.1e})",
            )
        return dense

    def ascent(self, log_likelihoods, warnings, what: str):
        """A trace without interventions never steps down by more than 1e-8."""
        if warnings:
            return
        steps = np.diff(np.asarray(log_likelihoods, dtype=float))
        worst = float(steps.min()) if steps.size else 0.0
        self.expect(worst >= ASCENT_TOL, f"{what}: trace steps down by {worst:.2e}")

    def purity(self, assigned, truth, reported: float, what: str) -> float:
        """Contingency-table purity of ``assigned``; equals ``reported``."""
        mine = oracle.contingency_purity(assigned, truth)
        self.expect(mine == reported, f"{what}: purity {reported!r} vs contingency {mine!r}")
        return mine

    def valid_model(self, ref: oracle.RefModel, what: str):
        """Weights on the simplex, every covariance with slogdet sign +1."""
        weights = [ref.alpha] + [pi for pi, _, _ in ref.classes]
        for w in weights:
            self.expect(
                bool(np.all(w >= 0.0)) and abs(float(w.sum()) - 1.0) <= 1e-12,
                f"{what}: weights {w.tolist()} are off the simplex",
            )
        for _, _, covs in ref.classes:
            signs = np.linalg.slogdet(covs)[0]
            self.expect(bool(np.all(signs == 1.0)), f"{what}: covariance slogdet sign {signs}")
