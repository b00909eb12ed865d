"""Two-cluster rescue story: a handful of pairwise relations fix a
confidently wrong mixture.

The ``two-cluster`` benchmark stacks two horizontally elongated dumbbell
classes at y = ±1, with arms at x = ±1.1.  Because the arms are farther
apart than the classes, the *vertical* left/right split is both the
higher-likelihood unsupervised model and a genuine EM fixed point — an
unconstrained mixture is not merely unlucky, it prefers the wrong answer.

Two must-links (along each class) and two cannot-links (across the
classes, at the arm extremes) make the vertical model pay for every pair
it violates.  Restarted EM picked by *constrained* log-likelihood then
lands on the horizontal, correct split — with either link kind alone, or
both.

Run:  python demos/links_rescue.py
"""

import numpy as np

from pairmix import (
    FitConfig,
    FlatModel,
    PairmixError,
    RelationSet,
    fit_flat,
    gen_synthetic,
    hard_assign,
    predict_flat_batch,
    purity,
)
from pairmix.initialize import init_flat, make_rng, trial_seed

N_RESTARTS = 10
N_TRIALS = 20  # the acceptance gate runs 100; a taste is enough here


def moment_split_init(points):
    """Adversarial start: moment-matched halves left/right of x = 0."""
    left = points[points[:, 0] < 0]
    right = points[points[:, 0] >= 0]
    means, covs = [], []
    for grp in (left, right):
        mu = grp.mean(axis=0)
        dev = grp - mu
        means.append(mu)
        covs.append(dev.T @ dev / grp.shape[0])
    alpha = np.array([len(left), len(right)], dtype=float) / len(points)
    return FlatModel(alpha=alpha, means=np.array(means), covs=np.stack(covs))


def anchor_links(dataset):
    """2 must + 2 cannot links between the arm extremes of each class."""
    pts, labels = dataset.points, dataset.labels
    top = np.where(labels == 0)[0]
    bot = np.where(labels == 1)[0]
    lt = int(top[np.argmin(pts[top, 0])])
    rt = int(top[np.argmax(pts[top, 0])])
    lb = int(bot[np.argmin(pts[bot, 0])])
    rb = int(bot[np.argmax(pts[bot, 0])])
    return RelationSet(
        must=[tuple(sorted((lt, rt))), tuple(sorted((lb, rb)))],
        cannot=[tuple(sorted((lt, lb))), tuple(sorted((rt, rb)))],
    )


def best_restart(dataset, relations, rng, config):
    """Keep the restart with the highest *constrained* log-likelihood."""
    best, best_ll = None, -np.inf
    for _ in range(N_RESTARTS):
        try:
            model, trace = fit_flat(
                dataset, relations, 2, config, init=init_flat(dataset, 2, rng)
            )
            # the last trace entry is the fitted model's log-likelihood
            ll = trace.log_likelihoods[-1]
        except PairmixError:
            continue
        if ll > best_ll:
            best, best_ll = model, ll
    return best, best_ll


def split_axis(model):
    """'vertical' when components separate along x, else 'horizontal'."""
    gap = np.abs(model.means[0] - model.means[1])
    return "vertical" if gap[0] > gap[1] else "horizontal"


def main():
    ds = gen_synthetic("two-cluster", 200, 0.25, seed=0)
    pts, labels = ds.points, ds.labels
    cfg = FitConfig(seed=0)

    print("two-cluster benchmark: 200 points/class, classes at y=±1, arms at x=±1.1")
    print()

    # 1. The wrong answer is a fixed point …
    adv, trace = fit_flat(ds, RelationSet(), 2, cfg, init=moment_split_init(pts))
    p = purity(hard_assign(predict_flat_batch(adv, pts)), labels)
    print(f"1. unconstrained EM from the left/right moment split:")
    print(f"   converged in {trace.n_iters} iteration(s), purity {p:.3f} — it stays wrong")
    print()

    # 2. … and it is also the *preferred* unsupervised answer.
    rng = make_rng(trial_seed(2, 0))
    best_u, ll_u = best_restart(ds, RelationSet(), rng, cfg)
    p_u = purity(hard_assign(predict_flat_batch(best_u, pts)), labels)
    print(f"2. best of {N_RESTARTS} random restarts by unsupervised log-likelihood:")
    print(f"   picks the {split_axis(best_u)} split (LL {ll_u:.1f}), purity {p_u:.3f}")
    print()

    # 3. Four anchor links flip the ranking.
    rel = anchor_links(ds)
    print(f"3. anchor relations: must={list(rel.must)} cannot={list(rel.cannot)}")
    for tag, relations in (
        ("2 ML + 2 CL", rel),
        ("must-only  ", RelationSet(must=rel.must)),
        ("cannot-only", RelationSet(cannot=rel.cannot)),
    ):
        wins = 0
        for t in range(N_TRIALS):
            rng = make_rng(trial_seed(123, t))
            best, _ = best_restart(ds, relations, rng, cfg)
            p = purity(hard_assign(predict_flat_batch(best, pts)), labels)
            wins += bool(p >= 0.95)
        print(f"   {tag}: purity >= 0.95 in {wins}/{N_TRIALS} trials "
              f"(restarts ranked by constrained LL)")
    print()
    print("The links never push a single EM run out of its basin — a violated")
    print("pair is 2 points out of 400.  What they do is reprice the basins:")
    print("the vertical model owes tens of nats on every violated relation, so")
    print("the constrained log-likelihood ranks the horizontal model first.")


if __name__ == "__main__":
    main()
