"""Independent reference implementations used to check the library.

Everything here is written for clarity, not speed: dense matrix inverses,
explicit Python loops, and enumeration over latent assignments.  The point
is that these share no code path with the package, so agreement is
meaningful evidence of correctness.
"""

import numpy as np


# ---------------------------------------------------------------------------
# Densities


def dense_logpdf(x, mean, cov):
    """Multivariate normal log-density via explicit inverse and determinant."""
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    d = mean.size
    diff = x - mean
    inv = np.linalg.inv(cov)
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return float(-0.5 * (d * np.log(2.0 * np.pi) + logdet + diff @ inv @ diff))


def dense_pdf(x, mean, cov):
    return float(np.exp(dense_logpdf(x, mean, cov)))


# ---------------------------------------------------------------------------
# Flat-model posterior enumeration


def enum_flat_unsup(alpha, means, covs, x):
    """p(m | x) by direct summation over the class variable."""
    m = len(alpha)
    w = np.array([alpha[k] * dense_pdf(x, means[k], covs[k]) for k in range(m)])
    return w / w.sum()


def enum_flat_must(alpha, means, covs, x_i, x_j):
    """p(m | x_i, x_j, same class) by direct summation."""
    m = len(alpha)
    w = np.array(
        [
            alpha[k] * dense_pdf(x_i, means[k], covs[k]) * dense_pdf(x_j, means[k], covs[k])
            for k in range(m)
        ]
    )
    return w / w.sum()


def enum_flat_cannot(alpha, means, covs, x_a, x_b):
    """Joint table p(m, m' | x_a, x_b, different classes) plus its marginals."""
    m = len(alpha)
    denom = 1.0 - float(np.sum(np.asarray(alpha) ** 2))
    joint = np.zeros((m, m))
    for p in range(m):
        for q in range(m):
            if p == q:
                continue
            prior = alpha[p] * alpha[q] / denom
            joint[p, q] = (
                prior * dense_pdf(x_a, means[p], covs[p]) * dense_pdf(x_b, means[q], covs[q])
            )
    joint /= joint.sum()
    return joint, joint.sum(axis=1), joint.sum(axis=0)


# ---------------------------------------------------------------------------
# Hierarchical posterior enumeration


def _cluster_weights(model, x):
    """Per-class arrays of pi_k * N_k(x) for one point."""
    out = []
    for c in model.classes:
        out.append(
            np.array(
                [
                    c.pi[k] * dense_pdf(x, c.means[k], c.covs[k])
                    for k in range(len(c.pi))
                ]
            )
        )
    return out


def cluster_tables_reference(model, points):
    """Within-class log-likelihoods ``B[m, n] = log Σ_k π_k N_k(x_n)`` and
    sub-cluster posteriors ``r[(m, k), n]``, one point at a time."""
    b = np.zeros((len(model.classes), len(points)))
    r = np.zeros((sum(len(c.pi) for c in model.classes), len(points)))
    for n, x in enumerate(points):
        w = _cluster_weights(model, x)
        b[:, n] = [np.log(wm.sum()) for wm in w]
        r[:, n] = np.concatenate([wm / wm.sum() for wm in w])
    return b, r


def enum_hier_unsup(model, x):
    """Flattened p(m, k | x) over every (class, cluster) combination."""
    w = _cluster_weights(model, x)
    tab = [model.alpha[m] * w[m] for m in range(len(w))]
    z = sum(t.sum() for t in tab)
    return np.concatenate([t / z for t in tab])


def enum_hier_must(model, x_i, x_j):
    """Cluster marginals and the class marginal for a shared-class pair.

    The class is shared; each point keeps its own within-class cluster
    variable, so the joint over (m, k_i, k_j) factorizes inside a class.
    Returns (marginal over k_i flattened, marginal over k_j flattened,
    class marginal).
    """
    wi = _cluster_weights(model, x_i)
    wj = _cluster_weights(model, x_j)
    m_count = len(model.alpha)
    joint = [model.alpha[m] * np.outer(wi[m], wj[m]) for m in range(m_count)]
    z = sum(t.sum() for t in joint)
    joint = [t / z for t in joint]
    marg_i = np.concatenate([t.sum(axis=1) for t in joint])
    marg_j = np.concatenate([t.sum(axis=0) for t in joint])
    marg_class = np.array([t.sum() for t in joint])
    return marg_i, marg_j, marg_class


def enum_hier_cannot(model, x_a, x_b):
    """Enumerate p(m, k_a, m', k_b | different classes) and marginalize.

    Returns (cluster marginal for a, cluster marginal for b, class joint).
    """
    wa = _cluster_weights(model, x_a)
    wb = _cluster_weights(model, x_b)
    m_count = len(model.alpha)
    total = sum(len(w) for w in wa)
    offsets = np.cumsum([0] + [len(w) for w in wa])
    denom = 1.0 - float(np.sum(model.alpha**2))
    d_a = np.zeros(total)
    d_b = np.zeros(total)
    class_joint = np.zeros((m_count, m_count))
    z = 0.0
    for m in range(m_count):
        for mp in range(m_count):
            if m == mp:
                continue
            prior = model.alpha[m] * model.alpha[mp] / denom
            block = prior * np.outer(wa[m], wb[mp])
            d_a[offsets[m] : offsets[m + 1]] += block.sum(axis=1)
            d_b[offsets[mp] : offsets[mp + 1]] += block.sum(axis=0)
            class_joint[m, mp] = block.sum()
            z += block.sum()
    return d_a / z, d_b / z, class_joint / z


# ---------------------------------------------------------------------------
# M-step reference (termwise, loop-based)


def mstep_reference(points, unsup_indices, unsup, must_pairs, must,
                    cannot_pairs, cannot_a, cannot_b):
    """Weighted means/covariances accumulated pair by pair with plain loops.

    Mirrors the closed-form update: every must-link endpoint carries the
    pair's shared class weight, every cannot-link endpoint its own
    marginal, and the covariance is the scatter around the new mean.  No
    ridge is applied, so comparisons hold when the scatter is healthy.
    The posterior tables hold one row per entry of ``unsup_indices``,
    ``must_pairs`` and ``cannot_pairs``.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    m_count = unsup.shape[1] if unsup.size else must.shape[1]

    weights = [[] for _ in range(m_count)]  # (weight, point) lists
    for row, i in enumerate(unsup_indices):
        for m in range(m_count):
            weights[m].append((unsup[row, m], points[i]))
    for row, (i, j) in enumerate(must_pairs):
        for m in range(m_count):
            weights[m].append((must[row, m], points[i]))
            weights[m].append((must[row, m], points[j]))
    for row, (a, b) in enumerate(cannot_pairs):
        for m in range(m_count):
            weights[m].append((cannot_a[row, m], points[a]))
            weights[m].append((cannot_b[row, m], points[b]))

    means = np.zeros((m_count, d))
    covs = np.zeros((m_count, d, d))
    for m in range(m_count):
        z = sum(w for w, _ in weights[m])
        mu = sum(w * x for w, x in weights[m]) / z
        s = sum(w * np.outer(x - mu, x - mu) for w, x in weights[m]) / z
        means[m] = mu
        covs[m] = s
    return means, covs


def mixing_counts_reference(unsup, must, cannot_a, cannot_b):
    """Per-class counts: unsupervised + must (once) + both cannot marginals."""
    m_count = unsup.shape[1] if unsup.size else must.shape[1]
    c = np.zeros(m_count)
    for row in range(unsup.shape[0]):
        c += unsup[row]
    for row in range(must.shape[0]):
        c += must[row]
    for row in range(cannot_a.shape[0]):
        c += cannot_a[row] + cannot_b[row]
    return c


# ---------------------------------------------------------------------------
# Mixing objective grid search


def mixing_objective_reference(alpha, counts, n_cannot):
    alpha = np.asarray(alpha, dtype=float)
    counts = np.asarray(counts, dtype=float)
    value = 0.0
    for c, a in zip(counts, alpha):
        if c > 0.0:
            if a <= 0.0:
                return -np.inf
            value += c * np.log(a)
    if n_cannot > 0:
        norm = 1.0 - float(np.sum(alpha**2))
        if norm <= 0.0:
            return -np.inf
        value -= n_cannot * np.log(norm)
    return value


def grid_argmax_two_class(counts, n_cannot, resolution=1e-6):
    """Exhaustive search over alpha_1 for M=2; ignores non-finite cells."""
    a1 = np.arange(resolution, 1.0, resolution)
    best_val = -np.inf
    best_a = None
    # vectorized evaluation of the two-class objective
    a2 = 1.0 - a1
    with np.errstate(divide="ignore", invalid="ignore"):
        val = counts[0] * np.log(a1) + counts[1] * np.log(a2)
        if n_cannot > 0:
            norm = 1.0 - (a1**2 + a2**2)
            val = val - n_cannot * np.log(norm)
    val[~np.isfinite(val)] = -np.inf
    k = int(np.argmax(val))
    best_val = val[k]
    best_a = np.array([a1[k], a2[k]])
    return best_a, best_val


# ---------------------------------------------------------------------------
# Purity


def purity_reference(assignments, truth):
    """Contingency-table purity with explicit loops."""
    assignments = np.asarray(assignments)
    truth = np.asarray(truth)
    total = 0
    for cluster in np.unique(assignments):
        members = truth[assignments == cluster]
        counts = {}
        for t in members:
            counts[t] = counts.get(t, 0) + 1
        total += max(counts.values())
    return total / len(truth)


# ---------------------------------------------------------------------------
# Textbook unconstrained GMM-EM (per-iteration parameter trajectories)


def gmm_em_reference(points, alpha, means, covs, n_iters):
    """Plain EM for a Gaussian mixture, yielding parameters after every step.

    No ridge is added: the library leaves an already-SPD covariance
    untouched, so on healthy data the trajectories are directly
    comparable at tight tolerance.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    alpha = np.asarray(alpha, dtype=float).copy()
    means = np.asarray(means, dtype=float).copy()
    covs = np.asarray(covs, dtype=float).copy()
    m_count = alpha.size
    out = []
    for _ in range(n_iters):
        # E-step
        resp = np.zeros((n, m_count))
        for i in range(n):
            for m in range(m_count):
                resp[i, m] = alpha[m] * dense_pdf(points[i], means[m], covs[m])
            resp[i] /= resp[i].sum()
        # M-step
        z = resp.sum(axis=0)
        alpha = z / n
        for m in range(m_count):
            mu = (resp[:, m][:, None] * points).sum(axis=0) / z[m]
            diff = points - mu
            s = (resp[:, m][:, None, None] * np.einsum("ni,nj->nij", diff, diff)).sum(
                axis=0
            ) / z[m]
            s = 0.5 * (s + s.T)
            means[m] = mu
            covs[m] = s
        out.append((alpha.copy(), means.copy(), covs.copy()))
    return out
