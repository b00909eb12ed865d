"""The benchmark's checks agree with pairmix on sound input and fail on
corrupted input.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from pairmix import (  # noqa: E402
    ClassMixture,
    Dataset,
    FlatModel,
    HierModel,
    RelationSet,
    hard_assign,
    log_likelihood,
    log_likelihood_hier,
    purity,
)

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from checks import Checks  # noqa: E402


def _spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + d * np.eye(d)


def _flat_model(rng, m=3, d=2):
    alpha = rng.dirichlet(np.ones(m))
    return FlatModel(alpha=alpha, means=rng.normal(size=(m, d)) * 3,
                     covs=np.stack([_spd(rng, d) for _ in range(m)]))


def _hier_model(rng, m=3, d=2):
    classes = []
    for _ in range(m):
        k = int(rng.integers(1, 4))
        classes.append(ClassMixture(pi=rng.dirichlet(np.ones(k)),
                                    means=rng.normal(size=(k, d)) * 3,
                                    covs=np.stack([_spd(rng, d) for _ in range(k)])))
    return HierModel(alpha=rng.dirichlet(np.ones(m)), classes=tuple(classes))


def _data(rng, n=60, d=2):
    ds = Dataset(rng.normal(size=(n, d)) * 3, labels=rng.integers(0, 3, size=n))
    rel = RelationSet(must=[(0, 1), (2, 7), (9, 30)], cannot=[(3, 4), (5, 40), (6, 8)])
    return ds, rel


@pytest.mark.parametrize("kind", ["flat", "hier"])
def test_dense_loglik_matches_program_and_flags_perturbed_mean(kind):
    rng = np.random.default_rng(7)
    ds, rel = _data(rng)
    for _ in range(20):
        if kind == "flat":
            model = _flat_model(rng)
            ll = log_likelihood(model, ds, rel)
        else:
            model = _hier_model(rng)
            ll = log_likelihood_hier(model, ds, rel)
        ref = oracle.ref_from_model(model)
        checks = Checks()
        checks.loglik(ref, ds.points, rel.must, rel.cannot, {"ll": ll}, kind)
        assert checks.ok, checks.failures

        pi, means, covs = ref.classes[1]
        means = means.copy()
        means[0, 0] += 1e-3
        bad = ref._replace(classes=ref.classes[:1] + ((pi, means, covs),) + ref.classes[2:])
        checks.loglik(bad, ds.points, rel.must, rel.cannot, {"ll": ll}, kind)
        assert len(checks.failures) == 1


def test_dense_loglik_flags_dropped_cannot_link():
    rng = np.random.default_rng(8)
    ds, rel = _data(rng)
    model = _flat_model(rng)
    ll = log_likelihood(model, ds, rel)
    checks = Checks()
    checks.loglik(oracle.ref_from_model(model), ds.points, rel.must, rel.cannot[1:],
                  {"ll": ll}, "flat")
    assert not checks.ok


def test_model_file_parse_matches_model_object():
    from pairmix.serialize import serialize_model

    rng = np.random.default_rng(9)
    ds, rel = _data(rng)
    model = _hier_model(rng)
    from_file = oracle.ref_from_json(serialize_model(model))
    assert oracle.log_likelihood(from_file, ds.points, rel.must, rel.cannot) == \
        oracle.log_likelihood(oracle.ref_from_model(model), ds.points, rel.must, rel.cannot)


def test_contingency_purity_matches_program_and_flags_permuted_row():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n, m = int(rng.integers(5, 80)), int(rng.integers(2, 5))
        post = rng.dirichlet(np.ones(m), size=n)
        truth = rng.integers(0, 3, size=n)
        assigned = hard_assign(post)
        checks = Checks()
        checks.purity(assigned, truth, purity(assigned, truth), "purity")
        assert checks.ok, checks.failures

    # one permuted posterior row moves a point out of its class's majority
    truth = np.array([0, 0, 0, 1, 1])
    post = np.array([[0.9, 0.1]] * 3 + [[0.2, 0.8]] * 2)
    reported = purity(hard_assign(post), truth)
    post[0] = post[0][::-1]
    checks = Checks()
    checks.purity(hard_assign(post), truth, reported, "purity")
    assert not checks.ok


def test_ascent_check():
    checks = Checks()
    checks.ascent([-10.0, -9.0, -9.0 - 1e-9], False, "small dip")
    assert checks.ok
    checks.ascent([-10.0, -9.0, -9.5], False, "dip")
    assert len(checks.failures) == 1
    checks.ascent([-10.0, -9.0, -9.5], True, "dip after an intervention")
    assert len(checks.failures) == 1


def test_valid_model_check():
    rng = np.random.default_rng(11)
    ref = oracle.ref_from_model(_hier_model(rng))
    checks = Checks()
    checks.valid_model(ref, "sound")
    assert checks.ok
    checks.valid_model(ref._replace(alpha=ref.alpha * 1.01), "alpha off the simplex")
    assert len(checks.failures) == 1
    pi, means, covs = ref.classes[0]
    flipped = covs.copy()
    flipped[0] = np.diag([1.0, -1.0])
    checks.valid_model(ref._replace(classes=((pi, means, flipped),) + ref.classes[1:]), "cov")
    assert len(checks.failures) == 2


def test_benchmark_json_lists_the_emitted_metrics():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    rec = workloads.Record()
    rec.flat_fit_s, rec.hier_fit_s, rec.round_s, rec.fit_iters = [1.0], [1.0], [1.0], 1
    emitted = run.end_to_end(rec, [1.0], 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: unit for k, (_, unit) in emitted.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
