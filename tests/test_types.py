"""Validation and immutability of the core value objects, and the public names."""

import io
import types

import numpy as np
import pytest

import pairmix
from pairmix import (
    ClassMixture,
    ConflictingPairError,
    Dataset,
    DimensionMismatchError,
    FlatModel,
    HierModel,
    IndexOutOfRangeError,
    InvariantViolationError,
    LengthMismatchError,
    NotFiniteError,
    RelationSet,
    SelfPairError,
    validate_relations,
)


# ---------------------------------------------------------------------------
# Dataset


def test_dataset_basic_properties():
    ds = Dataset(np.arange(6.0).reshape(3, 2), labels=[0, 1, 1])
    assert ds.n == 3 and ds.dim == 2
    assert ds.labels.dtype == np.int64
    assert not ds.points.flags.writeable


def test_dataset_rejects_bad_shapes_and_values():
    with pytest.raises(InvariantViolationError):
        Dataset(np.zeros(3))
    with pytest.raises(NotFiniteError):
        Dataset(np.array([[0.0, np.inf]]))
    with pytest.raises(LengthMismatchError):
        Dataset(np.zeros((3, 2)), labels=[0, 1])
    with pytest.raises(InvariantViolationError):
        Dataset(np.zeros((2, 2)), labels=[0, -1])
    with pytest.raises(InvariantViolationError):
        Dataset(np.zeros((2, 2)), labels=[0.5, 1.0])


def test_dataset_accepts_float_integer_labels():
    ds = Dataset(np.zeros((2, 1)), labels=np.array([0.0, 3.0]))
    assert list(ds.labels) == [0, 3]


# ---------------------------------------------------------------------------
# Relations


def test_relationset_normalizes_and_counts():
    rel = RelationSet(must=[(3, 1)], cannot=[(0, 2), (2, 4)])
    assert rel.n_must == 1 and rel.n_cannot == 2
    assert not rel.is_empty()
    assert RelationSet().is_empty()
    assert set(rel.linked_indices()) == {0, 1, 2, 3, 4}


def test_relationset_rejects_indices_int_would_change():
    # 1.7 would silently link point 1, inf would raise a bare OverflowError
    for bad in (1.7, -0.5, float("inf"), float("nan"), np.float64(2.5), "1", None):
        for kwargs in ({"must": [(0, bad)]}, {"cannot": [(bad, 3)]}):
            with pytest.raises(InvariantViolationError, match="is not integer"):
                RelationSet(**kwargs)
    rel = RelationSet(must=[(0, 1.0)], cannot=[(np.float64(2.0), np.int64(3))])
    assert rel.must == ((0, 1),) and rel.cannot == ((2, 3),)
    assert all(type(v) is int for pair in rel.must + rel.cannot for v in pair)


def test_validate_relations_canonicalizes():
    rel = RelationSet(must=[(5, 2), (2, 5), (1, 0)], cannot=[(4, 3)])
    out = validate_relations(rel, 6)
    assert out.must == ((0, 1), (2, 5))
    assert out.cannot == ((3, 4),)


def test_validate_relations_rejections():
    with pytest.raises(SelfPairError):
        validate_relations(RelationSet(must=[(2, 2)]), 5)
    with pytest.raises(IndexOutOfRangeError):
        validate_relations(RelationSet(cannot=[(0, 7)]), 5)
    with pytest.raises(IndexOutOfRangeError):
        validate_relations(RelationSet(must=[(-1, 2)]), 5)
    with pytest.raises(ConflictingPairError):
        validate_relations(RelationSet(must=[(1, 2)], cannot=[(2, 1)]), 5)


def test_validate_relations_allows_shared_endpoints():
    rel = RelationSet(must=[(0, 1), (1, 2)], cannot=[(1, 3)])
    out = validate_relations(rel, 4)
    assert out.n_must == 2 and out.n_cannot == 1


# ---------------------------------------------------------------------------
# FlatModel


def _toy_flat():
    return FlatModel(
        alpha=np.array([0.4, 0.6]),
        means=np.array([[0.0, 0.0], [3.0, 1.0]]),
        covs=np.stack([np.eye(2), np.diag([2.0, 0.5])]),
    )


def test_flat_model_caches_cholesky():
    model = _toy_flat()
    np.testing.assert_allclose(
        model.chols @ np.swapaxes(model.chols, -1, -2), model.covs, atol=1e-14
    )
    expected_logdet = np.log(np.linalg.det(model.covs))
    np.testing.assert_allclose(model.log_dets, expected_logdet, atol=1e-12)
    assert model.n_classes == 2 and model.dim == 2


def test_flat_model_validation():
    with pytest.raises(InvariantViolationError):
        FlatModel(alpha=np.array([0.5, 0.6]), means=np.zeros((2, 1)), covs=np.ones((2, 1, 1)))
    with pytest.raises(InvariantViolationError):
        FlatModel(
            alpha=np.array([0.5, 0.5]),
            means=np.zeros((2, 2)),
            covs=np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])]),
        )
    with pytest.raises(InvariantViolationError):
        FlatModel(
            alpha=np.array([0.5, 0.5]),
            means=np.zeros((2, 2)),
            covs=np.stack([np.eye(2), np.array([[1.0, 0.1], [-0.1, 1.0]])]),
        )
    with pytest.raises(InvariantViolationError):
        FlatModel(alpha=np.array([1.0]), means=np.zeros((2, 2)), covs=np.stack([np.eye(2)] * 2))


def test_flat_hier_round_trip():
    model = _toy_flat()
    hier = model.to_hier()
    assert hier.is_flat_equivalent
    back = hier.to_flat()
    np.testing.assert_array_equal(back.alpha, model.alpha)
    np.testing.assert_array_equal(back.means, model.means)
    np.testing.assert_array_equal(back.covs, model.covs)


# ---------------------------------------------------------------------------
# HierModel


def _toy_hier():
    c0 = ClassMixture(
        pi=np.array([0.3, 0.7]),
        means=np.array([[0.0, 0.0], [1.0, 0.0]]),
        covs=np.stack([np.eye(2)] * 2),
    )
    c1 = ClassMixture(
        pi=np.array([1.0]),
        means=np.array([[4.0, 4.0]]),
        covs=np.eye(2)[None],
    )
    return HierModel(alpha=np.array([0.5, 0.5]), classes=(c0, c1))


def test_hier_model_offsets_and_counts():
    model = _toy_hier()
    assert model.cluster_counts == (2, 1)
    assert list(model.cluster_offsets) == [0, 2, 3]
    assert not model.is_flat_equivalent
    with pytest.raises(InvariantViolationError):
        model.to_flat()


def test_hier_model_dimension_consistency():
    c0 = ClassMixture(pi=np.array([1.0]), means=np.zeros((1, 2)), covs=np.eye(2)[None])
    c1 = ClassMixture(pi=np.array([1.0]), means=np.zeros((1, 3)), covs=np.eye(3)[None])
    with pytest.raises(DimensionMismatchError):
        HierModel(alpha=np.array([0.5, 0.5]), classes=(c0, c1))


# ---------------------------------------------------------------------------
# Public API


def test_public_api_surface():
    # every public name of the package, submodules aside: a removed name
    # cannot come back unnoticed and a new one is added on purpose
    public = sorted(
        name for name in pairmix.__all__
        if not isinstance(getattr(pairmix, name), types.ModuleType)
    )
    assert public == [
        "CannotLinkPrior", "ClassMixture", "ConflictingPairError", "Dataset",
        "DegenerateNormalizerError", "DimensionMismatchError", "EmptyInputError",
        "ExhaustedPairsError", "FitConfig", "FitTrace", "FlatModel", "HierModel",
        "IndexOutOfRangeError", "InvariantViolationError", "KTooLargeError",
        "LengthMismatchError", "MixingInfo", "NoConvergenceError",
        "NonNumericFeatureError", "NotFiniteError", "PairmixError", "ParseError",
        "PcaTransform", "RaggedRowsError", "RelationSet", "SchemaMismatchError",
        "SelfPairError", "TrialReport", "apply_pca", "cannotlink_prior",
        "deserialize_model", "deserialize_pca", "fit_flat", "fit_hier", "fit_pca",
        "gen_synthetic", "hard_assign", "hier_resp_cannotlink",
        "hier_resp_mustlink", "hier_resp_unsupervised", "init_flat", "init_hier",
        "kmeanspp_seeds", "load_csv", "load_model", "load_relations",
        "log_likelihood", "log_likelihood_hier", "log_sum_exp", "make_rng",
        "mixing_gradient", "mixing_objective", "optimize_mixing",
        "optimize_mixing_info", "predict_flat", "predict_flat_batch",
        "predict_hier", "predict_hier_batch", "purity", "resp_cannotlink",
        "resp_mustlink", "resp_unsupervised", "run_trials", "sample_relations",
        "save_dataset_csv", "save_model", "save_relations", "serialize_model",
        "serialize_pca", "trial_seed", "validate_relations",
    ]


def test_star_import_binds_no_submodule():
    # pairmix.io and pairmix.types must not replace the caller's io and types
    namespace = {}
    exec("import io, types\nfrom pairmix import *", namespace)
    assert namespace["io"] is io and namespace["types"] is types
    assert not any(isinstance(getattr(pairmix, name), types.ModuleType)
                   for name in pairmix.__all__)
