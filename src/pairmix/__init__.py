"""Gaussian mixture clustering guided by pairwise must-link / cannot-link
relations, with optional multi-cluster (manifold-shaped) classes."""

__version__ = "0.2.0"

from types import ModuleType as _ModuleType

from .datasets import gen_synthetic
from .errors import (
    ConflictingPairError,
    DegenerateNormalizerError,
    DimensionMismatchError,
    EmptyInputError,
    ExhaustedPairsError,
    IndexOutOfRangeError,
    InvariantViolationError,
    KTooLargeError,
    LengthMismatchError,
    NoConvergenceError,
    NonNumericFeatureError,
    NotFiniteError,
    PairmixError,
    ParseError,
    RaggedRowsError,
    SchemaMismatchError,
    SelfPairError,
)
from .flat import (
    CannotLinkPrior,
    FitConfig,
    FitTrace,
    cannotlink_prior,
    fit_flat,
    log_likelihood,
    predict_flat,
    predict_flat_batch,
    resp_cannotlink,
    resp_mustlink,
    resp_unsupervised,
)
from .gaussian import log_sum_exp
from .hier import (
    fit_hier,
    hier_resp_cannotlink,
    hier_resp_mustlink,
    hier_resp_unsupervised,
    log_likelihood_hier,
    predict_hier,
    predict_hier_batch,
)
from .initialize import (
    init_flat,
    init_hier,
    kmeanspp_seeds,
    make_rng,
    sample_relations,
    trial_seed,
)
from .io import load_csv, load_relations, save_dataset_csv, save_relations
from .metrics import TrialReport, hard_assign, purity, run_trials
from .mixing import (
    MixingInfo,
    mixing_gradient,
    mixing_objective,
    optimize_mixing,
    optimize_mixing_info,
)
from .pca import PcaTransform, apply_pca, fit_pca
from .serialize import (
    deserialize_model,
    deserialize_pca,
    load_model,
    save_model,
    serialize_model,
    serialize_pca,
)
from .types import (
    ClassMixture,
    Dataset,
    FlatModel,
    HierModel,
    RelationSet,
    validate_relations,
)

# the public names, without the submodules, which a star import would
# otherwise bind over the caller's modules of the same name (io, types)
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
