"""Budgeted matrix completion from mixed-precision observations.

The package implements the noisyCUR column/row sampling estimator together
with nuclear-norm baselines, the two-cost observation model they compete
under, dataset loaders, numerical checkers for the recovery guarantees, and
a reproducible sweep harness with a CLI front end.
"""

from .linalg import (
    SketchMatrix,
    apply_sketch_transpose,
    build_sketch,
    embedding_distortion,
    leverage_from_svd,
    orthonormal_basis,
    shrinked_row_scores,
)
from .observe import (
    BudgetLedger,
    InfeasiblePlanError,
    ObservationSet,
    TwoCostModel,
    sample_columns,
    sample_entries,
    sample_rows_noisy,
    snr,
)
from .completion import (
    NoisyCurConfig,
    Reconstruction,
    cross_validate_lambda,
    noisycur,
    ridge_solve,
)
from .baselines import (
    AdmmResult,
    PartialMatrix,
    curplus,
    nna,
    svt,
)
from .datasets import (
    DatasetSpec,
    iterative_svd_complete,
    load_jester,
    load_movielens_100k,
    synthetic_lowrank,
)
from .theory import (
    BoundReport,
    HypothesisError,
    check_embedding_rate,
    check_perturbed_sigma,
    check_recovery_guarantee,
    check_ridge_resolvent_bound,
    check_sketched_ridge_bound,
    check_span_capture_bound,
    embedding_sketch_size,
    guarantee_sample_sizes,
    recovery_probability_floor,
    ridge_contraction_factor,
)
from .harness import (
    ExperimentConfig,
    SweepResult,
    emit_csv,
    relative_error,
    run_sweep,
)

__version__ = "0.1.0"
