"""Exhaustive sparsity-pattern decoding for y = X beta + eps, with the full
set of analytic error bounds, sample-size conditions, and the Monte Carlo
harness that checks them at desk scale."""

from .bounds import (
    BoundReport,
    averaged_pairwise_bound,
    chain_log_bound,
    chernoff_rate,
    chi_square_log_mgf,
    convexity_condition,
    curvature_condition,
    exact_quadratic_log_mgf,
    f_curve,
    necessary_sample_size,
    pairwise_conditional_bound,
    projection_energy,
    regime_table,
    sufficient_sample_size,
    union_error_bound_closed_form,
    union_error_bound_sum,
)
from .decoder import DecodeResult, decode_exhaustive, pairwise_statistic, score_support
from .errors import (
    BudgetError,
    DomainError,
    PreconditionError,
    SupportLabError,
    ValidationError,
)
from .model import (
    DesignMatrix,
    ProblemInstance,
    SparseSignal,
    SparsityPattern,
    build_projector,
    flat_signal,
    gaussian_design,
    make_pattern,
    pattern_difference,
    residual_energy,
    synthesize_observation,
)
from .montecarlo import (
    ExperimentSpec,
    TrialBatchResult,
    run_full_recovery,
    run_pairwise,
    sweep,
    wilson_interval,
)
from .verify import CheckResult, run_all

__version__ = "0.1.0"
