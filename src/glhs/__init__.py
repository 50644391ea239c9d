"""Gadget-distribution halfspace experiments.

Moment-matched column mixtures, grid tests and projection-instance
reductions over them, halfspace structure analysis (critical index,
truncation, decoding), concentration and invariance verifications, and a
deterministic seeded sampling substrate.
"""

from .core import (
    CorruptionError,
    CursorRng,
    FormatError,
    GuardError,
    StreamHeader,
    StreamReader,
    StreamWriter,
    purpose_stream,
)
from .moments import (
    Bernoulli,
    ColumnMixture,
    ExactlyOne,
    FeasibilityError,
    WeightSolution,
    apply_noise,
    asymptotic_eps,
    asymptotic_rate,
    boundary_eps,
    build_pair,
    completeness_pair,
    default_noise_rate,
    exact_moment,
    marginal_pmf,
    moment_gap,
    solve_d0_weights,
)
from .halfspace import (
    CriticalIndexReport,
    Disjunction,
    Halfspace,
    check_geometric_decay,
    critical_index,
    drop_top,
    read_halfspace,
    regularizing_prefix,
    top_indices,
    truncate,
    write_halfspace,
)
from .concentration import (
    noise_mass_estimate,
    noisy_small_ball,
    spread_bound,
    spread_estimate,
    subset_sums,
    unique_point_in_interval,
)
from .invariance import (
    C_PHI,
    QUARTIC,
    Ensemble,
    EnsembleFamily,
    PolyPsi,
    SmoothSign,
    ensemble_from_pmf,
    family,
    hybrid_steps,
    invariance_gap,
    invariance_gap_exact,
    mixture_marginal_ensemble,
    sgn_gap_bound,
    smooth_sign,
    window_mass,
)
from .labelcover import (
    BipartiteInstance,
    LabelCoverInstance,
    Labeling,
    audit_connected,
    audit_preimage,
    audit_smoothness,
    gen_planted_bipartite,
    gen_planted_projection,
    gen_planted_unique,
    read_instance,
    read_labeling,
    satisfaction_fractions,
    smooth_from_bipartite,
    write_instance,
    write_labeling,
)
from .reduction import (
    DecoderSpec,
    TestSpec,
    collision_mass,
    decode_labeling,
    dict_test_batch,
    edge_niceness_audit,
    lc_reduce_batch,
    or_acceptance_closed_form,
    planted_disjunction,
    truncation_shift,
    ug_reduce_batch,
    weak_sat_rate_of_decoder,
)
from .harness import (
    AgreementReport,
    CheckRecord,
    ExperimentPlan,
    LearnerConfig,
    agreement,
    exact_majority_gap,
    majority_halfspace,
    majority_threshold,
    matrix_sum_pmf,
    perceptron_train,
    run_experiment,
    write_dict_test_stream,
    write_reduction_stream,
)
from .stats import binomial_sigma

__version__ = "0.1.0"
