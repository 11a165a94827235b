"""Estimating the distribution of latent node weights on sparse round-robin graphs.

The package builds n-regular round-robin graphs, decomposes them into
distance layers, computes exact likelihoods of finite-support weight
distributions by variable elimination on the layer chain, fits the maximum
likelihood distribution by EM or grid search, and numerically verifies the
structural identities, mixing bounds, and risk scaling the construction
guarantees.
"""

from .analysis import (
    RiskParams,
    RiskReport,
    ScalingTable,
    estimate_limit_likelihood,
    excess_risk,
    excess_risks,
    forgetting_profile,
    product_tv_distance,
    risk_bound_rhs,
    scaling_experiment,
    simplex_entropy_integral,
    tv_distance,
    tv_log_distance,
    z_process_concentration,
)
from .distributions import DiscreteDistribution, point_mass, point_mass_on, uniform
from .errors import (
    DisconnectedGraph,
    H1Violated,
    InconsistentBlockShapes,
    InvalidDimensions,
    InvalidValue,
    LayerOutOfRange,
    LgmleError,
    NoCandidates,
    NonPositiveWeight,
    OutcomeNotInSpace,
    SupportMismatch,
    TooLargeForBruteForce,
)
from .estimator import FitConfig, FitResult, fit_mle, profile_likelihood
from .kernels import (
    EpsilonCertificate,
    Kernel,
    bradley_terry,
    bt_home_advantage,
    bt_ties,
    custom_table,
    degree_model,
    epsilon_floor,
    kernel_from_config,
    uniform_kernel,
)
from .likelihood import (
    BackwardMessages,
    ContractionProfile,
    LayerChainModel,
    brute_force_log_likelihood,
    brute_force_node_marginals,
    log_likelihood,
)
from .rr_graph import (
    LayerStructure,
    RoundRobinGraph,
    build_schedule,
    build_schedule_unchecked,
    compare_layer_structures,
    layer_decomposition,
    predicted_edge_counts,
    predicted_layers,
    verify_schedule_layers,
)
from .simulator import (
    Dataset,
    dataset_from_json,
    dataset_to_json,
    sample_outcomes,
    sample_weights,
    simulate,
)

__version__ = "0.1.0"
