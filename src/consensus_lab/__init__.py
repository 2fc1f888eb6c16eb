"""Interaction structures, higher-order average expectations, and their
consensus limits on belief networks, with the coordination game and
trading market they price."""

from .consensus import (
    ComponentConsensus,
    ConsensusResult,
    CpsCheck,
    CpsDecomposition,
    consensus_expectation,
    cps_check,
    first_order_vector,
    higher_order_expectations,
    pseudopriors,
    verify_cps_decomposition,
)
from .errors import (
    CapabilityError,
    PreconditionError,
    ReducibleError,
    ScenarioError,
)
from .game import (
    ConventionReport,
    GameSolution,
    best_response_iterates,
    convention_limit,
    heterogeneous_transform,
    rationalizable_bounds,
    solve_beta_game,
    solve_heterogeneous_game,
)
from .interaction import (
    FirstOrderMap,
    InteractionStructure,
    absorbing_components,
    build_first_order_map,
    build_interaction_structure,
    joint_connectedness,
    strongly_connected_components,
)
from .io import load_scenario, parse_scenario
from .market import (
    FixedDraw,
    PriceStats,
    MarketBatch,
    MarketRun,
    NatureDraw,
    TradeEvent,
    cis_generating,
    empirical_price_stats,
    product_generating,
    simulate_batch,
    simulate_market,
)
from .model import (
    BasicVariable,
    InterimBelief,
    ModelSpec,
    Network,
    SignalIndex,
    ex_ante_expectation,
    validate_model,
)
from .optimism import (
    MarkovOptimismResult,
    OptimismReport,
    markov_optimism_check,
    optimism_hypotheses,
    tightness_chain,
)
from .spectral import (
    MFPTMatrix,
    PowerTrajectory,
    StationaryDistribution,
    abel_limit,
    eigenvector_centrality,
    mfpt,
    power_trajectory,
    stationary_distribution,
)
from .trade import TradeResult, no_trade_test
from .tyranny import (
    CISSpec,
    NoiseProfile,
    PerturbationBound,
    TyrannyReport,
    build_pi_from_cis,
    classify_noise,
    rounded_structure,
    stationary_perturbation_bound,
    validate_cis,
    verify_tyranny,
)

__version__ = "0.1.0"
