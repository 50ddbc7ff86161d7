"""Two-phase profit maximization on social networks under independent cascade."""

from .diffusion import PartialObservation, observe_until
from .graph import (
    NodeEconomics,
    SocialGraph,
    build_graph,
    clustering_coefficient,
    clustering_coefficients,
    degree,
    degrees,
    exclude_nodes,
    seed_cost,
)
from .loader import (
    AttributeSpec,
    generate_attributes,
    load_snap_edge_list,
    preferential_attachment_graph,
)
from .profit import (
    ProfitEstimate,
    estimate_profit,
    exact_benefit,
    exact_profit,
    marginal_profit_gain,
)
from .rng import RandomSource
from .selection import (
    SELECTORS,
    SelectionOutcome,
    Trace,
    TraceEntry,
    baseline_clustering_coefficient,
    baseline_high_degree,
    baseline_random,
    baseline_single_discount,
    double_greedy,
    select,
    single_greedy,
)
from .twophase import (
    ObservationRecord,
    PhaseConfig,
    TwoPhaseResult,
    cell_sample,
    exact_two_phase_profit,
    run_phase1,
    run_phase2,
    run_single_phase,
    run_two_phase,
)

__version__ = "0.1.0"
