"""Dense subgraph discovery on graphs with positive and negative edge weights.

Covers greedy peeling with a tunable score multiplier, exact max-flow
solving for nonnegative weights, a Dinkelbach search on a risk-adjusted
ratio objective, uncertain-graph ingestion, and layer-exclusion queries on
multilayer graphs.
"""

from .core import (
    DsdResult,
    ObjectiveParams,
    SignedEdge,
    SignedGraph,
    TIE_TOLERANCE,
    WeightedGraph,
    build_signed_graph,
    induced_weights,
    objective_f,
    objective_upper_bound,
    tilde_weights,
)
from .exact import (
    DecisionOutcome,
    SearchTrace,
    binary_search_objective,
    brute_force,
    dsd_decision,
    exact_dsd,
)
from .generators import (
    gen_bad_peeling,
    gen_shift_failure,
    gen_two_component,
    shift_baseline,
)
from .multilayer import (
    ExclusionQuery,
    MultilayerGraph,
    apply_exclusion,
    build_multilayer_graph,
    hard_w,
    layer_count,
    layer_density,
    layer_report,
)
from .peeling import (
    DEFAULT_C_LIST,
    PeelOrder,
    PeelScoring,
    best_prefix,
    c_sweep,
    peel_order,
)
from .uncertain import (
    BernoulliEdge,
    RiskReport,
    UncertainEdge,
    UncertainGraph,
    bernoulli_graph,
    bernoulli_moments,
    build_uncertain_graph,
    risk_profile,
    tmdb_edge,
    uncertain_to_signed,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliEdge",
    "DEFAULT_C_LIST",
    "DecisionOutcome",
    "DsdResult",
    "ExclusionQuery",
    "MultilayerGraph",
    "ObjectiveParams",
    "PeelOrder",
    "PeelScoring",
    "RiskReport",
    "SearchTrace",
    "SignedEdge",
    "SignedGraph",
    "TIE_TOLERANCE",
    "UncertainEdge",
    "UncertainGraph",
    "WeightedGraph",
    "apply_exclusion",
    "bernoulli_graph",
    "bernoulli_moments",
    "best_prefix",
    "binary_search_objective",
    "brute_force",
    "build_multilayer_graph",
    "build_signed_graph",
    "build_uncertain_graph",
    "c_sweep",
    "dsd_decision",
    "exact_dsd",
    "gen_bad_peeling",
    "gen_shift_failure",
    "gen_two_component",
    "hard_w",
    "induced_weights",
    "layer_count",
    "layer_density",
    "layer_report",
    "objective_f",
    "objective_upper_bound",
    "peel_order",
    "risk_profile",
    "shift_baseline",
    "tilde_weights",
    "tmdb_edge",
    "uncertain_to_signed",
]
