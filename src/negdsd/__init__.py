"""Dense subgraph discovery on graphs with positive and negative edge weights.

Covers greedy peeling with a tunable score multiplier, exact max-flow
solving for nonnegative weights, a Dinkelbach search on a risk-adjusted
ratio objective, uncertain-graph ingestion, and layer-exclusion queries on
multilayer graphs.

Names load on first use.  ``import negdsd`` imports no submodule; the first
lookup of a public name, or of a submodule such as ``negdsd.exact``,
imports its home module (PEP 562), so a program loads only the modules it
uses.  ``from negdsd import *`` loads them all.
"""

import importlib

__version__ = "0.1.0"

# The home module of each public name.
_HOMES = {
    "core": (
        "DsdResult",
        "ObjectiveParams",
        "SignedEdge",
        "SignedGraph",
        "TIE_TOLERANCE",
        "build_signed_graph",
        "induced_weights",
        "objective_f",
        "objective_upper_bound",
        "tilde_weights",
    ),
    "exact": (
        "DecisionOutcome",
        "SearchTrace",
        "binary_search_objective",
        "brute_force",
        "dsd_decision",
        "exact_dsd",
    ),
    "generators": (
        "gen_bad_peeling",
        "gen_shift_failure",
        "gen_two_component",
        "shift_baseline",
    ),
    "multilayer": (
        "ExclusionQuery",
        "MultilayerGraph",
        "apply_exclusion",
        "build_multilayer_graph",
        "hard_w",
        "layer_count",
        "layer_density",
        "layer_report",
    ),
    "peeling": (
        "DEFAULT_C_LIST",
        "PeelOrder",
        "PeelScoring",
        "best_prefix",
        "c_sweep",
        "peel_order",
    ),
    "uncertain": (
        "RiskReport",
        "UncertainEdge",
        "UncertainGraph",
        "bernoulli_graph",
        "bernoulli_moments",
        "build_uncertain_graph",
        "risk_profile",
        "tmdb_edge",
        "uncertain_to_signed",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(
    ("cli", "core", "errors", "exact", "flow", "generators", "io", "multilayer", "peeling", "uncertain")
)

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it in this namespace
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
