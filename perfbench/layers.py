"""Which library names the traced run wraps, and the per-layer metrics.

Each name is wrapped where it is looked up, so a call is seen whichever
module makes it.  The per-layer metrics cover one traced set-up plus the
mean traced round, with times at the reference speed.
"""

from __future__ import annotations

import negdsd.cli
import negdsd.core
import negdsd.exact
import negdsd.flow
import negdsd.multilayer
import negdsd.peeling
import negdsd.uncertain
from spans import Summary, Tracer


def _build_counts(args, graph) -> dict:
    records = args[0]
    counts = {"edges": graph.m}
    if hasattr(records, "__len__"):
        counts["records"] = len(records)
    return counts


def _search_counts(args, answer) -> dict:
    result, trace = answer
    return {"iterations": trace.iterations, "exact": int(result.exact)}


TARGETS = [
    (negdsd.cli, "run", "cli.run", None),
    (negdsd.cli, "parse_signed", "io.parse", lambda args, res: {"records": len(res[0])}),
    (negdsd.cli, "build_signed_graph", "core.build", _build_counts),
    (negdsd.cli, "c_sweep", "peeling.c_sweep", None),
    (negdsd.core, "build_signed_graph", "core.build", _build_counts),
    (negdsd.core, "induced_weights", "core.rescore", None),
    (negdsd.core, "objective_f", "core.rescore", None),
    (negdsd.peeling, "c_sweep", "peeling.c_sweep", None),
    (negdsd.peeling, "peel_order", "peeling.peel_order", None),
    (negdsd.peeling, "best_prefix", "peeling.best_prefix", None),
    (negdsd.exact, "exact_dsd", "exact.exact_dsd", lambda args, res: {"exact": int(res.exact)}),
    (negdsd.exact, "binary_search_objective", "exact.search", _search_counts),
    (negdsd.exact, "dsd_decision", "exact.decision", None),
    (negdsd.exact, "build_signed_graph", "core.build", _build_counts),
    (negdsd.exact, "tilde_weights", "core.reweight", None),
    (negdsd.exact, "objective_f", "core.rescore", None),
    (negdsd.flow.Dinic, "max_flow", "flow.max_flow", lambda args, res: {"arcs": len(getattr(args[0], "to", ())) // 2}),
    (negdsd.flow.Dinic, "residual_sink_side", "flow.residual", None),
    (negdsd.uncertain, "bernoulli_graph", "uncertain.convert", None),
    (negdsd.uncertain, "uncertain_to_signed", "uncertain.convert", None),
    (negdsd.uncertain, "build_signed_graph", "core.build", _build_counts),
    (negdsd.uncertain, "risk_profile", "uncertain.risk_profile", None),
    (negdsd.multilayer, "apply_exclusion", "multilayer.apply", None),
    (negdsd.multilayer, "build_signed_graph", "core.build", _build_counts),
    (negdsd.multilayer, "layer_report", "multilayer.report", None),
]


def install(tracer: Tracer) -> None:
    for owner, attr, name, count in TARGETS:
        tracer.patch(owner, attr, name, count)


def metrics(setup: Summary, rounds: Summary, n_rounds: int, scale: float, extra: dict) -> dict:
    """Per-layer metrics: set-up totals plus the per-round mean of the rounds.

    Span times are multiplied by ``scale``; the times in ``extra`` are
    already at the reference speed.
    """

    def seconds(name):
        return scale * (setup.seconds[name] + rounds.seconds[name] / n_rounds)

    def calls(name):
        return setup.calls[name] + rounds.calls[name] / n_rounds

    def self_seconds(name):
        return scale * (setup.self_seconds[name] + rounds.self_seconds[name] / n_rounds)

    def count(name, key):
        return setup.counts[(name, key)] + rounds.counts[(name, key)] / n_rounds

    def pairs(parent, child):
        return setup.pairs[(parent, child)] + rounds.pairs[(parent, child)] / n_rounds

    def share(part, whole):
        return part / whole if whole else 0.0

    return {
        "io.parse_s": (seconds("io.parse"), "s"),
        "io.records": (count("io.parse", "records"), "count"),
        "core.build_s": (seconds("core.build"), "s"),
        "core.build_calls": (calls("core.build"), "count"),
        "core.collapse_ratio": (share(count("core.build", "records"), count("core.build", "edges")), "ratio"),
        "core.rescore_s": (seconds("core.rescore"), "s"),
        "core.rescore_calls": (calls("core.rescore"), "count"),
        "core.reweight_s": (seconds("core.reweight"), "s"),
        "core.reweight_calls": (calls("core.reweight"), "count"),
        "peeling.c_sweep_s": (seconds("peeling.c_sweep"), "s"),
        "peeling.c_sweep_calls": (calls("peeling.c_sweep"), "count"),
        "peeling.peel_order_s": (seconds("peeling.peel_order"), "s"),
        "peeling.peel_order_calls": (calls("peeling.peel_order"), "count"),
        "peeling.best_prefix_self_s": (self_seconds("peeling.best_prefix"), "s"),
        "exact.exact_dsd_s": (seconds("exact.exact_dsd"), "s"),
        "exact.decision_s": (seconds("exact.decision"), "s"),
        "exact.decisions": (calls("exact.decision"), "count"),
        "exact.network_self_s": (self_seconds("exact.exact_dsd") + self_seconds("exact.decision"), "s"),
        "exact.search_iterations": (count("exact.search", "iterations"), "count"),
        "exact.route_flow": (pairs("exact.search", "exact.decision"), "count"),
        "exact.route_peel": (pairs("exact.search", "peeling.c_sweep"), "count"),
        "exact.exact_flag_share": (
            share(count("exact.exact_dsd", "exact") + count("exact.search", "exact"),
                  calls("exact.exact_dsd") + calls("exact.search")),
            "ratio",
        ),
        "flow.max_flow_s": (seconds("flow.max_flow"), "s"),
        "flow.max_flow_calls": (calls("flow.max_flow"), "count"),
        "flow.arcs": (count("flow.max_flow", "arcs"), "count"),
        "flow.residual_s": (seconds("flow.residual"), "s"),
        "uncertain.convert_s": (seconds("uncertain.convert"), "s"),
        "uncertain.risk_profile_s": (seconds("uncertain.risk_profile"), "s"),
        "multilayer.apply_s": (seconds("multilayer.apply"), "s"),
        "multilayer.report_s": (seconds("multilayer.report"), "s"),
        "cli.startup_s": (extra["startup_s"], "s"),
        "cli.self_s": (self_seconds("cli.run"), "s"),
        "cli.unreported_s": (extra["unreported_s"], "s"),
        "trace.overhead_s": (extra["overhead_s"], "s"),
        "trace.unattributed_s": (scale * (rounds.root_seconds - rounds.attributed) / n_rounds, "s"),
    }
