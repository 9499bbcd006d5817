"""Batch command-line front end.

Subcommands: ``gen`` emits generator instances as signed edge lists; ``peel``,
``exact``, ``search``, ``oracle`` solve signed inputs; ``risk`` ingests an
uncertain graph and reports the reward/risk profile of the winner; ``exclude``
runs layer-exclusion queries on multilayer inputs.  Reports are JSON on
stdout.  Exit codes: 0 success, 1 solver precondition failures, 2 input
parse/format problems.

Importing this module loads only what ``peel`` runs (``core``, ``errors``,
``io`` and ``peeling``); every other handler imports its solver modules when
it runs, so a process loads only what its subcommand uses.  The peel path's
names stay attributes of this module, where ``perfbench/layers.py`` wraps
them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from dataclasses import asdict, fields

from .core import ObjectiveParams, build_signed_graph
from .errors import BadParametersError, NegativeWeightError, NegDsdError, ParseError
from .io import (
    decode,
    format_signed,
    parse_bernoulli,
    parse_moments,
    parse_multilayer,
    parse_signed,
)
from .peeling import DEFAULT_C_LIST, PeelScoring, c_sweep

RULE_OF_THUMB_C_LIST = ",".join(str(c) for c in DEFAULT_C_LIST)


def _c_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad multiplier list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("multiplier list is empty")
    if not all(math.isfinite(c) for c in values):
        raise argparse.ArgumentTypeError(f"multipliers must be finite, got {text!r}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negdsd",
        description="Dense subgraph discovery on graphs with positive and negative edge weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("input", nargs="?", default="-", help="input file, or - for stdin")

    objective = argparse.ArgumentParser(add_help=False)
    objective.add_argument("--lambda1", type=float, default=1.0, help="size reward in the numerator")
    objective.add_argument("--lambda2", type=float, default=1.0, help="size term in the denominator")
    objective.add_argument(
        "--risk-tolerance",
        type=float,
        default=1.0,
        help="multiplier on induced negative weight in the objective",
    )

    clist = argparse.ArgumentParser(add_help=False)
    clist.add_argument(
        "--c-list",
        type=_c_list,
        default=[1.0],
        help=f"comma-separated peel multipliers (rule-of-thumb sweep: {RULE_OF_THUMB_C_LIST})",
    )

    peel = sub.add_parser("peel", parents=[source, objective, clist], help="peel a signed graph")
    peel.add_argument("--objective", action="store_true", help="rank prefixes by the ratio objective")
    peel.set_defaults(handler=_cmd_peel)

    exact = sub.add_parser("exact", parents=[source], help="exact solve (nonnegative net weights only)")
    exact.set_defaults(handler=_cmd_exact)

    search = sub.add_parser(
        "search",
        parents=[source, objective],
        help="maximize the ratio objective by Dinkelbach iteration: exact min cuts while the "
        "reweighted graph stays nonnegative, peeling beyond (trace lists each step's route)",
    )
    search.set_defaults(handler=_cmd_search)

    risk = sub.add_parser(
        "risk", parents=[source, objective, clist], help="risk-averse solve of an uncertain graph"
    )
    fmt = risk.add_mutually_exclusive_group(required=True)
    fmt.add_argument("--bernoulli", action="store_true", help='input lines are "u v p [w]"')
    fmt.add_argument("--moments", action="store_true", help='input lines are "u v mu sigma2"')
    risk.set_defaults(handler=_cmd_risk)

    exclude = sub.add_parser(
        "exclude", parents=[source, clist], help="layer-exclusion query on a multilayer graph"
    )
    exclude.add_argument("--exclude", required=True, help="comma-separated layer names to exclude")
    mode = exclude.add_mutually_exclusive_group(required=True)
    mode.add_argument("--W", type=float, help="soft penalty per excluded edge (> 0)")
    mode.add_argument("--hard", action="store_true", help="certified exclusion (penalty auto-sized)")
    exclude.set_defaults(handler=_cmd_exclude)

    oracle = sub.add_parser(
        "oracle", parents=[source, objective], help="exhaustive optimum (n <= 22)"
    )
    oracle.add_argument("--objective", action="store_true", help="maximize the ratio objective")
    oracle.set_defaults(handler=_cmd_oracle)

    gen = sub.add_parser("gen", help="emit a generator instance as a signed edge list")
    gen.set_defaults(handler=_cmd_gen)
    kinds = gen.add_subparsers(dest="kind", required=True)
    bad = kinds.add_parser("bad-peeling", help="hub-and-triangle peeling trap")
    bad.add_argument("--n", type=int, required=True)
    bad.add_argument("--eps", type=float, required=True)
    bad.set_defaults(generate=lambda lib, a: lib.gen_bad_peeling(a.n, a.eps))
    two = kinds.add_parser("two-component", help="clique plus random +/-1 noise component")
    two.add_argument("--r", type=int, required=True)
    two.add_argument("--n", type=int, required=True)
    two.add_argument("--seed", type=int, default=0)
    two.set_defaults(generate=lambda lib, a: lib.gen_two_component(a.r, a.n, a.seed))
    shift = kinds.add_parser("shift-failure", help="instance defeating the weight-shift baseline")
    shift.add_argument("--n", type=int, required=True)
    shift.add_argument("--delta", type=float, required=True)
    shift.add_argument("--eps", type=float, required=True)
    shift.set_defaults(generate=lambda lib, a: lib.gen_shift_failure(a.n, a.delta, a.eps))

    return parser


def _read_input(path: str) -> str:
    if path == "-":
        return decode(sys.stdin.buffer.read())
    with open(path, "rb") as handle:
        return decode(handle.read())


def _read_signed(path: str):
    """The signed graph in a file and its labels; the parsed records die here, before any solve."""
    edges, labels = parse_signed(_read_input(path))
    return build_signed_graph(edges, n=len(labels)), labels


def _params(args) -> ObjectiveParams:
    return ObjectiveParams(args.lambda1, args.lambda2, args.risk_tolerance)


def _result_payload(result, labels: list[str]) -> dict:
    """Every field of a :class:`~negdsd.core.DsdResult`, its nodes named by their labels, and its size."""
    payload = {field.name: getattr(result, field.name) for field in fields(result)}
    return {**payload, "nodes": [labels[v] for v in sorted(result.nodes)], "size": result.size}


def _emit(payload: dict, started: float) -> int:
    """Print the JSON report; ``wall_time_s`` runs from ``started`` to now."""
    payload["wall_time_s"] = time.perf_counter() - started
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:  # a reported float is inf or NaN, which JSON cannot carry
        raise BadParametersError(
            "a reported value overflows a float; scale the weights or parameters down"
        ) from None
    print(text)
    return 0


def _cmd_peel(args) -> int:
    graph, labels = _read_signed(args.input)
    if args.objective:
        scoring = PeelScoring(mode="objective", params=_params(args))
    else:
        scoring = PeelScoring()
    result = c_sweep(graph, args.c_list, scoring)
    return _emit(_result_payload(result, labels), args.started)


def _cmd_exact(args) -> int:
    from .exact import exact_dsd

    graph, labels = _read_signed(args.input)
    try:
        result = exact_dsd(graph)
    except NegativeWeightError as error:  # the library names internal ids; name the labels
        raise NegativeWeightError(labels[error.u], labels[error.v], error.weight) from None
    return _emit(_result_payload(result, labels), args.started)


def _cmd_search(args) -> int:
    from .exact import binary_search_objective

    graph, labels = _read_signed(args.input)
    result, trace = binary_search_objective(graph, _params(args))
    payload = _result_payload(result, labels)
    payload["trace"] = {**asdict(trace), "lo": trace.lo, "hi": trace.hi}
    return _emit(payload, args.started)


def _cmd_risk(args) -> int:
    from .uncertain import bernoulli_graph, build_uncertain_graph, risk_profile

    text = _read_input(args.input)
    if args.bernoulli:
        edges, labels = parse_bernoulli(text)
        uncertain = bernoulli_graph(edges, n=len(labels))
    else:
        edges, labels = parse_moments(text)
        uncertain = build_uncertain_graph(edges, n=len(labels))
    result = c_sweep(uncertain, args.c_list, PeelScoring(mode="objective", params=_params(args)))
    report = risk_profile(uncertain, result.nodes)
    payload = _result_payload(result, labels)
    payload["risk"] = asdict(report)
    return _emit(payload, args.started)


def _cmd_exclude(args) -> int:
    from .multilayer import ExclusionQuery, apply_exclusion, layer_report

    graph, labels = parse_multilayer(_read_input(args.input))
    excluded = [name for name in args.exclude.split(",") if name]
    query = ExclusionQuery.hard(excluded) if args.hard else ExclusionQuery.soft(excluded, args.W)
    signed = apply_exclusion(graph, query)
    result = c_sweep(signed, args.c_list, PeelScoring())
    payload = _result_payload(result, labels)
    payload["per_layer"] = {
        str(layer): stats for layer, stats in layer_report(graph, result.nodes, query).items()
    }
    return _emit(payload, args.started)


def _cmd_oracle(args) -> int:
    from .exact import brute_force

    graph, labels = _read_signed(args.input)
    result = brute_force(graph, _params(args) if args.objective else None)
    return _emit(_result_payload(result, labels), args.started)


def _cmd_gen(args) -> int:
    from . import generators

    sys.stdout.write(format_signed(args.generate(generators, args)))
    return 0


def run(argv: list[str]) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    started = time.perf_counter()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own diagnostics
        return int(exc.code or 0)
    args.started = started  # reports time the whole command: read, parse, build and solve
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"negdsd: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"negdsd: {exc}", file=sys.stderr)
        return 2
    except NegDsdError as exc:
        print(f"negdsd: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # What is loaded now lives until the process exits; frozen, it is left out
    # of every later collection, the ones at exit included.
    gc.freeze()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
