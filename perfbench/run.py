"""Benchmark entry point; run from the root of a negdsd checkout.

    python3 perfbench/run.py --workload cli-peel --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are also written to ``perfbench/out``).
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src`` of the current directory, and the run
stops with exit code 2 when that is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

WORKLOADS = ("cli-peel", "query-sweep", "flow-search")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def at_reference(rounds, seconds) -> float:
    """Median over rounds of a round's time, scaled to the reference speed."""
    return statistics.median(seconds(r) * r.scale for r in rounds)


def end_to_end(workload, runner, rounds) -> dict:
    return {
        "setup_s": (at_reference(rounds, lambda r: r.setup_seconds), "s"),
        "solve_s": (at_reference(rounds, lambda r: r.seconds), "s"),
        "job.kind1_s": (at_reference(rounds, lambda r: r.kind_seconds["kind1"]), "s"),
        "job.kind2_s": (at_reference(rounds, lambda r: r.kind_seconds["kind2"]), "s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        "quality": (statistics.fmean(runner.qualities) if runner.qualities else 0.0, "ratio"),
    }


def traced(workload, runner, seed: int, seconds: float, out: Path) -> dict:
    """Untraced rounds, then the same rounds traced; per-layer metrics."""
    import layers
    from spans import Summary, Tracer

    extra = {"startup_s": 0.0, "unreported_s": 0.0}
    workload.setup(seed)
    if workload.name == "cli-peel":
        extra["startup_s"] = workload.startup_seconds()
        extra["unreported_s"] = workload.unreported_seconds()
        workload.in_process = True  # spans need the CLI in this process
    plain = runner.run_rounds(seconds / 2)
    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.span("setup"):
            workload.setup(seed)
        rounds = runner.run_rounds(seconds / 2, tracer)
    finally:
        tracer.unpatch()
    tracer.write(out / f"trace-{workload.name}-{seed}.json")
    scale = statistics.median(r.scale for r in rounds)
    extra = {name: value * scale for name, value in extra.items()}
    extra["overhead_s"] = at_reference(rounds, lambda r: r.seconds) - at_reference(plain, lambda r: r.seconds)
    setup = Summary(tracer.spans, [0])
    per_round = Summary(tracer.spans, [i for r in rounds for i in r.job_spans])
    return layers.metrics(setup, per_round, len(rounds), scale, extra)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "negdsd" / "__init__.py").is_file():
        print(f"run.py: {src}/negdsd not found; run from the root of a negdsd checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import negdsd
    import workloads

    if Path(negdsd.__file__).resolve().parent != (src / "negdsd").resolve():
        print(f"run.py: imported negdsd from {negdsd.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](root, out)
    runner = workloads.Runner(workload)
    if args.trace:
        metrics = traced(workload, runner, args.seed, args.seconds, out)
    else:
        # A set-up before every round spreads set-up samples over the run.
        rounds = runner.run_rounds(args.seconds, setup=lambda: workload.setup(args.seed))
        metrics = end_to_end(workload, runner, rounds)
        for kind, alias in zip(("kind1", "kind2"), workload.kinds):
            value, unit = metrics[f"job.{kind}_s"]
            print(f"{'job.' + alias + '_s':28} {value:12.6f} {unit}  (reported as job.{kind}_s)")
        print(f"{'rounds':28} {len(rounds):12d}")
        print(f"{'solve_s wall, not scaled':28} {statistics.median(r.seconds for r in rounds):12.6f} s")
        print(f"{'speed scale':28} {statistics.median(r.scale for r in rounds):12.6f} ratio")
    print(f"{'error_rate':28} {runner.failed / runner.attempted:12.6f} ratio  ({runner.failed} of {runner.attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name:28} {value:12.6f} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
