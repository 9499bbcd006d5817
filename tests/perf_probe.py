"""Standalone timing/memory probe for the large-graph peel.

Run in its own process so the peak-RSS measurement is not polluted by other
tests; prints a single JSON object on stdout.  ``peel_seconds`` (gated by
acceptance criterion 9) is ``peel_order_seconds + best_prefix_seconds``.

    PYTHONPATH=src python tests/perf_probe.py [--sweep]

``--sweep`` also times ``c_sweep`` over ``DEFAULT_C_LIST`` on the same
graph (``c_sweep_seconds``) after the peel, and reports the largest peak
RSS of its worker processes (``c_sweep_worker_peak_rss_mb``, which counts
the pages a worker shares with this process as well as its own) and the
largest private memory of a worker (``c_sweep_worker_private_mb``:
``Private_Clean + Private_Dirty`` of ``/proc/self/smaps_rollup``, read in
the worker after each of its peels; null where that file is missing).  It then
times a second sweep of the same graph in objective mode
(``c_sweep_warm_seconds``), which reuses the removal orders the first
sweep kept on the graph and only scores prefixes.

``--exact`` instead times ``exact_dsd`` on two graphs of 5k nodes and 50k
edges with uniform endpoints and integer weights 1..3: ``planted``, where
1,225 of the edges form a 50-node clique of weight 3, and ``uniform``,
with no planted set.  Each is solved ``EXACT_REPEATS`` times; the probe
reports the median seconds, the number of minimum cuts in one solve, the
node count of the exact program that solve built (``program_nodes``, after
the float prune), and the answer's size and density.

``--queries`` instead times the reductions of the two query primitives on
graphs of 100k nodes and 1M records with the probe's endpoints:
``uncertain_to_signed`` on an uncertain graph with uniform moments, and
``apply_exclusion`` (hard and soft, excluding one layer) and
``layer_report`` (a fixed 10% of the nodes) on a 3-layer graph.  Each call
runs ``QUERY_REPEATS`` times; the probe reports the median seconds of each,
the seconds of the two builds, and the edge count and weight totals of
each signed graph, so two trees can be checked for equal answers.

``--cli`` instead writes the probe graph (its seed, ends and net weights)
as a 1M-line 3-column text file, ``u v w`` with the decimal ids as labels,
and times ``negdsd peel`` on it twice.  First as a child process
(``process_wall_seconds``, the child's own ``wall_time_s`` and its
``ru_maxrss``, which also counts the pages this process held when it
spawned the child), then in this process, one layer at a time: read,
parse, build, ``peel_order`` and ``best_prefix`` at c = 1, and the JSON
emit.  It reports the answer's size and density, so two trees can be
checked for equal answers.  It also times interpreter start and imports:
``bare_python_seconds`` and ``import_seconds`` are the median spawn-to-exit
seconds of ``STARTUP_REPEATS`` children running ``python -c pass`` and
``python -c "import negdsd.cli"``.
"""

import argparse
import contextlib
import io
import itertools
import json
import mmap
import os
import resource
import struct
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import negdsd.cli
import negdsd.exact
import negdsd.flow
import negdsd.peeling
from negdsd import (
    DEFAULT_C_LIST,
    ExclusionQuery,
    ObjectiveParams,
    PeelScoring,
    WeightedGraph,
    apply_exclusion,
    best_prefix,
    build_multilayer_graph,
    build_signed_graph,
    build_uncertain_graph,
    c_sweep,
    exact_dsd,
    layer_report,
    peel_order,
    uncertain_to_signed,
)

NODES = 100_000
EDGES = 1_000_000
SEED = 20240301

EXACT_NODES = 5_000
EXACT_EDGES = 50_000
EXACT_CORE = 50
EXACT_REPEATS = 5

QUERY_REPEATS = 7
QUERY_LAYERS = ("follow", "reply", "block")

STARTUP_REPEATS = 3


def exact_graph(planted: bool) -> WeightedGraph:
    """Uniform endpoints and weights 1..3; with ``planted``, a weight-3 clique takes its edges' share."""
    rng = np.random.default_rng([SEED, int(planted)])
    core = rng.choice(EXACT_NODES, size=EXACT_CORE, replace=False).tolist() if planted else []
    clique = [(u, v, 3.0) for u, v in itertools.combinations(sorted(core), 2)]
    m = EXACT_EDGES - len(clique)
    us, vs = rng.integers(0, EXACT_NODES, size=(2, m)).tolist()
    ws = rng.integers(1, 4, size=m).astype(np.float64).tolist()
    return WeightedGraph(EXACT_NODES, list(zip(us, vs, ws)) + clique)


def exact_stats() -> dict:
    cuts = program_nodes = 0
    original = negdsd.flow.Dinic.max_flow
    original_program = negdsd.exact._density_program

    def counted(self, source, sink):
        nonlocal cuts
        cuts += 1
        return original(self, source, sink)

    def sized(graph, nodes=None):
        nonlocal program_nodes
        program = original_program(graph, nodes)
        program_nodes = program.n
        return program

    negdsd.flow.Dinic.max_flow = counted
    negdsd.exact._density_program = sized
    stats = {}
    try:
        for name, planted in (("planted", True), ("uniform", False)):
            graph = exact_graph(planted)
            seconds = []
            for _ in range(EXACT_REPEATS):
                cuts = 0
                started = time.perf_counter()
                result = exact_dsd(graph)
                seconds.append(time.perf_counter() - started)
            stats[name] = {
                "exact_dsd_seconds": statistics.median(seconds),
                "min_cuts": cuts,
                "program_nodes": program_nodes,
                "result_size": result.size,
                "net_density": result.net_density,
            }
    finally:
        negdsd.flow.Dinic.max_flow = original
        negdsd.exact._density_program = original_program
    return stats


def median_seconds(call) -> tuple[float, object]:
    """Median wall seconds of ``QUERY_REPEATS`` calls, and the last answer."""
    seconds = []
    for _ in range(QUERY_REPEATS):
        started = time.perf_counter()
        answer = call()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), answer


def query_stats() -> dict:
    rng = np.random.default_rng(SEED)
    us = rng.integers(0, NODES, size=EDGES).tolist()
    vs = rng.integers(0, NODES, size=EDGES).tolist()
    mus = rng.uniform(0.0, 1.0, size=EDGES).tolist()
    sigma2s = rng.uniform(0.0, 0.25, size=EDGES).tolist()
    layers = [QUERY_LAYERS[code] for code in rng.integers(0, len(QUERY_LAYERS), size=EDGES).tolist()]
    nodes = set(rng.choice(NODES, size=NODES // 10, replace=False).tolist())

    def signed_stats(graph) -> dict:
        return {"edges": graph.m, "total_pos": graph.total_pos, "total_neg": graph.total_neg}

    stats = {"nodes": NODES, "records": EDGES}
    started = time.perf_counter()
    uncertain = build_uncertain_graph(zip(us, vs, mus, sigma2s), n=NODES)
    stats["uncertain_build_seconds"] = time.perf_counter() - started
    stats["uncertain_to_signed_seconds"], signed = median_seconds(lambda: uncertain_to_signed(uncertain))
    stats["uncertain_signed"] = signed_stats(signed)
    del uncertain, signed, mus, sigma2s

    started = time.perf_counter()
    multilayer = build_multilayer_graph(zip(us, vs, layers), n=NODES)
    stats["multilayer_build_seconds"] = time.perf_counter() - started
    del us, vs, layers
    for query in (ExclusionQuery.hard(["block"]), ExclusionQuery.soft(["block"], 0.5)):
        seconds, signed = median_seconds(lambda: apply_exclusion(multilayer, query))
        stats[f"apply_exclusion_{query.mode}_seconds"] = seconds
        stats[f"apply_exclusion_{query.mode}"] = signed_stats(signed)
        del signed
    stats["layer_report_seconds"], report = median_seconds(lambda: layer_report(multilayer, nodes, query))
    stats["layer_report_counts"] = {layer: entry["count"] for layer, entry in report.items()}
    return stats


def probe_edges() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ends and net weights of the probe graph's records."""
    rng = np.random.default_rng(SEED)
    us = rng.integers(0, NODES, size=EDGES)
    vs = rng.integers(0, NODES, size=EDGES)
    return us, vs, rng.uniform(-1.0, 3.0, size=EDGES)


def child_seconds(code: str, env: dict) -> float:
    """Median spawn-to-exit seconds of ``STARTUP_REPEATS`` children running ``python -c code``."""
    seconds = []
    for _ in range(STARTUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds)


def cli_stats(scratch: str) -> dict:
    """The ``--cli`` probe, with its text file in the directory ``scratch``."""
    path = os.path.join(scratch, "probe.tsv")
    us, vs, nets = probe_edges()
    with open(path, "w") as handle:
        handle.writelines(f"{u} {v} {w!r}\n" for u, v, w in zip(us.tolist(), vs.tolist(), nets.tolist()))
    del us, vs, nets
    src = str(Path(negdsd.cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    started = time.perf_counter()
    child = subprocess.run([sys.executable, "-m", "negdsd.cli", "peel", path], env=env, capture_output=True, check=True)
    stats = {
        "records": EDGES,
        "process_wall_seconds": time.perf_counter() - started,
        "process_reported_wall_time_s": json.loads(child.stdout)["wall_time_s"],
        "process_ru_maxrss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "bare_python_seconds": child_seconds("pass", env),
        "import_seconds": child_seconds("import negdsd.cli", env),
    }
    marks = [time.perf_counter()]

    def lap() -> float:
        marks.append(time.perf_counter())
        return marks[-1] - marks[-2]

    text = negdsd.cli._read_input(path)
    stats["read_seconds"] = lap()
    edges, labels = negdsd.cli.parse_signed(text)
    stats["parse_seconds"] = lap()
    del text
    graph = negdsd.cli.build_signed_graph(edges, n=len(labels))
    stats["build_seconds"] = lap()
    del edges
    order = peel_order(graph, 1.0)
    stats["peel_order_seconds"] = lap()
    result = best_prefix(graph, order, PeelScoring())
    stats["best_prefix_seconds"] = lap()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        negdsd.cli._emit(negdsd.cli._result_payload(result, labels), marks[0])
    stats["emit_seconds"] = lap()
    stats["in_process_seconds"] = marks[-1] - marks[0]
    stats.update(labels=len(labels), edges=graph.m, result_size=result.size, net_density=result.net_density)
    stats["same_nodes_as_process"] = json.loads(out.getvalue())["nodes"] == json.loads(child.stdout)["nodes"]
    return stats


def private_mb() -> float | None:
    """Private_Clean + Private_Dirty of this process in MB, or None without smaps_rollup."""
    try:
        with open("/proc/self/smaps_rollup") as rollup:
            lines = rollup.readlines()
    except OSError:
        return None
    fields = dict(line.split(":", 1) for line in lines if ":" in line)
    return sum(int(fields[key].split()[0]) for key in ("Private_Clean", "Private_Dirty")) / 1024.0


def sweep_with_worker_memory(graph, c_list) -> tuple:
    """``c_sweep(graph, c_list)`` and the largest private MB any forked worker reported after a peel.

    Each worker writes its reading into an anonymous shared mapping, which
    forked processes share with this one.
    """
    shared = mmap.mmap(-1, 8)
    shared.write(struct.pack("d", -1.0))
    caller = os.getpid()
    original = negdsd.peeling.peel_order

    def measured(graph, c=1.0):
        order = original(graph, c)
        if os.getpid() != caller:
            mb = private_mb()
            if mb is not None and mb > struct.unpack("d", shared[:8])[0]:
                shared[:8] = struct.pack("d", mb)
        return order

    negdsd.peeling.peel_order = measured
    try:
        result = c_sweep(graph, c_list)
    finally:
        negdsd.peeling.peel_order = original
    worker_mb = struct.unpack("d", shared[:8])[0]
    shared.close()
    return result, (worker_mb if worker_mb >= 0 else None)


def main() -> None:
    parser = argparse.ArgumentParser(description="Time the peel of a 100k-node, 1M-edge graph.")
    parser.add_argument("--sweep", action="store_true", help="also time c_sweep over DEFAULT_C_LIST")
    parser.add_argument("--exact", action="store_true", help="time exact_dsd on two 5k-node graphs instead")
    parser.add_argument("--queries", action="store_true", help="time the uncertain and exclusion reductions instead")
    parser.add_argument("--cli", action="store_true", help="time negdsd peel on the graph as a text file instead")
    args = parser.parse_args()
    if args.cli:
        with tempfile.TemporaryDirectory() as scratch:
            stats = cli_stats(scratch)
        stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(stats))
        return
    if args.exact:
        print(json.dumps(exact_stats()))
        return
    if args.queries:
        stats = query_stats()
        stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(stats))
        return
    us, vs, nets = probe_edges()
    wpos = np.maximum(nets, 0.0)
    wneg = np.maximum(-nets, 0.0)

    build_start = time.perf_counter()
    records = zip(us.tolist(), vs.tolist(), wpos.tolist(), wneg.tolist())
    graph = build_signed_graph(records, n=NODES)
    build_seconds = time.perf_counter() - build_start
    del us, vs, nets, wpos, wneg, records

    peel_start = time.perf_counter()
    order = peel_order(graph, 1.0)
    prefix_start = time.perf_counter()
    result = best_prefix(graph, order, PeelScoring())
    prefix_end = time.perf_counter()

    stats = {
        "nodes": graph.n,
        "edges": graph.m,
        "build_seconds": build_seconds,
        "peel_order_seconds": prefix_start - peel_start,
        "best_prefix_seconds": prefix_end - prefix_start,
        "peel_seconds": prefix_end - peel_start,
        "net_density": result.net_density,
        "result_size": result.size,
    }
    if args.sweep:
        sweep_start = time.perf_counter()
        swept, worker_private_mb = sweep_with_worker_memory(graph, DEFAULT_C_LIST)
        stats["c_sweep_seconds"] = time.perf_counter() - sweep_start
        stats["c_sweep_net_density"] = swept.net_density
        stats["c_sweep_c_used"] = swept.c_used
        stats["c_sweep_worker_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        stats["c_sweep_worker_private_mb"] = worker_private_mb
        warm_start = time.perf_counter()
        c_sweep(graph, DEFAULT_C_LIST, PeelScoring(mode="objective", params=ObjectiveParams()))
        stats["c_sweep_warm_seconds"] = time.perf_counter() - warm_start
    stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(stats))


if __name__ == "__main__":
    main()
