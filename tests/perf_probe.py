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

``--exact`` instead times ``exact_dsd`` on three signed graphs built from
records with uniform endpoints and integer weights 1..3 (parallel records
collapse): ``planted``, 5k nodes and 50k records of which 1,225 form a
50-node clique of weight 3; ``uniform``, the same size with no planted
set; and ``large``, 100k nodes and 1M records of which 19,900 form a
200-node clique of weight 3.  Each is solved ``EXACT_REPEATS`` times; the
probe reports the median seconds of the solve, of its float prune
(``prune_seconds``, ``exact._bulk_peel`` plus ``exact._float_core``) and
of its warm start (``start_seconds``, ``exact._warm_start``), the
number of minimum cuts in one solve, the node count of the exact program
that solve built (``program_nodes``, after the float prune), the answer's
size and density, and the probe's peak RSS.

``--clipped`` instead solves ``exact_dsd`` once on the probe graph with
each collapsed pair's net weight clipped at 0, and reports the total,
prune, warm-start and per-cut seconds (``cut_seconds``: q-core, network build and
max flow of each minimum cut), the cut count, ``program_nodes``, and the
answer's size and density.

``--queries`` instead times the reductions of the two query primitives on
graphs of 100k nodes and 1M records with the probe's endpoints:
``uncertain_to_signed`` on an uncertain graph with uniform moments, and
``apply_exclusion`` (hard and soft, excluding one layer) and
``layer_report`` (a fixed 10% of the nodes) on a 3-layer graph.  Each call
runs ``QUERY_REPEATS`` times; the probe reports the median seconds of each,
the seconds of the two builds, the seconds of ``bernoulli_graph`` on 1M
(u, v, p, w) records with those endpoints (``bernoulli_build_seconds``),
and the edge count and weight totals of each graph, so two trees can be
checked for equal answers.

``--small-sweeps`` instead times cold ``c_sweep`` runs on small graphs with
each of the sweep's two serial paths forced: ``dense``, every multiplier
peeled together on ``peeling._peel_dense``, and ``columns``, each
multiplier on ``peel_order`` (forked above the fork threshold, as
``c_sweep`` does).  The grid is ``SMALL_SWEEP_NODES`` nodes times
``SMALL_SWEEP_ARCS`` arcs a node (uniform endpoints, net weights uniform in
[-1, 2] split by sign, parallel records collapsed) times the first ``k`` of
``DEFAULT_C_LIST`` for each ``k`` in ``SMALL_SWEEP_MULTIPLIERS``.  Each cell
runs ``SMALL_SWEEP_REPEATS`` pairs, each pair on a freshly built graph of
its own seed and alternating which path runs first; the probe reports the
median milliseconds of each path, their ratio, and whether both paths gave
equal answers by ``repr`` in every pair.

``--search`` instead times ``binary_search_objective`` on graphs built like
the benchmark's ratio-search inputs: ``SEARCH_NODES`` nodes with
``SEARCH_PER_NODE`` records a node (uniform endpoints, positive weights
1-4) and a planted ``SEARCH_CORE``-node clique of weight 4, in two
regimes: ``mixed`` (rt = 0.25, each negative weight at most 1/32 of its
positive one, in steps of 1/64, so the first steps are minimum cuts) and
``peel`` (rt = 1, a fifth of the positive weights zeroed and negative
weights 0-2, so every step peels), plus one mixed graph of
``SEARCH_LARGE`` nodes (1M records).  Each search runs ``SEARCH_REPEATS``
times; the probe reports the median seconds, the routes and cut count of
the trace, and the answer's size, objective value and ``exact`` flag, so
two trees can be checked for equal answers.

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
import negdsd.core
import negdsd.exact
import negdsd.peeling
from negdsd import (
    DEFAULT_C_LIST,
    ExclusionQuery,
    ObjectiveParams,
    PeelScoring,
    SignedGraph,
    apply_exclusion,
    bernoulli_graph,
    best_prefix,
    binary_search_objective,
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

EXACT_GRAPHS = {  # name: nodes, records, planted clique size, seed salt
    "planted": (5_000, 50_000, 50, 1),
    "uniform": (5_000, 50_000, 0, 0),
    "large": (100_000, 1_000_000, 200, 2),
}
EXACT_REPEATS = 5

QUERY_REPEATS = 7
QUERY_LAYERS = ("follow", "reply", "block")

STARTUP_REPEATS = 3

SMALL_SWEEP_NODES = (50, 100, 200, 300, 400, 512, 640, 768, 1024)
SMALL_SWEEP_ARCS = (10, 40)
SMALL_SWEEP_MULTIPLIERS = (2, 3, 7)
SMALL_SWEEP_REPEATS = 9

SEARCH_NODES = (200, 2_000, 10_000)
SEARCH_LARGE = 100_000  # mixed regime only: one peel-regime search there takes seconds
SEARCH_PER_NODE, SEARCH_CORE = 10, 24
SEARCH_REGIMES = {"mixed": (0.25, 1 / 32), "peel": (1.0, 0.0)}  # name: risk tolerance, most negative/positive
SEARCH_REPEATS = 5


def exact_graph(nodes: int, records: int, clique: int, salt: int) -> SignedGraph:
    """Uniform endpoints and weights 1..3, after which a weight-3 clique of
    ``clique`` random nodes takes its edges' share of the ``records``.

    Parallel records collapse by sum, as in every :class:`SignedGraph`.
    """
    rng = np.random.default_rng([SEED, salt])
    core = rng.choice(nodes, size=clique, replace=False).tolist() if clique else []
    pairs = np.array(list(itertools.combinations(sorted(core), 2)), dtype=np.int64).reshape(-1, 2)
    m = records - pairs.shape[0]
    us, vs = rng.integers(0, nodes, size=(2, m))
    ws = rng.integers(1, 4, size=m).astype(np.float64)
    wpos = np.concatenate([ws, np.full(pairs.shape[0], 3.0)])
    columns = np.concatenate([us, pairs[:, 0]]), np.concatenate([vs, pairs[:, 1]]), wpos, np.zeros_like(wpos)
    return SignedGraph(*negdsd.core._collapse_columns(nodes, *columns))


@contextlib.contextmanager
def exact_spans():
    """Time ``exact_dsd``'s steps while inside; yields a dict that each solve fills.

    ``program_nodes`` is the node count of the exact program, after the float
    prune; ``prune_seconds`` the seconds of ``_bulk_peel`` and ``_float_core``,
    the float prune; ``start_seconds`` the seconds of ``_warm_start``, the
    warm start; ``cut_seconds`` the seconds of each minimum cut
    (``_max_density_side``: q-core, network build and max flow).  Clear the
    dict before each solve.
    """
    spans: dict = {}
    names = ("_ratio_program", "_warm_start", "_max_density_side", "_bulk_peel", "_float_core")
    originals = {name: getattr(negdsd.exact, name) for name in names}

    def program(*args):
        built = originals["_ratio_program"](*args)
        spans["program_nodes"] = built.n
        return built

    def start(*args):
        started = time.perf_counter()
        answer = originals["_warm_start"](*args)
        spans["start_seconds"] = time.perf_counter() - started
        return answer

    def cut(*args):
        started = time.perf_counter()
        answer = originals["_max_density_side"](*args)
        spans.setdefault("cut_seconds", []).append(time.perf_counter() - started)
        return answer

    def prune(name):
        def timed(*args):
            started = time.perf_counter()
            answer = originals[name](*args)
            spans["prune_seconds"] = spans.get("prune_seconds", 0.0) + time.perf_counter() - started
            return answer

        return timed

    for name, wrapper in zip(names, (program, start, cut, prune("_bulk_peel"), prune("_float_core"))):
        setattr(negdsd.exact, name, wrapper)
    try:
        yield spans
    finally:
        for name, original in originals.items():
            setattr(negdsd.exact, name, original)


def exact_stats() -> dict:
    stats = {}
    with exact_spans() as spans:
        for name, shape in EXACT_GRAPHS.items():
            graph = exact_graph(*shape)
            seconds, prunes, starts = [], [], []
            for _ in range(EXACT_REPEATS):
                spans.clear()
                started = time.perf_counter()
                result = exact_dsd(graph)
                seconds.append(time.perf_counter() - started)
                prunes.append(spans["prune_seconds"])
                starts.append(spans["start_seconds"])
            stats[name] = {
                "nodes": graph.n,
                "edges": graph.m,
                "exact_dsd_seconds": statistics.median(seconds),
                "prune_seconds": statistics.median(prunes),
                "start_seconds": statistics.median(starts),
                "min_cuts": len(spans["cut_seconds"]),
                "program_nodes": spans["program_nodes"],
                "result_size": result.size,
                "net_density": result.net_density,
            }
    return stats


def clipped_stats() -> dict:
    """One ``exact_dsd`` solve of the probe graph with its net weights clipped at 0."""
    graph = probe_graph(*probe_edges())
    clipped = SignedGraph(graph.n, graph.u, graph.v, np.maximum(graph.wpos - graph.wneg, 0.0), np.zeros(graph.m))
    del graph
    with exact_spans() as spans:
        started = time.perf_counter()
        result = exact_dsd(clipped)
        seconds = time.perf_counter() - started
    return {
        "nodes": clipped.n,
        "edges": clipped.m,
        "exact_dsd_seconds": seconds,
        "prune_seconds": spans["prune_seconds"],
        "start_seconds": spans["start_seconds"],
        "cut_seconds": spans["cut_seconds"],
        "min_cuts": len(spans["cut_seconds"]),
        "program_nodes": spans["program_nodes"],
        "result_size": result.size,
        "net_density": result.net_density,
    }


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
    ps = (1.0 - rng.uniform(0.0, 1.0, size=EDGES)).tolist()  # in (0, 1]
    ws = rng.uniform(0.0, 4.0, size=EDGES).tolist()

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
    bernoulli = bernoulli_graph(zip(us, vs, ps, ws), n=NODES)
    stats["bernoulli_build_seconds"] = time.perf_counter() - started
    stats["bernoulli"] = signed_stats(uncertain_to_signed(bernoulli))
    del bernoulli, ps, ws

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


def small_graph(nodes: int, arcs_per_node: int, seed: int) -> SignedGraph:
    """``nodes * arcs_per_node / 2`` records with uniform endpoints and net weights in [-1, 2], collapsed."""
    rng = np.random.default_rng([SEED, nodes, arcs_per_node, seed])
    records = nodes * arcs_per_node // 2
    us, vs = rng.integers(0, nodes, size=(2, records))
    nets = rng.uniform(-1.0, 2.0, size=records)
    return SignedGraph(*negdsd.core._collapse_columns(nodes, us, vs, np.maximum(nets, 0.0), np.maximum(-nets, 0.0)))


@contextlib.contextmanager
def sweep_path(path: str):
    """Force every ``c_sweep`` of two or more multipliers onto the ``dense`` or the ``columns`` path while inside."""
    saved = negdsd.peeling._DENSE_MAX_NODES, negdsd.peeling._DENSE_MIN_MULTIPLIERS
    negdsd.peeling._DENSE_MAX_NODES = max(SMALL_SWEEP_NODES) if path == "dense" else 0
    negdsd.peeling._DENSE_MIN_MULTIPLIERS = 2
    try:
        yield
    finally:
        negdsd.peeling._DENSE_MAX_NODES, negdsd.peeling._DENSE_MIN_MULTIPLIERS = saved


def small_sweep_stats() -> list:
    rows = []
    for nodes, arcs, k in itertools.product(SMALL_SWEEP_NODES, SMALL_SWEEP_ARCS, SMALL_SWEEP_MULTIPLIERS):
        c_list = DEFAULT_C_LIST[:k]
        seconds: dict = {"dense": [], "columns": []}
        same = True
        for seed in range(SMALL_SWEEP_REPEATS):
            answers = {}
            for path in ("dense", "columns") if seed % 2 == 0 else ("columns", "dense"):
                graph = small_graph(nodes, arcs, seed)
                with sweep_path(path):
                    started = time.perf_counter()
                    answers[path] = repr(c_sweep(graph, c_list))
                    seconds[path].append(time.perf_counter() - started)
            same = same and answers["dense"] == answers["columns"]
        dense_ms, columns_ms = (1e3 * statistics.median(seconds[path]) for path in ("dense", "columns"))
        rows.append({
            "nodes": nodes,
            "arcs_per_node": arcs,
            "edges": graph.m,
            "multipliers": k,
            "dense_ms": round(dense_ms, 3),
            "columns_ms": round(columns_ms, 3),
            "dense_over_columns": round(dense_ms / columns_ms, 3),
            "same_answers": same,
        })
    return rows


def search_graph(nodes: int, neg_ratio: float) -> SignedGraph:
    """A graph of ``nodes * SEARCH_PER_NODE`` background records and a planted clique (see ``--search``)."""
    rng = np.random.default_rng([SEED, nodes, round(64 * neg_ratio)])
    records = nodes * SEARCH_PER_NODE
    us, vs = rng.integers(0, nodes, size=(2, records))
    wpos = rng.integers(1, 5, size=records).astype(np.float64)
    if neg_ratio > 0:
        wneg = wpos * rng.integers(0, round(64 * neg_ratio) + 1, size=records) / 64
    else:
        wpos[rng.random(records) < 0.2] = 0.0
        wneg = rng.integers(0, 3, size=records).astype(np.float64)
    core = np.sort(rng.permutation(nodes)[:SEARCH_CORE])
    inside = np.zeros(nodes, dtype=bool)
    inside[core] = True
    keep = (us != vs) & ~(inside[us] & inside[vs])  # the clique is planted as designed
    iu, iv = np.triu_indices(SEARCH_CORE, k=1)
    cu, cv = core[iu], core[iv]
    us, vs = np.concatenate([us[keep], cu]), np.concatenate([vs[keep], cv])
    wpos = np.concatenate([wpos[keep], np.full(cu.shape[0], 4.0)])
    wneg = np.concatenate([wneg[keep], np.zeros(cu.shape[0])])
    return SignedGraph(*negdsd.core._collapse_columns(nodes, us, vs, wpos, wneg))


def search_stats() -> list:
    rows = []
    cases = [*itertools.product(SEARCH_NODES, SEARCH_REGIMES.items())]
    cases.append((SEARCH_LARGE, ("mixed", SEARCH_REGIMES["mixed"])))
    for nodes, (regime, (rt, neg_ratio)) in cases:
        graph = search_graph(nodes, neg_ratio)
        params = ObjectiveParams(1.0, 1.0, rt)
        seconds = []
        for _ in range(SEARCH_REPEATS):
            started = time.perf_counter()
            result, trace = binary_search_objective(graph, params)
            seconds.append(time.perf_counter() - started)
        rows.append({
            "nodes": nodes,
            "edges": graph.m,
            "regime": regime,
            "seconds": statistics.median(seconds),
            "routes": trace.routes,
            "cuts": trace.routes.count("flow"),
            "size": result.size,
            "f_value": result.f_value,
            "exact": result.exact,
        })
    return rows


def probe_edges() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ends and net weights of the probe graph's records."""
    rng = np.random.default_rng(SEED)
    us = rng.integers(0, NODES, size=EDGES)
    vs = rng.integers(0, NODES, size=EDGES)
    return us, vs, rng.uniform(-1.0, 3.0, size=EDGES)


def probe_graph(us: np.ndarray, vs: np.ndarray, nets: np.ndarray):
    """The probe graph of ``probe_edges()``: each net weight split by sign, parallel records collapsed."""
    records = zip(us.tolist(), vs.tolist(), np.maximum(nets, 0.0).tolist(), np.maximum(-nets, 0.0).tolist())
    return build_signed_graph(records, n=NODES)


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


def cli_probe() -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        return cli_stats(scratch)


def peel_stats(sweep: bool) -> dict:
    """The default probe: one peel and its best prefix, and with ``sweep`` the sweeps too."""
    us, vs, nets = probe_edges()
    build_start = time.perf_counter()
    graph = probe_graph(us, vs, nets)
    build_seconds = time.perf_counter() - build_start
    del us, vs, nets

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
    if sweep:
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
    return stats


# Each flag that runs a probe instead of the peel, in order of precedence, and its stats.
PROBES = {
    "search": lambda: {"searches": search_stats()},
    "small_sweeps": lambda: {"small_sweeps": small_sweep_stats()},
    "cli": cli_probe,
    "exact": exact_stats,
    "clipped": clipped_stats,
    "queries": query_stats,
}


def main() -> None:
    parser = argparse.ArgumentParser(description="Time the peel of a 100k-node, 1M-edge graph.")
    parser.add_argument("--sweep", action="store_true", help="also time c_sweep over DEFAULT_C_LIST")
    parser.add_argument("--exact", action="store_true", help="time exact_dsd on three planted or uniform graphs instead")
    parser.add_argument("--clipped", action="store_true", help="time exact_dsd on the graph clipped at 0 instead")
    parser.add_argument("--queries", action="store_true", help="time the uncertain and exclusion reductions instead")
    parser.add_argument("--cli", action="store_true", help="time negdsd peel on the graph as a text file instead")
    parser.add_argument("--small-sweeps", action="store_true", help="time both sweep paths on small graphs instead")
    parser.add_argument("--search", action="store_true", help="time the ratio-objective search instead")
    args = parser.parse_args()
    probe = next((stats for flag, stats in PROBES.items() if getattr(args, flag)), None)
    stats = probe() if probe else peel_stats(args.sweep)
    stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(stats))


if __name__ == "__main__":
    main()
