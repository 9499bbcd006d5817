"""The three closed-loop workloads and the round loop that drives them.

One client in one process runs a workload's fixed job list (a round) again
and again, one job at a time, until the run's seconds are used up; at most
one child ``negdsd`` process runs at a time.  Only the library calls are
timed: answers are checked after each job, outside the timed region.

Each workload has two job kinds.  ``job.kind1_s`` and ``job.kind2_s`` are
the per-round time of each kind, so a gain in one kind cannot hide a loss
in the other:

* ``cli-peel``     kind1 = ``negdsd peel``, kind2 = ``negdsd peel --objective``
* ``query-sweep``  kind1 = risk step, kind2 = exclusion step
* ``flow-search``  kind1 = ``exact_dsd``, kind2 = ``binary_search_objective``
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import check
import gen
import negdsd.cli
import negdsd.core
import negdsd.exact
import negdsd.multilayer
import negdsd.peeling
import negdsd.uncertain

STARTUP_PROBES = 3
# On shared 2-vCPU virtual machines the speed swings by up to half within
# seconds, in this process and in the calibration loop alike.  Times are
# therefore reported at a reference speed: wall time times REFERENCE_S over
# the calibration loop's time, measured right before and after each round.
CALIBRATION_LOOPS = 200_000
REFERENCE_S = 0.04


@dataclass
class Job:
    kind: str  # "kind1" or "kind2"
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], float]]  # -> (failures, quality)


def dsd_fields(result) -> dict:
    return {
        "size": result.size,
        "wpos_total": result.wpos_total,
        "wneg_total": result.wneg_total,
        "net_density": result.net_density,
        "f_value": result.f_value,
    }


def planted_value(edges: gen.EdgeList, nodes: np.ndarray, params=None) -> float:
    """Density (or objective, given params) of a planted node set."""
    wpos, wneg = check.induced(edges.u, edges.v, [edges.wpos, edges.wneg], check.node_mask(edges.n, nodes))
    k = nodes.shape[0]
    return (wpos - wneg) / k if params is None else check.objective(wpos, wneg, k, *params)


class Workload:
    name = ""
    kinds = ("", "")  # what kind1 and kind2 are, for the printed summary

    def __init__(self, root: Path, out: Path):
        self.src = root / "src"
        self.out = out

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process, which did the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliPeel(Workload):
    """``negdsd peel`` on a generated 4-column text file with string labels."""

    name = "cli-peel"
    kinds = ("peel", "objective")
    NODES, EDGES, CORE = 6_000, 60_000, 50
    PARAMS = (1.0, 1.0, 1.0)  # the CLI's default objective parameters

    def __init__(self, root: Path, out: Path):
        super().__init__(root, out)
        self.in_process = False  # the traced run calls negdsd.cli.run directly
        self.child_rss: list[float] = []

    def peak_rss_mb(self) -> float:
        """Median peak RSS of the child processes, which did the work."""
        return statistics.median(self.child_rss)

    def setup(self, seed: int) -> None:
        data = gen.peel_input(seed, self.NODES, self.EDGES, self.CORE)
        self.path = self.out / "cli-peel.tsv"
        self.path.write_text(gen.signed_text(data.edges, data.labels), encoding="utf-8")
        self.edges = data.edges
        self.ids = {label: i for i, label in enumerate(data.labels)}
        self.reference = {
            "kind1": planted_value(data.edges, data.core),
            "kind2": planted_value(data.edges, data.core, self.PARAMS),
        }

    def argv(self, kind: str) -> list[str]:
        return ["peel", str(self.path)] + (["--objective"] if kind == "kind2" else [])

    def child_env(self) -> dict:
        """Environment that makes a child import ``negdsd`` from this checkout."""
        return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(self.src), os.environ.get("PYTHONPATH")])))

    def spawn(self, argv: list[str]) -> dict:
        """Run one child process; wall time is spawn to exit, RSS its peak."""
        with open(self.out / "child.err", "w+b") as err:
            started = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, "-m", "negdsd.cli", *argv], stdout=subprocess.PIPE, stderr=err, env=self.child_env()
            )
            stdout = child.stdout.read()
            child.stdout.close()
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - started
            child.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        self.child_rss.append(usage.ru_maxrss / 1024.0)
        return {"code": child.returncode, "stdout": stdout.decode(), "stderr": stderr, "wall": wall}

    def call(self, kind: str) -> dict:
        if not self.in_process:
            return self.spawn(self.argv(kind))
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = negdsd.cli.run(self.argv(kind))
        return {"code": code, "stdout": captured.getvalue(), "stderr": ""}

    def jobs(self) -> list[Job]:
        return [Job(kind, self.kinds[i], lambda kind=kind: self.call(kind), lambda a, kind=kind: self.verify(kind, a))
                for i, kind in enumerate(("kind1", "kind2"))]

    def verify(self, kind: str, answer: dict) -> tuple[list[str], float]:
        if answer["code"] != 0:
            return [f"exit code {answer['code']}: {answer['stderr'].strip()[-300:]}"], 0.0
        payload = json.loads(answer["stdout"])
        try:
            nodes = [self.ids[label] for label in payload["nodes"]]
        except KeyError as exc:
            return [f"unknown label {exc}"], 0.0
        params = self.PARAMS if kind == "kind2" else None
        failures, _, _, f = check.check_values(self.edges, nodes, payload, params)
        if payload["exact"] is not False:
            failures.append("a peel result claims to be exact")
        if payload["c_used"] != 1.0:
            failures.append(f"c_used {payload['c_used']!r} with the default --c-list 1")
        achieved = f if kind == "kind2" else payload["net_density"]
        return failures, achieved / self.reference[kind]

    def startup_seconds(self) -> float:
        """Median spawn-to-exit of a child that only imports the CLI."""
        walls = []
        for _ in range(STARTUP_PROBES):
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import negdsd.cli"], env=self.child_env(), check=True)
            walls.append(time.perf_counter() - started)
        return statistics.median(walls)

    def unreported_seconds(self) -> float:
        """Median process wall minus the CLI's own ``wall_time_s``."""
        gaps = []
        for kind in ("kind1", "kind2"):
            answer = self.spawn(self.argv(kind))
            if answer["code"] == 0:
                gaps.append(answer["wall"] - json.loads(answer["stdout"])["wall_time_s"])
        return statistics.median(gaps) if gaps else 0.0


class QuerySweep(Workload):
    """Risk-tolerance sweep on an uncertain graph and layer exclusions."""

    name = "query-sweep"
    kinds = ("risk", "exclude")
    NODES, EDGES = 3_000, 15_000
    RISKY, SAFE, CLEAN, DIRTY = 21, 9, 14, 14
    TOLERANCES = (0.25, 1.0, 2.0)
    SOFT_W = 0.5

    def setup(self, seed: int) -> None:
        data = gen.uncertain_input(seed, self.NODES, self.EDGES, self.RISKY, self.SAFE)
        self.uncertain = negdsd.uncertain.bernoulli_graph(data.records(), n=data.n)
        self.signed = negdsd.uncertain.uncertain_to_signed(self.uncertain)
        layered = gen.multilayer_input(seed, self.NODES, self.EDGES, self.CLEAN, self.DIRTY)
        self.multilayer = negdsd.multilayer.build_multilayer_graph(layered.records(), n=layered.n)
        self.moments = data.moments()
        self.risk_reference = {
            rt: max(planted_value(self.moments, c, (1.0, 1.0, rt)) for c in data.clusters) for rt in self.TOLERANCES
        }
        self.layered = layered
        excluded = layered.layer == gen.LAYERS.index("block")
        self.excluded = excluded
        hard_w = float((~excluded).sum() + 1)  # the documented hard penalty
        self.rewrites = {}
        for mode, w in (("hard", hard_w), ("soft", self.SOFT_W)):
            edges = gen.EdgeList(layered.n, layered.u, layered.v, (~excluded).astype(np.float64), excluded * w)
            self.rewrites[mode] = (edges, max(planted_value(edges, c) for c in layered.clusters))

    def jobs(self) -> list[Job]:
        self.last_risk = None
        jobs = [Job("kind1", f"risk rt={rt}", lambda rt=rt: self.risk(rt), lambda a, rt=rt: self.verify_risk(rt, a))
                for rt in self.TOLERANCES]
        jobs += [Job("kind2", f"exclude {mode}", lambda mode=mode: self.exclude(mode),
                     lambda a, mode=mode: self.verify_exclude(mode, a)) for mode in ("hard", "soft")]
        return jobs

    def risk(self, rt: float):
        scoring = negdsd.peeling.PeelScoring(mode="objective", params=negdsd.core.ObjectiveParams(1.0, 1.0, rt))
        result = negdsd.peeling.c_sweep(self.signed, negdsd.peeling.DEFAULT_C_LIST, scoring)
        return result, negdsd.uncertain.risk_profile(self.uncertain, result.nodes)

    def verify_risk(self, rt: float, answer) -> tuple[list[str], float]:
        result, report = answer
        failures, mu, risk, f = check.check_values(self.moments, result.nodes, dsd_fields(result), (1.0, 1.0, rt))
        k = result.size
        if report.size != k or not check.close(report.avg_expected_reward, mu / k) or not check.close(report.avg_risk, risk / k):
            failures.append(f"risk_profile {report} != recomputed ({mu / k!r}, {risk / k!r}, {k})")
        if self.last_risk is not None:
            failures += check.check_risk_order([self.last_risk[0], rt], [self.last_risk[1], report.avg_risk])
        self.last_risk = (rt, report.avg_risk)
        return failures, (f or 0.0) / self.risk_reference[rt]

    def query(self, mode: str):
        if mode == "hard":
            return negdsd.multilayer.ExclusionQuery.hard(["block"])
        return negdsd.multilayer.ExclusionQuery.soft(["block"], self.SOFT_W)

    def exclude(self, mode: str):
        query = self.query(mode)
        signed = negdsd.multilayer.apply_exclusion(self.multilayer, query)
        result = negdsd.peeling.c_sweep(signed, negdsd.peeling.DEFAULT_C_LIST)
        return result, negdsd.multilayer.layer_report(self.multilayer, result.nodes, query)

    def verify_exclude(self, mode: str, answer) -> tuple[list[str], float]:
        result, report = answer
        edges, reference = self.rewrites[mode]
        failures, _, _, _ = check.check_values(edges, result.nodes, dsd_fields(result))
        layered = self.layered
        if mode == "hard":
            failures += check.check_no_excluded(layered.u, layered.v, self.excluded, layered.n, result.nodes)
        mask = check.node_mask(layered.n, result.nodes)
        both = mask[layered.u] & mask[layered.v]
        for index, layer in enumerate(gen.LAYERS):
            count = int((both & (layered.layer == index)).sum())
            if report[layer]["count"] != count:
                failures.append(f"layer_report {layer} count {report[layer]['count']} != {count}")
        return failures, result.net_density / reference


class FlowSearch(Workload):
    """Exact densest subgraph and two ratio-objective searches."""

    name = "flow-search"
    kinds = ("exact", "search")
    NODES, EDGES, CORE = 5_000, 50_000, 50
    SEARCH_NODES, PER_NODE, SEARCH_CORE = 200, 10, 24
    # (risk tolerance, negative-to-positive weight ratio): mixed regime, then peel regime
    SEARCHES = ((0.25, 1 / 32), (1.0, 0.0))

    def __init__(self, root: Path, out: Path):
        super().__init__(root, out)
        self.certified: set[frozenset] = set()  # answers already certified optimal

    def setup(self, seed: int) -> None:
        self.exact_edges, _ = gen.exact_input(seed, self.NODES, self.EDGES, self.CORE)
        self.exact_graph = negdsd.core.build_signed_graph(self.exact_edges.records(), n=self.NODES).net_weighted()
        self.searches = []
        for salt, (rt, ratio) in enumerate(self.SEARCHES):
            edges, core = gen.search_input(seed, salt, self.SEARCH_NODES, self.PER_NODE, self.SEARCH_CORE, ratio)
            graph = negdsd.core.build_signed_graph(edges.records(), n=self.SEARCH_NODES)
            params = (1.0, 1.0, rt)
            self.searches.append((graph, edges, params, planted_value(edges, core, params)))

    def jobs(self) -> list[Job]:
        jobs = [Job("kind1", "exact_dsd", lambda: negdsd.exact.exact_dsd(self.exact_graph), self.verify_exact)]
        for i, (graph, _, params, _) in enumerate(self.searches):
            jobs.append(Job("kind2", f"search rt={params[2]}",
                            lambda graph=graph, params=params: negdsd.exact.binary_search_objective(
                                graph, negdsd.core.ObjectiveParams(*params)),
                            lambda a, i=i: self.verify_search(i, a)))
        return jobs

    def verify_exact(self, result) -> tuple[list[str], float]:
        failures, _, _, _ = check.check_values(self.exact_edges, result.nodes, dsd_fields(result))
        if not failures and result.nodes not in self.certified:
            failures = check.certify_densest(self.exact_edges, result.nodes)
            if not failures:
                self.certified.add(result.nodes)
        # The reference is the certified optimum, which is the answer itself.
        return failures, 1.0

    def verify_search(self, i: int, answer) -> tuple[list[str], float]:
        result, trace = answer
        _, edges, params, reference = self.searches[i]
        failures, _, _, f = check.check_values(edges, result.nodes, dsd_fields(result), params)
        if trace.exact != result.exact:
            failures.append("search trace and result disagree on exact")
        if result.exact and not failures:
            failures += check.certify_objective(edges, result.f_value, params)
        return failures, (f or 0.0) / reference


WORKLOADS = {w.name: w for w in (CliPeel, QuerySweep, FlowSearch)}


def calibration_seconds() -> float:
    """Wall time of a fixed pure-Python loop: a probe of the machine's current speed."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(CALIBRATION_LOOPS):
        table[i * 7919 % 100_003] = i
        total += i * i % 7
    return time.perf_counter() - started


@dataclass
class Round:
    seconds: float
    kind_seconds: dict
    job_spans: list
    setup_seconds: float = 0.0
    scale: float = 1.0  # REFERENCE_S over the calibration time measured around the round


class Runner:
    """Runs set-ups and rounds of one workload and gathers the outcomes."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.qualities: list[float] = []

    def run_round(self, tracer=None) -> Round:
        gc.collect()
        kind_seconds = {"kind1": 0.0, "kind2": 0.0}
        spans = []
        for job in self.workload.jobs():
            self.attempted += 1
            if tracer:
                spans.append(len(tracer.spans))
            span = tracer.span(f"job.{job.kind}") if tracer else contextlib.nullcontext()
            started = time.perf_counter()
            elapsed = None
            try:
                with span:
                    answer = job.run()
                elapsed = time.perf_counter() - started
                failures, quality = job.check(answer)
            except Exception:  # a crash is a failed job, not a failed benchmark
                if elapsed is None:
                    elapsed = time.perf_counter() - started
                failures, quality = [traceback.format_exc()], 0.0
            kind_seconds[job.kind] += elapsed
            if failures:
                self.failed += 1
                print(f"FAILED {self.workload.name} {job.label}: " + "; ".join(failures), file=sys.stderr)
            else:
                self.qualities.append(quality)
        return Round(sum(kind_seconds.values()), kind_seconds, spans)

    def run_rounds(self, seconds: float, tracer=None, setup=None) -> list[Round]:
        """Rounds until ``seconds`` have passed, each between two calibrations.

        ``setup``, when given, runs and is timed before each round.
        """
        deadline = time.perf_counter() + seconds
        rounds = []
        while not rounds or time.perf_counter() < deadline:
            before = calibration_seconds()
            setup_seconds = 0.0
            if setup is not None:
                started = time.perf_counter()
                setup()
                setup_seconds = time.perf_counter() - started
            result = self.run_round(tracer)
            result.setup_seconds = setup_seconds
            result.scale = 2 * REFERENCE_S / (before + calibration_seconds())
            rounds.append(result)
        return rounds
