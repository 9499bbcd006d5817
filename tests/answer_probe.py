"""Answer-equality probe: one md5 and one answer count per corpus, over ``repr`` of every answer
(sets sorted: see :func:`canonical`).

    PYTHONPATH=src python tests/answer_probe.py [--check tests/answers.json]

Prints one JSON object, ``{corpus: {"md5": ..., "answers": ...}}``, for
three corpora drawn from fixed seeds (no Hypothesis):

* ``benchmark``: every job of the three ``perfbench`` workloads for seeds
  1-10, run once in this process after its set-up, with the job's own
  check (failures and quality).  ``negdsd peel`` runs in this process and
  its JSON is hashed without ``wall_time_s``.  The workloads are imported
  read-only from ``perfbench/``: their files go to a temporary directory
  and no bytecode is written.
* ``graphs``: ``GRAPHS`` random multigraphs with loops, parallel records
  and +-0.0 weights, each run through ``c_sweep`` in both scoring modes,
  ``peel_order`` at two multipliers, ``best_prefix`` on two random orders
  in both modes, ``binary_search_objective`` with its trace, and
  ``exact_dsd`` and ``dsd_decision`` on the graph and on its records' net
  weights clipped at 0, with the node and arc count of every min-cut
  network built meanwhile.  An error is an answer too: its type and
  message.
* ``parsers``: the four parsers on ``TEXTS`` random texts, plain and
  otherwise, each answer the n, rows and labels of the graph built from
  the parse (``build_signed_graph``, ``bernoulli_graph`` and
  ``build_uncertain_graph`` with n the label count; ``parse_multilayer``'s
  own graph), or the error.

``--check FILE`` exits 1, naming each corpus, when an md5 or count
differs from FILE.  A change that moves answers on purpose updates FILE.
"""

import argparse
import dataclasses
import hashlib
import json
import random
import sys
import tempfile
import time
from pathlib import Path

import negdsd.exact
from negdsd import (
    DEFAULT_C_LIST,
    ObjectiveParams,
    PeelOrder,
    PeelScoring,
    bernoulli_graph,
    best_prefix,
    binary_search_objective,
    build_signed_graph,
    build_uncertain_graph,
    c_sweep,
    dsd_decision,
    exact_dsd,
    peel_order,
)
from negdsd.errors import NegDsdError
from negdsd.io import parse_bernoulli, parse_moments, parse_multilayer, parse_signed

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
GRAPHS = 320
TEXTS = 600
PARAMS = (
    ObjectiveParams(),
    ObjectiveParams(0.5, 2.0, 0.25),
    ObjectiveParams(0.0, 1.0, 4.0),
    ObjectiveParams(2.0, 0.5, 1.0),
)


class Digest:
    """An md5 over the ``repr`` of each answer added, one line each, and their count."""

    def __init__(self):
        self.md5, self.answers = hashlib.md5(), 0

    def add(self, *answer) -> None:
        self.md5.update(repr(canonical(answer)).encode() + b"\n")
        self.answers += 1

    def report(self) -> dict:
        return {"md5": self.md5.hexdigest(), "answers": self.answers}


def canonical(value):
    """``value`` with each set sorted and each dataclass a tuple of its name and fields, so that
    its ``repr`` does not hang on the order in which a set was built."""
    if dataclasses.is_dataclass(value):
        return type(value).__name__, *(canonical(getattr(value, field.name)) for field in dataclasses.fields(value))
    if isinstance(value, (set, frozenset)):
        return sorted(map(canonical, value))
    if isinstance(value, (list, tuple)):
        return type(value)(map(canonical, value))
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    return value


def outcome(call, *args):
    """``call(*args)``, or the type and message of the library error it raises."""
    try:
        return call(*args)
    except NegDsdError as exc:
        return type(exc).__name__, str(exc)


def benchmark_corpus(digest: Digest) -> None:
    sys.dont_write_bytecode = True  # importing the workloads writes nothing under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as out:
        for name, workload_class in workloads.WORKLOADS.items():
            for seed in SEEDS:
                workload = workload_class(ROOT, Path(out))
                workload.in_process = True  # cli-peel runs negdsd peel here, not as a child; the others ignore it
                workload.setup(seed)
                for job in workload.jobs():
                    answer = job.run()
                    failures, quality = job.check(answer)
                    if name == "cli-peel":
                        payload = json.loads(answer["stdout"])
                        del payload["wall_time_s"]
                        answer = answer["code"], payload, answer["stderr"]
                    digest.add(name, seed, job.label, answer, failures, quality)


def random_graph(rng: random.Random):
    """A multigraph of up to 12 nodes: loops, parallel records, +-0.0, integer and float weights."""
    n = rng.randint(1, 12)
    values = [0.0, -0.0, 1.0, 2.0, 3.0, 0.5]
    records = []
    for _ in range(rng.randint(0, 3 * n)):
        u = rng.randrange(n)
        v = u if rng.random() < 0.15 else rng.randrange(n)
        pos, neg = (rng.choice(values + [rng.uniform(0.01, 2.0)]) for _ in range(2))
        records.append((u, v, pos, neg if rng.random() < 0.6 else 0.0))
        if rng.random() < 0.2:  # a parallel record, reversed
            records.append((v, u, rng.choice(values), rng.choice(values)))
    return build_signed_graph(records, n=n), n, records


def graphs_corpus(digest: Digest) -> None:
    networks = []
    dinic = negdsd.exact.Dinic

    class CountedDinic(dinic):
        def __init__(self, n, *arcs):
            super().__init__(n, *arcs)
            networks.append((n, len(self.to)))

    negdsd.exact.Dinic = CountedDinic
    try:
        rng = random.Random(20240401)
        for i in range(GRAPHS):
            graph, n, records = random_graph(rng)
            params = PARAMS[i % len(PARAMS)]
            scorings = (PeelScoring(), PeelScoring("objective", params))
            networks.clear()
            for scoring in scorings:
                digest.add(i, outcome(c_sweep, graph, DEFAULT_C_LIST, scoring))
            for c in (1.0, rng.choice(DEFAULT_C_LIST)):
                digest.add(i, peel_order(graph, c))
                order = PeelOrder(rng.sample(range(n), n), c)
                for scoring in scorings:
                    digest.add(i, outcome(best_prefix, graph, order, scoring))
            digest.add(i, outcome(binary_search_objective, graph, params))
            clipped = build_signed_graph([(u, v, max(pos - neg, 0.0), 0.0) for u, v, pos, neg in records], n=n)
            for target in (graph, clipped):
                best = outcome(exact_dsd, target)
                digest.add(i, best)
                density = best.net_density if hasattr(best, "net_density") else 1.0
                for g in (density, density + 2**-20, density / 2):
                    digest.add(i, g, outcome(dsd_decision, target, g))
            digest.add(i, networks)
    finally:
        negdsd.exact.Dinic = dinic


def random_text(rng: random.Random) -> str:
    """Up to 12 lines of 2-5 fields: mostly valid ones of 3 or 4 fields, with odd whitespace,
    line breaks, comments, labels and numbers mixed in."""
    labels = ["a", "b", "c", "0", "n1", "x_y", "\u00e9"]
    probabilities = ["0.5", "1", "0.25", "3e-2", "5e-324", "+1", "1e-300"]
    numbers = probabilities + ["2", "0", "-0.0", "1_0", "1e300"]
    bad = ["-1", "nan", "infinity", "1e999", "x", "0x10", "1__0"]
    gaps = [" "] * 8 + ["  ", "\t", "\v", "\f", "\x1c", "\x85", "\xa0", "\u3000"]
    breaks = ["\n"] * 8 + ["\n\n", "\r\n", "\r", "\u2029", " # note\n", "#\n"]
    plain = rng.random() < 0.5
    widths = rng.choice([[3], [4], [3, 4]] if rng.random() < 0.9 else [[2], [5], [2, 3, 4, 5]])
    lines = []
    for _ in range(rng.randint(0, 12)):
        fields = [rng.choice(labels[:-1] if plain else labels) for _ in range(2)]
        fields += [rng.choice(probabilities if rng.random() < 0.8 else numbers)]  # a probability in most lines
        fields += [rng.choice(numbers if rng.random() < 0.99 else bad) for _ in range(rng.choice(widths) - 3)]
        gap, end = (rng.choice(gaps[:10]), "\n") if plain else (rng.choice(gaps), rng.choice(breaks))
        lines.append(gap.join(fields) + end)
    return "".join(lines)


def parsed_graph(parse, build, text: str):
    columns, labels = parse(text)
    graph = build(columns, n=len(labels)) if build else columns
    return graph.n, list(graph.rows()), labels


def parsers_corpus(digest: Digest) -> None:
    parsers = (
        (parse_signed, build_signed_graph),
        (parse_bernoulli, bernoulli_graph),
        (parse_moments, build_uncertain_graph),
        (parse_multilayer, None),
    )
    rng = random.Random(20240402)
    for i in range(TEXTS):
        text = random_text(rng)
        for parse, build in parsers:
            digest.add(i, parse.__name__, outcome(parsed_graph, parse, build, text))


CORPORA = {"benchmark": benchmark_corpus, "graphs": graphs_corpus, "parsers": parsers_corpus}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", type=Path, help="committed md5s; exit 1 when any corpus differs")
    args = parser.parse_args()
    report = {}
    for name, corpus in CORPORA.items():
        started = time.perf_counter()
        digest = Digest()
        corpus(digest)
        report[name] = {**digest.report(), "seconds": round(time.perf_counter() - started, 2)}
    print(json.dumps(report))
    if args.check is None:
        return 0
    expected = json.loads(args.check.read_text())
    differ = 0
    for name in CORPORA:
        got, held = {key: report[name][key] for key in ("md5", "answers")}, expected.get(name)
        if got != held:
            print(f"answers of corpus {name} differ: got {got}, {args.check} holds {held}", file=sys.stderr)
            differ += 1
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
