"""Property-based fuzzing of the input parsers and the command-line front end.

Any text must parse or raise ``ParseError``, and the column path must give
what the line walk gives: the same columns to the bit and the same labels,
or the same ``ParseError`` line and message; any input file and parameters
must make ``negdsd`` exit 0, 1 or 2 without a traceback, and print strict
JSON (no NaN or Infinity) when it succeeds.  Sweeps of one graph under
random multiplier lists and scorings, which reuse the removal orders the
graph keeps, must answer as sweeps of a freshly built graph do.
``exact_dsd`` and ``dsd_decision``, which prune in floats before their
exact program, must answer as their steps over the whole program do.
"""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdsd import (
    ObjectiveParams,
    PeelScoring,
    build_signed_graph,
    c_sweep,
    dsd_decision,
    exact_dsd,
)
import negdsd.io
from negdsd.cli import run
from negdsd.core import EdgeColumns
from negdsd.errors import ParseError
from negdsd.io import parse_bernoulli, parse_moments, parse_multilayer, parse_signed

from test_exact import full_program_decision, full_program_exact_dsd

# Valid values and the float edges around them, then any float at all.
numbers = st.sampled_from(
    ["0", "1", "0.5", "3", "5e-324", "1e-300", "1e300", "1.7976931348623157e+308", "-1", "nan", "inf"]
) | st.floats().map(repr)
tokens = st.one_of(
    numbers,
    st.sampled_from(["a", "b", "c", "#", "nan", "-inf", "1e999", "1_0", "0x10"]),
    st.text(max_size=4),
)
lines = st.lists(tokens, max_size=5).map(" ".join)
texts = st.one_of(st.text(), st.lists(lines, max_size=8).map("\n".join))


@given(text=texts)
def test_parsers_return_or_raise_parse_error(text):
    for parse in (parse_signed, parse_bernoulli, parse_moments, parse_multilayer):
        try:
            parse(text)
        except ParseError:
            pass


# Edge lists as the column path takes them (plain text: ASCII, no '#', only
# space, tab and newline as whitespace; all lines 3 fields wide, all 4, or
# either, as Bernoulli files may be), then lines with every kind of
# whitespace, line break, comment and label that it must leave to the line
# walk.
ascii_labels = st.sampled_from(["a", "b", "c", "0", "n1", "x_y"])
good_values = ["0.5", "1", "0.25", "2", "3e-2", "5e-324", "0", "-0.0", "+1", "1_0", "infinity", "1e-300"]
bad_values = ["-1", "nan", "1e999", "x", "0x10", "1__0", "a"]
plain_gaps, plain_breaks = st.sampled_from([" ", "  ", "\t"]), st.sampled_from(["\n", "\n\n", "\n \t\n"])


def plain_line(widths, values):
    fields = widths.flatmap(lambda width: st.tuples(ascii_labels, ascii_labels, *[values] * (width - 2)))
    return st.tuples(fields, plain_gaps, plain_breaks).map(lambda row: row[1].join(row[0]) + row[2])


plain_values = st.sampled_from(good_values * 20 + bad_values)
plain_texts = st.sampled_from([[3], [4], [3, 4]]).flatmap(
    lambda widths: st.lists(plain_line(st.sampled_from(widths), plain_values), max_size=10)
).map("".join)
any_labels = st.sampled_from(["a", "b", "c", "0", "\u00e9", "\u00fc\u00df"])
odd_gaps = st.sampled_from(
    [" "] * 10 + ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
)
odd_breaks = st.sampled_from(["\n"] * 10 + ["\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2029", " # note\n", "#\n"])
odd_line = st.tuples(
    st.lists(any_labels | st.sampled_from(good_values + bad_values), min_size=2, max_size=5), odd_gaps, odd_breaks
).map(lambda row: row[1].join(row[0]) + row[2])
parser_texts = plain_texts | st.lists(odd_line, max_size=8).map("".join) | texts


def outcome(parse, text):
    """The columns (dtype, shape and bytes of each array) and labels that ``parse`` returns, with a
    multilayer graph's node count and layer names, or its error."""
    try:
        columns, labels = parse(text)
    except ParseError as exc:
        return exc.line, str(exc)
    extra = (columns.a, columns.b) if isinstance(columns, EdgeColumns) else (columns.layer,)
    arrays = [(array.dtype.str, array.shape, array.tobytes()) for array in (columns.u, columns.v, *extra)]
    return arrays, getattr(columns, "n", None), getattr(columns, "_names", None), labels


def plain(text: str) -> bool:
    """Whether the column path must take ``text``: ASCII, no '#', no control character but tab and newline."""
    return text.isascii() and "#" not in text and all(ch >= " " or ch in "\t\n" for ch in text)


column_path = negdsd.io._split


def recording(returns: list):
    """The column path, keeping what it returns in ``returns``."""

    def split(text, formats):
        returns.append(column_path(text, formats))
        return returns[-1]

    return split


@settings(max_examples=300)
@given(text=parser_texts)
def test_column_path_equals_line_walk(text):
    for parse in (parse_signed, parse_bernoulli, parse_moments, parse_multilayer):
        returns = []
        with mock.patch.object(negdsd.io, "_split", recording(returns)):
            fast = outcome(parse, text)
        with mock.patch.object(negdsd.io, "_split", lambda text, formats: None):
            walked = outcome(parse, text)
        with mock.patch.object(negdsd.io, "_CHUNK", 7):  # a chunk of one or two lines
            chunked = outcome(parse, text)
        assert fast == walked == chunked
        if plain(text) and not isinstance(walked[0], int):
            assert returns[0] is not None  # plain text that parses is parsed as columns


weights = st.sampled_from(["0", "0.5", "1", "3", "0.1"])
c_lists = st.lists(numbers, min_size=1, max_size=3).map(",".join)


def edge_file(good, bad, width):
    """Rows with ``width`` columns of ``good`` values, then at most one of ``bad`` ones."""
    label = st.sampled_from("abcdef")
    rows = st.tuples(
        st.lists(st.tuples(label, label, *[good] * width), min_size=1, max_size=8),
        st.lists(st.tuples(label, label, *[bad] * width), max_size=1),
    )
    return rows.map(lambda parts: "\n".join(" ".join(row) for row in parts[0] + parts[1]))


def flags(*names):
    """Some of the named options, each with a number or a list of numbers."""
    pairs = st.lists(st.tuples(st.sampled_from(names), numbers | c_lists), max_size=len(names))
    return pairs.map(lambda chosen: [token for pair in chosen for token in pair])


params = st.sampled_from(["1", "0.5", "3", "5e-324", "1e-300", "1e300", "1.7976931348623157e+308"]) | numbers
objective = st.tuples(params, params, params).map(
    lambda v: ["--lambda1", v[0], "--lambda2", v[1], "--risk-tolerance", v[2]]
)
signed3, signed4 = edge_file(weights, numbers, 1), edge_file(weights, numbers, 2)
layered = edge_file(st.sampled_from("xyz"), st.text(max_size=3), 1)
COMMANDS = {
    "peel": st.tuples(st.just(["peel"]), signed3 | signed4, flags("--c-list")),
    "peel --objective": st.tuples(st.just(["peel", "--objective"]), signed4, objective),
    "exact": st.tuples(st.just(["exact"]), signed3, st.just([])),
    "search": st.tuples(st.just(["search"]), signed4, objective),
    "oracle": st.tuples(st.sampled_from([["oracle"], ["oracle", "--objective"]]), signed4, objective),
    "risk": st.tuples(st.sampled_from([["risk", "--bernoulli"], ["risk", "--moments"]]), signed4, objective),
    "exclude": st.tuples(
        st.sampled_from([["exclude", "--exclude", "x"], ["exclude", "--exclude", "x", "--hard"]]),
        layered,
        flags("--W", "--c-list"),
    ),
}


@pytest.mark.parametrize("name", COMMANDS)
@settings(max_examples=50)
@given(data=st.data())
def test_cli_exits_cleanly(tmp_path_factory, name, data):
    argv, text, options = data.draw(COMMANDS[name])
    path = tmp_path_factory.getbasetemp() / "fuzz.tsv"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([*argv, *options, str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=reject_constant)


def reject_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


magnitudes = st.sampled_from([0.0, 0.5, 1.0, 3.0, 0.1, 2.75])
signed_records = st.integers(1, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), magnitudes, magnitudes), max_size=25),
    )
)
multipliers = st.lists(st.sampled_from([0.1, 0.25, 0.5, 1, 1.0, 2.0, 3.5, 10.0]), min_size=1, max_size=6)
scorings = st.one_of(
    st.builds(PeelScoring),
    st.builds(
        lambda params: PeelScoring("objective", params=ObjectiveParams(*params)),
        st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.25, 1.0, 2.0])),
    ),
)


@given(records=signed_records, sweeps=st.lists(st.tuples(multipliers, scorings), min_size=1, max_size=4))
def test_warm_sweeps_equal_cold_sweeps(records, sweeps):
    n, edges = records
    graph = build_signed_graph(edges, n=n)
    for c_list, scoring in sweeps:
        assert repr(c_sweep(graph, c_list, scoring)) == repr(c_sweep(build_signed_graph(edges, n=n), c_list, scoring))


exact_weights = st.sampled_from(
    [0.0, 5e-324, 2.5e-310, 0.1, 1 / 3, 0.5, 1.0, 3.0, 7.5, 1e290, 1, 2, 2**53 + 1, 2**70 + 3]
)
weighted_records = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), exact_weights), max_size=40),
    )
)


@given(records=weighted_records, g=st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e-320, 1e290]))
def test_float_prune_keeps_exact_answers(records, g):
    n, edges = records
    graph = build_signed_graph([(u, v, w, 0.0) for u, v, w in edges], n=n)
    assert repr(exact_dsd(graph)) == repr(full_program_exact_dsd(graph))
    for q in (g, exact_dsd(graph).net_density):
        assert repr(dsd_decision(graph, q)) == repr(full_program_decision(graph, q))
