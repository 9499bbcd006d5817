"""File-format parsing, serialization round-trips, and the CLI front end."""

import codecs
import io
import json
import subprocess
import sys
import time

import numpy as np
import pytest

import negdsd.cli
from negdsd import (
    bernoulli_graph,
    build_multilayer_graph,
    build_signed_graph,
    build_uncertain_graph,
    gen_bad_peeling,
    gen_two_component,
)
from negdsd.cli import run
from negdsd.core import EdgeColumns
from negdsd.errors import NegativeMagnitudeError, OutOfRangeError, ParseError, UnknownNodeError
from negdsd.io import (
    decode,
    format_signed,
    parse_bernoulli,
    parse_moments,
    parse_multilayer,
    parse_signed,
)

from conftest import assert_same_signed, child_env


class TestParsing:
    def test_net_format_splits_by_sign(self):
        edges, labels = parse_signed("a b 2\nb c -0.5\n")
        assert labels == ["a", "b", "c"]
        assert list(edges) == [(0, 1, 2.0, 0.0), (1, 2, 0.0, 0.5)]
        assert len(edges) == 2

    def test_net_weights_split_as_pythons_max_does(self):
        weights = [0.0, -0.0, 5e-324, -5e-324, 2.5, -1.0]
        edges, _ = parse_signed("".join(f"a b {w!r}\n" for w in weights))
        expected = np.array([(max(w, 0.0), max(-w, 0.0)) for w in weights])
        assert np.stack([edges.a, edges.b], axis=1).tobytes() == expected.tobytes()

    def test_pair_format(self):
        edges, _ = parse_signed("x y 1 0.5\n")
        assert list(edges) == [(0, 1, 1.0, 0.5)]

    def test_comments_and_blank_lines(self):
        edges, _ = parse_signed("# header\n\na b 1  # trailing\n")
        assert list(edges) == [(0, 1, 1.0, 0.0)]

    def test_leading_byte_order_mark_is_skipped(self):
        triangle = b"0 1 1\n1 2 1\n2 0 1\n"
        assert decode(codecs.BOM_UTF8 + triangle) == decode(triangle)
        edges, labels = parse_signed(decode(codecs.BOM_UTF8 + triangle))
        assert labels == ["0", "1", "2"] and list(edges) == [(0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0), (2, 0, 1.0, 0.0)]
        assert decode(codecs.BOM_UTF8 * 2 + triangle) == "\ufeff" + decode(triangle)  # only one mark is skipped
        with pytest.raises(ParseError) as err:  # and the lines after it count as before
            decode(codecs.BOM_UTF8 + b"a b 1\n\xff c 2\n")
        assert err.value.line == 2

    def test_mixed_widths_rejected_with_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_signed("a b 1\na b 1 2\n")
        assert err.value.line == 2

    def test_bad_number_reported(self):
        with pytest.raises(ParseError) as err:
            parse_signed("a b wat\n")
        assert err.value.line == 1
        with pytest.raises(ParseError):
            parse_signed("a b 1 -2\n")

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_signed, "a b 1\nb c nan\n"),
            (parse_signed, "a b 1 0\nb c inf 0\n"),
            (parse_signed, "a b 1\nb c 1e999\n"),
            (parse_bernoulli, "a b 0.5\nu v 0.5 inf\n"),
            (parse_moments, "a b 1 1\nu v 0.5 inf\n"),
            (parse_moments, "a b 1 1\nu v nan 0.5\n"),
        ],
    )
    def test_non_finite_number_reported(self, parse, text):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == 2
        assert "finite" in str(err.value)

    def test_bernoulli_with_default_reward(self):
        edges, _ = parse_bernoulli("a b 0.5\nb c 0.25 4\n")
        assert list(edges) == [(0, 1, 0.5, 1.0), (1, 2, 0.25, 4.0)]
        with pytest.raises(ParseError):
            parse_bernoulli("a b 0\n")

    def test_moments(self):
        edges, _ = parse_moments("a b 0.17 0.08\n")
        assert list(edges) == [(0, 1, 0.17, 0.08)]
        with pytest.raises(ParseError):
            parse_moments("a b 0.17\n")

    def test_multilayer(self):
        edges, labels = parse_multilayer("u v follow\nv w reply\n")
        assert list(edges) == [(0, 1, "follow"), (1, 2, "reply")]
        assert labels == ["u", "v", "w"]

    def test_builders_take_columns_as_they_take_records(self):
        signed, _ = parse_signed("a b 2 0\nb c 0 0.5\nb a 1 1\n")
        assert_same_signed(build_signed_graph(signed, n=4), build_signed_graph(list(signed), n=4))
        bernoulli, _ = parse_bernoulli("a b 0.5\nb c 0.25 4\nb a 0.1 3\n")
        moments, _ = parse_moments("a b 0.5 0.25\nb a 1 2\n")
        for built, records in (
            (bernoulli_graph(bernoulli), bernoulli_graph(list(bernoulli))),
            (build_uncertain_graph(moments, n=3), build_uncertain_graph(list(moments), n=3)),
        ):
            assert built.n == records.n and list(built.rows()) == list(records.rows())
        layered, _ = parse_multilayer("u v follow\nv w reply\nu v reply\n")
        graph = build_multilayer_graph(layered, n=4)
        assert (graph.n, list(graph.rows()), graph.layers) == (4, list(layered), {"follow", "reply"})
        with pytest.raises(UnknownNodeError):
            build_multilayer_graph(layered, n=2)

    def test_columns_with_bad_values_raise_as_records_do(self):
        ids = np.array([0, 1], dtype=np.int64)
        bad = EdgeColumns(ids, ids[::-1].copy(), np.array([1.0, -2.0]), np.array([0.0, 0.5]))
        with pytest.raises(NegativeMagnitudeError, match=r"edge \(1, 0\)"):
            build_signed_graph(bad)
        with pytest.raises(OutOfRangeError, match="probability"):
            bernoulli_graph(bad)

    def test_roundtrip_is_bit_exact(self):
        for graph in (gen_bad_peeling(16, 0.01), gen_two_component(4, 9, seed=2)):
            text = format_signed(graph)
            edges, labels = parse_signed(text)
            rebuilt = build_signed_graph(edges, n=len(labels))
            original = {(u, v): (wpos, wneg) for u, v, wpos, wneg in graph.rows()}
            relabeled = {
                tuple(sorted((int(labels[u]), int(labels[v])))): (wpos, wneg)
                for u, v, wpos, wneg in rebuilt.rows()
            }
            assert original == relabeled


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_gen_pipe_peel_single_c(self, capsys, tmp_path, monkeypatch):
        code, out, _ = run_cli(capsys, "gen", "bad-peeling", "--n", "16", "--eps", "0.01")
        assert code == 0
        path = tmp_path / "trap.tsv"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "peel", str(path), "--c-list", "1")
        assert code == 0
        report = json.loads(out)
        assert report["net_density"] == pytest.approx(0.01, abs=1e-12)
        assert report["c_used"] == 1.0
        assert sorted(report["nodes"]) == ["0", "1", "2"]

    def test_peel_sweep_recovers_optimum(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "gen", "bad-peeling", "--n", "16", "--eps", "0.01")
        path = tmp_path / "trap.tsv"
        path.write_text(out)
        code, out, _ = run_cli(
            capsys, "peel", str(path), "--c-list", "0.1,0.25,0.5,1,2,4,10"
        )
        assert code == 0
        report = json.loads(out)
        assert report["net_density"] == pytest.approx(3.0075, abs=1e-9)

    def test_reads_stdin_by_default(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"a b 1\nb c 1\na c 1\n")))
        code, out, _ = run_cli(capsys, "exact")
        assert code == 0
        assert json.loads(out)["net_density"] == 1.0

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"a b 1\n\xff c 2\n", 2),
            (b"\xc3\xa9 b 1\r\nb c 1\r\nc \xc3", 3),
            (b"\xe9 b 1\n", 1),
            (b"a b 1\n\x0c\nc d 2\n\xff e 3\n", 4),  # a form feed ends no line
        ],
    )
    def test_invalid_utf8_is_a_parse_error(self, capsys, tmp_path, monkeypatch, data, line):
        path = tmp_path / "bad.tsv"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "peel", str(path))
        assert (code, out) == (2, "")
        assert f"line {line}: byte" in err and "not valid UTF-8" in err and "Traceback" not in err
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run_cli(capsys, "peel") == (2, "", err)

    def test_line_breaks_and_utf8_labels_read_alike(self, capsys, tmp_path):
        outputs = []
        for data in (b"\xc3\xa9 b 1\nb c 2\n", b"\xc3\xa9 b 1\r\nb c 2\r\n", b"\xc3\xa9 b 1\rb c 2"):
            path = tmp_path / "g.tsv"
            path.write_bytes(data)
            code, out, _ = run_cli(capsys, "peel", str(path))
            assert code == 0
            report = json.loads(out)
            del report["wall_time_s"]
            outputs.append(report)
        assert outputs[0]["nodes"] == ["b", "c"] and outputs[1:] == outputs[:1] * 2

    def test_leading_byte_order_mark_is_skipped(self, capsys, tmp_path, monkeypatch):
        data = codecs.BOM_UTF8 + b"0 1 1\n1 2 1\n2 0 1\n"
        path = tmp_path / "bom.tsv"
        path.write_bytes(data)
        code, out, _ = run_cli(capsys, "peel", str(path))
        report = json.loads(out)
        assert code == 0 and (sorted(report["nodes"]), report["net_density"]) == (["0", "1", "2"], 1.0)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, piped, _ = run_cli(capsys, "peel")
        assert code == 0 and without_wall_time(piped) == without_wall_time(out)

    def test_exact_rejects_negative_weights(self, capsys, tmp_path):
        path = tmp_path / "neg.tsv"
        path.write_text("a b -1\n")
        code, _, err = run_cli(capsys, "exact", str(path))
        assert code == 1
        assert "negative" in err
        path.write_text("alice bob 2 0\nbob carol 0 5\n")
        code, _, err = run_cli(capsys, "exact", str(path))
        assert code == 1
        assert err == "negdsd: edge (bob, carol) has negative weight -5.0\n"  # labels, not internal ids

    @pytest.mark.parametrize(
        "delta, eps, message",
        [("nan", "0.1", "delta must be finite, got nan"), ("inf", "1", "delta must be finite, got inf"),
         ("10", "nan", "eps must be finite, got nan")],
    )
    def test_gen_shift_failure_rejects_non_finite(self, capsys, delta, eps, message):
        code, out, err = run_cli(capsys, "gen", "shift-failure", "--n", "20", "--delta", delta, "--eps", eps)
        assert (code, out, err) == (1, "", f"negdsd: {message}\n")

    def test_parse_error_exit_code_and_line(self, capsys, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a b 1\nbroken\n")
        code, _, err = run_cli(capsys, "peel", str(path))
        assert code == 2
        assert "line 2" in err
        path.write_bytes(b"a b 1\n\x0c\nc d 2\nzz\n")  # a form feed ends no line
        code, _, err = run_cli(capsys, "peel", str(path))
        assert (code, err) == (2, "negdsd: line 4: expected 3 fields, got 1\n")

    def test_non_finite_weight_exit_code_and_line(self, capsys, tmp_path):
        path = tmp_path / "nan.tsv"
        path.write_text("a b 1\nb c nan\n")
        code, _, err = run_cli(capsys, "peel", str(path))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "command, text",
        [
            ("peel", "a b 1e308\na b 1e308\n"),
            ("exact", "a b 1e308\na c 1e308\nb c 1\n"),
        ],
    )
    def test_overflowing_weight_sums_rejected(self, capsys, tmp_path, command, text):
        path = tmp_path / "huge.tsv"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, str(path))
        assert code != 0
        assert out == ""
        assert "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "peel", "/nonexistent/file.tsv")
        assert code == 2

    def test_bad_arguments(self, capsys):
        code, _, _ = run_cli(capsys, "peel", "--c-list", "zero")
        assert code == 2
        code, _, err = run_cli(capsys, "peel", "--c-list", ",")
        assert code == 2 and "multiplier list is empty" in err
        code, _, _ = run_cli(capsys, "bogus-subcommand")
        assert code == 2

    def test_search_reports_trace(self, capsys, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a b 1\nb c 1\na c 1\n")
        code, out, _ = run_cli(capsys, "search", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["f_value"] == pytest.approx(2.0, abs=1e-6)
        assert report["exact"] is True
        trace = report["trace"]
        assert trace["iterations"] <= 64
        assert trace["routes"] == ["flow"] * trace["iterations"]
        assert trace["lo"] == trace["hi"] == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "--lambda1", "nan"),
            ("search", "--lambda2", "inf"),
            ("search", "--risk-tolerance", "nan"),
            ("peel", "--objective", "--lambda1", "inf"),
            ("peel", "--c-list", "nan"),
            ("peel", "--c-list", "1,inf"),
        ],
    )
    def test_non_finite_parameters_rejected(self, capsys, tmp_path, argv):
        path = tmp_path / "g.tsv"
        path.write_text("a b 1\nb c 1\na c 1\n")
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code != 0
        assert out == ""
        assert "negdsd" in err and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("peel", "--objective"),
            ("risk", "--moments"),
            ("oracle", "--objective"),
            ("search",),
        ],
    )
    def test_overflowing_objective_rejected(self, capsys, tmp_path, argv):
        path = tmp_path / "g.tsv"
        path.write_text("a a 0 0\na a 1e300 3\n")
        huge = ("--lambda1", "1.7976931348623157e+308", "--risk-tolerance", "1.7976931348623157e+308")
        code, out, err = run_cli(capsys, *argv, *huge, str(path))
        assert code == 1
        assert out == ""
        assert "overflow" in err and "Traceback" not in err

    def test_risk_pipeline(self, capsys, tmp_path):
        path = tmp_path / "u.tsv"
        path.write_text("a b 0.9 2\nb c 0.9 2\na c 0.9 2\nc d 0.1 1\n")
        code, out, _ = run_cli(capsys, "risk", str(path), "--bernoulli")
        assert code == 0
        report = json.loads(out)
        assert report["risk"]["size"] == len(report["nodes"])
        assert report["risk"]["avg_expected_reward"] > 0
        code, _, _ = run_cli(capsys, "risk", str(path))
        assert code == 2  # needs --bernoulli or --moments

    def test_risk_moments_format(self, capsys, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a b 0.9 0.01\nb c 0.9 0.01\na c 0.9 0.01\n")
        code, out, _ = run_cli(capsys, "risk", str(path), "--moments")
        assert code == 0
        report = json.loads(out)
        assert report["risk"]["avg_expected_reward"] == pytest.approx(0.9)
        assert report["risk"]["avg_risk"] == pytest.approx(0.01)

    def test_exclude_hard_guarantee(self, capsys, tmp_path):
        path = tmp_path / "ml.tsv"
        path.write_text(
            "a b follow\nb c reply\na c reply\nc d reply\nb d reply\nc e follow\n"
        )
        code, out, _ = run_cli(capsys, "exclude", "--exclude", "follow", "--hard", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["per_layer"]["follow"]["count"] == 0
        assert report["per_layer"]["reply"]["count"] > 0

    def test_exclude_soft_penalty(self, capsys, tmp_path):
        path = tmp_path / "ml.tsv"
        path.write_text("a b follow\nb c reply\n")
        code, out, _ = run_cli(
            capsys, "exclude", "--exclude", "follow", "--W", "5", str(path)
        )
        assert code == 0
        report = json.loads(out)
        assert report["per_layer"]["follow"]["count"] == 0

    def test_peel_objective_mode(self, capsys, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a b 1 0\nb c 1 0\na c 1 0\n")
        code, out, _ = run_cli(
            capsys, "peel", str(path), "--objective", "--lambda1", "1", "--lambda2", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["f_value"] == pytest.approx(2.0)

    def test_oracle(self, capsys, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a b 1\nb c 1\na c 1\n")
        code, out, _ = run_cli(capsys, "oracle", str(path), "--objective")
        assert code == 0
        assert json.loads(out)["f_value"] == 2.0

    def test_reports_byte_identical_apart_from_wall_time(self, capsys, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a b 1\nb c -2\na c 1\n")
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "peel", str(path), "--c-list", "0.5,1,2")
            assert code == 0
            outputs.append(
                "\n".join(line for line in out.splitlines() if "wall_time_s" not in line)
            )
        assert outputs[0] == outputs[1]

    def test_wall_time_covers_reading_the_input(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "g.tsv"
        path.write_text("a b 1\nb c 1\n")
        read = negdsd.cli._read_input

        def slow_read(name):
            time.sleep(0.05)
            return read(name)

        monkeypatch.setattr(negdsd.cli, "_read_input", slow_read)
        code, out, _ = run_cli(capsys, "peel", str(path))
        assert code == 0
        assert json.loads(out)["wall_time_s"] >= 0.05

    def test_gen_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "gen", "two-component", "--r", "3", "--n", "8", "--seed", "7")
        _, second, _ = run_cli(capsys, "gen", "two-component", "--r", "3", "--n", "8", "--seed", "7")
        assert first == second


def without_wall_time(out: str) -> str:
    return "\n".join(line for line in out.splitlines() if "wall_time_s" not in line)


# Imports the CLI, lists the negdsd modules loaded, runs ``peel`` on the
# file named by argv[1] and lists them again.
IMPORT_PROBE = """
import contextlib, io, json, sys
import negdsd.cli
def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "negdsd")
imported = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = negdsd.cli.run(["peel", sys.argv[1]])
print(json.dumps({"imported": imported, "code": code, "after_peel": loaded()}))
"""


class TestCliImports:
    PEEL_MODULES = ["negdsd", "negdsd.cli", "negdsd.core", "negdsd.errors", "negdsd.io", "negdsd.peeling"]
    SIGNED = "a b 1\nb c 1\na c 1\nc d -0.5\n"
    FILES = {
        "signed.tsv": SIGNED,
        "triangle.tsv": "a b 1\nb c 1\na c 1\n",
        "bernoulli.tsv": "a b 0.9 2\nb c 0.9 2\na c 0.9 2\nc d 0.1 1\n",
        "layers.tsv": "a b follow\nb c reply\na c reply\nc d reply\nb d reply\nc e follow\n",
    }

    def test_peel_loads_only_its_own_modules(self, tmp_path):
        path = tmp_path / "signed.tsv"
        path.write_text(self.SIGNED)
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(path)], env=child_env(), capture_output=True, text=True, check=True
        )
        report = json.loads(child.stdout)
        assert report["imported"] == self.PEEL_MODULES
        assert report["code"] == 0
        assert report["after_peel"] == self.PEEL_MODULES

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "triangle.tsv"],
            ["search", "signed.tsv"],
            ["oracle", "signed.tsv", "--objective"],
            ["risk", "bernoulli.tsv", "--bernoulli"],
            ["exclude", "layers.tsv", "--exclude", "follow", "--hard"],
            ["gen", "bad-peeling", "--n", "16", "--eps", "0.01"],
            ["gen", "two-component", "--r", "3", "--n", "8", "--seed", "7"],
            ["gen", "shift-failure", "--n", "20", "--delta", "10", "--eps", "0.01"],
        ],
        ids=lambda argv: "-".join(argv[:2]) if argv[0] == "gen" else argv[0],
    )
    def test_subcommand_in_a_fresh_process(self, capsys, tmp_path, argv):
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / arg) if arg in self.FILES else arg for arg in argv]
        child = subprocess.run(
            [sys.executable, "-m", "negdsd.cli", *argv], env=child_env(), capture_output=True, text=True
        )
        assert (child.returncode, child.stderr) == (0, "")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert without_wall_time(child.stdout) == without_wall_time(out)
