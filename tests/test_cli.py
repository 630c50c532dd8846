"""Command-line surface: every subcommand end to end, in process."""
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalscreen import (
    DirectedMixedGraph,
    EventHistory,
    ExponentialKernel,
    HawkesModel,
    connectome,
    experiments,
)
from causalscreen.cli import main
from conftest import DEMO_EDGES, DEMO_LABELS

K = ExponentialKernel


@pytest.fixture
def graph_file(tmp_path):
    g = DirectedMixedGraph(6, DEMO_EDGES, labels=DEMO_LABELS)
    path = tmp_path / "truth.json"
    path.write_text(g.to_json())
    return str(path)


@pytest.fixture
def model_file(tmp_path):
    m = HawkesModel(
        (0.5, 0.5),
        ((K(0.3, 1.0), K(0.3, 2.0)), (K(0.4, 1.0), K(0.2, 1.0))),
        50.0,
    )
    path = tmp_path / "model.json"
    with open(path, "w") as fh:
        m.to_json(fh)
    return str(path)


@pytest.fixture
def synapse_file(tmp_path):
    rows = "".join(f"n{i},n{(i * 3 + 1) % 8},{5 + i},chem\n" for i in range(8))
    path = tmp_path / "synapses.csv"
    path.write_text("pre,post,count,type\n" + rows + "n0,n7,6,gap\n")
    return str(path)


class TestLearn:
    def test_full_output(self, graph_file, tmp_path):
        out = tmp_path / "learned.json"
        dot = tmp_path / "learned.dot"
        rc = main(
            [
                "learn", "--graph", graph_file, "--observed", "a,d,e",
                "--algo", "cs", "--emit-certificates", "--emit-trace",
                "--out-json", str(out), "--out-dot", str(dot),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["algo"] == "cs"
        assert payload["oracle_calls"] == 10
        assert payload["observed"] == ["a", "d", "e"]
        assert payload["graph"]["nodes"] == ["a", "d", "e"]
        got = {tuple(e) for e in payload["graph"]["directed"]}
        assert got == {(0, 1), (0, 2), (1, 2), (2, 1)}
        assert payload["certificates"] == {"d->a": ["a"], "e->a": ["a"]}
        stages = {step["stage"] for step in payload["trace"]}
        assert stages == {"trek", "parent"}
        assert '"a" -> "d";' in dot.read_text()

    def test_trace_and_certs_off_by_default(self, graph_file, capsys):
        rc = main(["learn", "--graph", graph_file, "--observed", "a,d,e"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "trace" not in payload
        assert "certificates" not in payload

    def test_observed_from_at_file(self, graph_file, tmp_path, capsys):
        listing = tmp_path / "obs.txt"
        listing.write_text("a\nd\ne\n")
        rc = main(["learn", "--graph", graph_file, "--observed", f"@{listing}"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["observed"] == ["a", "d", "e"]

    def test_unknown_label_fails_cleanly(self, graph_file, capsys):
        rc = main(["learn", "--graph", graph_file, "--observed", "a,zz"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, capsys):
        rc = main(["learn", "--graph", "/no/such/file.json"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestMusep:
    def test_csv_golden(self, graph_file, capsys):
        rc = main(["musep", "--graph", graph_file, "-A", "e", "-B", "d", "-C", "d"])
        assert rc == 0
        assert capsys.readouterr().out == "A;B;C;answer\ne;d;d;false\n"

    def test_separated_pair(self, graph_file, capsys):
        rc = main(["musep", "--graph", graph_file, "-A", "e", "-B", "a", "-C", "a"])
        assert rc == 0
        assert capsys.readouterr().out.endswith("true\n")

    def test_json_format(self, graph_file, capsys):
        rc = main(
            ["--format", "json", "musep", "--graph", graph_file, "-A", "e", "-B", "d"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "sources": ["e"],
            "targets": ["d"],
            "given": [],
            "independent": False,
        }

    # CSV lists labels in id order (g is node 2, d node 3), JSON by label
    MULTI = ["musep", "-A", "e,a", "-B", "g,d"]
    MULTI_CSV = "A;B;C;answer\na|e;g|d;;false\n"
    MULTI_JSON = ('{\n  "given": [],\n  "independent": false,\n'
                  '  "sources": [\n    "a",\n    "e"\n  ],\n'
                  '  "targets": [\n    "d",\n    "g"\n  ]\n}\n')

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_multi_node_golden(self, graph_file, capsys, fmt):
        rc = main(["--format", fmt] + self.MULTI + ["--graph", graph_file])
        assert rc == 0
        expected = self.MULTI_CSV if fmt == "csv" else self.MULTI_JSON
        assert capsys.readouterr().out == expected

    def test_node_named_twice_is_listed_once(self, graph_file, capsys):
        args = ["musep", "--graph", graph_file, "-A", "d,d,3", "-B", "e,e", "-C", "a,a"]
        assert main(args) == 0
        assert capsys.readouterr().out == "A;B;C;answer\nd;e;a;false\n"
        assert main(["--format", "json"] + args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"sources": ["d"], "targets": ["e"], "given": ["a"],
                           "independent": False}

    def test_unknown_node(self, graph_file, capsys):
        rc = main(["musep", "--graph", graph_file, "-A", "qq", "-B", "d"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_csv_output_parses_back(self, model_file, tmp_path):
        out = tmp_path / "events.csv"
        rc = main(["simulate", "--model", model_file, "--seed", "9", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            h = EventHistory.from_csv(fh, n=2, horizon=50.0)
        assert h.total > 0

    def test_deterministic_reruns(self, model_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["simulate", "--model", model_file, "--seed", "3", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_interventions(self, model_file, capsys):
        rc = main(
            [
                "--format", "json", "simulate", "--model", model_file,
                "--seed", "4", "--intervene", "0@1,2.5", "--intervene", "1",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["T"] == 50.0
        assert payload["times"][0] == [1.0, 2.5]
        assert payload["times"][1] == []

    def test_bad_intervention_spec(self, model_file, capsys):
        for spec in ("0@oops", "0@nan", "0@1,inf"):
            rc = main(["simulate", "--model", model_file, "--intervene", spec])
            assert rc == 2
            assert "error:" in capsys.readouterr().err


class TestBench:
    ARGS = [
        "bench", "--n", "4", "--p-dir", "0.3,0.6", "--p-bi", "0.2",
        "--count", "2", "--algos", "cs,ca",
    ]

    def test_csv_shape(self, capsys):
        rc = main(self.ARGS + ["--seed", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == (
            "algo,replicate,n,p_dir,p_bi,true_directed,true_bidirected,excess,calls,ms"
        )
        assert len(lines) == 1 + 2 * 2 * 2  # densities x replicates x algos

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(self.ARGS + ["--seed", "5", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_global_flags_work_in_both_positions(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["--seed", "5"] + self.ARGS + ["--out", str(a)])
        main(self.ARGS + ["--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        rc = main(["--format", "json"] + self.ARGS)
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"rows", "aggregate"}
        assert {r["algo"] for r in payload["rows"]} == {"cs", "ca"}
        assert payload["aggregate"]["cs"]["rows"] == 4

    def test_threads_flag_keeps_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(self.ARGS + ["--seed", "5", "--out", str(a)])
        main(self.ARGS + ["--seed", "5", "--threads", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestConnectome:
    def test_csv_output(self, synapse_file, capsys):
        rc = main(
            [
                "connectome", "--file", synapse_file, "--threshold", "4",
                "--sample", "3", "--algo", "cs", "--seed", "11", "--topk", "2",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == (
            "algo,n_observed,true_edges,excess,calls,"
            "spearman_in,spearman_out,topk_in,topk_out,k"
        )
        assert lines[1].startswith("cs,3,3,0,12,")

    def test_json_output(self, synapse_file, capsys):
        rc = main(
            [
                "--format", "json", "connectome", "--file", synapse_file,
                "--threshold", "4", "--sample", "3", "--seed", "11", "--topk", "2",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["observed"] == ["n0", "n4", "n5"]
        assert payload["excess"] == 0

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        rc = main(["connectome", "--file", str(empty)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


def _exit_code(argv) -> int:
    """``main``'s status, or argparse's exit status for a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_module_entry_point(graph_file):
    proc = subprocess.run(
        [sys.executable, "-m", "causalscreen", "musep", "--graph", graph_file,
         "-A", "e", "-B", "d", "-C", "d"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "A;B;C;answer\ne;d;d;false\n"


@pytest.mark.parametrize("argv", [
    ["learn", "--observed", "a,d,e,f", "--algo", "csap", "--order", "random",
     "--seed", "5", "--emit-certificates", "--emit-trace"],
    ["connectome", "--threshold", "4", "--sample", "5", "--seed", "11"],
    ["connectome", "--threshold", "4", "--sample", "5", "--seed", "11", "--format", "json"],
    ["musep", "-A", "e,a", "-B", "d", "-C", "d,b"],
], ids=["learn", "connectome-csv", "connectome-json", "musep"])
def test_reruns_are_byte_identical_across_hash_seeds(graph_file, synapse_file, argv):
    """String hashing changes with PYTHONHASHSEED; the output bytes must not."""
    argv = argv[:1] + (["--file", synapse_file] if argv[0] == "connectome"
                       else ["--graph", graph_file]) + argv[1:]
    outputs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "causalscreen", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0]


class TestFailuresEndAsErrors:
    """Failed runs print ``error: ...`` and exit 2 instead of a traceback."""

    def test_nodes_must_be_an_array(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nodes": "abc"}))
        rc = main(["learn", "--graph", str(path)])
        assert rc == 2
        assert "error: graph document must contain a 'nodes' array" in capsys.readouterr().err

    def test_malformed_edge(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nodes": ["a", "b"], "directed": [[0, 1, 2]]}))
        rc = main(["musep", "--graph", str(path), "-A", "a", "-B", "b"])
        assert rc == 2
        assert "error: malformed directed edge [0, 1, 2]" in capsys.readouterr().err

    def test_non_stationary_model(self, tmp_path, capsys):
        m = HawkesModel((0.5,), ((K(2.0, 1.0),),), 10.0)
        path = tmp_path / "explosive.json"
        with open(path, "w") as fh:
            m.to_json(fh)
        rc = main(["simulate", "--model", str(path)])
        assert rc == 2
        assert "error: model is not stationary" in capsys.readouterr().err

    @pytest.mark.parametrize("patch, message", [
        ({"kernels": [[5]]}, "kernels[0][0] must be null or an object with numbers a and b"),
        ({"kernels": [[{"a": 1}]]}, "kernels[0][0] must be null or an object with numbers a and b"),
        ({"mu": 5}, "mu must be an array"),
        ({"kernels": [5]}, "kernels[0] must be an array"),
        ({"T": "10"}, "T must be a number"),
        ({"T": 10**400}, "T is too large for a float"),
        ({"mu": [10**400]}, "mu[0] is too large for a float"),
        ({"kernels": [[{"a": 10**400, "b": 1}]]}, "kernels[0][0].a is too large for a float"),
        ({"kernels": [[{"a": 1, "b": 10**400}]]}, "kernels[0][0].b is too large for a float"),
    ])
    def test_malformed_model(self, tmp_path, capsys, patch, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"mu": [0.5], "kernels": [[None]], "T": 10.0, **patch}))
        rc = main(["simulate", "--model", str(path)])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_negative_topk(self, synapse_file, capsys):
        rc = main(["connectome", "--file", synapse_file, "--sample", "3", "--topk", "-1"])
        assert rc == 2
        assert "error: topk must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("exponent, message", [
        ("nan", "weight exponent must be finite, got nan"),
        ("inf", "weight exponent must be finite, got inf"),
        ("1000", "weight exponent 1000.0 overflows the degree weights"),
        ("-1000", "weight exponent -1000.0 leaves fewer than 5 nodes with a nonzero weight"),
    ])
    def test_bad_weight_exponent(self, synapse_file, capsys, exponent, message):
        rc = main(["connectome", "--file", synapse_file, "--sample", "5",
                   "--weight-exponent", exponent])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["learn", "--graph", "g.json", "--threads", "-3"],
        ["simulate", "--model", "m.json", "--threads", "2"],
        ["connectome", "--file", "s.csv", "--threads", "0"],
        ["musep", "--graph", "g.json", "-A", "a", "-B", "b", "--threads", "2"],
    ])
    def test_threads_is_an_option_of_bench_only(self, capsys, args):
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--threads", "4", "bench", "--n", "3", "--p-dir", "0.5"],
        ["--threads=4", "bench"],
        ["--seed", "1", "--threads", "4", "learn", "--graph", "g.json"],
        ["--threads"],
    ])
    def test_leading_threads_points_to_bench(self, capsys, args):
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "error: --threads is an option of bench and goes after it: " \
               "causalscreen bench --threads N ..." in err
        assert "invalid choice" not in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads(self, capsys, threads):
        rc = main(TestBench.ARGS + ["--threads", threads])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"error: threads must be >= 1, got {threads}" in captured.err
        assert captured.out == ""

    def test_event_cap(self, model_file, capsys):
        rc = main(["simulate", "--model", model_file, "--max-events", "1"])
        assert rc == 2
        assert "error: event cap 1 exceeded" in capsys.readouterr().err

    def test_negative_event_cap(self, model_file, capsys):
        rc = main(["simulate", "--model", model_file, "--max-events", "-1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error: max_events must be >= 0, got -1" in captured.err
        assert "exploding" not in captured.err and captured.out == ""

    def test_overflowing_intensity(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        with open(path, "w") as fh:
            HawkesModel((1e308, 1e308), ((K(0.0, 1.0),) * 2,) * 2, 5.0).to_json(fh)
        rc = main(["simulate", "--model", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: total intensity overflows at t = 0.0; model exploding?\n"
        assert captured.out == ""

    # float() reads 1_0 as 10.0 and the Arabic-Indic three as 3.0
    @pytest.mark.parametrize("spec", ["1@a", "0@1,x", "0@1,,2e", "0@1_0", "0@\u0663", "0@1,\u0662.5"])
    def test_intervention_times_must_be_numbers(self, model_file, capsys, spec):
        rc = main(["simulate", "--model", model_file, "--intervene", spec])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: intervention times must be numbers: {spec!r}\n"
        assert captured.out == ""

    # a superscript digit, which int() rejects, and Arabic-Indic one, which
    # int() reads as 1 (node b of the demo graph); a node index has no sign
    @pytest.mark.parametrize("token", ["²", "١", "1²", "٣", "-0"])
    def test_node_ids_are_ascii_decimal(self, graph_file, capsys, token):
        for argv in (["musep", "--graph", graph_file, "-A", "a", "-B", token],
                     ["learn", "--graph", graph_file, "--observed", f"a,{token}"]):
            rc = main(argv)
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: unknown node {token!r}\n"
            assert captured.out == ""

    # int() reads each of these as node 1
    @pytest.mark.parametrize("spec", ["١@2", " 1@2", "+1@2"])
    def test_intervention_node_is_ascii_decimal(self, model_file, capsys, spec):
        rc = main(["simulate", "--model", model_file, "--intervene", spec])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: intervention target must be a node index: {spec!r}\n"
        assert captured.out == ""

    # Each of these was once accepted: int() and float() read 1_0 as 10 and
    # other scripts' digits as theirs, and an empty list swept no density.
    @pytest.mark.parametrize("args, message", [
        (["bench", "--n", "1_0"], "argument --n: invalid int value: '1_0'"),
        (["bench", "--seed", "\u0663"], "argument --seed: invalid int value: '\u0663'"),
        (["bench", "--p-dir", "\u0661"], "error: '\u0661' is not a number"),
        (["bench", "--p-dir", "0_5"], "error: '0_5' is not a number"),
        (["bench", "--p-dir", ""], "error: p_dir needs at least one probability, got ''"),
        (["bench", "--p-bi", ","], "error: p_bi needs at least one probability, got ','"),
        (["bench", "--seed", "-1"], "error: seed must be >= 0, got -1"),
        (["connectome", "--weight-exponent", "\u0661"],
         "argument --weight-exponent: invalid float value: '\u0661'"),
        (["connectome", "--seed", "-1"], "error: seed must be >= 0, got -1"),
    ])
    def test_numbers_mean_what_they_look_like(self, synapse_file, capsys, args, message):
        base = (["bench", "--n", "3", "--p-dir", "0.5", "--count", "1"] if args[0] == "bench"
                else ["connectome", "--file", synapse_file, "--sample", "3"])
        assert _exit_code(base + args[1:]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @staticmethod
    def _drop_learned_edges(monkeypatch, module):
        real_run = module.run

        def lossy_run(*args, **kwargs):
            result = real_run(*args, **kwargs)
            g = result.graph
            empty = DirectedMixedGraph(g.nodes, labels=g.labels())
            return dataclasses.replace(result, graph=empty)

        monkeypatch.setattr(module, "run", lossy_run)

    def test_soundness_violation_in_bench(self, monkeypatch, capsys):
        self._drop_learned_edges(monkeypatch, experiments)
        rc = main(TestBench.ARGS)
        assert rc == 2
        assert "error: output lacks" in capsys.readouterr().err

    def test_soundness_violation_in_connectome(self, monkeypatch, synapse_file, capsys):
        self._drop_learned_edges(monkeypatch, connectome)
        rc = main(["connectome", "--file", synapse_file, "--sample", "3", "--seed", "11"])
        assert rc == 2
        assert "error: output lacks" in capsys.readouterr().err


# -- the error contract over every subcommand ---------------------------------

# Small valid numbers, then forms that int() or float() alone would read or
# that only some fields take: digit separators, a plus sign, other scripts'
# digits, a superscript, a float where an int goes, nan, a negative number,
# the empty string and hexadecimal.
NUMBERS = ("0", "1", "2", "3", "0.5", "1_0", "+3", "٣", "²", "3.0", "nan",
           "-1", "", "0x3")
# what no float field reads as a number, and what no int field does
NOT_FLOATS = {"1_0", "٣", "²", "0x3"}
NOT_INTS = NOT_FLOATS | {"0.5", "+3", "3.0", "nan"}


@st.composite
def cli_runs(draw):
    """A command with small inputs: (command, argv, synapse-table counts, number
    tokens by kind). ``events`` stands for the event CSV reader, which no
    subcommand calls."""
    tokens = {"int": [], "float": []}

    def num(kind, choices=NUMBERS):
        # half the draws from the small valid numbers, so that more runs pass
        tok = draw(st.sampled_from(choices[:5]) | st.sampled_from(choices))
        tokens[kind].append(tok)
        return tok

    def flag(name, kind, choices=NUMBERS):
        return [f"--{name}={num(kind, choices)}"] if draw(st.booleans()) else []

    command = draw(st.sampled_from(
        ("learn", "musep", "simulate", "bench", "connectome", "events")))
    counts = []
    if command == "learn":
        argv = ["learn", *flag("seed", "int"), "--order=random", "--algo=csap"]
        if draw(st.booleans()):
            argv.append(f"--observed=a,d,{num('int')}")
    elif command == "musep":
        argv = ["musep", f"--sources=a,{num('int')}", f"--targets={num('int')}"]
        if draw(st.booleans()):
            argv.append(f"--given=d,{num('int')}")
    elif command == "simulate":
        argv = ["simulate", *flag("seed", "int"), *flag("max-events", "int")]
        if draw(st.booleans()):
            argv.append(f"--intervene={num('int')}@{num('float')},{num('float')}")
    elif command == "bench":
        argv = ["bench", f"--n={num('int')}", f"--p-dir={num('float')}",
                f"--count={num('int')}", "--algos=cs,ca", *flag("p-bi", "float"),
                *flag("latent-fraction", "float"), *flag("seed", "int"),
                *flag("threads", "int", tuple(t for t in NUMBERS if t != "3"))]
    elif command == "connectome":
        counts = [draw(st.sampled_from(("5", "9"))) for _ in range(7)] + [num("int")]
        argv = ["connectome", *flag("threshold", "int"), *flag("sample", "int"),
                *flag("weight-exponent", "float"), *flag("topk", "int"),
                *flag("seed", "int")]
    else:
        argv = [f"{num('int')},{num('float')}"]
    return command, argv, counts, tokens


def _run(command, argv, counts, files) -> tuple:
    """(status, stderr) of one run; the event CSV reader fails with status 2."""
    if command == "events":
        try:
            EventHistory.from_csv(io.StringIO(f"node,time\n{argv[0]}\n"), n=2, horizon=5.0)
        except ValueError as exc:
            return 2, f"error: {exc}"
        return 0, ""
    if command == "connectome":
        rows = "".join(f"n{i},n{(i * 3 + 1) % 8},{c},chem\n" for i, c in enumerate(counts))
        files["connectome"].write_text("pre,post,count,type\n" + rows + "n0,n7,6,gap\n")
    option = {"learn": "--graph", "musep": "--graph", "simulate": "--model",
              "bench": None, "connectome": "--file"}[command]
    argv = argv[:1] + ([f"{option}={files[command]}"] if option else []) + argv[1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = _exit_code(argv)
    return status, err.getvalue()


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    graph, model = root / "truth.json", root / "model.json"
    graph.write_text(DirectedMixedGraph(6, DEMO_EDGES, labels=DEMO_LABELS).to_json())
    with open(model, "w") as fh:
        HawkesModel((0.5, 0.5), ((K(0.3, 1.0), K(0.3, 2.0)), (K(0.4, 1.0), K(0.2, 1.0))),
                    5.0).to_json(fh)
    return {"learn": graph, "musep": graph, "simulate": model,
            "connectome": root / "synapses.csv"}


@given(run=cli_runs())
def test_error_contract(cli_files, run):
    """Every run exits 0 or 2 without a traceback, prints ``error:`` on 2, and
    a number token that its field cannot read always ends as an error."""
    command, argv, counts, tokens = run
    status, err = _run(command, argv, counts, cli_files)
    assert status in (0, 2), err
    assert "Traceback" not in err
    if status == 2:
        assert "error:" in err
    if NOT_INTS & set(tokens["int"]) or NOT_FLOATS & set(tokens["float"]):
        assert status == 2, (argv, counts)
