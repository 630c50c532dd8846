"""Command-line surface: every subcommand end to end, in process."""
import dataclasses
import io
import json
import subprocess
import sys

import pytest

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
        rc = main(["simulate", "--model", model_file, "--intervene", "0@oops"])
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


def test_module_entry_point(graph_file):
    proc = subprocess.run(
        [sys.executable, "-m", "causalscreen", "musep", "--graph", graph_file,
         "-A", "e", "-B", "d", "-C", "d"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "A;B;C;answer\ne;d;d;false\n"


class TestFailuresEndAsErrors:
    """Failed runs print ``error: ...`` and exit 2 instead of a traceback."""

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
        assert "error: k=-1 not in [0, 3]" in capsys.readouterr().err

    def test_event_cap(self, model_file, capsys):
        rc = main(["simulate", "--model", model_file, "--max-events", "1"])
        assert rc == 2
        assert "error: event cap 1 exceeded" in capsys.readouterr().err

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
