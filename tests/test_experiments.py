"""Benchmark harness: corpora, metrics, and the bench pipeline."""
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalscreen import (
    CorpusConfig,
    DirectedMixedGraph,
    GraphError,
    SoundnessViolation,
    aggregate,
    bench_run,
    excess_edges,
    indegrees,
    outdegrees,
    random_dmg,
    spearman,
    topk_overlap,
    write_metrics_csv,
)
from causalscreen.experiments import METRICS_HEADER, _average_ranks
from helpers import count_projections, reference_average_ranks


class TestCorpus:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CorpusConfig(0, 0.5, 0.5, 1, 0)
        with pytest.raises(ValueError):
            CorpusConfig(3, 1.5, 0.5, 1, 0)
        with pytest.raises(ValueError):
            CorpusConfig(3, 0.5, -0.1, 1, 0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            CorpusConfig(3, 0.5, 0.5, 1, -1)

    @pytest.mark.parametrize("field, value, message", [
        ("n", 2.5, "n 2.5 is not an integer"),
        ("count", 2.5, "count 2.5 is not an integer"),
        ("count", True, "count True is not an integer"),
        ("seed", True, "seed True is not an integer"),
        ("seed", "1", "seed '1' is not an integer"),
        ("p_dir", "0.5", "p_dir must be a number, got '0.5'"),
        ("p_dir", True, "p_dir must be a number, got True"),
        ("p_bi", np.bool_(False), "p_bi must be a number, got "),
    ])
    def test_config_rejects_bad_field_types(self, field, value, message):
        fields = dict(n=3, p_dir=0.5, p_bi=0.5, count=1, seed=0)
        with pytest.raises(ValueError) as info:
            CorpusConfig(**{**fields, field: value})
        assert str(info.value).startswith(message)
        if field in ("n", "count", "seed"):
            assert isinstance(info.value, GraphError)

    def test_config_accepts_numpy_numbers(self):
        cfg = CorpusConfig(np.int64(3), np.float64(0.5), np.float32(0.25), np.int32(2),
                           np.uint8(7))
        assert random_dmg(cfg, 1) == random_dmg(CorpusConfig(3, 0.5, 0.25, 2, 7), 1)

    def test_random_dmg_deterministic(self):
        cfg = CorpusConfig(5, 0.4, 0.3, 10, 77)
        assert random_dmg(cfg, 3) == random_dmg(cfg, 3)
        assert random_dmg(cfg, 3) != random_dmg(cfg, 4) or True  # may collide, no assert

    def test_replicates_differ_in_general(self):
        cfg = CorpusConfig(6, 0.5, 0.5, 10, 77)
        graphs = {random_dmg(cfg, i) for i in range(10)}
        assert len(graphs) > 1

    def test_density_extremes(self):
        empty = random_dmg(CorpusConfig(4, 0.0, 0.0, 1, 1), 0)
        assert not set(empty.nonloop_directed) and not empty.bidirected
        full = random_dmg(CorpusConfig(4, 1.0, 1.0, 1, 1), 0)
        assert len(set(full.nonloop_directed)) == 12
        assert len(full.bidirected) == 6

    def test_edge_frequencies_match_density(self):
        """Mean non-loop directed count over many draws is binomial."""
        cfg = CorpusConfig(4, 0.3, 0.0, 10_000, 555)
        total = sum(
            len(set(random_dmg(cfg, i).nonloop_directed)) for i in range(cfg.count)
        )
        mean = 12 * 0.3 * cfg.count
        sigma = math.sqrt(12 * 0.3 * 0.7 * cfg.count)
        assert abs(total - mean) < 3 * sigma


class TestMetrics:
    def test_excess(self):
        truth = DirectedMixedGraph(2, [(0, 1)])
        assert excess_edges(truth, truth) == 0
        assert excess_edges(DirectedMixedGraph(2, [(0, 1), (1, 0)]), truth) == 1

    def test_excess_flags_missing_true_edge(self):
        truth = DirectedMixedGraph(2, [(0, 1)])
        with pytest.raises(SoundnessViolation):
            excess_edges(DirectedMixedGraph(2), truth)

    def test_excess_requires_same_nodes(self):
        with pytest.raises(GraphError):
            excess_edges(DirectedMixedGraph(2), DirectedMixedGraph(3))

    def test_spearman_frozen_value(self):
        # ranks (1, 2.5, 2.5, 4) vs (1, 3, 2, 4): 4.5 / sqrt(4.5 * 5)
        assert spearman((1.0, 2.0, 2.0, 3.0), (1.0, 3.0, 2.0, 4.0)) == pytest.approx(
            0.9486832980505138
        )

    def test_spearman_extremes(self):
        xs = (1.0, 2.0, 3.0, 4.0)
        assert spearman(xs, xs) == pytest.approx(1.0)
        assert spearman(xs, tuple(reversed(xs))) == pytest.approx(-1.0)
        assert math.isnan(spearman((1.0, 1.0, 1.0), (1.0, 2.0, 3.0)))

    def test_spearman_validation(self):
        with pytest.raises(ValueError):
            spearman((1.0,), (2.0,))
        with pytest.raises(ValueError):
            spearman((1.0, 2.0), (2.0,))

    @given(
        st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=20),
        st.data(),
    )
    @settings(max_examples=80)
    def test_spearman_matches_scipy(self, xs, data):
        from scipy import stats

        ys = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=8),
                min_size=len(xs),
                max_size=len(xs),
            )
        )
        import warnings

        ours = spearman(tuple(map(float, xs)), tuple(map(float, ys)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            theirs = stats.spearmanr(xs, ys).statistic
        if math.isnan(ours) or math.isnan(theirs):
            assert math.isnan(ours) and math.isnan(theirs)
        else:
            assert ours == pytest.approx(theirs)

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, -math.inf, math.nan])
                    | st.floats(allow_nan=True), max_size=40))
    # more than 16 values: an unstable sort may reorder the two NaNs
    @example([0.0] * 8 + [math.nan] * 2 + [0.0] * 6 + [1.0])
    @settings(max_examples=300)
    def test_average_ranks_match_tie_loop(self, xs):
        got, want = _average_ranks(xs), reference_average_ranks(xs)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_degrees_exclude_loops(self):
        g = DirectedMixedGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert indegrees(g) == {0: 0, 1: 1, 2: 2}
        assert outdegrees(g) == {0: 2, 1: 1, 2: 0}

    def test_topk_overlap(self):
        assert topk_overlap({0: 5, 1: 3, 2: 1}, {0: 9, 1: 0, 2: 4}, 2) == 1
        same = {0: 2.0, 1: 1.0, 2: 0.0}
        assert topk_overlap(same, same, 2) == 2
        assert topk_overlap({0: 1, 1: 0}, {0: 0, 1: 1}, 1) == 0

    def test_topk_breaks_ties_by_node_index(self):
        # degrees tie at 1: top-1 must pick node 0 deterministically
        a = {0: 1.0, 1: 1.0, 2: 0.0}
        b = {0: 1.0, 1: 0.0, 2: 1.0}
        assert topk_overlap(a, b, 1) == 1

    def test_topk_validation(self):
        with pytest.raises(ValueError):
            topk_overlap({0: 1}, {1: 1}, 1)
        with pytest.raises(ValueError, match=r"k=-1 not in \[0, 2\]"):
            topk_overlap({0: 1, 1: 0}, {0: 1, 1: 0}, -1)
        assert topk_overlap({0: 1, 1: 0}, {0: 1, 1: 0}, 0) == 0


class TestBenchRun:
    CFG = CorpusConfig(4, 0.4, 0.2, 3, 2025)

    def test_rows_and_csv_golden(self):
        rows = bench_run(self.CFG, ("cs", "ca"))
        buf = io.StringIO()
        write_metrics_csv(rows, buf)
        assert buf.getvalue() == (
            "algo,replicate,n,p_dir,p_bi,true_directed,true_bidirected,excess,calls,ms\n"
            "cs,0,4,0.4,0.2,6,3,6,24,0.0\n"
            "ca,0,4,0.4,0.2,6,3,6,96,0.0\n"
            "cs,1,4,0.4,0.2,5,2,4,21,0.0\n"
            "ca,1,4,0.4,0.2,5,2,4,82,0.0\n"
            "cs,2,4,0.4,0.2,6,3,6,24,0.0\n"
            "ca,2,4,0.4,0.2,6,3,6,96,0.0\n"
        )

    def test_header_constant(self):
        assert METRICS_HEADER == (
            "algo,replicate,n,p_dir,p_bi,true_directed,true_bidirected,excess,calls,ms"
        )

    @pytest.mark.parametrize("threads", [0, -3])
    def test_nonpositive_threads_rejected(self, threads):
        with pytest.raises(ValueError, match=f"threads must be 1, got {threads}"):
            bench_run(self.CFG, ("cs",), threads=threads)

    def test_one_thread_only(self):
        # replicates run serially; the keyword takes 1 and nothing else
        for threads in (2, 4):
            with pytest.raises(ValueError, match=f"threads must be 1, got {threads}"):
                bench_run(self.CFG, ("cs",), threads=threads)
        assert bench_run(self.CFG, ("cs", "csap"), threads=1) == \
            bench_run(self.CFG, ("cs", "csap"))

    def test_timing_flag_populates_ms(self):
        rows = bench_run(self.CFG, ("cs",), timing=True)
        assert all(row.ms > 0.0 for row in rows)

    def test_latent_fraction_shrinks_the_query_budget(self):
        # rows keep the truth size in n; hiding half the nodes shows up as
        # a call count bounded by the 4-node budget, not the 8-node one
        cfg = CorpusConfig(8, 0.3, 0.1, 4, 99)
        rows = bench_run(cfg, ("cs",), latent_fraction=0.5)
        assert all(row.n == 8 for row in rows)
        assert all(row.calls <= 2 * 4 * 3 for row in rows)

    def test_one_projection_per_replicate(self, monkeypatch):
        # it serves every algorithm's oracle and the scoring truth
        calls = count_projections(monkeypatch)
        cfg = CorpusConfig(8, 0.3, 0.1, 3, 99)
        rows = bench_run(cfg, ("cs", "csap", "ca"), latent_fraction=0.25)
        assert len(rows) == 9
        assert len(calls) == 3
        assert all(len(observed) == 6 for observed in calls)

    def test_aggregate(self):
        rows = bench_run(self.CFG, ("cs", "ca"))
        agg = aggregate(rows)
        assert agg["cs"]["rows"] == 3
        assert agg["cs"]["mean_calls"] == pytest.approx(23.0)
        assert agg["ca"]["mean_calls"] == pytest.approx(91.333, abs=1e-3)
        assert agg["cs"]["mean_excess"] == agg["ca"]["mean_excess"]

    def test_outputs_never_miss_true_edges(self):
        # SoundnessViolation from any replicate would propagate out
        cfg = CorpusConfig(6, 0.5, 0.4, 6, 31337)
        rows = bench_run(cfg, ("cs", "csapc", "csap", "ca"), latent_fraction=0.3)
        assert len(rows) == 24
