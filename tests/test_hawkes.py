"""Point-process layer: kernels, simulation, compensators, diagnostics."""
import io
import json
import math

import numpy as np
import pytest

from causalscreen import (
    DirectedMixedGraph,
    EventHistory,
    ExponentialKernel,
    HawkesModel,
    Intervention,
    SimulationError,
    causal_graph,
    compensator,
    intensity,
    rescaled_intervals,
    simulate,
    simulate_intervened,
    stationarity_check,
    stationary_rates,
)

K = ExponentialKernel


def two_node_model(horizon=10.0):
    return HawkesModel(
        (0.5, 0.5),
        ((K(0.3, 1.0), K(0.3, 2.0)), (K(0.4, 1.0), K(0.2, 1.0))),
        horizon,
    )


def cross_only_model(horizon, a=0.8, b=2.0):
    """Node 0 excites node 1; nothing else. Spectral radius 0."""
    zero = K(0.0, 1.0)
    return HawkesModel((1.0, 1.0), ((zero, zero), (K(a, b), zero)), horizon)


class TestKernelsAndModel:
    def test_kernel_value(self):
        k = K(2.0, 3.0)
        assert k(0.0) == 2.0
        assert k(1.0) == pytest.approx(2.0 * math.exp(-3.0))
        assert k(-0.5) == 0.0

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            K(-0.1, 1.0)
        with pytest.raises(ValueError):
            K(0.1, 0.0)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            HawkesModel((1.0, 1.0), ((K(0, 1),),), 5.0)
        with pytest.raises(ValueError):
            HawkesModel((-1.0,), ((K(0, 1),),), 5.0)
        with pytest.raises(ValueError):
            HawkesModel((1.0,), ((K(0, 1),),), 0.0)

    def test_matrices(self):
        a_mat, b_mat = two_node_model().matrices()
        assert np.array_equal(a_mat, [[0.3, 0.3], [0.4, 0.2]])
        assert np.array_equal(b_mat, [[1.0, 2.0], [1.0, 1.0]])

    def test_json_round_trip(self):
        m = two_node_model()
        buf = io.StringIO()
        m.to_json(buf)
        assert HawkesModel.from_json(io.StringIO(buf.getvalue())) == m

    def test_json_shape(self):
        d = two_node_model().to_json_dict()
        assert set(d) == {"mu", "kernels", "T"}
        assert d["T"] == 10.0
        assert d["kernels"][0][1] == {"a": 0.3, "b": 2.0}

    def test_null_kernel_reads_as_silent(self):
        d = {"mu": [1.0], "kernels": [[None]], "T": 5.0}
        m = HawkesModel.from_json_dict(d)
        assert m.kernels[0][0].a == 0.0

    @pytest.mark.parametrize("patch, message", [
        ({"kernels": [[5]]}, "kernels[0][0] must be null or an object with numbers a and b"),
        ({"kernels": [[{"a": 1}]]}, "kernels[0][0] must be null or an object with numbers a and b"),
        ({"kernels": [[{"a": "x", "b": 1}]]}, "kernels[0][0] must be null or an object with numbers a and b"),
        ({"kernels": [5]}, "kernels[0] must be an array"),
        ({"kernels": 5}, "kernels must be an array"),
        ({"mu": 5}, "mu must be an array"),
        ({"mu": [None]}, "mu[0] must be a number"),
        ({"T": [5]}, "T must be a number"),
    ])
    def test_malformed_json_names_the_bad_part(self, patch, message):
        d = {"mu": [1.0], "kernels": [[None]], "T": 5.0, **patch}
        with pytest.raises(ValueError) as info:
            HawkesModel.from_json_dict(d)
        assert str(info.value).startswith(message)


class TestCausalGraph:
    def test_edges_follow_amplitudes(self):
        g = causal_graph(two_node_model())
        assert g == DirectedMixedGraph(2, [(0, 1), (1, 0)])

    def test_zero_self_excitation_warns(self):
        with pytest.warns(UserWarning):
            causal_graph(cross_only_model(5.0))

    def test_positive_self_excitation_is_quiet(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = causal_graph(two_node_model())
        assert g.has_directed(0, 1)


class TestEventHistory:
    def test_validation(self):
        for times in (((2.0, 1.0),), ((1.0, 1.0),), ((6.0,),), ((-1.0,),)):
            with pytest.raises(ValueError):
                EventHistory(times, 5.0)

    def test_merge_and_counts(self):
        h = EventHistory(((0.5, 2.0), (1.0,)), 10.0)
        assert h.counts() == (2, 1)
        assert h.total == 3
        assert h.merged() == [(0.5, 0), (1.0, 1), (2.0, 0)]

    def test_csv_round_trip(self):
        h = EventHistory(((0.5, 2.0), (1.0,)), 10.0)
        buf = io.StringIO()
        h.to_csv(buf)
        assert buf.getvalue() == "node,time\n0,0.5\n1,1.0\n0,2.0\n"
        back = EventHistory.from_csv(io.StringIO(buf.getvalue()), n=2, horizon=10.0)
        assert back == h

    def test_csv_header_checked(self):
        with pytest.raises(ValueError):
            EventHistory.from_csv(io.StringIO("nope\n"), n=1, horizon=5.0)

    @pytest.mark.parametrize("node", ["-1", "2"])
    def test_csv_node_ids_checked(self, node):
        text = f"node,time\n0,0.25\n{node},0.5\n"
        with pytest.raises(ValueError, match="bad event row at line 3"):
            EventHistory.from_csv(io.StringIO(text), n=2, horizon=5.0)


class TestIntensity:
    def test_baseline_without_events(self):
        m = two_node_model()
        empty = EventHistory(((), ()), 10.0)
        assert np.array_equal(intensity(m, empty, 3.0), [0.5, 0.5])

    def test_single_event_decay(self):
        m = HawkesModel((1.0,), ((K(1.0, 1.0),),), 10.0)
        h = EventHistory(((1.0,),), 10.0)
        lam = intensity(m, h, 2.0)
        assert lam[0] == pytest.approx(1.0 + math.exp(-1.0))

    def test_event_at_query_time_is_excluded(self):
        # the intensity is a left limit: an event at t has not happened "yet"
        m = HawkesModel((1.0,), ((K(1.0, 1.0),),), 10.0)
        h = EventHistory(((1.0,),), 10.0)
        assert intensity(m, h, 1.0)[0] == 1.0

    def test_out_of_range(self):
        m = two_node_model()
        with pytest.raises(ValueError):
            intensity(m, EventHistory(((), ()), 10.0), 11.0)


class TestStationarity:
    def test_critical_single_node(self):
        m = HawkesModel((1.0,), ((K(1.0, 1.0),),), 5.0)
        ok, rho = stationarity_check(m)
        assert not ok
        assert rho == pytest.approx(1.0, abs=1e-8)

    def test_symmetric_cross_excitation(self):
        # plain power iteration oscillates here (eigenvalues +/- 0.3);
        # the check must still converge and report 0.3
        zero = K(0.0, 1.0)
        m = HawkesModel(
            (1.0, 1.0), ((zero, K(0.3, 1.0)), (K(0.3, 1.0), zero)), 5.0
        )
        ok, rho = stationarity_check(m)
        assert ok
        assert rho == pytest.approx(0.3, abs=1e-8)

    def test_silent_model(self):
        zero = K(0.0, 1.0)
        m = HawkesModel((1.0,), ((zero,),), 5.0)
        assert stationarity_check(m) == (True, 0.0)

    def test_matches_dense_eigenvalues(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(25):
            n = int(rng.integers(1, 5))
            a = rng.uniform(0.0, 0.6, size=(n, n))
            b = rng.uniform(0.5, 2.0, size=(n, n))
            kernels = tuple(
                tuple(K(float(a[i, j]), float(b[i, j])) for j in range(n))
                for i in range(n)
            )
            m = HawkesModel(tuple([1.0] * n), kernels, 5.0)
            _, rho = stationarity_check(m)
            want = max(abs(np.linalg.eigvals(a / b)))
            assert rho == pytest.approx(want, abs=1e-7)

    def test_stationary_rates(self):
        m = two_node_model()
        rates = stationary_rates(m)
        assert rates == pytest.approx([0.95, 1.1])
        a_mat, b_mat = m.matrices()
        resid = (np.eye(2) - a_mat / b_mat) @ rates - np.array(m.mu)
        assert np.allclose(resid, 0.0)

    def test_stationary_rates_refuse_critical(self):
        m = HawkesModel((1.0,), ((K(1.0, 1.0),),), 5.0)
        with pytest.raises(SimulationError):
            stationary_rates(m)


class TestSimulate:
    def test_deterministic(self):
        m = two_node_model(200.0)
        assert simulate(m, 42) == simulate(m, 42)
        assert simulate(m, 42) != simulate(m, 43)

    def test_history_shape(self):
        m = two_node_model(200.0)
        h = simulate(m, 7)
        assert h.n == 2
        assert h.horizon == 200.0
        assert h.total > 100  # rates ~1 per unit time per node

    def test_refuses_critical_models(self):
        m = HawkesModel((1.0,), ((K(1.0, 1.0),),), 5.0)
        with pytest.raises(SimulationError):
            simulate(m, 1)

    def test_force_and_event_cap(self):
        explosive = HawkesModel((1.0,), ((K(2.0, 1.0),),), 50.0)
        with pytest.raises(SimulationError):
            simulate(explosive, 1, force=True, max_events=100)

    def test_poisson_mean(self):
        # no excitation: plain Poisson(2) over T=50, thirty replicates
        zero = K(0.0, 1.0)
        m = HawkesModel((2.0,), ((zero,),), 50.0)
        counts = [simulate(m, 9000 + r).total for r in range(30)]
        grand = float(np.mean(counts))
        sigma = math.sqrt(100.0 / 30)
        assert abs(grand - 100.0) < 5 * sigma


class TestInterventions:
    def test_forced_history_is_exact(self):
        m = cross_only_model(10.0)
        forced = (0.5, 2.5, 7.25)
        h = simulate_intervened(m, Intervention(0, forced), 3)
        assert h.times[0] == forced

    def test_empty_intervention_silences_node(self):
        m = two_node_model(100.0)
        h = simulate_intervened(m, Intervention(0, ()), 3)
        assert h.times[0] == ()
        assert len(h.times[1]) > 0

    def test_forcing_excites_children(self):
        m = cross_only_model(2000.0)
        quiet = simulate_intervened(m, Intervention(0, ()), 21)
        dense_times = tuple(np.arange(0.25, 2000.0, 0.25))
        busy = simulate_intervened(m, Intervention(0, dense_times), 21)
        assert len(busy.times[1]) > len(quiet.times[1])

    def test_zero_envelope_golden(self):
        """No baseline rate: the envelope is zero until a forced event lands.

        While it is zero no candidate time is drawn and the next forced event
        is taken directly; the pinned times fix the draw order around it.
        """
        zero = K(0.0, 1.0)
        m = HawkesModel((0.0, 0.0), ((zero, zero), (K(1.5, 2.0), zero)), 10.0)
        h = simulate_intervened(m, Intervention(0, (1.0, 2.0, 3.0, 7.5)), 5)
        assert h.counts() == (4, 3)
        assert h.times[1] == (3.0320371083104116, 3.0605830104850424, 3.749826114754872)
        assert simulate(m, 5).total == 0

    def test_validation(self):
        m = two_node_model()
        with pytest.raises(ValueError):
            Intervention(0, (3.0, 1.0))
        with pytest.raises(ValueError):
            simulate_intervened(m, [Intervention(0, ()), Intervention(0, ())], 1)
        with pytest.raises(ValueError):
            simulate_intervened(m, Intervention(0, (99.0,)), 1)
        with pytest.raises(ValueError):
            simulate_intervened(m, Intervention(5, (1.0,)), 1)


class TestCompensator:
    def test_poisson_case_is_linear(self):
        zero = K(0.0, 1.0)
        m = HawkesModel((2.0,), ((zero,),), 10.0)
        h = EventHistory(((1.0, 3.5, 7.0),), 10.0)
        vals = compensator(m, h, 0, (1.0, 3.5, 7.0))
        assert np.allclose(vals, [2.0, 7.0, 14.0])
        gaps = rescaled_intervals(m, h, 0)
        assert np.allclose(gaps, [2.0, 5.0, 7.0])

    def test_matches_numeric_integration(self):
        m = two_node_model()
        h = EventHistory(((0.4, 2.1, 5.0), (1.0, 1.5, 6.0)), 10.0)
        grid = np.linspace(0.0, 8.0, 40001)
        lam = np.array([intensity(m, h, float(t)) for t in grid])
        for node in (0, 1):
            want = np.trapezoid(lam[:, node], grid)
            got = compensator(m, h, node, (8.0,))[0]
            assert got == pytest.approx(want, rel=1e-4)

    def test_validation(self):
        m = two_node_model()
        h = EventHistory(((), ()), 10.0)
        with pytest.raises(ValueError):
            compensator(m, h, 3, (1.0,))
        with pytest.raises(ValueError):
            compensator(m, h, 0, (2.0, 1.0))
        with pytest.raises(ValueError):
            compensator(m, EventHistory(((),),  10.0), 0, (1.0,))

    def test_rescaled_intervals_are_unit_exponential(self):
        """Time rescaling: compensator increments between own events are
        iid Exp(1) when the model is the data generator."""
        from scipy import stats

        m = two_node_model(2000.0)
        h = simulate(m, 77)
        gaps = np.concatenate([rescaled_intervals(m, h, v) for v in range(2)])
        assert len(gaps) > 2000
        assert abs(float(np.mean(gaps)) - 1.0) < 0.1
        _, p = stats.kstest(gaps, "expon")
        assert p > 0.001


class TestPairwiseInfluence:
    def test_windows_after_parent_events_run_hot(self):
        """Statistical surrogate for the directed-influence semantics: the
        child's count in short windows after parent events exceeds its
        stationary share, and the parent feels nothing from the child."""
        m = cross_only_model(40000.0)
        h = simulate(m, 123)
        t0 = np.array(h.times[0])
        t1 = np.array(h.times[1])
        w = 0.5
        keep = t0 < 40000.0 - w
        assert keep.sum() > 30000
        starts = t0[keep]
        child_counts = np.searchsorted(t1, starts + w) - np.searchsorted(t1, starts)
        child_rate = len(t1) / 40000.0
        boost = float(np.mean(child_counts)) - child_rate * w
        se = float(np.std(child_counts)) / math.sqrt(len(starts))
        assert boost > 4 * se
        # reverse direction: node 1 does not excite node 0
        keep1 = t1 < 40000.0 - w
        starts1 = t1[keep1]
        parent_counts = np.searchsorted(t0, starts1 + w) - np.searchsorted(t0, starts1)
        parent_rate = len(t0) / 40000.0
        drift = abs(float(np.mean(parent_counts)) - parent_rate * w)
        assert drift < 0.05
