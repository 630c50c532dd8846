"""Point-process layer: kernels, simulation, compensators, diagnostics."""
import hashlib
import io
import json
import math
import re
import warnings
from itertools import cycle

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from causalscreen import (
    DirectedMixedGraph,
    EventHistory,
    ExponentialKernel,
    GraphicalOracle,
    HawkesModel,
    Intervention,
    SimulationError,
    causal_graph,
    compensator,
    intensity,
    parent_graph,
    rescaled_intervals,
    run,
    simulate,
    simulate_intervened,
    stationarity_check,
    stationary_rates,
)
from causalscreen._numbers import reals
from causalscreen.hawkes import EVENT_CAP_DEFAULT, _EVENT_BLOCK, _UNIFORM_BLOCK, _thinning
from helpers import (
    reference_compensator,
    reference_event_csv,
    reference_merged,
    reference_thinning,
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

    @pytest.mark.parametrize("a, b", [("x", 1.0), (True, 1.0), (1.0, "2"), (0.5, False)])
    def test_kernel_rejects_strings_and_booleans(self, a, b):
        # the same values from_json_dict rejects, with the same kind of error
        with pytest.raises(ValueError, match="must be a number"):
            K(a, b)

    @pytest.mark.parametrize("mu, horizon", [(("0.5",), 5.0), ((0.5,), "5"),
                                             ((True,), 5.0), ((0.5,), True)])
    def test_model_rejects_strings_and_booleans(self, mu, horizon):
        with pytest.raises(ValueError, match="must be a number"):
            HawkesModel(mu, ((K(0.1, 1.0),),), horizon)

    def test_scalars_accept_numpy_numbers(self):
        m = HawkesModel((np.float64(0.5),), ((K(np.int64(1), np.float32(2.0)),),), np.int64(5))
        assert m.mu == (0.5,) and m.horizon == 5.0
        h = EventHistory(((1, np.float64(2.5), np.int64(3), np.float32(4.5)),), 10.0)
        iv = Intervention(0, (np.int64(1), np.float64(1.5), 2))
        assert h.times == ((1.0, 2.5, 3.0, 4.5),) and iv.times == (1.0, 1.5, 2.0)
        assert {type(t) for t in h.times[0] + iv.times} == {float}

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
        ({"mu": [True]}, "mu[0] must be a number"),
        ({"mu": ["0.5"]}, "mu[0] must be a number"),
        ({"kernels": [[{"a": True, "b": 2}]]}, "kernels[0][0] must be null or an object with numbers a and b"),
        ({"kernels": [[{"a": 1, "b": "2"}]]}, "kernels[0][0] must be null or an object with numbers a and b"),
        ({"T": "10"}, "T must be a number"),
        ({"T": True}, "T must be a number"),
        ({"mu": [1.0, "0.5"], "kernels": [[None, {"a": 1.0, "b": "2"}], [None, None]]},
         "mu[1] must be a number"),
        ({"mu": [True, "0.5"], "kernels": [[None, {"a": True, "b": "2"}], [None, None]], "T": "10"},
         "mu[0] must be a number"),
        ({"T": 10**400}, "T is too large for a float"),
        ({"mu": [10**400]}, "mu[0] is too large for a float"),
        ({"kernels": [[{"a": 10**400, "b": 2}]]}, "kernels[0][0].a is too large for a float"),
        ({"kernels": [[{"a": 1, "b": -10**400}]]}, "kernels[0][0].b is too large for a float"),
    ])
    def test_malformed_json_names_the_bad_part(self, patch, message):
        d = {"mu": [1.0], "kernels": [[None]], "T": 5.0, **patch}
        with pytest.raises(ValueError) as info:
            HawkesModel.from_json_dict(d)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("build, message", [
        (lambda: K(10**400, 1.0), "kernel amplitude is too large for a float"),
        (lambda: K(1.0, 10**400), "kernel decay is too large for a float"),
        (lambda: Intervention(0, (1.0, 10**400)), "intervention time is too large for a float"),
        (lambda: EventHistory(((10**400,),), 10.0), "event time is too large for a float"),
        (lambda: EventHistory(((1.0,),), 10**400), "horizon is too large for a float"),
        (lambda: HawkesModel((10**400,), ((K(0.0, 1.0),),), 5.0),
         "baseline rate is too large for a float"),
        (lambda: HawkesModel((1.0,), ((K(0.0, 1.0),),), 10**400),
         "horizon is too large for a float"),
        (lambda: compensator(two_node_model(), EventHistory(((), ()), 10.0), 0, [1.0, 10**400]),
         "compensator time is too large for a float"),
    ], ids=["kernel-a", "kernel-b", "intervention", "event", "history-horizon", "mu",
            "model-horizon", "compensator"])
    def test_int_beyond_float_range_is_a_value_error(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


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


# Values that are not times, although float() accepts each of them.
NOT_TIMES = ("0.5", b"1.5", True, False, np.True_)

# Types a drawn time may take; the int types take only integral times, so
# EventHistory reads every one back as the same float.
TIME_TYPES = (float, np.float64, int, np.int64)


@st.composite
def event_histories(draw):
    """Histories with ties across nodes, ``0.0`` beside ``-0.0``, empty rows,
    times of several Python types and, now and then, more than one CSV block."""
    n = draw(st.integers(1, 5))
    # quarters make equal times on different nodes likely
    time = st.one_of(st.integers(0, 40).map(lambda k: k / 4), st.just(-0.0),
                     st.floats(0.0, 10.0))
    rows = [set(draw(st.lists(time, max_size=8))) for _ in range(n)]
    # multiples of 1/512 below 10, the quarters among them
    bulk = draw(st.sampled_from((0, 0, _EVENT_BLOCK - 1, _EVENT_BLOCK, 5000)))
    rows[draw(st.integers(0, n - 1))].update(k / 512 for k in range(bulk))
    out = []
    for row in rows:
        kinds = cycle(draw(st.lists(st.sampled_from(TIME_TYPES), min_size=1, max_size=8)))
        out.append(tuple(kind(t) if kind in (float, np.float64) or t.is_integer() else t
                         for kind, t in zip(kinds, sorted(row))))
    return EventHistory(tuple(out), 10.0)


class TestEventHistory:
    def test_validation(self):
        for times in (((2.0, 1.0),), ((1.0, 1.0),), ((6.0,),), ((-1.0,),),
                      ((math.nan,),), ((math.inf,),), ((1.0,), (math.nan,))):
            with pytest.raises(ValueError):
                EventHistory(times, 5.0)
        with pytest.raises(ValueError, match="event times must be finite"):
            EventHistory.from_csv(io.StringIO("node,time\n0,nan\n"), n=1, horizon=5.0)
        for horizon in (math.nan, -1.0, 0.0, math.inf):
            with pytest.raises(ValueError, match=r"horizon must be finite and > 0"):
                EventHistory(((0.5,),), horizon)
        with pytest.raises(ValueError):
            EventHistory(((0.5,),), "x")

    @pytest.mark.parametrize("horizon", ["10", True])
    def test_horizon_rejects_strings_and_booleans(self, horizon):
        with pytest.raises(ValueError, match="horizon must be a number"):
            EventHistory(((0.5,),), horizon)

    @pytest.mark.parametrize("time", NOT_TIMES, ids=repr)
    def test_times_reject_strings_and_booleans(self, time):
        for times in (((time,),), ((0.25, time, 9.0),), ((1.0,), (0.25, time))):
            with pytest.raises(ValueError) as info:
                EventHistory(times, 10.0)
            assert str(info.value) == f"event time must be a number, got {time!r}"

    def test_exact_floats_are_kept_and_other_numbers_become_floats(self):
        row = (0.5, 1.0, 2.5)
        assert reals(row, "event time") is row
        assert EventHistory((row,), 10.0).times[0] is row
        for value in (np.float64(0.5), np.int64(1), 1):
            got = reals((value,), "event time")
            assert got == (float(value),) and type(got[0]) is float
        # under numpy 2 a leaked np.float64 would print as np.float64(0.5)
        h = EventHistory(((np.float64(0.5),),), 10.0)
        assert type(h.times[0][0]) is float
        assert repr(h.merged()) == "[(0.5, 0)]"

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

    # 200 examples, or more under a profile that asks for more (CI's fuzz)
    @given(event_histories())
    @settings(max_examples=max(200, settings.default.max_examples))
    def test_time_order_matches_tuple_sort(self, h):
        want = reference_merged(h)
        got = h.merged()
        assert got == want
        assert [tuple(map(type, e)) for e in got] == [tuple(map(type, e)) for e in want]
        assert [math.copysign(1.0, t) for t, _ in got] == [math.copysign(1.0, t) for t, _ in want]
        buf, ref = io.StringIO(), io.StringIO()
        h.to_csv(buf)
        reference_event_csv(h, ref)
        assert buf.getvalue() == ref.getvalue()

    def test_csv_header_checked(self):
        with pytest.raises(ValueError):
            EventHistory.from_csv(io.StringIO("nope\n"), n=1, horizon=5.0)

    @pytest.mark.parametrize("node", ["-1", "2"])
    def test_csv_node_ids_checked(self, node):
        text = f"node,time\n0,0.25\n{node},0.5\n"
        with pytest.raises(ValueError, match="bad event row at line 3"):
            EventHistory.from_csv(io.StringIO(text), n=2, horizon=5.0)

    # int() reads each of these as a node: Arabic-Indic one, 10, 1 and 0
    @pytest.mark.parametrize("row", ["\u0661,1.0", "1_0,1.0", "+1,2.0", "-0,1.0"])
    def test_csv_node_ids_are_ascii_decimal(self, row):
        with pytest.raises(ValueError) as info:
            EventHistory.from_csv(io.StringIO(f"node,time\n{row}\n"), n=11, horizon=5.0)
        assert str(info.value) == f"bad event row at line 2: {row!r}"

    # float() reads each of these as a time: 10.0, 2.5 (Arabic-Indic two) and 3.0
    @pytest.mark.parametrize("row", ["0,1_0", "0,\u0662.5", "0,\u0663", "0,1__0.5"])
    def test_csv_times_are_ascii_without_underscores(self, row):
        with pytest.raises(ValueError) as info:
            EventHistory.from_csv(io.StringIO(f"node,time\n{row}\n"), n=1, horizon=20.0)
        assert str(info.value) == f"bad event row at line 2: {row!r}"

    def test_csv_time_field_is_stripped(self):
        h = EventHistory.from_csv(io.StringIO("node,time\n0, 2.5\t\n0,1e0\n"),
                                  n=1, horizon=5.0)
        assert h.times == ((1.0, 2.5),)

    def test_csv_node_field_is_stripped(self):
        h = EventHistory.from_csv(io.StringIO("node,time\n 1 ,2.0\n0\t,1.0\n"),
                                  n=2, horizon=5.0)
        assert h.times == ((1.0,), (2.0,))


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

    @pytest.mark.parametrize("t", ["1", None, True, b"1.5", np.True_], ids=repr)
    def test_time_must_be_a_number(self, t):
        with pytest.raises(ValueError) as info:
            intensity(two_node_model(), EventHistory(((1.0,), ()), 10.0), t)
        assert str(info.value) == f"time must be a number, got {t!r}"

    def test_numpy_and_int_times_pass(self):
        m, h = two_node_model(), EventHistory(((1.0,), ()), 10.0)
        for t in (2, np.int64(2), np.float64(2.0)):
            assert intensity(m, h, t).tolist() == intensity(m, h, 2.0).tolist()

    @pytest.mark.parametrize("times", [((1.0,),), ((), (), (2.0,))])
    def test_history_and_model_must_agree_on_node_count(self, times):
        with pytest.raises(ValueError, match="history and model disagree on node count"):
            intensity(two_node_model(), EventHistory(times, 10.0), 3.0)


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

    @pytest.mark.parametrize("model, at", [
        # no kernels, so stable, but the two baselines sum past the float range
        (HawkesModel((1e308, 1e308), ((K(0.0, 1.0),) * 2,) * 2, 5.0), "0.0"),
        # branching ratio 0.95: the second event lands at the first one's
        # float time, and twice the amplitude overflows
        (HawkesModel((1.0,), ((K(1.7e308, 1.79e308),),), 5.0), "1.013246905717726"),
    ])
    def test_overflowing_envelope_is_an_error(self, model, at):
        assert stationarity_check(model)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError) as info:
                simulate(model, 0)
        assert str(info.value) == f"total intensity overflows at t = {at}; model exploding?"
        with np.errstate(over="ignore"):
            want = _thinning_outcome(reference_thinning, model, (), 0, False, 10_000)
        assert want == ("SimulationError", str(info.value))

    def test_events_at_one_float_time_are_an_error(self):
        """A finite envelope so large that waiting times round to zero.

        Node 0's first event lifts node 1's intensity to about 1e308, and
        node 1 excites nothing, so the envelope stays finite while node 1
        fires again and again at that event's float time. The run ends at
        node 1's second event there, not at the default event cap, which
        this model takes minutes to reach.
        """
        zero = K(0.0, 1.0)
        model = HawkesModel((1.0, 0.0), ((zero, zero), (K(1e308, 1.5e308), zero)), 5.0)
        assert stationarity_check(model)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError) as info:
                simulate(model, 0, max_events=EVENT_CAP_DEFAULT)
            want = _thinning_outcome(reference_thinning, model, (), 0, False,
                                     EVENT_CAP_DEFAULT)
        assert str(info.value) == ("event times stop advancing at t = 1.013246905717726; "
                                   "model exploding?")
        assert want == ("SimulationError", str(info.value))

    @pytest.mark.parametrize("cap", [-1, 2.5, True, "3", None, np.float64(3.0)])
    @pytest.mark.parametrize("events", [0, 1])
    def test_bad_event_cap_is_rejected_before_the_run(self, cap, events):
        # a zero baseline gives no event, so only a check before the loop sees the cap
        m = HawkesModel((float(events),), ((K(0.0, 1.0),),), 5.0)
        with pytest.raises(ValueError, match=r"max_events (must be >= 0|.+ is not an integer)"):
            simulate(m, 1, max_events=cap)
        with pytest.raises(ValueError, match=r"max_events (must be >= 0|.+ is not an integer)"):
            simulate_intervened(m, Intervention(0, (1.0,)), 1, max_events=cap)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None, np.float64(3.0)])
    def test_bad_seed_is_rejected_before_the_run(self, seed):
        m = HawkesModel((1.0,), ((K(0.0, 1.0),),), 5.0)
        with pytest.raises(ValueError, match=r"seed (must be >= 0, got -1|.+ is not an integer)"):
            simulate(m, seed)
        with pytest.raises(ValueError, match=r"seed (must be >= 0, got -1|.+ is not an integer)"):
            simulate_intervened(m, Intervention(0, (1.0,)), seed)

    def test_event_cap_takes_numpy_ints_and_zero(self):
        m = HawkesModel((1.0,), ((K(0.5, 1.0),),), 5.0)
        assert simulate(m, 2, max_events=np.int64(10_000)) == simulate(m, 2)
        assert simulate(HawkesModel((0.0,), ((K(0.0, 1.0),),), 5.0), 2, max_events=0).total == 0
        with pytest.raises(SimulationError, match="event cap 0 exceeded"):
            simulate(m, 2, max_events=0)

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
        for times in ((math.nan,), (1.0, math.inf), (-math.inf,)):
            with pytest.raises(ValueError, match="intervention times must be finite"):
                Intervention(0, times)
        with pytest.raises(ValueError):
            simulate_intervened(m, [Intervention(0, ()), Intervention(0, ())], 1)
        with pytest.raises(ValueError):
            simulate_intervened(m, Intervention(0, (99.0,)), 1)
        with pytest.raises(ValueError):
            simulate_intervened(m, Intervention(5, (1.0,)), 1)

    @pytest.mark.parametrize("node", [1.7, 1.0, np.float64(1.0), True, np.True_, "1", None])
    def test_node_must_be_an_integer(self, node):
        with pytest.raises(ValueError, match=re.escape(f"node {node!r} is not an integer")):
            Intervention(node, (1.0,))

    @pytest.mark.parametrize("time", NOT_TIMES, ids=repr)
    def test_times_reject_strings_and_booleans(self, time):
        for times in ((time,), (0.25, time, 9.0)):
            with pytest.raises(ValueError) as info:
                Intervention(0, times)
            assert str(info.value) == f"intervention time must be a number, got {time!r}"

    @pytest.mark.parametrize("node", [1, np.int64(1), np.uint8(1)])
    def test_integer_nodes_pass(self, node):
        iv = Intervention(node, (1.0,))
        assert iv.node == 1 and type(iv.node) is int
        m = two_node_model()
        assert simulate_intervened(m, iv, 4) == simulate_intervened(m, Intervention(1, (1.0,)), 4)


@st.composite
def compensator_cases(draw):
    """Small models and histories, and ascending query times on the events,
    between them, before the first and at both ends of the horizon.

    Times come partly from a coarse grid, so that events of different nodes
    coincide and queries land exactly on events.
    """
    n = draw(st.integers(1, 3))
    horizon = draw(st.sampled_from((1.0, 8.0, 50.0)))
    time = st.integers(0, 16).map(lambda i: horizon * i / 16) | st.floats(0.0, horizon)
    amplitude = st.sampled_from((0.0, -0.0)) | st.floats(0.01, 5.0)
    decay = st.floats(0.01, 50.0)
    kernels = tuple(tuple(K(draw(amplitude), draw(decay)) for _ in range(n)) for _ in range(n))
    mu = tuple(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    rows = tuple(tuple(sorted(set(draw(st.lists(time, max_size=8))))) for _ in range(n))
    events = sorted({t for row in rows for t in row})
    query = st.sampled_from(events) | time if events else time
    times = tuple(sorted(draw(st.lists(query, max_size=10))))
    return HawkesModel(mu, kernels, horizon), EventHistory(rows, horizon), times


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
        for time in NOT_TIMES:
            with pytest.raises(ValueError, match="compensator time must be a number"):
                compensator(m, h, 0, (0.5, time))

    @pytest.mark.parametrize("node", [1.7, np.float64(1.0), True, np.True_, "1"])
    def test_node_must_be_an_integer(self, node):
        m = two_node_model()
        h = EventHistory(((0.5,), (1.0, 2.0)), 10.0)
        with pytest.raises(ValueError, match=re.escape(f"node {node!r} is not an integer")):
            compensator(m, h, node, (1.0,))
        with pytest.raises(ValueError, match=re.escape(f"node {node!r} is not an integer")):
            rescaled_intervals(m, h, node)

    def test_node_range_and_numpy_ints(self):
        m = two_node_model()
        h = EventHistory(((0.5,), (1.0, 2.0)), 10.0)
        for node in (-1, 2):
            with pytest.raises(ValueError, match=f"unknown node {node}"):
                rescaled_intervals(m, h, node)
        assert np.array_equal(rescaled_intervals(m, h, np.int64(1)), rescaled_intervals(m, h, 1))
        assert np.array_equal(compensator(m, h, np.int32(0), (3.0,)), compensator(m, h, 0, (3.0,)))

    @pytest.mark.parametrize("times, message", [
        ((1.0, math.nan), "compensator times must be finite"),
        ((math.inf,), "compensator times must be finite"),
        ((-math.inf, 1.0), "compensator times must be finite"),
        ((-5.0,), r"time -5\.0 outside \[0, 10\.0\]"),
        ((1.0, 50.0), r"time 50\.0 outside \[0, 10\.0\]"),
        ((-1e-300, 0.0), r"time -1e-300 outside \[0, 10\.0\]"),
    ])
    def test_times_must_be_finite_and_within_the_horizon(self, times, message):
        m = two_node_model()
        h = EventHistory(((0.5,), (1.0, 2.0)), 10.0)
        with pytest.raises(ValueError, match=message):
            compensator(m, h, 0, times)

    def test_horizon_ends_are_valid_times(self):
        m = two_node_model()
        h = EventHistory(((0.5,), (1.0, 2.0)), 10.0)
        got = compensator(m, h, 1, (0.0, -0.0, 10.0))
        assert np.array_equal(got, reference_compensator(m, h, 1, (0.0, -0.0, 10.0)))
        assert got[0] == 0.0
        assert compensator(m, h, 1, ()).shape == (0,)

    @settings(max_examples=300)
    @given(compensator_cases())
    def test_matches_forward_sweep(self, case):
        """The vectorized sums give the floats of the old per-event loop."""
        model, history, times = case
        for node in range(model.n):
            got = compensator(model, history, node, times)
            assert np.array_equal(got, reference_compensator(model, history, node, times))
            own = reference_compensator(model, history, node, history.times[node])
            assert np.array_equal(rescaled_intervals(model, history, node),
                                  np.diff(np.concatenate(([0.0], own))))

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


def _thinning_outcome(thinning, model, interventions, seed, force, max_events):
    """The event CSV of one run, or the type and text of the error it raised."""
    try:
        history = thinning(model, interventions, seed, force, max_events)
    except (SimulationError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    buf = io.StringIO()
    history.to_csv(buf)
    return buf.getvalue()


@st.composite
def thinning_cases(draw):
    """Small models over every kernel support shape, with interventions and caps.

    A "hot" case has branching ratios up to 2 and is simulated with
    force=True under a small event cap; the others keep every row sum of
    the branching matrix below 0.9, so they are stationary.
    """
    n = draw(st.integers(1, 10))
    one_in_four = st.sampled_from((False, False, False, True))
    hot = draw(one_in_four)
    horizon = draw(st.floats(0.5, 8.0))
    zero = st.sampled_from((0.0, -0.0))
    mu = draw(st.lists(zero | st.floats(0.1, 5.0), min_size=n, max_size=n))
    shape = draw(st.sampled_from(("empty", "sparse", "full")))
    ratio = st.floats(0.5, 2.0) if hot else st.floats(0.01, 0.9 / n)
    amplitude = {"empty": zero, "sparse": zero | ratio, "full": ratio}[shape]
    kernels = tuple(
        tuple(K(r * b, b) for r, b in zip(
            draw(st.lists(amplitude, min_size=n, max_size=n)),
            draw(st.lists(st.floats(0.5, 4.0), min_size=n, max_size=n))))
        for _ in range(n))
    interventions = []
    for node in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)):
        times = set(draw(st.lists(st.floats(0.0, horizon), max_size=4)))
        times |= {t for t, keep in ((0.0, draw(st.booleans())), (horizon, draw(st.booleans())))
                  if keep}
        interventions.append(Intervention(node, tuple(sorted(times))))
    force = hot or draw(st.booleans())
    capped = hot or draw(one_in_four)
    max_events = draw(st.sampled_from(range(1, 201))) if capped else 10_000
    return (HawkesModel(tuple(mu), kernels, horizon), tuple(interventions),
            draw(st.integers(0, 2**32 - 1)), force, max_events)


def sparse_model_12():
    """12 nodes: self-excitation everywhere, about 15% of cross kernels nonzero."""
    rng = np.random.Generator(np.random.PCG64(12))
    n = 12
    mu = tuple(float(x) for x in rng.uniform(0.2, 0.8, size=n))
    kernels = tuple(
        tuple(K(float(rng.uniform(0.1, 0.3)), float(rng.uniform(1.0, 3.0)))
              if a == b or rng.random() < 0.15 else K(0.0, 1.0)
              for a in range(n))
        for b in range(n))
    return HawkesModel(mu, kernels, 50.0)


@st.composite
def wide_thinning_cases(draw):
    """Sparse models of 40-140 nodes, built from a drawn seed, under an event cap.

    About half the models have more than 128 nodes, so their rows reach the
    recursive split of numpy's pairwise summation, which rows of at most 128
    entries never reach. Branching-matrix row sums stay below 0.85, and some
    runs intervene on one or two nodes.
    """
    n = draw(st.integers(40, 128) | st.integers(129, 140))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    density = draw(st.sampled_from((0.02, 0.1, 0.3)))
    R = np.where(rng.random((n, n)) < density, rng.uniform(0.05, 1.0, (n, n)), 0.0)
    R /= np.maximum(1.0, R.sum(axis=1) / 0.85)[:, None]
    decay = rng.uniform(0.5, 4.0, (n, n))
    mu = rng.choice((0.0, -0.0, 0.5, 2.0), size=n, p=(0.1, 0.1, 0.4, 0.4)).tolist()
    kernels = tuple(tuple(K(float(r * b), float(b)) for r, b in zip(*rows))
                    for rows in zip(R, decay))
    horizon = draw(st.floats(0.5, 3.0))
    interventions = tuple(
        Intervention(node, tuple(sorted(set(draw(st.lists(st.floats(0.0, horizon),
                                                           max_size=5))))))
        for node in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=2)))
    return (HawkesModel(tuple(mu), kernels, horizon), interventions,
            draw(st.integers(0, 2**32 - 1)), draw(st.booleans()), draw(st.integers(250, 350)))


class TestPackedThinning:
    """The thinning loop keeps its state on the kernel support only; it must
    give the bytes and errors of the dense loop it replaced."""

    @settings(max_examples=300)
    @given(thinning_cases())
    def test_matches_dense_reference(self, case):
        assert _thinning_outcome(_thinning, *case) == _thinning_outcome(reference_thinning, *case)

    @settings(max_examples=12, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(wide_thinning_cases())
    def test_wide_models_match_dense_reference(self, case):
        assert _thinning_outcome(_thinning, *case) == _thinning_outcome(reference_thinning, *case)

    @pytest.mark.parametrize("n", [1, 5, 8, 50, 129, 140])
    def test_padded_reduceat_sums_like_dense_rows(self, n):
        """The loop takes the intensity as one ``np.add.reduceat`` over rows
        [mu[b], (A * S)[b, 0], ..., (A * S)[b, n - 1]]. numpy copies a
        segment's first entry and adds the pairwise sum of the rest, which
        is ``mu + (A * S).sum(axis=1)`` to the bit; if a numpy release sums
        segments in another order, this fails before any event digest."""
        rng = np.random.Generator(np.random.PCG64(n))
        starts = np.arange(0, n * (n + 1), n + 1)
        for _ in range(25):
            A = np.where(rng.random((n, n)) < 0.3, rng.uniform(0.01, 3.0, (n, n)), 0.0)
            A[rng.random(n) < 0.2] = 0.0
            S = rng.lognormal(0.0, 3.0, (n, n))
            mu = rng.choice((0.0, -0.0, 0.3, 1.7), size=n) * rng.uniform(1.0, 2.0, n)
            padded = np.zeros((n, n + 1))
            padded[:, 0] = mu
            padded[:, 1:] = A * S
            lam = np.add.reduceat(padded.reshape(-1), starts)
            dense = mu + (A * S).sum(axis=1)
            assert lam.tobytes() == dense.tobytes(), (
                f"numpy {np.__version__} no longer sums a reduceat row as "
                "mu + (A * S).sum(axis=1); simulated event times would move")
            assert np.add.reduce(lam).tobytes() == dense.sum().tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
    def test_uniform_blocks_equal_scalar_draws(self, seed):
        """The sampler draws its uniforms in blocks; each block must hold
        the values that as many scalar draws would give, block after block."""
        blocks = np.random.Generator(np.random.PCG64(seed))
        scalars = np.random.Generator(np.random.PCG64(seed))
        for k in (1, 7, _UNIFORM_BLOCK, _UNIFORM_BLOCK):
            assert blocks.random(k).tolist() == [scalars.random() for _ in range(k)]

    def test_sparse_golden(self):
        """Digest of both event CSVs, recorded with the dense loop."""
        m = sparse_model_12()
        forced = Intervention(7, tuple(np.arange(0.0, 50.5, 2.5)))
        histories = (simulate(m, 2024),
                     simulate_intervened(m, (Intervention(3, ()), forced), 2025))
        buf = io.StringIO()
        for h in histories:
            h.to_csv(buf)
        assert [h.total for h in histories] == [421, 369]
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
            "d1f93ce58400f610e08aebefac83c1af8cf5b5bd914da3eeefa3702b4077f978")


@st.composite
def screened_models(draw):
    """Stable models with positive baselines and loops, and an observed subset.

    Every row sum of the branching matrix stays below 0.9; an off-diagonal
    kernel is absent half the time, so some pairs are linked only through
    unobserved nodes and some not at all.
    """
    n = draw(st.integers(4, 9))
    ratio = st.floats(0.01, 0.9 / n)
    mu = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    kernels = tuple(
        tuple(K(r * b, b) for r, b in zip(
            [draw(ratio) if a == row or draw(st.booleans()) else 0.0 for a in range(n)],
            draw(st.lists(st.floats(0.5, 4.0), min_size=n, max_size=n))))
        for row in range(n))
    observed = draw(st.sets(st.integers(0, n - 1), min_size=2))
    return HawkesModel(tuple(mu), kernels, 10.0), sorted(observed)


def silenced_rate(R, mu, silent, b):
    """b's stationary rate with the rows and baselines of ``silent`` zeroed."""
    R, mu = R.copy(), mu.copy()
    R[silent] = 0.0
    mu[silent] = 0.0
    return np.linalg.solve(np.eye(len(mu)) - R, mu)[b]


@given(screened_models())
@settings(max_examples=300, deadline=None)
def test_screened_edge_is_an_effect_of_silencing(case):
    """An edge a -> b of the observed parent graph is exactly an effect on b's rate.

    With every observed node but a and b silenced, silencing a as well
    changes b's stationary rate (I - R)^-1 mu exactly when a -> b is an
    edge of ``parent_graph(causal_graph(model), observed)``: a directed
    path from a to b through unobserved nodes only. CS on the same truth
    keeps every such edge.
    """
    model, observed = case
    A, B = model.matrices()
    R, mu = A / B, np.array(model.mu)
    truth = causal_graph(model)
    parents = parent_graph(truth, observed).directed
    for a in observed:
        for b in observed:
            if a == b:
                continue
            others = [v for v in observed if v not in (a, b)]
            on = silenced_rate(R, mu, others, b)
            off = silenced_rate(R, mu, others + [a], b)
            assert (abs(on - off) > 1e-12 * abs(on)) == ((a, b) in parents), (a, b)
    learned = run("cs", GraphicalOracle(truth, observed)).graph.directed
    assert parents <= learned
