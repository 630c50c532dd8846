"""Linear Hawkes processes with exponential kernels.

A model over n nodes has baseline rates mu and an n x n matrix of
exponential kernels, entry [b][a] carrying the influence of node a's
events on node b's intensity:

    lambda_b(t) = mu_b + sum_a sum_{s in N_a, s < t} a_ba * exp(-b_ba (t - s))

The sum is strict in s < t: an event at time t itself does not contribute
to the intensity at t (left limit), which keeps the intensity predictable
and the thinning sampler exact.

Simulation uses Ogata thinning. Between events every exponential kernel
decays, so the total intensity evaluated just after the current time
bounds the intensity over the whole next inter-event interval; that bound
is the thinning envelope. Randomness comes from one PCG64 stream per run,
consumed in a fixed documented order (see :func:`simulate`), so equal
seeds give identical histories on any platform.

The sampler keeps its excitation state only on the kernel support (the
nonzero amplitudes): each step decays and multiplies those entries alone.
The support is ordered by source node, so an event adds 1.0 to one
contiguous slice. The intensity is still a sum over dense rows, taken
with one ``np.add.reduceat`` over an n x (n + 1) buffer: row b holds mu_b
in column 0, then the products at their places and 0.0 elsewhere.
``reduceat`` copies a row's first entry and adds numpy's pairwise sum of
the rest, so it adds the same floats in the same order as
``mu + (A * S).sum(axis=1)`` over the full n x n state, and every event
time is the one, to the byte, that a sampler keeping the full state would
draw.
Uniforms are drawn from the stream in blocks, which hold the values of as
many scalar draws.

Hard interventions replace a node's point process with a deterministic
list of event times: the node's own intensity is zero (no baseline and no
kernel support in its row), but its forced events still excite the rest
of the network through the usual kernels.

A history is written in time order, ties broken by node id. Its rows are
laid end to end, node by node, in one float array and sorted by one stable
argsort, which keeps equal times (``0.0`` and ``-0.0`` among them) in node
order, as sorting (time, node) tuples does; each event's node comes from
``searchsorted`` over the cumulative row counts. ``merged`` and ``to_csv``
read that order in blocks of 4,096 events, and ``to_csv`` writes each block
with one call, so no tuple is built per event. The sampler turns each of
its row lists into a tuple in place and hands the rows over: a tuple of
exact floats is kept as it is, not copied.

The compensator sums each source's events through the recurrence
g <- g * exp(-b * gap) + 1, run by ``itertools.accumulate`` over
``math.exp`` values, which gives the floats of a per-event forward sweep.

Stationarity is governed by the branching matrix R[b][a] = a_ba / b_ba
(the expected number of direct b-children of an a-event): the process is
stable iff the spectral radius of R is below one.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import IO, Iterable, Iterator, Sequence, Union

import numpy as np

from ._numbers import integer, real_type, reals, text_float, text_int
from .graphs import DirectedMixedGraph

__all__ = [
    "ExponentialKernel",
    "HawkesModel",
    "EventHistory",
    "Intervention",
    "SimulationError",
    "causal_graph",
    "intensity",
    "simulate",
    "simulate_intervened",
    "stationarity_check",
    "stationary_rates",
    "compensator",
    "rescaled_intervals",
]

EVENT_CAP_DEFAULT = 10_000_000
# uniforms drawn per call to the generator while thinning
_UNIFORM_BLOCK = 4096
# events put in time order, and event CSV lines written, per block
_EVENT_BLOCK = 4096


class SimulationError(RuntimeError):
    """Simulation aborted (runaway intensity or invalid configuration)."""


@dataclass(frozen=True)
class ExponentialKernel:
    """g(u) = a * exp(-b u) for u >= 0, with a >= 0 and b > 0."""
    a: float
    b: float

    def __post_init__(self):
        a, b = reals((self.a,), "kernel amplitude")[0], reals((self.b,), "kernel decay")[0]
        if not (a >= 0.0 and math.isfinite(a)):
            raise ValueError(f"kernel amplitude must be finite and >= 0, got {self.a!r}")
        if not (b > 0.0 and math.isfinite(b)):
            raise ValueError(f"kernel decay must be finite and > 0, got {self.b!r}")

    def __call__(self, u: float) -> float:
        return self.a * math.exp(-self.b * u) if u >= 0.0 else 0.0


def _json_array(value, where: str):
    if not isinstance(value, list):
        raise ValueError(f"{where} must be an array, got {value!r}")
    return value


def _horizon(value) -> float:
    horizon = reals((value,), "horizon")[0]
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError("horizon must be finite and > 0")
    return horizon


@dataclass(frozen=True)
class HawkesModel:
    """Baseline rates, kernel matrix (entry [b][a]: influence a -> b), horizon."""
    mu: tuple
    kernels: tuple
    horizon: float

    def __post_init__(self):
        mu = tuple(reals((x,), "baseline rate")[0] for x in self.mu)
        if not mu:
            raise ValueError("model needs at least one node")
        if any(not (x >= 0.0 and math.isfinite(x)) for x in mu):
            raise ValueError("baseline rates must be finite and >= 0")
        n = len(mu)
        rows = tuple(tuple(row) for row in self.kernels)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"kernel matrix must be {n}x{n}")
        for row in rows:
            for k in row:
                if not isinstance(k, ExponentialKernel):
                    raise TypeError("kernel entries must be ExponentialKernel")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kernels", rows)
        object.__setattr__(self, "horizon", _horizon(self.horizon))

    @property
    def n(self) -> int:
        return len(self.mu)

    def matrices(self) -> tuple:
        """Amplitude and decay matrices as float arrays (A[b,a], B[b,a])."""
        n = self.n
        A = np.array([[self.kernels[b][a].a for a in range(n)] for b in range(n)])
        B = np.array([[self.kernels[b][a].b for a in range(n)] for b in range(n)])
        return A, B

    def to_json_dict(self) -> dict:
        return {
            "mu": list(self.mu),
            "kernels": [[{"a": k.a, "b": k.b} for k in row] for row in self.kernels],
            "T": self.horizon,
        }

    def to_json(self, fh: IO[str]) -> None:
        json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    @classmethod
    def from_json_dict(cls, data: dict) -> "HawkesModel":
        try:
            mu = data["mu"]
            rows = data["kernels"]
            horizon = data["T"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"model JSON needs keys mu, kernels, T: {exc}") from exc
        mu = tuple(reals((x,), f"mu[{i}]")[0] for i, x in enumerate(_json_array(mu, "mu")))
        kernels = []
        for i, row in enumerate(_json_array(rows, "kernels")):
            parsed = []
            for j, entry in enumerate(_json_array(row, f"kernels[{i}]")):
                where = f"kernels[{i}][{j}]"
                if entry is None:
                    a, b = 0.0, 1.0
                elif isinstance(entry, dict) and all(
                        real_type(type(entry.get(k))) for k in "ab"):
                    a, b = (reals((entry[k],), f"{where}.{k}")[0] for k in "ab")
                else:
                    raise ValueError(f"{where} must be null or an object with numbers "
                                     f"a and b, got {entry!r}")
                parsed.append(ExponentialKernel(a, b))
            kernels.append(tuple(parsed))
        return cls(mu, tuple(kernels), reals((horizon,), "T")[0])

    @classmethod
    def from_json(cls, fh: IO[str]) -> "HawkesModel":
        return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class EventHistory:
    """Per-node event times, each sequence strictly increasing within [0, T].

    Ordinary simulation produces times in (0, T]; a time of exactly 0 can
    only enter through a forced intervention event.
    """
    times: tuple
    horizon: float

    def __post_init__(self):
        horizon = _horizon(self.horizon)
        rows = []
        for seq in self.times:
            row = reals(seq, "event time")
            if not all(map(math.isfinite, row)):
                raise ValueError("event times must be finite")
            for prev, cur in zip(row, row[1:]):
                if not cur > prev:
                    raise ValueError("event times must be strictly increasing per node")
            if row and (row[0] < 0.0 or row[-1] > horizon):
                raise ValueError("event times must lie within [0, horizon]")
            rows.append(row)
        if not rows:
            raise ValueError("history needs at least one node")
        object.__setattr__(self, "times", tuple(rows))
        object.__setattr__(self, "horizon", horizon)

    @property
    def n(self) -> int:
        return len(self.times)

    def counts(self) -> tuple:
        return tuple(len(row) for row in self.times)

    @property
    def total(self) -> int:
        return sum(len(row) for row in self.times)

    def _time_order(self) -> Iterator[tuple]:
        """Events in time order, ties by node, in blocks of (times, nodes) lists.

        The rows are laid end to end, node by node, and sorted by one stable
        argsort, which keeps equal times (``-0.0`` and ``0.0`` among them)
        in node order, as sorting (time, node) tuples does. A block looks up
        its times and nodes only when it is reached.
        """
        counts = self.counts()
        flat = np.fromiter(chain.from_iterable(self.times), float, sum(counts))
        order = flat.argsort(kind="stable")
        ends = np.cumsum(counts)
        for lo in range(0, order.size, _EVENT_BLOCK):
            at = order[lo:lo + _EVENT_BLOCK]
            yield flat[at].tolist(), ends.searchsorted(at, "right").tolist()

    def merged(self) -> list:
        """All events as (time, node), sorted by time with node as tiebreak."""
        return [event for block in self._time_order() for event in zip(*block)]

    def to_csv(self, fh: IO[str]) -> None:
        fh.write("node,time\n")
        line = "{},{!r}\n".format
        for times, nodes in self._time_order():
            fh.write("".join(map(line, nodes, times)))

    @classmethod
    def from_csv(cls, fh: IO[str], *, n: int, horizon: float) -> "EventHistory":
        header = fh.readline().strip()
        if header != "node,time":
            raise ValueError(f"expected header 'node,time', got {header!r}")
        rows: list = [[] for _ in range(n)]
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                node_s, time_s = line.split(",")
                node = text_int(node_s, signed=False)
                if node >= n:
                    raise ValueError(f"node {node} not in [0, {n})")
                rows[node].append(text_float(time_s))
            except ValueError as exc:
                raise ValueError(f"bad event row at line {lineno}: {line!r}") from exc
        for row in rows:
            row.sort()
        return cls(tuple(tuple(row) for row in rows), horizon)


@dataclass(frozen=True)
class Intervention:
    """Force a node's events to exactly the given times (strictly increasing)."""
    node: int
    times: tuple

    def __post_init__(self):
        ts = reals(self.times, "intervention time")
        if not all(map(math.isfinite, ts)):
            raise ValueError("intervention times must be finite")
        for prev, cur in zip(ts, ts[1:]):
            if not cur > prev:
                raise ValueError("intervention times must be strictly increasing")
        if ts and ts[0] < 0.0:
            raise ValueError("intervention times must be >= 0")
        object.__setattr__(self, "node", integer(self.node, "node"))
        object.__setattr__(self, "times", ts)


def causal_graph(model: HawkesModel) -> DirectedMixedGraph:
    """Directed graph with an edge a -> b iff kernel [b][a] has amplitude > 0.

    Loops are always present by the graph convention; a node whose
    self-kernel amplitude is zero keeps its loop but triggers a warning,
    since the structural convention then overstates the dynamics.
    """
    n = model.n
    edges = []
    for b in range(n):
        for a in range(n):
            if model.kernels[b][a].a > 0.0:
                edges.append((a, b))
    for v in range(n):
        if model.kernels[v][v].a == 0.0:
            warnings.warn(
                f"node {v} has zero self-excitation; its loop is kept by convention",
                stacklevel=2,
            )
    return DirectedMixedGraph(n, edges)


def intensity(model: HawkesModel, history: EventHistory, t: float) -> np.ndarray:
    """Intensity vector at time t, using only events strictly before t."""
    _same_nodes(model, history)
    t = reals((t,), "time")[0]
    if not (0.0 <= t <= model.horizon):
        raise ValueError(f"time {t} outside [0, {model.horizon}]")
    A, B = model.matrices()
    lam = np.array(model.mu, dtype=float)
    for a, row in enumerate(history.times):
        past = np.array([s for s in row if s < t], dtype=float)
        if past.size:
            lam += A[:, a] * np.exp(-B[:, a] * (t - past[None, :].T)).sum(axis=0)
    return lam


def stationarity_check(model: HawkesModel) -> tuple:
    """(stable, spectral_radius) for the branching matrix R[b][a] = a/b."""
    A, B = model.matrices()
    rho = float(np.abs(np.linalg.eigvals(A / B)).max())
    return rho < 1.0, rho


def stationary_rates(model: HawkesModel) -> np.ndarray:
    """Long-run mean event rates (I - R)^{-1} mu of a stable model."""
    stable, rho = stationarity_check(model)
    if not stable:
        raise SimulationError(f"model is not stationary (spectral radius {rho:.6g})")
    A, B = model.matrices()
    R = A / B
    return np.linalg.solve(np.eye(model.n) - R, np.array(model.mu, dtype=float))


# Overflow in the loop either decays a kernel to 0.0 (a huge b) or makes the
# envelope infinite, which the loop reports as a SimulationError.
@np.errstate(over="ignore")
def _thinning(model: HawkesModel, interventions: Sequence[Intervention],
              seed: int, force: bool, max_events: int) -> EventHistory:
    seed = integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    max_events = integer(max_events, "max_events")
    if max_events < 0:
        raise ValueError(f"max_events must be >= 0, got {max_events}")
    n = model.n
    T = model.horizon
    A, B = model.matrices()

    active = np.ones(n, dtype=bool)
    forced: list = []
    for iv in interventions:
        if not 0 <= iv.node < n:
            raise ValueError(f"intervention targets unknown node {iv.node}")
        if not active[iv.node]:
            raise ValueError(f"node {iv.node} intervened twice")
        if iv.times and iv.times[-1] > T:
            raise ValueError("intervention times must lie within the horizon")
        active[iv.node] = False
        forced.extend((t, iv.node) for t in iv.times)
    forced.sort()

    if not force:
        stable, rho = stationarity_check(model)
        if not stable:
            raise SimulationError(
                f"model is not stationary (spectral radius {rho:.6g}); "
                "pass force=True to simulate anyway"
            )

    # Uniforms come in blocks from the run's own PCG64 stream: a block of k
    # holds the values of k scalar draws in order, and nothing else reads
    # the generator, so the unused end of the last block changes nothing.
    rng = np.random.Generator(np.random.PCG64(seed))
    draw = chain.from_iterable(
        map(np.ndarray.tolist, map(rng.random, repeat(_UNIFORM_BLOCK)))).__next__

    # Column 0 of the padded n x (n + 1) buffer holds the baselines. An
    # intervened node's intensity is zero: its baseline is zeroed and its
    # row leaves the kernel support, so its row sums to +0.0. Its column
    # stays, so its forced events still excite the network.
    padded = np.zeros((n, n + 1))
    padded[:, 0] = model.mu
    padded[~active, 0] = 0.0
    A[~active] = 0.0
    # The excitation state is kept only on the kernel support: s[k] carries
    # sum(exp(-B[b,a] * (t - s))) over all events s <= t of node a, where
    # [b, a] is the k-th nonzero amplitude ordered by source a, then target
    # b; decayed lazily when t advances. Off the support A * S is zero
    # whatever S holds. An event of node a adds 1.0 to a's slice of s.
    sources, targets = np.divmod(np.flatnonzero(A.T), n)
    a_nz = A[targets, sources]
    neg_b = -B[targets, sources]
    s = np.zeros(sources.size)
    bounds = sources.searchsorted(np.arange(n + 1)).tolist()
    by_source = [s[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    buf = np.empty_like(s)
    # Row b of the padded buffer holds A[b, a] * S[b, a] in column 1 + a,
    # 0.0 off the support. reduceat copies a row's first entry and adds
    # numpy's pairwise sum of the rest, so lam[b] is mu[b] + (A * S)[b].sum():
    # the same floats added in the same order, and every event keeps its bytes.
    padded_flat = padded.reshape(-1)
    slots = targets * (n + 1) + 1 + sources
    row_starts = np.arange(0, n * (n + 1), n + 1)
    lam = np.empty(n)
    cum = np.empty(n)
    multiply, exp, add = np.multiply, np.exp, np.add
    add_reduce, add_reduceat = add.reduce, add.reduceat
    log1p, inf = math.log1p, math.inf
    events: list = [[] for _ in range(n)]
    t = 0.0
    total = 0

    def total_intensity() -> float:
        """Fill ``lam`` with the intensity just after t; return its sum."""
        multiply(a_nz, s, out=buf)
        padded_flat[slots] = buf
        add_reduceat(padded_flat, row_starts, out=lam)
        return float(add_reduce(lam))

    # The run stops at each forced event in time order, then at the end of
    # the horizon: the first time past T, which every later candidate
    # reaches. Draw order per candidate: candidate-time draw (none while the
    # envelope is zero, which puts the candidate at +inf), then, if the
    # candidate comes before the next stop, acceptance draw, then, if
    # accepted, node-selection draw. A candidate at or past the stop
    # discards its time draw: the stop's forced event is taken instead, or
    # at the horizon the run ends. Forced and sampled events are recorded
    # by the same lines. A candidate whose waiting time rounds to zero lands
    # at t itself; a node that fires there again, at its own last event time,
    # has stalled, and the run ends after the next step's overflow check.
    stops = iter(forced + [(math.nextafter(T, inf), None)])
    tf, nf = next(stops)
    stalled = False
    while True:
        lbar = total_intensity()
        if not lbar < inf:
            raise SimulationError(f"total intensity overflows at t = {t!r}; model exploding?")
        if stalled:
            raise SimulationError(f"event times stop advancing at t = {t!r}; model exploding?")
        t_next = t - log1p(-draw()) / lbar if lbar > 0.0 else inf
        node = None
        if tf <= t_next:
            if nf is None:
                break
            t_next, node = tf, nf
            tf, nf = next(stops)
        same = t_next == t
        multiply(neg_b, t_next - t, out=buf)
        exp(buf, out=buf)
        multiply(s, buf, out=s)
        t = t_next
        if node is None:
            ltot = total_intensity()
            if not (draw() * lbar <= ltot):
                continue
            add.accumulate(lam, out=cum)
            node = min(int(cum.searchsorted(draw() * ltot, "right")), n - 1)
            stalled = same and events[node][-1:] == [t]
        by_source[node] += 1.0
        events[node].append(t)
        total += 1
        if total > max_events:
            raise SimulationError(f"event cap {max_events} exceeded; model exploding?")

    # Each row becomes a tuple in place, so only one row at a time is held
    # as both; EventHistory keeps tuples of exact floats without a copy.
    for v, row in enumerate(events):
        events[v] = tuple(row)
    return EventHistory(tuple(events), T)


def simulate(model: HawkesModel, seed: int, *, force: bool = False,
             max_events: int = EVENT_CAP_DEFAULT) -> EventHistory:
    """Sample one trajectory on [0, T] by Ogata thinning.

    The envelope is the total intensity evaluated just after the current
    time, an upper bound over the whole next interval because exponential
    kernels only decay between events. One PCG64 stream drives the run;
    per candidate the draws are consumed as documented in the loop, so a
    seed pins the history exactly.

    A non-stationary model is rejected up front unless ``force`` is set,
    and even then the event cap aborts runaway trajectories. An envelope
    that overflows, or one so large that a node fires twice at the same
    float time, ends the run with a :class:`SimulationError` naming the
    time.
    """
    return _thinning(model, (), seed, force, max_events)


def simulate_intervened(model: HawkesModel,
                        interventions: Union[Intervention, Iterable[Intervention]],
                        seed: int, *, force: bool = False,
                        max_events: int = EVENT_CAP_DEFAULT) -> EventHistory:
    """Simulate under hard interventions.

    Each intervened node fires exactly at its forced times: its own
    intensity is ignored (no stochastic events), while its forced events
    drive the other nodes through the ordinary kernels. When a forced
    event lands before the current thinning candidate, the candidate's
    time draw is discarded and the forced event is processed instead.
    """
    if isinstance(interventions, Intervention):
        interventions = (interventions,)
    return _thinning(model, tuple(interventions), seed, force, max_events)


def _decayed_sums(query: np.ndarray, src: Sequence[float], b: float) -> tuple:
    """For each query time t: (#events s < t, sum exp(-b (t - s)) over them).

    Both time sequences must be ascending. The sum over the first j events,
    taken at the j-th, follows g <- g * exp(-b * gap) + 1.0 from g = 1.0;
    it is then decayed to each query time. ``math.exp`` and that order of
    operations give the floats of a forward sweep over the events.
    """
    src = np.array(src, dtype=float)
    counts = src.searchsorted(query, "left")
    factors = map(math.exp, (-b * np.diff(src)).tolist())
    g = np.fromiter(accumulate(factors, lambda acc, e: acc * e + 1.0, initial=1.0),
                    float, src.size)
    # index j: the sum over the first j events and the time of the j-th
    g = np.concatenate(([0.0], g))
    last = np.concatenate(([0.0], src))
    decay = np.fromiter(map(math.exp, (-b * (query - last[counts])).tolist()),
                        float, query.size)
    return counts, g[counts] * decay


def _same_nodes(model: HawkesModel, history: EventHistory) -> None:
    if history.n != model.n:
        raise ValueError("history and model disagree on node count")


def _history_node(model: HawkesModel, history: EventHistory, node) -> int:
    """Check that history and node fit the model; returns the node as an int."""
    node = integer(node, "node")
    if not 0 <= node < model.n:
        raise ValueError(f"unknown node {node}")
    _same_nodes(model, history)
    return node


def compensator(model: HawkesModel, history: EventHistory, node: int,
                times: Sequence[float]) -> np.ndarray:
    """Integrated intensity of ``node`` at each of the given ascending times.

    Each event of node a at time s < t contributes (a_ba / b_ba) *
    (1 - exp(-b_ba (t - s))) to the integral from 0 to t. The times must
    be finite and lie within [0, T], as for :func:`intensity`.
    """
    node = _history_node(model, history, node)
    ts = np.array(reals(times, "compensator time"), dtype=float)
    if not np.isfinite(ts).all():
        raise ValueError("compensator times must be finite")
    outside = (ts < 0.0) | (ts > model.horizon)
    if outside.any():
        raise ValueError(f"time {float(ts[outside][0])} outside [0, {model.horizon}]")
    if (ts[1:] < ts[:-1]).any():
        raise ValueError("compensator times must be ascending")
    out = ts * model.mu[node]
    for a, row in enumerate(history.times):
        k = model.kernels[node][a]
        if k.a == 0.0 or not row:
            continue
        counts, sums = _decayed_sums(ts, row, k.b)
        out += (k.a / k.b) * (counts - sums)
    return out


def rescaled_intervals(model: HawkesModel, history: EventHistory,
                       node: int) -> np.ndarray:
    """Compensator increments between the node's consecutive events.

    If the history was generated by the model, these are iid Exp(1)
    (time-rescaling), which makes them a goodness-of-fit statistic for
    the sampler.
    """
    node = _history_node(model, history, node)
    ts = history.times[node]
    if not ts:
        return np.empty(0)
    lam_int = compensator(model, history, node, ts)
    return np.diff(np.concatenate(([0.0], lam_int)))
