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

Hard interventions replace a node's point process with a deterministic
list of event times: the node's own intensity is ignored, but its forced
events still excite the rest of the network through the usual kernels.

Stationarity is governed by the branching matrix R[b][a] = a_ba / b_ba
(the expected number of direct b-children of an a-event): the process is
stable iff the spectral radius of R is below one.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import IO, Iterable, Sequence, Union

import numpy as np

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


class SimulationError(RuntimeError):
    """Simulation aborted (runaway intensity or invalid configuration)."""


@dataclass(frozen=True)
class ExponentialKernel:
    """g(u) = a * exp(-b u) for u >= 0, with a >= 0 and b > 0."""
    a: float
    b: float

    def __post_init__(self):
        if not (self.a >= 0.0 and math.isfinite(self.a)):
            raise ValueError(f"kernel amplitude must be finite and >= 0, got {self.a!r}")
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise ValueError(f"kernel decay must be finite and > 0, got {self.b!r}")

    def __call__(self, u: float) -> float:
        return self.a * math.exp(-self.b * u) if u >= 0.0 else 0.0


def _json_array(value, where: str):
    if not isinstance(value, list):
        raise ValueError(f"{where} must be an array, got {value!r}")
    return value


def _json_number(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{where} must be a number, got {value!r}") from None


@dataclass(frozen=True)
class HawkesModel:
    """Baseline rates, kernel matrix (entry [b][a]: influence a -> b), horizon."""
    mu: tuple
    kernels: tuple
    horizon: float

    def __post_init__(self):
        mu = tuple(float(x) for x in self.mu)
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
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be finite and > 0")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kernels", rows)
        object.__setattr__(self, "horizon", float(self.horizon))

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
        mu = tuple(_json_number(x, f"mu[{i}]") for i, x in enumerate(_json_array(mu, "mu")))
        kernels = []
        for i, row in enumerate(_json_array(rows, "kernels")):
            parsed = []
            for j, entry in enumerate(_json_array(row, f"kernels[{i}]")):
                try:
                    a, b = (0.0, 1.0) if entry is None else (float(entry["a"]), float(entry["b"]))
                except (KeyError, TypeError, ValueError):
                    raise ValueError(f"kernels[{i}][{j}] must be null or an object with numbers "
                                     f"a and b, got {entry!r}") from None
                parsed.append(ExponentialKernel(a, b))
            kernels.append(tuple(parsed))
        return cls(mu, tuple(kernels), _json_number(horizon, "T"))

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
        rows = []
        for seq in self.times:
            row = tuple(float(t) for t in seq)
            for prev, cur in zip(row, row[1:]):
                if not cur > prev:
                    raise ValueError("event times must be strictly increasing per node")
            if row and (row[0] < 0.0 or row[-1] > self.horizon):
                raise ValueError("event times must lie within [0, horizon]")
            rows.append(row)
        if not rows:
            raise ValueError("history needs at least one node")
        object.__setattr__(self, "times", tuple(rows))
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def n(self) -> int:
        return len(self.times)

    def counts(self) -> tuple:
        return tuple(len(row) for row in self.times)

    @property
    def total(self) -> int:
        return sum(len(row) for row in self.times)

    def merged(self) -> list:
        """All events as (time, node), sorted by time with node as tiebreak."""
        out = [(t, v) for v, row in enumerate(self.times) for t in row]
        out.sort()
        return out

    def to_csv(self, fh: IO[str]) -> None:
        fh.write("node,time\n")
        for t, v in self.merged():
            fh.write(f"{v},{t!r}\n")

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
                node = int(node_s)
                if not 0 <= node < n:
                    raise ValueError(f"node {node} not in [0, {n})")
                rows[node].append(float(time_s))
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
        ts = tuple(float(t) for t in self.times)
        for prev, cur in zip(ts, ts[1:]):
            if not cur > prev:
                raise ValueError("intervention times must be strictly increasing")
        if ts and ts[0] < 0.0:
            raise ValueError("intervention times must be >= 0")
        object.__setattr__(self, "node", int(self.node))
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


def _thinning(model: HawkesModel, interventions: Sequence[Intervention],
              seed: int, force: bool, max_events: int) -> EventHistory:
    n = model.n
    T = model.horizon
    A, B = model.matrices()
    mu = np.array(model.mu, dtype=float)

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

    rng = np.random.Generator(np.random.PCG64(seed))
    events: list = [[] for _ in range(n)]
    # S[b, a] carries sum(exp(-B[b,a] * (t - s))) over all events s <= t of
    # node a; decayed lazily when t advances.
    S = np.zeros((n, n))
    t = 0.0
    fi = 0
    total = 0

    def record(node: int, at: float) -> None:
        nonlocal total
        S[:, node] += 1.0
        events[node].append(at)
        total += 1
        if total > max_events:
            raise SimulationError(f"event cap {max_events} exceeded; model exploding?")

    while True:
        lam_right = np.where(active, mu + (A * S).sum(axis=1), 0.0)
        lbar = float(lam_right.sum())

        # Draw order per candidate: candidate-time draw (none while the
        # envelope is zero, which leaves only forced events), then (if the
        # candidate is within the horizon and not preempted by a forced
        # event) acceptance draw, then (if accepted) node-selection draw.
        t_cand = t - math.log1p(-rng.random()) / lbar if lbar > 0.0 else math.inf
        if fi < len(forced) and forced[fi][0] <= t_cand:
            # Forced event preempts the candidate; its time draw is discarded.
            tf, nf = forced[fi]
            S *= np.exp(-B * (tf - t))
            t = tf
            fi += 1
            record(nf, tf)
            continue
        if t_cand > T:
            break

        S *= np.exp(-B * (t_cand - t))
        t = t_cand
        lam = np.where(active, mu + (A * S).sum(axis=1), 0.0)
        ltot = float(lam.sum())
        u_accept = rng.random()
        if u_accept * lbar <= ltot:
            u_node = rng.random()
            cum = np.cumsum(lam)
            node = int(np.searchsorted(cum, u_node * ltot, side="right"))
            node = min(node, n - 1)
            record(node, t_cand)

    return EventHistory(tuple(tuple(row) for row in events), T)


def simulate(model: HawkesModel, seed: int, *, force: bool = False,
             max_events: int = EVENT_CAP_DEFAULT) -> EventHistory:
    """Sample one trajectory on [0, T] by Ogata thinning.

    The envelope is the total intensity evaluated just after the current
    time, an upper bound over the whole next interval because exponential
    kernels only decay between events. One PCG64 stream drives the run;
    per candidate the draws are consumed as documented in the loop, so a
    seed pins the history exactly.

    A non-stationary model is rejected up front unless ``force`` is set,
    and even then the event cap aborts runaway trajectories.
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


def _decayed_sums(query_ts: Sequence[float], src_ts: Sequence[float],
                  b: float) -> tuple:
    """For each query time t: (#events s < t, sum exp(-b (t - s)) over them).

    Single forward sweep; both time sequences must be ascending.
    """
    counts = np.empty(len(query_ts))
    sums = np.empty(len(query_ts))
    g = 0.0
    cur = 0.0
    j = 0
    for i, t in enumerate(query_ts):
        while j < len(src_ts) and src_ts[j] < t:
            s = src_ts[j]
            g = g * math.exp(-b * (s - cur)) + 1.0
            cur = s
            j += 1
        counts[i] = j
        sums[i] = g * math.exp(-b * (t - cur))
    return counts, sums


def compensator(model: HawkesModel, history: EventHistory, node: int,
                times: Sequence[float]) -> np.ndarray:
    """Integrated intensity of ``node`` at each of the given ascending times.

    Each event of node a at time s < t contributes (a_ba / b_ba) *
    (1 - exp(-b_ba (t - s))) to the integral from 0 to t.
    """
    if not 0 <= int(node) < model.n:
        raise ValueError(f"unknown node {node}")
    if history.n != model.n:
        raise ValueError("history and model disagree on node count")
    ts = [float(t) for t in times]
    for prev, cur in zip(ts, ts[1:]):
        if cur < prev:
            raise ValueError("compensator times must be ascending")
    out = np.array(ts, dtype=float) * model.mu[node]
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
    ts = history.times[node]
    if not ts:
        return np.empty(0)
    lam_int = compensator(model, history, node, ts)
    return np.diff(np.concatenate(([0.0], lam_int)))
