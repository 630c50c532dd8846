"""Constraint-based causal screening for multivariate event processes.

The package splits into graph machinery (:mod:`causalscreen.graphs`),
walk-based separation and the query oracle (:mod:`causalscreen.separation`),
the screening algorithms (:mod:`causalscreen.screening`), a linear Hawkes
simulator (:mod:`causalscreen.hawkes`), and the benchmark and connectome
harnesses (:mod:`causalscreen.experiments`, :mod:`causalscreen.connectome`).
"""

from .graphs import (
    DirectedMixedGraph,
    GraphError,
    ancestors,
    canonical_dg,
    directed_part,
    latent_projection,
    parent_graph,
)
from .separation import (
    GraphicalOracle,
    SeparationQuery,
    mu_separated,
)
from .screening import (
    Algorithm,
    LearnResult,
    TraceEntry,
    ancestry_propagation,
    ancestry_propagation_cheap,
    parent_step,
    run,
    trek_step,
)
from .hawkes import (
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
from .experiments import (
    CorpusConfig,
    MetricsRow,
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
from .connectome import (
    ConnectomeResult,
    ConnectomeSpec,
    degree_weights,
    ingest_connectome,
    run_connectome,
    subsample,
)

__version__ = "0.1.0"

__all__ = [
    "DirectedMixedGraph", "GraphError", "ancestors", "canonical_dg",
    "directed_part", "latent_projection", "parent_graph",
    "GraphicalOracle", "SeparationQuery", "mu_separated",
    "Algorithm", "LearnResult", "TraceEntry", "ancestry_propagation",
    "ancestry_propagation_cheap", "parent_step", "run", "trek_step",
    "EventHistory", "ExponentialKernel", "HawkesModel", "Intervention",
    "SimulationError", "causal_graph", "compensator", "intensity",
    "rescaled_intervals", "simulate", "simulate_intervened",
    "stationarity_check", "stationary_rates",
    "CorpusConfig", "MetricsRow", "SoundnessViolation", "aggregate", "bench_run",
    "excess_edges", "indegrees", "outdegrees", "random_dmg", "spearman",
    "topk_overlap", "write_metrics_csv",
    "ConnectomeResult", "ConnectomeSpec", "degree_weights", "ingest_connectome",
    "run_connectome", "subsample",
    "__version__",
]
