"""Constraint-based causal screening for multivariate event processes.

The package splits into graph machinery (:mod:`causalscreen.graphs`),
walk-based separation and the query oracle (:mod:`causalscreen.separation`),
the screening algorithms (:mod:`causalscreen.screening`), a linear Hawkes
simulator (:mod:`causalscreen.hawkes`), and the benchmark and connectome
harnesses (:mod:`causalscreen.experiments`, :mod:`causalscreen.connectome`).
Each module's ``__all__`` is the one list of its public names; this package
exports their union.
"""

from . import connectome, experiments, graphs, hawkes, screening, separation
from .graphs import *
from .separation import *
from .screening import *
from .hawkes import *
from .experiments import *
from .connectome import *

__version__ = "0.1.0"

__all__ = [
    *graphs.__all__, *separation.__all__, *screening.__all__,
    *hawkes.__all__, *experiments.__all__, *connectome.__all__,
    "__version__",
]
