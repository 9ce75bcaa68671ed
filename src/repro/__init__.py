"""GraphTempo — an aggregation framework for evolving graphs.

A from-scratch reproduction of the EDBT 2023 paper by Tsoukanara,
Koloniari and Pitoura.  The public API re-exports the model layer
(:mod:`repro.core`), exploration (:mod:`repro.exploration`), the
partially materialized cube (:mod:`repro.olap`) and datasets
(:mod:`repro.datasets`).
"""

from .errors import GraphTempoError
from .core import (
    AggregateGraph,
    EvolutionAggregate,
    EvolutionGraph,
    EvolutionWeights,
    GraphIntegrityError,
    Interval,
    TemporalGraph,
    TemporalGraphBuilder,
    Timeline,
    aggregate,
    aggregate_evolution,
    attribute_predicate,
    difference,
    evolution,
    filter_appearances,
    intersection,
    project,
    union,
)
from .serving import QueryServer, Served
from .session import GraphTempoSession
from .storage import (
    ColumnarBackend,
    DenseBackend,
    GraphStorageBackend,
    backend_names,
    get_backend,
)
from .streaming import (
    EdgeEvent,
    GraphVersion,
    NodeEvent,
    StreamingStore,
)

__version__ = "1.0.0"

__all__ = [
    "GraphTempoError",
    "TemporalGraph",
    "TemporalGraphBuilder",
    "GraphIntegrityError",
    "Interval",
    "Timeline",
    "project",
    "union",
    "intersection",
    "difference",
    "aggregate",
    "AggregateGraph",
    "evolution",
    "EvolutionGraph",
    "EvolutionAggregate",
    "EvolutionWeights",
    "aggregate_evolution",
    "filter_appearances",
    "attribute_predicate",
    "GraphTempoSession",
    "QueryServer",
    "Served",
    "StreamingStore",
    "GraphVersion",
    "NodeEvent",
    "EdgeEvent",
    "GraphStorageBackend",
    "DenseBackend",
    "ColumnarBackend",
    "backend_names",
    "get_backend",
    "__version__",
]
