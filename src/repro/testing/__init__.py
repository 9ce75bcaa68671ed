"""Public test utilities: generators, metamorphic laws, fuzzing.

Downstream code building on GraphTempo needs the same things this
repository's own suite needs — seedable random temporal graphs, the
paper's algebraic identities as executable laws, the literal Algorithm 2,
set-based evolution and the per-step exploration walk as reference
engines, and a differential oracle
over every engine/store variant.  See ``docs/testing.md`` for the full
tour and ``repro fuzz --help`` for the CLI.

Only :mod:`repro.testing.strategies` requires ``hypothesis``; everything
else (including ``repro fuzz``) runs on numpy alone.
"""

from .algorithm2 import (
    AggregationEngine,
    aggregate_algorithm2,
    aggregate_evolution_reference,
    aggregation_engines,
)
from .asserts import assert_same_aggregate, assert_same_graph, carried_state_problem
from .generators import (
    GraphSpec,
    graph_from_maps,
    graph_to_maps,
    random_temporal_graph,
    random_time_sets,
)
from .laws import Law, get_laws, law_registry, register_law
from .reference_explore import reference_explore
from . import oracle as _oracle  # noqa: F401  (registers differential laws)
from .shrink import (
    failure_signature,
    reproducer_snippet,
    shrink_graph,
    write_reproducer,
)
from .fuzz import HOSTILE_EVERY, FuzzFailure, FuzzReport, run_fuzz

try:
    from .strategies import temporal_graphs
except ImportError:  # pragma: no cover - hypothesis not installed
    def temporal_graphs(*args: object, **kwargs: object) -> object:
        raise ImportError(
            "repro.testing.temporal_graphs requires the 'hypothesis' "
            "package (a test-time dependency)"
        )

__all__ = [
    "AggregationEngine",
    "aggregate_algorithm2",
    "aggregate_evolution_reference",
    "aggregation_engines",
    "assert_same_aggregate",
    "assert_same_graph",
    "carried_state_problem",
    "GraphSpec",
    "graph_from_maps",
    "graph_to_maps",
    "random_temporal_graph",
    "random_time_sets",
    "Law",
    "get_laws",
    "law_registry",
    "register_law",
    "reference_explore",
    "reproducer_snippet",
    "shrink_graph",
    "failure_signature",
    "write_reproducer",
    "FuzzFailure",
    "FuzzReport",
    "run_fuzz",
    "HOSTILE_EVERY",
    "temporal_graphs",
]
