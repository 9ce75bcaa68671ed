"""Greedy counterexample shrinking and reproducer generation.

When a law fails on a random graph, the raw counterexample is noise: a
handful of nodes and time points usually suffice to trigger the bug.
:func:`shrink_graph` is delta-debugging lite — repeatedly drop one edge,
one node (with its incident edges) or one time column, keep the removal
whenever the law still fails *the same way*, and stop at a fixed point.
"The same way" compares the messages' :func:`failure_signature`, with
their numbers and reprs masked, so a reduction may change which entity
or how many diverge but not which check fails.  The result is written
to disk as a runnable Python snippet built on
:func:`repro.testing.graph_from_maps`, so a failure found by CI can be
replayed locally with no fuzzing infrastructure at all.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Hashable
from pathlib import Path

from ..core import TemporalGraph
from .generators import graph_to_maps

__all__ = [
    "failure_signature",
    "shrink_graph",
    "reproducer_snippet",
    "write_reproducer",
]

#: A law check bound to its RNG seeding: the failure message, or
#: ``None`` when the law holds.
Check = Callable[[TemporalGraph], str | None]

_QUOTED = re.compile(r"'[^']*'|\"[^\"]*\"")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")
_BRACKETED = re.compile(r"\([^()]*\)|\[[^\[\]]*\]|\{[^{}]*\}|<[^<>]*>")


def failure_signature(message: str) -> str:
    """``message`` with its numbers and reprs masked.

    Quoted strings become ``'…'``, numbers ``#`` and bracketed groups
    (tuple, list, set and dict reprs, innermost first) ``…``, so two
    messages from one failing check compare equal whichever entity,
    window or count they name.
    """
    masked = _NUMBER.sub("#", _QUOTED.sub("'…'", message))
    previous = None
    while masked != previous:
        previous, masked = masked, _BRACKETED.sub("…", masked)
    return masked


def _fails_as(check: Check, graph: TemporalGraph, signature: str) -> bool:
    """Whether ``graph`` still fails with the original failure's signature.

    A reduction that turns the failure into a pass, a crash or a
    different failure is rejected.
    """
    try:
        message = check(graph)
    except Exception:
        return False
    return message is not None and failure_signature(message) == signature


def _restrict(
    graph: TemporalGraph,
    nodes: list[Hashable],
    edges: list[Hashable],
    times: list[Hashable],
) -> TemporalGraph | None:
    try:
        return graph.restricted(nodes, edges, times, validate=False)
    except Exception:
        return None


def shrink_graph(
    graph: TemporalGraph,
    check: Check,
    max_rounds: int = 32,
) -> TemporalGraph:
    """The smallest graph (greedy fixed point) on which ``check`` still
    fails the way it fails on ``graph``.

    ``check`` returns a failure message or ``None`` and must be
    deterministic: it is re-evaluated on every candidate reduction, so
    callers seeding randomness must re-seed per call.  The input graph
    is assumed to fail; the return value always fails with the same
    :func:`failure_signature`.
    """
    message = check(graph)
    if message is None:
        return graph
    signature = failure_signature(message)
    current = graph
    for _ in range(max_rounds):
        nodes = list(current.nodes)
        edges = list(current.edges)
        times = list(current.timeline.labels)
        improved = False

        for edge in list(edges):
            candidate_edges = [e for e in edges if e != edge]
            candidate = _restrict(current, nodes, candidate_edges, times)
            if candidate is not None and _fails_as(check, candidate, signature):
                current, edges, improved = candidate, candidate_edges, True

        for node in list(nodes):
            candidate_nodes = [n for n in nodes if n != node]
            candidate_edges = [e for e in edges if node not in e]  # type: ignore[operator]
            candidate = _restrict(current, candidate_nodes, candidate_edges, times)
            if candidate is not None and _fails_as(check, candidate, signature):
                current = candidate
                nodes, edges, improved = candidate_nodes, candidate_edges, True

        if len(times) > 1:
            for t in list(times):
                candidate_times = [x for x in times if x != t]
                if not candidate_times:
                    continue
                candidate = _restrict(current, nodes, edges, candidate_times)
                if candidate is not None and _fails_as(check, candidate, signature):
                    current, times, improved = candidate, candidate_times, True

        if not improved:
            break
    return current


def reproducer_snippet(
    graph: TemporalGraph,
    law_name: str,
    seed: int,
    case: int,
    law_index: int,
    message: str,
) -> str:
    """A standalone Python script re-checking ``law_name`` on ``graph``."""
    maps = graph_to_maps(graph)
    lines = [
        '"""Auto-generated fuzz reproducer.',
        "",
        f"Law      : {law_name}",
        f"Violation: {message}",
        f"Origin   : repro fuzz --seed {seed} (case {case})",
        "",
        'Run with: PYTHONPATH=src python <this file>',
        '"""',
        "",
        "import numpy as np",
        "",
        "from repro.testing import graph_from_maps, law_registry",
        "",
        "graph = graph_from_maps(",
        f"    times={maps['times']!r},",
        f"    node_times={maps['node_times']!r},",
        f"    edge_times={maps['edge_times']!r},",
        f"    static={maps['static']!r},",
        f"    varying={maps['varying']!r},",
        "    allow_dangling=True,",
        ")",
        f"law = law_registry()[{law_name!r}]",
        f"rng = np.random.default_rng([{seed}, {case}, {law_index}])",
        "failure = law.check(graph, rng)",
        "if failure is None:",
        "    raise SystemExit('law passed: the bug may already be fixed')",
        "raise SystemExit(f'law violated: {failure}')",
        "",
    ]
    return "\n".join(lines)


def write_reproducer(
    out_dir: str | Path,
    graph: TemporalGraph,
    law_name: str,
    seed: int,
    case: int,
    law_index: int,
    message: str,
) -> Path:
    """Write the reproducer snippet to ``out_dir`` and return its path.

    The directory resolves to an absolute path up front: fuzz runs (and
    the bench replays built on them) may chdir or hand the path to
    subprocesses, and a cwd-relative ``--out`` must keep pointing at the
    directory the caller named, not wherever the process happens to be.
    """
    directory = Path(out_dir).expanduser().resolve()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"repro_{law_name.replace('-', '_')}_s{seed}_c{case}.py"
    path.write_text(
        reproducer_snippet(graph, law_name, seed, case, law_index, message),
        encoding="utf-8",
    )
    return path
