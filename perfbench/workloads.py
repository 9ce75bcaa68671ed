"""The benchmark workloads, their closed-loop client and output checks.

Every workload is driven by one closed-loop client: an analyst who waits
for each answer before asking the next.  The server is CPU-bound Python
under one interpreter lock, so a second client thread would mostly
measure the interpreter's thread-switch interval rather than the server.

* ``serve-cold`` -- DBLP behind one ``QueryServer``, fed a seeded stream
  of ad-hoc queries whose key space far exceeds the requests in a run,
  so almost every request misses the result cache.
* ``serve-hot`` -- the same server fed a fixed 48-query dashboard with
  Zipf(1.1) skew, so almost every request is a result-cache hit.
* ``stream-explore`` -- a long synthetic DBLP-shaped timeline replayed
  point by point into a ``StreamingStore`` with an evolution and an
  exploration view registered and a subscribed ``QueryServer``; after
  each append the client reads a 14-query dashboard at the new version.

Every workload must report every end-to-end metric, append latency
included, so the serve workloads end with an ingest phase once their
reads, counters and peak memory are taken: the second half of DBLP's
years is replayed, year by year, into a store with a subscribed server.
"""

from __future__ import annotations

import sys
import traceback
from array import array
from collections import Counter
from collections.abc import Callable, Hashable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any

import numpy as np

from repro.core import TemporalGraph, aggregate_evolution
from repro.core.operators import presence_signature
from repro.core.updates import SnapshotUpdate, snapshot_at
from repro.datasets import dblp_config, generate_dblp
from repro.datasets.synthetic import (
    EvolvingGraphConfig,
    VaryingAttributeSpec,
    generate_evolving_graph,
)
from repro.exploration import (
    ChainEvaluator,
    EventCounter,
    EventType,
    ExtendSide,
    suggest_threshold,
)
from repro.obs.metrics import get_metrics
from repro.query import run_query
from repro.serving import QueryServer
from repro.streaming import EvolutionView, ExplorationView, StreamingStore

import pace
import queries
import stats
from spans import SpanRecorder

#: DBLP at 2% of the paper's Table 3 sizes, with the dataset's own seed
#: (the workload seed drives the query streams, not the graph).
DBLP_SCALE = 0.02
DBLP_SEED = 7

#: Reads a run needs so that p99 satisfies the tail rule.  Every
#: workload appends at least 100 times per run, enough for p90.
MIN_READS = stats.min_samples(99.0)

#: A run does a fixed amount of work, so two commits, or two runs on a
#: host in a fast and a slow spell, serve the same requests and fill the
#: program's caches alike (serve-cold's cuboid cache grows with every
#: distinct request, and with it peak memory).  The amount is what
#: takes ``--seconds`` on the reference host (see ``pace``) at the
#: program's state when the benchmark was defined: reads per second of
#: serve-cold and serve-hot, and seconds per stream-explore replay cycle.
COLD_READS_PER_S = 100
HOT_READS_PER_S = 20_000
STREAM_CYCLE_S = 13.0

#: Served results held before they are checked (bounds client memory).
VERIFY_BATCH = 100

#: Stream workload shape: a prefix of points loaded up front, then one
#: append per remaining point.  Per-point sizes follow DBLP's growth
#: curve at ``DBLP_SCALE`` stretched over the whole timeline.
STREAM_PREFIX = 20
STREAM_APPENDS = 100
STREAM_WARM_STEPS = 5


def _counters() -> dict[str, int]:
    return dict(get_metrics().dump()["counters"])


def result_problem(served: Any, expected: Any) -> str | None:
    """Why a served result differs from the reference, or ``None``.

    Graphs are compared by presence signature, every other result type
    through its own bit-exact ``diff``."""
    if type(served) is not type(expected):
        return f"type {type(served).__name__} != {type(expected).__name__}"
    if isinstance(served, TemporalGraph):
        if presence_signature(served) != presence_signature(expected):
            return "presence signatures differ"
        return None
    problems = served.diff(expected)
    return problems[0] if problems else None


class Client:
    """One closed-loop client.

    Times every read and append, counts operations that raise, and keeps
    the first result served for each distinct ``(query, version)`` until
    :meth:`verify` diffs it against ``run_query`` on the same version.
    With a recorder, each operation is one root span, and the program
    counters an append moves are kept apart from those of reads.
    """

    def __init__(self, recorder: SpanRecorder | None = None, keep: bool = True) -> None:
        self.recorder = recorder
        self.keep = keep
        # Typed arrays keep the client's own memory out of peak RSS.
        self.reads = array("d")
        self.appends = array("d")
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.checked = 0
        self.append_counters: Counter[str] = Counter()
        self._seen: set[tuple[str, int]] = set()
        self._pending: dict[tuple[str, int], Any] = {}

    @property
    def failures(self) -> int:
        """Operations that raised plus outputs that failed a check."""
        return self.failed + self.mismatches

    @property
    def pending(self) -> int:
        return len(self._pending)

    def _report(self, what: str, detail: str) -> None:
        if self.failures <= 3:
            print(f"perfbench: {what}: {detail}", file=sys.stderr)

    def read(self, server: QueryServer, text: str) -> None:
        self.attempted += 1
        recorder = self.recorder
        began = perf_counter()
        span = recorder.open("read") if recorder is not None else -1
        try:
            served = server.serve(text)
        except Exception:  # counted, reported, and the loop goes on
            self.failed += 1
            self._report(f"query raised: {text}", traceback.format_exc())
            return
        finally:
            if recorder is not None:
                recorder.close(span)
        self.reads.append(perf_counter() - began)
        if self.keep:
            key = (text, served.version)
            if key not in self._seen:
                self._seen.add(key)
                self._pending[key] = served.result

    def append(self, store: StreamingStore, update: SnapshotUpdate) -> None:
        self.attempted += 1
        recorder = self.recorder
        before = _counters() if recorder is not None else None
        began = perf_counter()
        span = recorder.open("append") if recorder is not None else -1
        try:
            store.append_snapshot(update)
        except Exception:  # counted, reported, and the loop goes on
            self.failed += 1
            self._report(f"append raised at {update.time}", traceback.format_exc())
            return
        finally:
            if recorder is not None:
                recorder.close(span)
        self.appends.append(perf_counter() - began)
        if before is not None:
            after = Counter(_counters())
            after.subtract(before)
            self.append_counters.update(after)

    def forget(self) -> None:
        """Check every later result again, even for a ``(query, version)``
        already checked (a fresh store reuses version numbers)."""
        self._seen.clear()

    def mismatch(self, what: str, detail: str) -> None:
        self.mismatches += 1
        self._report(what, detail)

    def verify(self, graph_at: Callable[[int], TemporalGraph]) -> None:
        """Diff every held result against ``run_query`` on its version."""
        for (text, version), served in self._pending.items():
            self.checked += 1
            try:
                problem = result_problem(served, run_query(graph_at(version), text))
            except Exception as exc:  # the reference itself failed
                problem = f"reference raised {exc!r}"
            if problem is not None:
                self.mismatch(f"wrong result at version {version}: {text}", problem)
        self._pending.clear()


class Meter:
    """Wall time and program counters of the measured part of a run.

    Checks run inside :meth:`paused`, which stops the clock and excludes
    the counters they move.  :meth:`tick` samples the host's speed into
    :attr:`pace`, also outside the clock.  Creating a meter resets the
    program's counters.
    """

    def __init__(self) -> None:
        get_metrics().reset()
        self.pace = pace.Pace()
        self._excluded: Counter[str] = Counter()
        self._total = 0.0
        self._next_slice = 0.0
        self._since = perf_counter()

    def elapsed(self) -> float:
        return self._total + perf_counter() - self._since

    @contextmanager
    def paused(self) -> Iterator[None]:
        self._total += perf_counter() - self._since
        before = _counters()
        try:
            yield
        finally:
            moved = Counter(_counters())
            moved.subtract(before)
            self._excluded.update(moved)
            self._since = perf_counter()

    def tick(self) -> None:
        """Take a calibration slice once per ``pace.INTERVAL_S`` of
        measured time."""
        now = perf_counter()
        if self._total + now - self._since < self._next_slice:
            return
        self._total += now - self._since
        self.pace.sample()
        self._next_slice = self._total + pace.INTERVAL_S
        self._since = perf_counter()

    def counters(self) -> dict[str, int]:
        counts = Counter(_counters())
        counts.subtract(self._excluded)
        return dict(counts)


@dataclass
class Phase:
    """What one measured phase produced beyond the client's samples."""

    wall_s: float
    #: Calibration slices (see ``pace``) taken while the reads and while
    #: the appends ran.
    read_host: pace.Pace
    append_host: pace.Pace
    #: Program counters moved by the measured reads (appends excluded).
    read_counters: dict[str, int]
    peak_rss_mb: float
    storage_nbytes: int
    versions_retained: int


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def split_at(
    graph: TemporalGraph, points: int
) -> tuple[TemporalGraph, list[SnapshotUpdate]]:
    """The graph's first ``points`` time points plus one replayable
    update per remaining point."""
    labels = graph.timeline.labels
    head = labels[:points]
    prefix = graph.restricted(
        graph.node_presence.rows_any(head), graph.edge_presence.rows_any(head), head
    )
    return prefix, [snapshot_at(graph, t) for t in labels[points:]]


# ----------------------------------------------------------------------
# serve-cold and serve-hot
# ----------------------------------------------------------------------


def route_shares(counters: dict[str, int]) -> dict[str, float]:
    """Result-cache hit ratio and the share of requests per route."""
    served = counters.get("serving.queries", 0) or 1
    hits = counters.get("serving.cache.hits", 0)
    lookups = hits + counters.get("serving.cache.misses", 0)
    shares = {"cache.hit_ratio": hits / lookups if lookups else 0.0}
    for route in ("exact", "rollup", "time_sum", "base"):
        shares[route] = counters.get(f"serving.route.{route}", 0) / served
    return shares


@dataclass
class ServeState:
    graph: TemporalGraph
    server: QueryServer
    next_query: Callable[[], str]
    prefix: TemporalGraph
    updates: list[SnapshotUpdate]
    warm: Client
    reads_per_s: int


def warm_up(
    server: QueryServer,
    next_query: Callable[[], str],
    client: Client,
    window: int,
    tolerance: float,
    max_windows: int,
) -> None:
    """Serve windows of ``window`` requests until the result-cache hit
    ratio and every route share move by at most ``tolerance`` from one
    window to the next (at most ``max_windows`` windows)."""
    metrics = get_metrics()
    previous: dict[str, float] | None = None
    for _ in range(max_windows):
        metrics.reset()
        for _ in range(window):
            client.read(server, next_query())
        shares = route_shares(_counters())
        if previous is not None and all(
            abs(shares[k] - previous[k]) <= tolerance for k in shares
        ):
            return
        previous = shares


def _serve_setup(
    make_stream: Callable[[TemporalGraph], Callable[[], str]],
    prime: Callable[[TemporalGraph], tuple[str, ...]],
    reads_per_s: int,
    window: int,
    tolerance: float,
    max_windows: int,
) -> ServeState:
    graph = generate_dblp(scale=DBLP_SCALE, seed=DBLP_SEED)
    prefix, updates = split_at(graph, len(graph.timeline.labels) // 2)
    server = QueryServer(graph)
    next_query = make_stream(graph)
    warm = Client(keep=False)
    for text in prime(graph):
        warm.read(server, text)
    warm_up(server, next_query, warm, window, tolerance, max_windows)
    return ServeState(graph, server, next_query, prefix, updates, warm, reads_per_s)


#: Ingest cycles of a serve run; each replays DBLP's 11-year second half.
#: 10 cycles would give the 100 appends a p90 needs; 30 spread the
#: appends over about a second, so one slow moment of a shared machine
#: moves fewer of them.
INGEST_CYCLES = 30


def _ingest(state: ServeState, client: Client, host: pace.Pace) -> StreamingStore:
    """Replay the second half of DBLP into a store with a subscribed
    server, ``INGEST_CYCLES`` times, sampling the host's speed between
    cycles; returns the last store."""
    for _ in range(INGEST_CYCLES):
        host.sample()
        store = StreamingStore(state.prefix)
        with QueryServer(store):
            for update in state.updates:
                client.append(store, update)
    host.sample()
    return store


def measure_serve(
    state: ServeState, seconds: float, client: Client, min_reads: int = MIN_READS
) -> Phase:
    """``seconds`` worth of reads (at least ``min_reads``), then one
    ingest phase whose appends are timed on their own.  Checks run every
    ``VERIFY_BATCH`` distinct results, outside the clock; peak memory and
    the read counters are taken before the ingest."""
    meter = Meter()
    graph_at = lambda version: state.graph  # noqa: E731 - one version
    for _ in range(max(min_reads, round(seconds * state.reads_per_s))):
        client.read(state.server, state.next_query())
        meter.tick()
        if client.pending >= VERIFY_BATCH:
            with meter.paused():
                client.verify(graph_at)
    wall = meter.elapsed()
    counters = meter.counters()
    peak = peak_rss_mb()
    client.verify(graph_at)
    ingest = pace.Pace()
    store = _ingest(state, client, ingest)
    if presence_signature(store.graph) != presence_signature(state.graph):
        client.mismatch("ingest", "replayed DBLP differs from the original")
    return Phase(
        wall,
        meter.pace,
        ingest,
        counters,
        peak,
        state.graph.storage.nbytes(),
        len(store.history()),
    )


def setup_serve_cold(seed: int) -> ServeState:
    return _serve_setup(
        lambda graph: queries.ColdQueries(
            graph.timeline.labels, graph.attribute_names, seed
        ),
        lambda graph: (),
        COLD_READS_PER_S,
        window=50,
        tolerance=0.1,
        max_windows=12,
    )


#: The serve-hot dashboard is fixed; the workload seed drives its Zipf draws.
DASHBOARD_SEED = 0


def setup_serve_hot(seed: int) -> ServeState:
    def dashboard(graph: TemporalGraph) -> tuple[str, ...]:
        return queries.hot_dashboard(
            graph.timeline.labels, graph.attribute_names, DASHBOARD_SEED
        )

    return _serve_setup(
        lambda graph: queries.ZipfQueries(dashboard(graph), seed),
        dashboard,
        HOT_READS_PER_S,
        window=2000,
        tolerance=0.01,
        max_windows=12,
    )


# ----------------------------------------------------------------------
# stream-explore
# ----------------------------------------------------------------------


#: DBLP's recipe, and the DBLP year (as a fractional index) that each
#: stream point stands for when 21 years are stretched over the stream.
_DBLP = dblp_config(scale=DBLP_SCALE)
_STREAM_YEAR = np.linspace(0, len(_DBLP.times) - 1, STREAM_PREFIX + STREAM_APPENDS)
(_DBLP_PUBLICATIONS,) = _DBLP.varying_attrs


def _stream_publications(
    rng: np.random.Generator, node_ids: np.ndarray, time_index: int
) -> np.ndarray:
    """DBLP's publications sampler with the domain of the point's year."""
    return _DBLP_PUBLICATIONS.sampler(rng, node_ids, int(_STREAM_YEAR[time_index]))


def _stretch(targets: tuple[int, ...]) -> tuple[int, ...]:
    """DBLP's yearly targets interpolated linearly over the stream."""
    years = np.arange(len(targets))
    return tuple(int(round(v)) for v in np.interp(_STREAM_YEAR, years, targets))


def stream_config(seed: int) -> EvolvingGraphConfig:
    """DBLP's recipe at ``DBLP_SCALE`` (survival, repetition, attribute
    schema) over a long timeline: the yearly node and edge targets and
    the publications domain are stretched from 21 years to
    ``STREAM_PREFIX + STREAM_APPENDS`` points."""
    return replace(
        _DBLP,
        times=tuple(range(1901, 1901 + len(_STREAM_YEAR))),
        node_targets=_stretch(_DBLP.node_targets),
        edge_targets=_stretch(_DBLP.edge_targets),
        varying_attrs=(VaryingAttributeSpec(_DBLP_PUBLICATIONS.name, _stream_publications),),
        seed=seed,
    )


@dataclass
class StreamState:
    prefix: TemporalGraph
    updates: list[SnapshotUpdate]
    dashboards: list[tuple[str, ...]]
    warm: Client


def _open_store(
    prefix: TemporalGraph,
) -> tuple[StreamingStore, QueryServer, EvolutionView, ExplorationView]:
    evolution = EvolutionView(("gender", "publications"))
    exploration = ExplorationView(EventType.GROWTH)
    store = StreamingStore(prefix, views=(evolution, exploration))
    return store, QueryServer(store), evolution, exploration


def _replay(
    state: StreamState,
    store: StreamingStore,
    server: QueryServer,
    client: Client,
    steps: int | None = None,
    tick: Callable[[], None] = lambda: None,
) -> None:
    for update, dashboard in zip(state.updates[:steps], state.dashboards[:steps]):
        client.append(store, update)
        for text in dashboard:
            client.read(server, text)
        tick()


def view_problems(
    store: StreamingStore, evolution: EvolutionView, exploration: ExplorationView
) -> list[str]:
    """Differences between the maintained views and from-scratch
    evaluation over the store's current graph."""
    graph = store.graph
    labels = graph.timeline.labels
    problems: list[str] = []
    direct = aggregate_evolution(
        graph, labels[:STREAM_PREFIX], labels[STREAM_PREFIX:], list(evolution.attributes)
    )
    problems += evolution.current().diff(direct)[:1]
    reference = exploration.reference
    assert reference is not None
    counter = EventCounter(graph, exploration.entity, exploration.attributes, exploration.key)
    chain = list(
        ChainEvaluator(counter, exploration.event).chain(
            reference, ExtendSide.NEW, exploration.semantics
        )
    )
    steps = exploration.steps()
    if len(chain) != len(steps):
        problems.append(f"exploration steps {len(steps)} != {len(chain)}")
    for i, (expected, got) in enumerate(zip(chain, steps)):
        padded = np.zeros(expected.mask.shape[0], dtype=bool)
        padded[: got.mask.shape[0]] = got.mask
        if (expected.old, expected.new, expected.count) != (
            got.old,
            got.new,
            got.count,
        ) or not np.array_equal(expected.mask, padded):
            problems.append(f"exploration step {i} differs")
            break
    return problems


def setup_stream_explore(seed: int) -> StreamState:
    graph = generate_evolving_graph(stream_config(seed))
    prefix, updates = split_at(graph, STREAM_PREFIX)
    thresholds = {
        (event, goal): suggest_threshold(
            prefix, EventType(event), mode="min" if goal == "minimal" else "max"
        )
        for event in queries.EVENTS
        for goal in queries.GOALS
    }
    labels: tuple[Hashable, ...] = graph.timeline.labels
    dashboards = [
        queries.stream_dashboard(labels[: STREAM_PREFIX + i + 1], thresholds)
        for i in range(len(updates))
    ]
    state = StreamState(prefix, updates, dashboards, Client(keep=False))
    store, server, _, _ = _open_store(prefix)
    with server:
        _replay(state, store, server, state.warm, STREAM_WARM_STEPS)
    return state


def measure_stream(
    state: StreamState, seconds: float, client: Client, min_reads: int = MIN_READS
) -> Phase:
    """The whole replay cycles that fit in ``seconds`` (at least one, and
    enough for ``min_reads``), each on a fresh store.  Store creation
    and the checks, which re-check every cycle's results, are excluded
    from the clock."""
    meter = Meter()
    cycles = 0
    store: StreamingStore | None = None
    peak = 0.0
    while (
        cycles == 0 or cycles < seconds // STREAM_CYCLE_S or len(client.reads) < min_reads
    ):
        with meter.paused():
            store, server, evolution, exploration = _open_store(state.prefix)
            client.forget()
        _replay(state, store, server, client, tick=meter.tick)
        with meter.paused():
            peak = peak_rss_mb()
            server.close()
            client.verify(lambda version: store.at_version(version).graph)
            for problem in view_problems(store, evolution, exploration):
                client.mismatch("streaming view", problem)
        cycles += 1
    assert store is not None
    counters = Counter(meter.counters())
    counters.subtract(client.append_counters)
    return Phase(
        meter.elapsed(),
        meter.pace,
        meter.pace,
        dict(counters),
        peak,
        store.graph.storage.nbytes(),
        len(store.history()),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], Any]
    measure: Callable[[Any, float, Client, int], Phase]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve-cold",
            "ad-hoc queries over DBLP: almost every request misses the result "
            "cache, so the aggregation engine, operators and storage do the work",
            setup_serve_cold,
            measure_serve,
        ),
        Workload(
            "serve-hot",
            "a Zipf-skewed 48-query dashboard over DBLP: almost every request "
            "is a parse-LRU and result-cache hit, so the engine is bypassed",
            setup_serve_hot,
            measure_serve,
        ),
        Workload(
            "stream-explore",
            "appends beside reads: each appended point is followed by an "
            "explore/evolution/aggregate dashboard at the new version",
            setup_stream_explore,
            measure_stream,
        ),
    )
}
