"""Seeded query generators for the benchmark workloads.

Every generator is a pure function of its seed and of the timeline labels
and attribute names it is given, so the same seed always yields the same
query texts.  The program under test only ever receives the generated
strings.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Hashable, Sequence
from typing import Any

#: Query kinds of the ad-hoc stream, as a deck of 20: aggregates over
#: union/project/intersection sources, raw differences and evolutions.
_COLD_BLOCK = (
    ("union",) * 7
    + ("project",) * 3
    + ("intersection",) * 4
    + ("difference",) * 3
    + ("evolution",) * 3
)

#: The dashboard explore grid: every event x goal x extended side.
EVENTS = ("stability", "growth", "shrinkage")
GOALS = ("minimal", "maximal")
SIDES = ("old", "new")


class Deck:
    """Seeded draws without replacement from ``items``, reshuffled each
    time the deck runs out.  Every run therefore sees each item in the
    same proportion and only the pairing and order of draws vary."""

    def __init__(self, items: Sequence[Any], rng: random.Random) -> None:
        self._items = tuple(items)
        self._rng = rng
        self._left: list[Any] = []

    def draw(self) -> Any:
        if not self._left:
            self._left = list(self._items)
            self._rng.shuffle(self._left)
        return self._left.pop()


class ColdQueries:
    """An endless seeded stream of ad-hoc queries (``serve-cold``).

    Each query draws its kind, attribute set and written order, ALL/DIST,
    and its windows, every one of them from its own :class:`Deck`.  A
    window is a point or an inclusive range, so a source covers an
    arbitrary set of up to two ranges; the key space far exceeds the
    requests of a run.
    """

    def __init__(
        self, labels: Sequence[Hashable], attributes: Sequence[str], seed: int
    ) -> None:
        rng = random.Random(seed)
        n = len(labels)
        spans = [(i, j) for i in range(n) for j in range(i, n)]

        def text(span: tuple[int, int]) -> str:
            i, j = span
            return f"[{labels[i]}]" if i == j else f"[{labels[i]}..{labels[j]}]"

        windows = [text(span) for span in spans]
        # Two ranges with a gap between them: their union stays two ranges.
        gapped = [
            f"{text(first)}, {text(second)}"
            for first in spans
            for second in spans
            if second[0] >= first[1] + 2
        ]
        subsets = [
            list(order)
            for size in range(1, len(attributes) + 1)
            for order in itertools.permutations(attributes, size)
        ]
        self._kinds = Deck(_COLD_BLOCK, rng)
        self._windows = Deck(windows, rng)
        self._gapped = Deck(gapped, rng)
        self._attributes = Deck(subsets, rng)
        self._variants = Deck(("all", "distinct"), rng)
        self._project_windows = Deck((1, 2), rng)

    def template(self) -> tuple[str, list[str]]:
        """The next query as a template with an ``{attrs}`` slot plus the
        attribute list to fill it with."""
        kind = self._kinds.draw()
        attrs = self._attributes.draw()
        window = self._windows.draw
        if kind == "difference":
            return f"difference {window()}, {window()}", []
        if kind == "evolution":
            return f"evolution {window()} -> {window()} by {{attrs}}", attrs
        if kind == "union":
            # A union source is a cube key.  Drawing two gapped ranges
            # from a deck of thousands keeps repeated keys, and with them
            # exact and roll-up hits, out of a run, so the route mix
            # does not drift as the cube's cuboid cache fills.
            source = f"union {self._gapped.draw()}"
        elif kind == "intersection":
            source = f"intersection {window()}, {window()}"
        else:
            source = f"project {', '.join(window() for _ in range(self._project_windows.draw()))}"
        return f"aggregate {{attrs}} {self._variants.draw()} over {source}", attrs

    def __call__(self) -> str:
        template, attrs = self.template()
        return template.format(attrs=", ".join(attrs))


#: Zipf ranks (0-based) of the dashboard's commuted twins.  Every other
#: dashboard query is written in canonical attribute order, so the
#: share of requests that need their result permuted (about 12%) is part
#: of the workload's design rather than of a draw.
TWIN_RANKS = (4, 8, 13, 19, 26, 33, 40, 46)


def hot_dashboard(
    labels: Sequence[Hashable], attributes: Sequence[str], seed: int, size: int = 48
) -> tuple[str, ...]:
    """A dashboard of ``size`` distinct queries in Zipf rank order.

    Queries are written with their attributes in ``attributes`` order;
    the ones at :data:`TWIN_RANKS` repeat a two-attribute query of the
    dashboard with its attribute order reversed (the same result-cache
    key, a different written order)."""
    stream = ColdQueries(labels, attributes, seed)
    position = {name: i for i, name in enumerate(attributes)}
    need = len(TWIN_RANKS)
    plain: list[str] = []
    twins: list[str] = []
    while len(plain) + len(twins) < size:
        template, attrs = stream.template()
        canonical = sorted(attrs, key=position.__getitem__)
        text = template.format(attrs=", ".join(canonical))
        if text in plain:
            continue
        if len(twins) < need and len(canonical) > 1:
            plain.append(text)
            twins.append(template.format(attrs=", ".join(reversed(canonical))))
        elif len(plain) + need - len(twins) < size - need:
            plain.append(text)
    for rank, twin in zip(TWIN_RANKS, twins):
        plain.insert(rank, twin)
    return tuple(plain)


def zipf_cum_weights(n: int, s: float = 1.1) -> list[float]:
    """Cumulative Zipf(s) weights over ranks 1..n, for ``random.choices``."""
    total = 0.0
    cumulative = []
    for rank in range(1, n + 1):
        total += rank**-s
        cumulative.append(total)
    return cumulative


class ZipfQueries:
    """An endless seeded Zipf-skewed stream over a fixed dashboard
    (``serve-hot``); draws are made in blocks to keep the client cheap."""

    def __init__(self, dashboard: Sequence[str], seed: int, s: float = 1.1) -> None:
        self._rng = random.Random(seed)
        self._dashboard = tuple(dashboard)
        self._cum = zipf_cum_weights(len(dashboard), s)
        self._block: list[str] = []

    def __call__(self) -> str:
        if not self._block:
            self._block = self._rng.choices(
                self._dashboard, cum_weights=self._cum, k=4096
            )
            self._block.reverse()
        return self._block.pop()


def stream_dashboard(
    labels: Sequence[Hashable],
    thresholds: dict[tuple[str, str], int],
    window: int = 10,
) -> tuple[str, ...]:
    """The dashboard read after an append: every event x goal x extend
    ``explore`` (12), an evolution of the newest point against the
    ``window`` points before it, and an aggregate over the last
    ``window`` points.  ``labels`` is the timeline after the append."""
    last = labels[-1]
    before = labels[max(0, len(labels) - 1 - window) : -1]
    recent = labels[max(0, len(labels) - window) :]
    queries = [
        f"explore {event} {goal} extend {side} k {thresholds[(event, goal)]}"
        for event in EVENTS
        for goal in GOALS
        for side in SIDES
    ]
    queries.append(f"evolution [{before[0]}..{before[-1]}] -> [{last}] by gender")
    queries.append(
        f"aggregate gender, publications all over union "
        f"[{recent[0]}..{recent[-1]}]"
    )
    return tuple(queries)
