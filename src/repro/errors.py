"""The GraphTempo error taxonomy.

Every failure raised by the library derives from :class:`GraphTempoError`
so callers can catch reproduction failures uniformly, while each concrete
class also inherits the builtin exception the call site historically
raised (``ValueError``, ``KeyError``, ``TypeError``), keeping idiomatic
``except ValueError`` handlers and the existing test-suite contracts
working unchanged.

The taxonomy mirrors the paper's structure:

* :class:`TemporalError` — misuse of time sets and intervals, the inputs
  of the temporal operators of Definitions 2.2-2.5 (Algorithm 1);
* :class:`AggregationError` — invalid aggregation or measure
  specifications for Definition 2.6 / Algorithm 2;
* :class:`ExplorationError` — invalid exploration strategies or
  parameters (Section 3);
* :class:`UnknownLabelError` — a lookup named a time point, unit,
  attribute, node or edge the graph does not have;
* :class:`DatasetError` — loaders and generators for the paper's
  datasets (Table 3) received broken inputs;
* :class:`MaterializationError` / :class:`ConfigurationError` — the
  streaming store and its views, and user-facing configuration surfaces;
* :class:`StorageError` — the pluggable storage substrate
  (:mod:`repro.storage`) was misused: unknown backend name, corrupt
  persisted layout, or a write into a read-only mapping.

The labeled-array substrate keeps its own hierarchy in
:mod:`repro.frames.errors`; its root :class:`~repro.frames.errors.FrameError`
subclasses :class:`GraphTempoError`, and this module re-exports the frame
error classes so ``repro.errors`` is the single import surface for every
exception the project raises.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = [
    "GraphTempoError",
    "ValidationError",
    "InvalidTypeError",
    "UnknownLabelError",
    "TimeIndexError",
    "TemporalError",
    "AggregationError",
    "ExplorationError",
    "DatasetError",
    "MaterializationError",
    "ConfigurationError",
    "StorageError",
    # Labeled-array substrate errors, re-exported from repro.frames.errors.
    "FrameError",
    "LabelError",
    "DuplicateLabelError",
    "ShapeError",
    "SchemaError",
]


class GraphTempoError(Exception):
    """Root of every exception raised by the GraphTempo reproduction."""


class ValidationError(GraphTempoError, ValueError):
    """An argument had the right type but an unusable value."""


class InvalidTypeError(GraphTempoError, TypeError):
    """An argument had a type the operation cannot work with."""


class UnknownLabelError(GraphTempoError, KeyError):
    """A lookup referenced a time point, unit, attribute, node or edge
    that the graph (or view) does not define.

    Inherits from :class:`KeyError` so idiomatic ``except KeyError`` call
    sites keep working, while still being a :class:`GraphTempoError`.
    """

    def __str__(self) -> str:  # KeyError quotes its args; keep messages readable
        return Exception.__str__(self)


class TimeIndexError(GraphTempoError, IndexError):
    """A positional time index fell outside the timeline.

    Inherits from :class:`IndexError` so positional-indexing call sites
    keep their builtin contract.
    """


class TemporalError(ValidationError):
    """A time set or interval handed to a temporal operator
    (Definitions 2.2-2.5) was empty, unordered, or otherwise unusable."""


class AggregationError(ValidationError):
    """An aggregation or measure specification (Definition 2.6,
    Algorithm 2) was invalid."""


class ExplorationError(ValidationError):
    """An exploration strategy (Section 3) was given invalid parameters."""


class DatasetError(ValidationError):
    """A dataset loader or generator received broken inputs."""


class MaterializationError(ValidationError):
    """A streaming store or a materialized view was used inconsistently."""


class ConfigurationError(ValidationError):
    """A configuration surface (session, CLI, lint) was misconfigured."""


class StorageError(ValidationError):
    """A :mod:`repro.storage` backend was selected, constructed or
    persisted inconsistently (unknown backend name, corrupt on-disk
    layout, write into a read-only mapping)."""


# ---------------------------------------------------------------------------
# Re-export of the labeled-array substrate errors.
#
# ``repro.frames.errors`` imports :class:`GraphTempoError` from this module,
# so a top-level ``from .frames.errors import ...`` here would be circular
# whenever ``repro.frames`` is imported first.  A module ``__getattr__``
# (PEP 562) defers the import until the name is actually requested, which
# is always after both modules finished initialising.
# ---------------------------------------------------------------------------

_FRAME_ERROR_NAMES = frozenset(
    {"FrameError", "LabelError", "DuplicateLabelError", "ShapeError", "SchemaError"}
)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .frames.errors import (  # noqa: F401
        DuplicateLabelError,
        FrameError,
        LabelError,
        SchemaError,
        ShapeError,
    )


def __getattr__(name: str) -> type[Exception]:
    if name in _FRAME_ERROR_NAMES:
        from .frames import errors as _frame_errors

        return getattr(_frame_errors, name)  # type: ignore[no-any-return]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
