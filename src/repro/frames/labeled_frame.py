"""A 2-D array with labeled rows and columns, backed by numpy.

This is the storage primitive of Section 4 of the paper: the node presence
array **V** (rows = node ids, columns = time points), the edge presence
array **E** (rows = edge id pairs), the static attribute array **S**
(columns = attribute names) and one array per time-varying attribute
(columns = time points) are all :class:`LabeledFrame` instances.

The frame is deliberately small and explicit — it supports exactly the
operations the paper's algorithms require (column restriction, row
selection by boolean reductions over column subsets, row insertion by
label) plus generic conveniences (iteration, equality, copies).  It is
*not* a general dataframe; relational operations (unpivot / merge /
deduplicate / group-count, used by Algorithm 2) live in
:mod:`repro.frames.table`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from typing import Any, NamedTuple

import numpy as np

from ._buffer import AppendBuffer, grown
from .errors import DuplicateLabelError, LabelError, ShapeError

__all__ = ["LabelIndex", "LabeledFrame"]


def _duplicate_error(labels: Sequence[Hashable], axis: str) -> DuplicateLabelError:
    seen: set[Hashable] = set()
    duplicates = [lbl for lbl in labels if lbl in seen or seen.add(lbl)]
    return DuplicateLabelError(
        f"duplicate {axis} labels are not allowed: {duplicates[:5]!r}"
    )


class LabelIndex(NamedTuple):
    """One frame axis: unique labels in order plus ``label -> position``.

    Frames over the same labels share one index (a graph's node presence,
    static and time-varying attribute frames all hold the same node
    index), so ``positions`` is never mutated once built: :meth:`extended`
    copies it.
    """

    labels: tuple[Hashable, ...]
    positions: dict[Hashable, int]

    @classmethod
    def build(cls, labels: Iterable[Hashable], axis: str = "row") -> "LabelIndex":
        """Index ``labels``, rejecting duplicates."""
        ordered = tuple(labels)
        positions = {label: position for position, label in enumerate(ordered)}
        if len(positions) != len(ordered):
            raise _duplicate_error(ordered, axis)
        return cls(ordered, positions)

    def extended(
        self, new_labels: Sequence[Hashable], axis: str = "row"
    ) -> "LabelIndex":
        """A new index with ``new_labels`` appended after the existing ones.

        Costs a C-level copy of the position dict plus O(new labels); the
        receiver is left untouched.  A new label that repeats an existing
        (or another new) label raises, as :meth:`build` would.
        """
        if not new_labels:
            return self
        start = len(self.labels)
        positions = self.positions.copy()
        positions.update(zip(new_labels, range(start, start + len(new_labels))))
        labels = self.labels + tuple(new_labels)
        if len(positions) != len(labels):
            raise _duplicate_error(labels, axis)
        return LabelIndex(labels, positions)


class LabeledFrame:
    """An immutable-shape 2-D array with hashable row and column labels.

    Parameters
    ----------
    row_labels:
        Hashable identifiers for the rows, in order.  Must be unique.
    col_labels:
        Hashable identifiers for the columns, in order.  Must be unique.
    values:
        Anything :func:`numpy.asarray` accepts, of shape
        ``(len(row_labels), len(col_labels))``.  The array is copied so the
        frame owns its storage.
    dtype:
        Optional dtype override passed through to numpy.

    Examples
    --------
    >>> frame = LabeledFrame(["u1", "u2"], [2000, 2001], [[1, 0], [1, 1]])
    >>> frame.cell("u2", 2001)
    1
    >>> frame.rows_any([2000])
    ('u1', 'u2')
    """

    __slots__ = (
        "_row_labels",
        "_col_labels",
        "_values",
        "_row_index",
        "_col_index",
        "_buffer",
    )

    def __init__(
        self,
        row_labels: Sequence[Hashable],
        col_labels: Sequence[Hashable],
        values: Any,
        dtype: Any = None,
    ) -> None:
        rows = tuple(row_labels)
        cols = tuple(col_labels)
        array = np.array(values, dtype=dtype)
        if array.ndim == 1 and array.size == 0:
            array = array.reshape(len(rows), len(cols))
        self._adopt(
            LabelIndex.build(rows, "row"), LabelIndex.build(cols, "column"), array
        )

    def _adopt(self, rows: LabelIndex, cols: LabelIndex, array: np.ndarray) -> None:
        if array.shape != (len(rows.labels), len(cols.labels)):
            raise ShapeError(
                f"values shape {array.shape} does not match labels "
                f"({len(rows.labels)}, {len(cols.labels)})"
            )
        self._row_labels, self._row_index = rows
        self._col_labels, self._col_index = cols
        self._values = array
        # The append buffer ``array`` is a view of (``None`` when the
        # frame owns its array); see :meth:`appended_column`.
        self._buffer: AppendBuffer | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_index(
        cls, rows: LabelIndex, cols: LabelIndex, values: np.ndarray
    ) -> "LabeledFrame":
        """A frame over already-built label indexes, sharing them.

        ``values`` is adopted without a copy, so the caller hands over an
        array nothing else writes.  This is how a graph append gives every
        frame over the same nodes, edges or time points one shared index
        instead of rebuilding it per frame.
        """
        frame = cls.__new__(cls)
        frame._adopt(rows, cols, values)
        return frame

    def appended_column(
        self, rows: LabelIndex, cols: LabelIndex, column: np.ndarray
    ) -> "LabeledFrame":
        """This frame grown by one column (and any new rows), read-only.

        ``rows`` and ``cols`` are this frame's indexes followed by the new
        labels: any number of new rows, exactly one new column, whose
        values are ``column``.  New rows hold ``column.dtype``'s fill
        (``0``, or ``None`` for ``object``) in every earlier column.

        The result is a read-only view of an append buffer shared with
        this frame when this frame is the newest view of one, so growing
        a version writes only the new cells instead of copying all of
        history (:mod:`repro.frames._buffer`).  This frame's cells are
        never written.
        """
        n_cols = len(cols.labels)
        if n_cols != self.n_cols + 1 or len(rows.labels) < self.n_rows:
            raise ShapeError(
                f"appended_column needs one new column, got {self.shape} -> "
                f"({len(rows.labels)}, {n_cols})"
            )
        values, buffer = grown(
            self._values, self._buffer, (len(rows.labels), n_cols), column.dtype
        )
        values[:, -1] = column
        return self._published(rows, cols, values, buffer)

    def appended_rows(self, rows: LabelIndex, block: np.ndarray) -> "LabeledFrame":
        """This frame grown by the rows ``block`` under the new labels of
        ``rows``, read-only, sharing an append buffer as
        :meth:`appended_column` does."""
        if block.shape != (len(rows.labels) - self.n_rows, self.n_cols):
            raise ShapeError(
                f"appended_rows block shape {block.shape} does not match "
                f"{len(rows.labels) - self.n_rows} new rows x {self.n_cols} columns"
            )
        values, buffer = grown(
            self._values, self._buffer, (len(rows.labels), self.n_cols), block.dtype
        )
        values[self.n_rows :] = block
        return self._published(rows, self.col_index, values, buffer)

    @classmethod
    def _published(
        cls,
        rows: LabelIndex,
        cols: LabelIndex,
        values: np.ndarray,
        buffer: AppendBuffer,
    ) -> "LabeledFrame":
        values.flags.writeable = False
        frame = cls.from_index(rows, cols, values)
        frame._buffer = buffer
        return frame

    @classmethod
    def empty(
        cls, col_labels: Sequence[Hashable], dtype: Any = None
    ) -> "LabeledFrame":
        """A frame with the given columns and no rows."""
        width = len(tuple(col_labels))
        values = np.empty((0, width), dtype=dtype if dtype is not None else object)
        return cls((), col_labels, values)

    @classmethod
    def from_rows(
        cls,
        rows: Mapping[Hashable, Sequence[Any]],
        col_labels: Sequence[Hashable],
        dtype: Any = None,
    ) -> "LabeledFrame":
        """Build a frame from a mapping ``row label -> row values``."""
        row_labels = tuple(rows)
        cols = tuple(col_labels)
        if not row_labels:
            return cls.empty(cols, dtype=dtype)
        data = []
        for label in row_labels:
            row = tuple(rows[label])
            if len(row) != len(cols):
                raise ShapeError(
                    f"row {label!r} has {len(row)} values, expected {len(cols)}"
                )
            data.append(row)
        array = np.empty((len(row_labels), len(cols)), dtype=dtype or object)
        for i, row in enumerate(data):
            for j, value in enumerate(row):
                array[i, j] = value
        return cls(row_labels, cols, array)

    @classmethod
    def zeros(
        cls,
        row_labels: Sequence[Hashable],
        col_labels: Sequence[Hashable],
        dtype: Any = np.uint8,
    ) -> "LabeledFrame":
        """An all-zero frame — the shape presence matrices start from."""
        rows = tuple(row_labels)
        cols = tuple(col_labels)
        return cls(rows, cols, np.zeros((len(rows), len(cols)), dtype=dtype))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def row_labels(self) -> tuple[Hashable, ...]:
        """Row labels, in storage order."""
        return self._row_labels

    @property
    def col_labels(self) -> tuple[Hashable, ...]:
        """Column labels, in storage order."""
        return self._col_labels

    @property
    def values(self) -> np.ndarray:
        """The underlying numpy array (a live view — treat as read-only)."""
        return self._values

    @property
    def shape(self) -> tuple[int, int]:
        return self._values.shape  # type: ignore[return-value]

    @property
    def row_index(self) -> LabelIndex:
        """The row labels with their positions (shareable, never mutated)."""
        return LabelIndex(self._row_labels, self._row_index)

    @property
    def col_index(self) -> LabelIndex:
        """The column labels with their positions (shareable, never mutated)."""
        return LabelIndex(self._col_labels, self._col_index)

    @property
    def n_rows(self) -> int:
        return len(self._row_labels)

    @property
    def n_cols(self) -> int:
        return len(self._col_labels)

    def has_row(self, label: Hashable) -> bool:
        return label in self._row_index

    def has_col(self, label: Hashable) -> bool:
        return label in self._col_index

    def row_position(self, label: Hashable) -> int:
        """Storage position of a row label."""
        try:
            return self._row_index[label]
        except KeyError:
            raise LabelError(f"unknown row label: {label!r}") from None

    def col_position(self, label: Hashable) -> int:
        """Storage position of a column label."""
        try:
            return self._col_index[label]
        except KeyError:
            raise LabelError(f"unknown column label: {label!r}") from None

    # ------------------------------------------------------------------
    # Element / row access
    # ------------------------------------------------------------------

    def cell(self, row: Hashable, col: Hashable) -> Any:
        """The value stored at ``(row, col)``."""
        return self._values[self.row_position(row), self.col_position(col)]

    def set_cell(self, row: Hashable, col: Hashable, value: Any) -> None:
        """Assign one cell in place (used by dataset builders)."""
        self._values[self.row_position(row), self.col_position(col)] = value

    def row(self, label: Hashable) -> np.ndarray:
        """A copy of one row's values."""
        return self._values[self.row_position(label)].copy()

    def row_dict(self, label: Hashable) -> dict[Hashable, Any]:
        """One row as a ``column label -> value`` mapping."""
        row = self._values[self.row_position(label)]
        return dict(zip(self._col_labels, row))

    def column(self, label: Hashable) -> np.ndarray:
        """A copy of one column's values."""
        return self._values[:, self.col_position(label)].copy()

    def iter_rows(self) -> Iterator[tuple[Hashable, np.ndarray]]:
        """Yield ``(row label, row values view)`` pairs in order."""
        for label, row in zip(self._row_labels, self._values):
            yield label, row

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def restrict_cols(self, cols: Sequence[Hashable]) -> "LabeledFrame":
        """A new frame keeping only the given columns, in the given order.

        This is the paper's *time projection* on the storage level
        ("restricting the arrays to the columns corresponding to a given
        time interval", Section 4.1).
        """
        positions = [self.col_position(c) for c in cols]
        return LabeledFrame(
            self._row_labels, tuple(cols), self._values[:, positions].copy()
        )

    def select_rows(self, rows: Sequence[Hashable]) -> "LabeledFrame":
        """A new frame keeping only the given rows, in the given order."""
        positions = [self.row_position(r) for r in rows]
        return LabeledFrame(
            tuple(rows), self._col_labels, self._values[positions].copy()
        )

    def select_rows_present(self, rows: Iterable[Hashable]) -> "LabeledFrame":
        """Like :meth:`select_rows` but silently skips unknown labels.

        Useful when intersecting an entity list with the rows actually
        stored (e.g. attribute rows for nodes that survived an operator).
        """
        known = [r for r in rows if r in self._row_index]
        return self.select_rows(known)

    def mask_rows(self, mask: np.ndarray) -> "LabeledFrame":
        """A new frame keeping rows where ``mask`` is truthy."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_rows,):
            raise ShapeError(
                f"mask shape {mask.shape} does not match row count {self.n_rows}"
            )
        labels = tuple(
            label for label, keep in zip(self._row_labels, mask) if keep
        )
        return LabeledFrame(labels, self._col_labels, self._values[mask].copy())

    # ------------------------------------------------------------------
    # Boolean reductions (presence-matrix queries)
    # ------------------------------------------------------------------

    def _col_positions(self, cols: Sequence[Hashable] | None) -> list[int]:
        if cols is None:
            return list(range(self.n_cols))
        return [self.col_position(c) for c in cols]

    def any_mask(self, cols: Sequence[Hashable] | None = None) -> np.ndarray:
        """Boolean row mask: row has a nonzero value in *any* given column.

        This is the selection rule of the union operator (Algorithm 1,
        line 4: ``if any V[v, t] = 1``).
        """
        positions = self._col_positions(cols)
        if not positions:
            return np.zeros(self.n_rows, dtype=bool)
        block = self._values[:, positions]
        return (block.astype(bool)).any(axis=1)

    def all_mask(self, cols: Sequence[Hashable] | None = None) -> np.ndarray:
        """Boolean row mask: row is nonzero in *every* given column.

        Used for intersection-semantics spans where an entity must exist
        throughout an interval.  With no columns the mask is all-True
        (vacuous truth), matching ``numpy.all`` over an empty axis.
        """
        positions = self._col_positions(cols)
        if not positions:
            return np.ones(self.n_rows, dtype=bool)
        block = self._values[:, positions]
        return (block.astype(bool)).all(axis=1)

    def none_mask(self, cols: Sequence[Hashable] | None = None) -> np.ndarray:
        """Boolean row mask: row is zero in *all* given columns.

        This is the exclusion rule of the difference operator
        (Section 4.1: "all V[v, t'] with t' in T2 are equal to 0").
        """
        return ~self.any_mask(cols)

    def rows_any(self, cols: Sequence[Hashable] | None = None) -> tuple[Hashable, ...]:
        """Labels of rows with a nonzero value in any given column."""
        mask = self.any_mask(cols)
        return tuple(lbl for lbl, keep in zip(self._row_labels, mask) if keep)

    def rows_all(self, cols: Sequence[Hashable] | None = None) -> tuple[Hashable, ...]:
        """Labels of rows nonzero in every given column."""
        mask = self.all_mask(cols)
        return tuple(lbl for lbl, keep in zip(self._row_labels, mask) if keep)

    def count_nonzero_by_row(
        self, cols: Sequence[Hashable] | None = None
    ) -> dict[Hashable, int]:
        """Per-row count of nonzero cells over the given columns.

        This powers the static-attribute fast path of non-distinct
        aggregation (Section 4.2): the multiplicity of a node/edge over an
        interval is the number of 1-columns in its presence row.
        """
        positions = self._col_positions(cols)
        if not positions:
            return {label: 0 for label in self._row_labels}
        counts = np.count_nonzero(
            self._values[:, positions].astype(bool), axis=1
        )
        return dict(zip(self._row_labels, counts.tolist()))

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------

    def concat_rows(self, other: "LabeledFrame") -> "LabeledFrame":
        """Stack another frame's rows under this one.

        Column labels must match exactly; row label sets must be disjoint.
        """
        if other.col_labels != self._col_labels:
            raise ShapeError(
                "cannot concat frames with different columns: "
                f"{self._col_labels!r} vs {other.col_labels!r}"
            )
        values = np.concatenate([self._values, other.values], axis=0)
        return LabeledFrame(self._row_labels + other.row_labels, self._col_labels, values)

    def copy(self) -> "LabeledFrame":
        return LabeledFrame(self._row_labels, self._col_labels, self._values.copy())

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n_rows

    def __contains__(self, label: Hashable) -> bool:
        return label in self._row_index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledFrame):
            return NotImplemented
        return (
            self._row_labels == other._row_labels
            and self._col_labels == other._col_labels
            and np.array_equal(self._values, other._values)
        )

    def __repr__(self) -> str:
        return (
            f"LabeledFrame({self.n_rows} rows x {self.n_cols} cols, "
            f"dtype={self._values.dtype})"
        )

    def to_string(self, max_rows: int = 20) -> str:
        """A small aligned text rendering for reports and examples."""
        header = ["Id"] + [str(c) for c in self._col_labels]
        body: list[list[str]] = []
        for label, row in list(self.iter_rows())[:max_rows]:
            body.append([str(label)] + [str(v) for v in row])
        widths = [
            max(len(line[i]) for line in [header] + body) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(header, widths))]
        for line in body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
        if self.n_rows > max_rows:
            lines.append(f"... ({self.n_rows - max_rows} more rows)")
        return "\n".join(lines)
