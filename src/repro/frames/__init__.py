"""Labeled-array substrate: the storage layer of Section 4 of the paper.

GraphTempo stores a temporal attributed graph as a family of labeled 2-D
arrays (node/edge presence matrices and attribute arrays) and implements
its operators as row selections and relational pipelines over them.  This
package provides those arrays (:class:`LabeledFrame`), the relational
operations Algorithm 2 needs (:class:`Table`, :func:`unpivot`) and CSV
persistence for both.
"""

from .errors import (
    DuplicateLabelError,
    FrameError,
    LabelError,
    SchemaError,
    ShapeError,
)
from .io import read_frame_csv, read_table_csv, write_frame_csv, write_table_csv
from .labeled_frame import LabeledFrame, LabelIndex
from .table import Table, unpivot

__all__ = [
    "LabeledFrame",
    "LabelIndex",
    "Table",
    "unpivot",
    "FrameError",
    "LabelError",
    "DuplicateLabelError",
    "ShapeError",
    "SchemaError",
    "read_frame_csv",
    "write_frame_csv",
    "read_table_csv",
    "write_table_csv",
]
