"""Kept for the repo benchmark until it next changes.

Every operator, aggregation and exploration runs inline in the calling
process; there is no process pool.  ``perfbench/worker.py`` still
prints ``type(get_executor()).__name__`` in its run configuration, so
this module keeps that one name and answers ``InlineExecutor``.  Delete
it together with that line.
"""

from __future__ import annotations

__all__ = ["InlineExecutor", "get_executor"]


class InlineExecutor:
    """The only execution mode: inline, in the calling process."""


def get_executor() -> InlineExecutor:
    """The executor every call runs on (always inline)."""
    return InlineExecutor()
