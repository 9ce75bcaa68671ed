"""What the repo benchmark (``perfbench/``) needs from the program.

``perfbench/worker.py`` prints its run configuration through
``describe``, which resolves ``repro.parallel.get_executor``.  The
program runs everything inline, and ``repro.parallel`` is kept only so
that line keeps working: this test fails if the shim goes while
perfbench still calls it.
"""

from __future__ import annotations

import argparse
import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load_worker():
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", REPO / "perfbench" / "worker.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_describe_reports_the_inline_executor():
    worker = _load_worker()
    args = argparse.Namespace(
        workload="serve-cold", seed=0, seconds=1.0, trace=0
    )
    config = worker.describe(args)
    assert config["executor"] == "InlineExecutor"
    assert config["workload"] == "serve-cold"
