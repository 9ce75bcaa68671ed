"""Run one workload in this process and print its result.

Started by ``run.py`` in a fresh interpreter whose environment has the
program's parallelism and storage overrides removed, so the measured
path is the default a user gets.  The last line of standard output is
the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: Calibration slices taken just before and just after each set-up.
SETUP_SLICES = 10


def _import_program() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    expected = (ROOT / "src" / "repro").resolve()
    if Path(repro.__file__).resolve().parent != expected:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {expected}")


def describe(args: argparse.Namespace) -> dict[str, object]:
    """The resolved configuration the run measured."""
    import numpy

    from repro.parallel import get_executor
    from repro.storage import resolve_backend_name

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "executor": type(get_executor()).__name__,
        "storage_backend": resolve_backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    _import_program()

    import report
    from pace import Pace
    from spans import GcTimer, SpanRecorder, instrument
    from workloads import MIN_READS, WORKLOADS, Client

    workload = WORKLOADS[args.workload]
    print("config", json.dumps(describe(args), sort_keys=True), flush=True)

    if args.trace:
        # Both halves start from a fresh set-up and run equally long, so
        # their throughputs compare like for like.
        untraced = workload.setup(args.seed)
        plain = Client()
        baseline = workload.measure(untraced, args.seconds / 2, plain, 0)
        clients = [untraced.warm, plain]
        del untraced
        gc.collect()
        state = workload.setup(args.seed)
        recorder = SpanRecorder()
        client = Client(recorder)
        with GcTimer().running() as timer, instrument(recorder):
            phase = workload.measure(state, args.seconds / 2, client, 0)
        values = report.per_layer(
            recorder,
            client,
            phase,
            timer.seconds,
            timer.collections,
            len(plain.reads) / baseline.wall_s * baseline.read_host.factor(),
        )
        catalogue = report.PER_LAYER
        clients += [state.warm, client]
    else:
        setup_times = []
        setup_factors = []
        for _ in range(SETUPS):
            state = None
            gc.collect()
            host = Pace()
            host.sample(SETUP_SLICES)
            began = perf_counter()
            state = workload.setup(args.seed)
            setup_times.append(perf_counter() - began)
            host.sample(SETUP_SLICES)
            setup_factors.append(host.factor())
        client = Client()
        phase = workload.measure(state, args.seconds, client, MIN_READS)
        values = report.end_to_end(setup_times, setup_factors, client, phase)
        print(
            "host_factor",
            json.dumps(
                {
                    "setup": [round(f, 4) for f in setup_factors],
                    "reads": round(phase.read_host.factor(), 4),
                    "appends": round(phase.append_host.factor(), 4),
                }
            ),
        )
        catalogue = report.END_TO_END
        clients = [state.warm, client]

    attempted = sum(c.attempted for c in clients)
    failed = sum(c.failures for c in clients)
    checked = sum(c.checked for c in clients)
    units = dict(catalogue)
    for name, value in values.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(
        f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations; "
        f"{checked} distinct results checked)"
    )
    print(f"samples reads={len(client.reads)} appends={len(client.appends)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report.as_json_metrics(values, catalogue),
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
