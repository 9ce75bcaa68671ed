"""GraphTempo end-to-end benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload in turn

Each workload runs in a fresh interpreter with ``REPRO_PARALLEL_*`` and
``REPRO_STORAGE_BACKEND`` removed from its environment, against the
program under ``src/``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when any operation
failed or any output differed from the reference evaluator.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-cold", "serve-hot", "stream-explore")

#: Environment overrides removed so the default execution path is measured.
UNSET = (
    "REPRO_PARALLEL_WORKERS",
    "REPRO_PARALLEL_BACKEND",
    "REPRO_PARALLEL_MIN_WORK",
    "REPRO_STORAGE_BACKEND",
)

#: A workload that has not finished within ``TIMEOUT_BASE_S`` plus
#: ``TIMEOUT_PER_S`` times its measured seconds is killed.  Set-ups and
#: output checks run outside the clock and grow with the measured work
#: (stream-explore checks each replay cycle for about as long as the
#: cycle took), so the allowance scales with ``--seconds``.
TIMEOUT_BASE_S = 15
TIMEOUT_PER_S = 8


def timeout_s(seconds: int) -> int:
    return TIMEOUT_BASE_S + TIMEOUT_PER_S * seconds


def _environment() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_workload(name: str, seed: int, seconds: int, trace: int) -> tuple[int, str]:
    """Run one workload in a fresh interpreter; returns its exit code and
    standard output (standard error passes through)."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    limit = timeout_s(seconds)
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=_environment(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=limit,
        )
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: {name} did not finish within {limit}s", file=sys.stderr)
        partial = exc.stdout or ""
        if isinstance(partial, bytes):
            partial = partial.decode(errors="replace")
        return 124, partial
    return done.returncode, done.stdout


def _result(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="GraphTempo end-to-end benchmark",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        code, stdout = run_workload(name, args.seed, args.seconds, args.trace)
        result = _result(stdout)
        lines = stdout.strip().splitlines()
        body = lines[:-1] if result is not None else lines
        prefix = f"[{name}] " if len(names) > 1 else ""
        for line in body:
            print(prefix + line)
        if result is None:
            print(f"perfbench: {name} printed no result (exit {code})", file=sys.stderr)
            return code or 1
        results[name] = (code, result)

    if len(names) == 1:
        code, result = results[names[0]]
        print(json.dumps(result))
        return code
    combined = {
        "correct": all(r["correct"] for _, r in results.values()),
        "attempted": sum(r["attempted"] for _, r in results.values()),
        "failed": sum(r["failed"] for _, r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, (_, r) in results.items()
            for metric, value in r["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return max(code for code, _ in results.values())


if __name__ == "__main__":
    sys.exit(main())
