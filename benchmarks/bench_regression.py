"""Benchmark-regression gate over the committed ``BENCH_*.json`` reports.

Run with ``pytest benchmarks -m bench_smoke``.  Three layers:

* **structure** — every committed report has the sections and row keys
  its producing script writes, came from a full (non-smoke) run, and
  its derived numbers (speedups, overheads) recompute from the raw
  timings;
* **recorded gates** — the claims each report was committed to support
  still hold within ``REPRO_BENCH_TOLERANCE`` (see
  ``benchmarks/conftest.py``): the incremental-evaluator speedups, the
  observability overhead budget, the serving, storage and streaming
  gates;
* **live smoke** — the streaming, storage and serving benchmarks re-run
  end to end at smoke size, which re-asserts their parity checks on
  this machine before any timing is trusted.

Wall-clock times are never compared across machines; only ratios and
internal consistency are checked, so the gate is meaningful on any box.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bench_serving import GATE as SERVING_GATE
from bench_serving import main as serving_bench_main
from bench_exploration_scaling import LONG_TIMELINE_GATE
from bench_storage import GATE_FOOTPRINT as STORAGE_GATE_FOOTPRINT
from bench_storage import GATE_LATENCY as STORAGE_GATE_LATENCY
from bench_storage import main as storage_bench_main
from bench_streaming import CARRIED_PREFIX
from bench_streaming import GATE as STREAMING_GATE
from bench_streaming import main as streaming_bench_main

pytestmark = pytest.mark.bench_smoke

#: Gate recorded in bench_exploration_scaling.py for 50+-point timelines.
EXPLORE_GATE = LONG_TIMELINE_GATE


def _recomputes(ratio: float, numerator: float, denominator: float) -> bool:
    return denominator > 0 and abs(ratio - numerator / denominator) < 1e-9


class TestExploreBaseline:
    def test_structure(self, explore_baseline):
        assert not explore_baseline["meta"]["smoke"]
        for section in ("synthetic_scaling", "varying_fallback", "paper_configs"):
            assert explore_baseline[section], f"{section} is empty"
            for row in explore_baseline[section]:
                assert row["old_best_s"] > 0
                assert row["new_best_s"] > 0
                assert _recomputes(
                    row["speedup"], row["old_best_s"], row["new_best_s"]
                )

    def test_varying_dblp_rows_recorded(self, explore_baseline):
        rows = explore_baseline["varying_dblp"]
        assert {row["entity"] for row in rows} == {"nodes", "edges"}
        for row in rows:
            assert row["attribute"] == "publications"
            assert 0 < row["counter_best_s"]
            assert 0 < row["explore_best_s"]

    def test_paper_configs_cover_both_datasets(self, explore_baseline):
        datasets = {row["dataset"] for row in explore_baseline["paper_configs"]}
        assert datasets == {"movielens", "dblp"}

    def test_kernel_never_loses_to_the_walk(self, explore_baseline, bench_tolerance):
        meta = explore_baseline["meta"]
        assert meta["cpu_count"] >= 1
        floor = meta["kernel_gate"] * (1 - bench_tolerance)
        for section in ("synthetic_scaling", "paper_configs"):
            for row in explore_baseline[section]:
                assert row["speedup"] >= floor, row

    def test_long_timeline_speedup_gate(self, explore_baseline, bench_tolerance):
        best = max(
            row["speedup"]
            for row in explore_baseline["synthetic_scaling"]
            if row["n_times"] >= 50
        )
        assert best >= EXPLORE_GATE * (1 - bench_tolerance)


class TestObsBaseline:
    def test_structure(self, obs_baseline):
        assert not obs_baseline["meta"]["smoke"]
        workloads = {row["workload"] for row in obs_baseline["workloads"]}
        assert workloads == {"fig5_aggregation", "exploration_scaling"}
        for row in obs_baseline["workloads"]:
            assert _recomputes(
                row["disabled_overhead_vs_baseline"] + 1.0,
                row["disabled_best_s"],
                row["baseline_s"],
            )
            assert row["enabled_spans"] > 0

    def test_overhead_budget(self, obs_baseline, bench_tolerance):
        budget = obs_baseline["meta"]["budget"]
        for row in obs_baseline["workloads"]:
            assert row["disabled_overhead_vs_baseline"] <= budget + bench_tolerance


class TestStreamingBaseline:
    def test_structure(self, streaming_baseline):
        meta = streaming_baseline["meta"]
        assert not meta["smoke"]
        assert meta["gate"] == STREAMING_GATE
        assert streaming_baseline["ingestion"]["appends"] == meta["n_appends"]
        assert streaming_baseline["ingestion"]["appends_per_s"] > 0
        workloads = {
            row["workload"] for row in streaming_baseline["speedups"]
        }
        assert workloads == {"totals", "evolution", "exploration"}
        for row in streaming_baseline["speedups"]:
            assert _recomputes(
                row["speedup"], row["scratch_best_s"], row["delta_best_s"]
            )

    def test_delta_beats_recompute_gate(
        self, streaming_baseline, bench_tolerance
    ):
        gate = streaming_baseline["meta"]["gate"]
        for row in streaming_baseline["speedups"]:
            assert row["speedup"] >= gate * (1 - bench_tolerance), (
                f"{row['workload']} delta path regressed below the gate"
            )

    def test_carried_state_no_slower_than_fresh_rebuild(self, streaming_baseline):
        assert streaming_baseline["meta"]["cpu_count"] >= 1
        row = streaming_baseline["carried_state"]
        assert row["n_points"] >= 100
        assert row["n_appends"] == row["n_points"] - CARRIED_PREFIX
        assert _recomputes(row["speedup"], row["fresh_best_s"], row["carried_best_s"])
        assert row["carried_best_s"] <= row["fresh_best_s"], (
            "appends carrying derived state fell behind a fresh rebuild per version"
        )


class TestServingBaseline:
    def test_structure(self, serving_baseline):
        meta = serving_baseline["meta"]
        assert not meta["smoke"]
        assert meta["gate"] == SERVING_GATE
        assert meta["n_queries"] > 0
        modes = {row["mode"] for row in serving_baseline["arms"]}
        assert modes == {"cached", "uncached"}
        for row in serving_baseline["arms"]:
            assert row["requests"] == meta["requests"]
            assert row["qps"] > 0
            assert row["p50_ms"] <= row["p99_ms"]
        by_mode = {row["mode"]: row for row in serving_baseline["arms"]}
        assert _recomputes(
            serving_baseline["speedup"],
            by_mode["cached"]["qps"],
            by_mode["uncached"]["qps"],
        )

    def test_cached_arm_clears_qps_gate(
        self, serving_baseline, bench_tolerance
    ):
        gate = serving_baseline["meta"]["gate"]
        assert serving_baseline["speedup"] >= gate * (1 - bench_tolerance), (
            "cached serving regressed below the QPS gate"
        )


class TestStorageBaseline:
    def test_structure(self, storage_baseline):
        meta = storage_baseline["meta"]
        assert not meta["smoke"]
        assert meta["gate_footprint"] == STORAGE_GATE_FOOTPRINT
        assert meta["gate_latency"] == STORAGE_GATE_LATENCY
        datasets = {row["dataset"] for row in storage_baseline["datasets"]}
        assert datasets == {"dblp", "movielens"}
        for row in storage_baseline["datasets"]:
            footprint = row["footprint"]
            assert set(footprint) == {"dense", "columnar"}
            assert _recomputes(
                row["footprint_reduction"],
                footprint["dense"]["nbytes"],
                footprint["columnar"]["nbytes"],
            )
            workloads = {r["workload"] for r in row["latency"]}
            assert workloads == {"masks", "slice", "aggregate"}
            for r in row["latency"]:
                assert _recomputes(
                    r["ratio"], r["columnar_best_s"], r["dense_best_s"]
                )

    def test_footprint_and_latency_gates(
        self, storage_baseline, bench_tolerance
    ):
        meta = storage_baseline["meta"]
        gated = set(meta["gated_datasets"])
        assert gated, "the report must gate at least one dataset"
        for row in storage_baseline["datasets"]:
            if row["dataset"] not in gated:
                continue
            assert row["footprint_reduction"] >= meta["gate_footprint"] * (
                1 - bench_tolerance
            ), f"{row['dataset']}: columnar footprint win regressed"
            masks = next(
                r for r in row["latency"] if r["workload"] == "masks"
            )
            assert masks["ratio"] <= meta["gate_latency"] * (
                1 + bench_tolerance
            ), f"{row['dataset']}: columnar mask hot path regressed"


class TestBaselineCatalogue:
    """Every committed ``BENCH_*.json`` must be parsable and covered.

    A baseline that is never loaded by any fixture — or that fails to
    parse — used to pass this suite silently; the catalogue check makes
    a stray, broken or orphaned report a loud failure naming the file.
    """

    #: Every committed baseline and the fixture that gates it.
    COVERED = {
        "BENCH_explore.json": "explore_baseline",
        "BENCH_obs.json": "obs_baseline",
        "BENCH_streaming.json": "streaming_baseline",
        "BENCH_serving.json": "serving_baseline",
        "BENCH_storage.json": "storage_baseline",
    }

    def test_every_committed_report_is_covered_and_parsable(self):
        from conftest import REPO_ROOT, load_baseline

        committed = sorted(
            path.name for path in Path(REPO_ROOT).glob("BENCH_*.json")
        )
        uncovered = [name for name in committed if name not in self.COVERED]
        assert not uncovered, (
            f"committed baselines with no regression coverage: {uncovered}; "
            f"add a fixture + gate class for each"
        )
        for name in committed:
            report = load_baseline(name)  # fails loudly, naming the file
            assert report["meta"], name

    def test_every_expected_report_is_committed(self):
        from conftest import REPO_ROOT

        missing = [
            name
            for name in self.COVERED
            if not (Path(REPO_ROOT) / name).exists()
        ]
        assert not missing, f"expected committed baselines missing: {missing}"


class TestLiveSmoke:
    def test_streaming_bench_smoke_run(self, tmp_path):
        """End-to-end smoke run: the delta-vs-recompute parity asserts
        fire on *this* machine before anything is timed."""
        output = tmp_path / "BENCH_streaming.json"
        exit_code = streaming_bench_main(["--smoke", "--output", str(output)])
        assert exit_code == 0
        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["meta"]["smoke"] is True
        assert {row["workload"] for row in report["speedups"]} == {
            "totals",
            "evolution",
            "exploration",
        }
        carried = report["carried_state"]
        assert carried["carried_best_s"] <= carried["fresh_best_s"]

    def test_storage_bench_smoke_run(self, tmp_path):
        """End-to-end smoke run: the backend-parity asserts fire on
        *this* machine before either layout is measured."""
        output = tmp_path / "BENCH_storage.json"
        exit_code = storage_bench_main(["--smoke", "--output", str(output)])
        assert exit_code == 0
        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["meta"]["smoke"] is True
        assert {row["dataset"] for row in report["datasets"]} == {
            "dblp",
            "movielens",
        }

    def test_serving_bench_smoke_run(self, tmp_path):
        """End-to-end smoke run: the served-vs-naive parity asserts fire
        on *this* machine before either arm is timed."""
        output = tmp_path / "BENCH_serving.json"
        exit_code = serving_bench_main(["--smoke", "--output", str(output)])
        assert exit_code == 0
        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["meta"]["smoke"] is True
        assert {row["mode"] for row in report["arms"]} == {
            "cached",
            "uncached",
        }
        assert report["speedup"] > 0
