"""Unit tests for the bench-regression gate comparator."""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.check_regression import TOLERANCE, compare_file, run


def write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload))


def make_dirs(tmp_path: Path) -> tuple[Path, Path]:
    baseline_dir = tmp_path / "baselines"
    current_dir = tmp_path / "current"
    baseline_dir.mkdir()
    current_dir.mkdir()
    return baseline_dir, current_dir


TREE_BASE = {
    "speedup": 10.0,
    "bitwise_identical": True,
    "delta_speedup": 2.0,
    "delta_bitwise_identical": True,
}


class TestCompareFile:
    def test_equal_results_pass(self):
        assert compare_file("BENCH_tree_kernels.json", TREE_BASE, dict(TREE_BASE)) == []

    def test_slowdown_within_tolerance_passes(self):
        current = {**TREE_BASE, "speedup": 10.0 * (1.0 - TOLERANCE) + 0.01}
        assert compare_file("BENCH_tree_kernels.json", TREE_BASE, current) == []

    def test_slowdown_beyond_tolerance_fails(self):
        current = {**TREE_BASE, "speedup": 10.0 * (1.0 - TOLERANCE) - 0.1}
        failures = compare_file("BENCH_tree_kernels.json", TREE_BASE, current)
        assert len(failures) == 1
        assert "below the baseline" in failures[0]

    def test_speedup_improvement_passes(self):
        current = {**TREE_BASE, "speedup": 99.0}
        assert compare_file("BENCH_tree_kernels.json", TREE_BASE, current) == []

    def test_equality_flip_fails_regardless_of_speed(self):
        current = {**TREE_BASE, "speedup": 99.0, "bitwise_identical": False}
        failures = compare_file("BENCH_tree_kernels.json", TREE_BASE, current)
        assert len(failures) == 1
        assert "equality check changed" in failures[0]

    def test_missing_metric_fails(self):
        failures = compare_file("BENCH_tree_kernels.json", TREE_BASE, {})
        assert len(failures) == 4  # one per configured metric

    def test_nested_paths(self):
        baseline = {
            "groupby_agg": {"speedup": 8.0},
            "inner_join": {"speedup": 16.0},
        }
        current = {
            "groupby_agg": {"speedup": 7.9},
            "inner_join": {"speedup": 4.0},
        }
        failures = compare_file("BENCH_frame_ops.json", baseline, current)
        assert len(failures) == 1
        assert "inner_join.speedup" in failures[0]


ENGINE_BASE = {
    "executor": "thread",
    "workers": 4,
    "cpu_count": 4,
    "speedup": 4.0,
    "worker_speedup": 2.0,
    "bitwise_equal": True,
    "coalescing": {"distinct_jobs": 1, "result_matches_sync": True},
}


class TestContextSkip:
    """Baseline/fresh runs captured under different configs compare sanely."""

    def test_matching_context_still_gates_ratios(self):
        current = dict(ENGINE_BASE, speedup=1.0)
        failures = compare_file("BENCH_engine.json", ENGINE_BASE, current)
        assert len(failures) == 1
        assert "speedup" in failures[0]

    def test_different_cpu_count_skips_ratios(self):
        # a 4-core baseline vs a 1-core fresh run: ratios are incomparable,
        # so a collapsed speedup must not fail the gate
        current = dict(ENGINE_BASE, cpu_count=1, speedup=1.0, worker_speedup=0.9)
        assert compare_file("BENCH_engine.json", ENGINE_BASE, current) == []

    def test_different_executor_skips_ratios(self):
        current = dict(ENGINE_BASE, executor="process", speedup=1.0)
        assert compare_file("BENCH_engine.json", ENGINE_BASE, current) == []

    def test_different_workers_skips_ratios(self):
        current = dict(ENGINE_BASE, workers=1, speedup=1.0)
        assert compare_file("BENCH_engine.json", ENGINE_BASE, current) == []

    def test_context_key_on_one_side_only_skips_ratios(self):
        baseline = {k: v for k, v in ENGINE_BASE.items() if k != "cpu_count"}
        current = dict(ENGINE_BASE, speedup=1.0)
        assert compare_file("BENCH_engine.json", baseline, current) == []

    def test_context_keys_missing_on_both_sides_still_compare(self):
        # pre-context snapshots (no executor/workers/cpu_count keys) keep
        # gating exactly as before
        strip = lambda payload: {  # noqa: E731
            k: v for k, v in payload.items() if k not in ("executor", "workers", "cpu_count")
        }
        current = strip(dict(ENGINE_BASE, speedup=1.0))
        failures = compare_file("BENCH_engine.json", strip(ENGINE_BASE), current)
        assert len(failures) == 1

    def test_equality_metrics_never_skipped(self):
        current = dict(ENGINE_BASE, cpu_count=1, bitwise_equal=False)
        failures = compare_file("BENCH_engine.json", ENGINE_BASE, current)
        assert len(failures) == 1
        assert "equality check changed" in failures[0]

    def test_process_file_gated_like_engine_file(self):
        base = dict(ENGINE_BASE, executor="process")
        current = dict(base, worker_speedup=0.5)
        failures = compare_file("BENCH_engine_process.json", base, current)
        assert len(failures) == 1
        assert "worker_speedup" in failures[0]


class TestRun:
    def test_all_pass(self, tmp_path):
        baseline_dir, current_dir = make_dirs(tmp_path)
        write(baseline_dir / "BENCH_tree_kernels.json", TREE_BASE)
        write(current_dir / "BENCH_tree_kernels.json", dict(TREE_BASE))
        assert run(baseline_dir, current_dir) == 0

    def test_missing_fresh_result_fails(self, tmp_path):
        baseline_dir, current_dir = make_dirs(tmp_path)
        write(baseline_dir / "BENCH_tree_kernels.json", TREE_BASE)
        assert run(baseline_dir, current_dir) == 1

    def test_fresh_file_without_baseline_fails(self, tmp_path, capsys):
        # a benchmark landed without a committed baseline is silently
        # unguarded — the gate fails and tells you how to fix it
        baseline_dir, current_dir = make_dirs(tmp_path)
        write(baseline_dir / "BENCH_tree_kernels.json", TREE_BASE)
        write(current_dir / "BENCH_tree_kernels.json", dict(TREE_BASE))
        write(current_dir / "BENCH_brand_new.json", {"speedup": 1.0})
        assert run(baseline_dir, current_dir) == 1
        out = capsys.readouterr().out
        assert "BENCH_brand_new.json" in out
        assert "no committed baseline" in out
        assert "RATIO_METRICS" in out  # the message names the manifest to edit

    def test_no_baselines_at_all_fails(self, tmp_path):
        baseline_dir, current_dir = make_dirs(tmp_path)
        assert run(baseline_dir, current_dir) == 1

    def test_regression_fails(self, tmp_path):
        baseline_dir, current_dir = make_dirs(tmp_path)
        write(baseline_dir / "BENCH_tree_kernels.json", TREE_BASE)
        write(
            current_dir / "BENCH_tree_kernels.json",
            {**TREE_BASE, "speedup": 1.0},
        )
        assert run(baseline_dir, current_dir) == 1

    def test_committed_baselines_cover_every_gated_metric(self):
        # the real baselines must stay in sync with the comparator's manifest
        from benchmarks.check_regression import EQUALITY_METRICS, RATIO_METRICS, lookup

        baseline_dir = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
        manifest = set(RATIO_METRICS) | set(EQUALITY_METRICS)
        for name in manifest:
            payload = json.loads((baseline_dir / name).read_text())
            for path in RATIO_METRICS.get(name, []) + EQUALITY_METRICS.get(name, []):
                lookup(payload, path)  # KeyError = manifest/baseline drift
        committed = {path.name for path in baseline_dir.glob("BENCH_*.json")}
        orphans = committed - manifest
        assert not orphans, (
            f"baselines with no gated metrics (register them in RATIO_METRICS/"
            f"EQUALITY_METRICS): {sorted(orphans)}"
        )
