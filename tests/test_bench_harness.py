"""The shared perf-bench harness: which keys it gates and how it exits.

``benchmarks/harness.py`` gates a numeric leaf of a report's ``metrics`` when
its key contains ``speedup`` or when it sits in a dict stored under such a
key.  The frozen key lists below are what each committed baseline gates; a
change to the rule or to a baseline's layout that silently widens or
narrows a CI gate shows up here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402

GATED_KEYS = {
    "tuning": [
        "exhaustive_tuner.speedup",
        "pipeline_reorder.allreduce.speedup",
        "pipeline_reorder.alltoall.speedup",
        "pipeline_reorder.reducescatter.speedup",
        "pipeline_reorder.speedup_geomean",
        "predictive_tuning.speedup",
        "profile_memoization.speedup",
        "sweep_tuning.speedup",
    ],
    "serving": [
        "fast_path.non_overlap.speedup",
        "fast_path.overlap_warm_cache.speedup",
        "plan_cache.speedup",
        "serving.e2e_mean.speedup",
        "serving.makespan.speedup",
        "serving.ttft_p99.speedup",
    ],
    "e2e": [
        "workloads.Llama2-7B training (TP=4, PP=2).bound_speedup",
        "workloads.Llama2-7B training (TP=4, PP=2).speedup",
        "workloads.Llama3-70B inference (TP=8).bound_speedup",
        "workloads.Llama3-70B inference (TP=8).speedup",
        "workloads.Llama3-70B training (TP=8).bound_speedup",
        "workloads.Llama3-70B training (TP=8).speedup",
        "workloads.Mixtral-8x7B training (EP=4, TP=2).bound_speedup",
        "workloads.Mixtral-8x7B training (EP=4, TP=2).speedup",
        "workloads.Step-Video-T2V (TP=4).bound_speedup",
        "workloads.Step-Video-T2V (TP=4).speedup",
    ],
    "pp": [
        "grid.stages2-mb4.1f1b_over_zero_bubble_speedup",
        "grid.stages2-mb4.gpipe_over_1f1b_speedup",
        "grid.stages2-mb4.overlap_speedup.1f1b",
        "grid.stages2-mb4.overlap_speedup.gpipe",
        "grid.stages2-mb4.overlap_speedup.zero-bubble",
        "grid.stages2-mb8.1f1b_over_zero_bubble_speedup",
        "grid.stages2-mb8.gpipe_over_1f1b_speedup",
        "grid.stages2-mb8.overlap_speedup.1f1b",
        "grid.stages2-mb8.overlap_speedup.gpipe",
        "grid.stages2-mb8.overlap_speedup.zero-bubble",
        "grid.stages4-mb4.1f1b_over_zero_bubble_speedup",
        "grid.stages4-mb4.gpipe_over_1f1b_speedup",
        "grid.stages4-mb4.overlap_speedup.1f1b",
        "grid.stages4-mb4.overlap_speedup.gpipe",
        "grid.stages4-mb4.overlap_speedup.zero-bubble",
        "grid.stages4-mb8.1f1b_over_zero_bubble_speedup",
        "grid.stages4-mb8.gpipe_over_1f1b_speedup",
        "grid.stages4-mb8.overlap_speedup.1f1b",
        "grid.stages4-mb8.overlap_speedup.gpipe",
        "grid.stages4-mb8.overlap_speedup.zero-bubble",
        "replay.pipeline-s8-mb64.speedup",
        "replay.total.speedup",
        "replay.wide-dag-r96-l24.speedup",
    ],
    "plan": [
        "winner.over_gpipe_non_overlap_speedup",
        "winner.over_worst_config_speedup",
        "winner.overlap_speedup",
    ],
}
assert sum(map(len, GATED_KEYS.values())) == 50


def run(tmp_path, metrics, checks, baseline_metrics=None, baseline=None):
    """Run ``harness.main`` on a fixed report; returns the exit code."""

    def collect(smoke: bool) -> dict:
        return {"meta": {"size": "tiny"}, "metrics": metrics, "checks": checks}

    if baseline is None:
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"metrics": baseline_metrics}), encoding="utf-8")
    argv = ["--smoke", "--out", str(tmp_path / "BENCH_t.json"), "--check", "--baseline", str(baseline)]
    return harness.main("t", collect, argv=argv)


class TestGatedRatios:
    def test_speedup_keys_and_leaves_under_speedup_dicts(self):
        metrics = {
            "a": {"speedup": 2.0, "fast_s": 1.0, "speedup_geomean": 3.0},
            "grid": {"overlap_speedup": {"gpipe": 1.5, "1f1b": 1.25}, "bubble": 0.1},
            "bound_speedup": 4,
        }
        assert harness.gated_ratios(metrics) == {
            "a.speedup": 2.0,
            "a.speedup_geomean": 3.0,
            "grid.overlap_speedup.gpipe": 1.5,
            "grid.overlap_speedup.1f1b": 1.25,
            "bound_speedup": 4.0,
        }

    def test_non_numeric_leaves_are_not_gated(self):
        metrics = {"speedup": True, "winner": {"speedup_config": "tp4"}, "points": [1.0]}
        assert harness.gated_ratios(metrics) == {}

    def test_wall_ratio_is_not_gated(self):
        metrics = {"plan_reuse": {"wall_ratio": 1.9, "reused_s": 0.2}}
        assert harness.gated_ratios(metrics) == {}
        baseline = json.loads((BENCH_DIR / "BENCH_e2e_baseline.json").read_text())
        assert "wall_ratio" in baseline["metrics"]["plan_reuse"]
        assert not any(
            key.startswith("plan_reuse.") for key in harness.gated_ratios(baseline["metrics"])
        )

    @pytest.mark.parametrize("name", sorted(GATED_KEYS))
    def test_committed_baselines_gate_the_frozen_keys(self, name):
        baseline = json.loads((BENCH_DIR / f"BENCH_{name}_baseline.json").read_text())
        assert sorted(harness.gated_ratios(baseline["metrics"])) == GATED_KEYS[name]


class TestRegressions:
    def test_key_missing_from_current_report_fails(self):
        failures = harness.regressions({"a": {"speedup": 2.0}},
                                       {"a": {"speedup": 2.0}, "b": {"speedup": 3.0}})
        assert failures == ["b.speedup: missing from current report (baseline 3.00x)"]

    def test_drop_below_half_fails(self):
        failures = harness.regressions({"speedup": 1.999}, {"speedup": 4.0})
        assert failures == ["speedup: 2.00x is a >2x regression vs baseline 4.00x"]

    def test_drop_to_exactly_half_passes(self):
        assert harness.regressions({"speedup": 2.0}, {"speedup": 4.0}) == []

    def test_new_keys_absent_from_the_baseline_are_not_gated(self):
        assert harness.regressions({"speedup": 2.0, "x_speedup": 0.1}, {"speedup": 2.0}) == []


class TestMain:
    def test_passing_run_writes_the_report(self, tmp_path, capsys):
        metrics = {"a": {"speedup": 2.0, "fast_s": 0.5}}
        code = run(tmp_path, metrics, {"same": True}, baseline_metrics=metrics)
        assert code == 0
        report = json.loads((tmp_path / "BENCH_t.json").read_text())
        assert list(report) == ["meta", "metrics", "checks", "observability"]
        assert list(report["meta"]) == ["smoke", "size", "python", "numpy"]
        assert report["meta"]["smoke"] is True
        assert report["metrics"] == metrics
        assert report["observability"]["command"] == "test_bench_harness"
        assert "no >2x regressions" in capsys.readouterr().out

    def test_regression_exits_1(self, tmp_path, capsys):
        code = run(tmp_path, {"speedup": 1.0}, {"same": True},
                   baseline_metrics={"speedup": 2.5})
        assert code == 1
        assert "PERF REGRESSION speedup: 1.00x is a >2x regression" in capsys.readouterr().err

    def test_failed_check_exits_1_before_gating(self, tmp_path, capsys):
        code = run(tmp_path, {"speedup": 1.0}, {"same": True, "deterministic": False},
                   baseline_metrics={"speedup": 100.0, "gone": {"speedup": 1.0}})
        assert code == 1
        err = capsys.readouterr().err
        assert "t checks failed: deterministic" in err
        assert "PERF REGRESSION" not in err

    def test_missing_baseline_exits_1(self, tmp_path, capsys):
        code = run(tmp_path, {"speedup": 1.0}, {"same": True},
                   baseline=tmp_path / "absent.json")
        assert code == 1
        assert "missing; cannot --check" in capsys.readouterr().err
