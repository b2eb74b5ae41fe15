"""Perf harness for the end-to-end estimator (``repro.e2e``).

A standalone CLI (like ``bench_serving_throughput.py``) that measures the
whole-model estimator over all five paper workloads and emits a
machine-readable ``BENCH_e2e.json``:

* **plan reuse benefit**: the same estimate with the shared plan store vs
  with reuse disabled (every operator occurrence re-tunes); reports
  wall-clock speedup and tuner invocations per overlap-target lookup, and
  asserts the reported latencies are bit-identical (reuse is a pure
  optimisation);
* **end-to-end speedups**: the simulated Table 4 numbers -- FlashOverlap
  over the non-overlap execution and the perfect-overlap bound per workload
  -- deterministic ratios, portable across machines;
* **reuse structure**: plan-store hit rate and tuner invocations per lookup
  (repeated layers and shared shapes must produce hits).

``--check`` gates the speedup ratios against the committed
``benchmarks/BENCH_e2e_baseline.json`` (command line, report and gate rule:
``benchmarks/harness.py``).

Usage::

    python benchmarks/bench_e2e_speedup.py            # full run (paper layer counts)
    python benchmarks/bench_e2e_speedup.py --smoke    # CI-sized run (2 layers)
    python benchmarks/bench_e2e_speedup.py --smoke --check
"""

from __future__ import annotations

import json
import time

import harness
from repro import obs
from repro.core.config import OverlapSettings
from repro.e2e import estimate_models


def _run(smoke: bool, reuse: bool):
    """One estimate of all five workloads; returns (report, wall seconds)."""
    settings = OverlapSettings()
    layers = 2 if smoke else None
    start = time.perf_counter()
    report = estimate_models(layers=layers, settings=settings, reuse=reuse)
    return report, time.perf_counter() - start


def _totals(report) -> dict:
    """The latencies the reuse arms must agree on, bit for bit."""
    return {
        estimate.name: [
            estimate.overlap_total,
            estimate.non_overlap_total,
            estimate.theoretical_total,
        ]
        for estimate in report.estimates
    }


def bench_plan_reuse(smoke: bool) -> tuple[dict, bool, bool]:
    """Shared-store vs no-reuse wall time (identical reported latencies)."""
    reused, reused_s = _run(smoke, reuse=True)
    unreused, unreused_s = _run(smoke, reuse=False)
    stats = reused.plan_stats
    transparent = json.dumps(_totals(reused), sort_keys=True) == json.dumps(
        _totals(unreused), sort_keys=True
    )
    hits_seen = stats["hit_rate"] > 0
    return {
        "lookups": stats["lookups"],
        "distinct_plans": stats["size"],
        "hit_rate": stats["hit_rate"],
        "tuner_invocations_reused": stats["tuner_invocations"],
        "tuner_invocations_unreused": unreused.plan_stats["tuner_invocations"],
        "tuner_invocations_per_lookup": stats["tuner_invocations"] / stats["lookups"],
        "reused_s": reused_s,
        "unreused_s": unreused_s,
        # Wall-clock ratio: informational only.  Deliberately NOT named
        # "speedup" so the --check gate (which compares every speedup ratio)
        # never fails on machine-load jitter; the gated ratios are the
        # deterministic simulated speedups below.
        "wall_ratio": unreused_s / reused_s,
    }, transparent, hits_seen


def bench_e2e_speedups(smoke: bool) -> tuple[dict, bool, bool]:
    """Simulated whole-model speedups per workload plus determinism check."""
    report, _ = _run(smoke, reuse=True)
    repeat, _ = _run(smoke, reuse=True)
    deterministic = json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
        repeat.to_dict(), sort_keys=True
    )
    per_workload = {}
    for estimate in report.estimates:
        per_workload[estimate.name] = {
            "layers": estimate.layers,
            "non_overlap_ms": estimate.non_overlap_total * 1e3,
            "overlap_ms": estimate.overlap_total * 1e3,
            "bound_ms": estimate.theoretical_total * 1e3,
            "speedup": estimate.speedup,
            "bound_speedup": estimate.bound_speedup,
            "plan_hit_rate": estimate.plan_stats["hit_rate"],
        }
    all_speed_up = all(e.speedup > 1.0 for e in report.estimates)
    return per_workload, deterministic, all_speed_up


def collect(smoke: bool) -> dict:
    """The e2e report's meta, metrics and checks."""
    with obs.span("plan_reuse"):
        reuse, reuse_transparent, hits_seen = bench_plan_reuse(smoke)
    with obs.span("workloads"):
        workloads, deterministic, all_speed_up = bench_e2e_speedups(smoke)
    return {
        "meta": {"workloads": sorted(workloads)},
        "metrics": {
            "plan_reuse": reuse,
            "workloads": workloads,
        },
        "checks": {
            "deterministic": deterministic,
            "reuse_bit_identical": reuse_transparent,
            "repeated_layers_hit_store": hits_seen,
            "fewer_tunes_than_lookups": reuse["tuner_invocations_reused"] < reuse["lookups"],
            "every_workload_speeds_up": all_speed_up,
        },
    }


def summary(report: dict) -> list[str]:
    reuse = report["metrics"]["plan_reuse"]
    return [
        f"plan_reuse.wall_ratio (not gated): {reuse['wall_ratio']:.2f}x",
        f"tuner invocations / lookup: {reuse['tuner_invocations_per_lookup']:.4f}",
    ]


if __name__ == "__main__":
    raise SystemExit(harness.main("e2e", collect, summary))
