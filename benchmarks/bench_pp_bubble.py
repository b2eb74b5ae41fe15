"""Perf harness for the pipeline scheduling layer (``repro.pp``).

A standalone CLI (like ``bench_e2e_speedup.py``) that scans llama3-training
over stage count x microbatch count x schedule through one shared plan store
and emits a machine-readable ``BENCH_pp.json``:

* **bubble grid**: bubble ratio and step latency per (stages, microbatches,
  schedule) -- at every grid point the ratio must fall strictly from GPipe
  to 1F1B to zero-bubble;
* **schedule gains**: the step-time ratios GPipe/1F1B and 1F1B/zero-bubble
  (the pipeline-scheduling analogue of the overlap speedups), plus the
  FlashOverlap-over-non-overlap speedup per schedule -- deterministic
  ratios, portable across machines;
* **degeneracy and reuse checks**: a 1-stage/1-microbatch run embeds e2e
  totals bit-identical to ``repro e2e``, plan reuse is bit-identical to
  re-tuning, and repeated runs are deterministic;
* **replay fast path**: wall-clock speedup of the Kahn-sweep
  ``replay_tasks`` over the event-by-event oracle in
  ``tests/reference/replay.py`` on large pipeline schedules and wide
  synthetic DAGs, asserting the two are bit-identical.

``--check`` gates every ``*speedup*`` ratio against the committed
``benchmarks/BENCH_pp_baseline.json`` (command line, report and gate rule:
``benchmarks/harness.py``).

Usage::

    python benchmarks/bench_pp_bubble.py            # full grid (8 paper layers)
    python benchmarks/bench_pp_bubble.py --smoke    # CI-sized grid (4 layers)
    python benchmarks/bench_pp_bubble.py --smoke --check
"""

from __future__ import annotations

import json
import time

import harness
from reference.replay import replay_reference
from repro import obs
from repro.core.config import OverlapSettings
from repro.e2e import EndToEndEstimator
from repro.pp import PipelineEstimator
from repro.pp.schedule import KNOWN_SCHEDULES, StageCostVector, generate_schedule
from repro.sim.replay import ReplayTask, replay_tasks
from repro.workloads.e2e import build_workload
from repro.workloads.pipeline import build_pipeline_workload

WORKLOAD = "llama3-training"


def _grid(smoke: bool) -> tuple[int, list[int], list[int]]:
    """(layers, stage counts, microbatch counts) of the scan."""
    if smoke:
        return 4, [2, 4], [4, 8]
    return 8, [2, 4, 8], [4, 8, 16]


def bench_bubble_grid(smoke: bool) -> tuple[dict, bool, bool]:
    """Scan stages x microbatches x schedule through one shared plan store."""
    layers, stage_counts, microbatch_counts = _grid(smoke)
    settings = OverlapSettings()
    estimator = PipelineEstimator(settings)
    grid: dict[str, dict] = {}
    monotonic = True
    for stages in stage_counts:
        for microbatches in microbatch_counts:
            workload = build_pipeline_workload(
                WORKLOAD, stages=stages, microbatches=microbatches,
                layers=layers, settings=settings,
            )
            estimate = estimator.estimate(workload)
            bubbles = estimate.bubble_ratios()
            monotonic = monotonic and (
                bubbles["gpipe"] > bubbles["1f1b"] > bubbles["zero-bubble"]
            )
            steps = {name: s.step_latency for name, s in estimate.schedules.items()}
            grid[f"stages{stages}-mb{microbatches}"] = {
                "stage_layers": list(estimate.stage_layers),
                "bubble_ratio": bubbles,
                "step_ms": {name: step * 1e3 for name, step in steps.items()},
                "overlap_speedup": {
                    name: s.speedup for name, s in estimate.schedules.items()
                },
                "gpipe_over_1f1b_speedup": steps["gpipe"] / steps["1f1b"],
                "1f1b_over_zero_bubble_speedup": steps["1f1b"] / steps["zero-bubble"],
            }
    stats = estimator.plan_store.stats()
    hits_seen = stats["hit_rate"] > 0
    grid["plan_store"] = {
        "lookups": stats["lookups"],
        "hit_rate": stats["hit_rate"],
        "tuner_invocations": stats["tuner_invocations"],
    }
    return grid, monotonic, hits_seen


def _pipeline_tasks(stages: int, microbatches: int) -> list[ReplayTask]:
    """A zero-bubble schedule over slightly imbalanced synthetic stage costs."""
    costs = tuple(
        StageCostVector(
            forward=1e-3 * (1.0 + 0.05 * (s % 3)),
            dgrad=1.1e-3,
            wgrad=0.9e-3,
        )
        for s in range(stages)
    )
    schedule = generate_schedule(
        "zero-bubble", costs, microbatches, fwd_delay=5e-5, bwd_delay=5e-5
    )
    return schedule.tasks()


def _wide_dag_tasks(resources: int, layers: int) -> list[ReplayTask]:
    """A layered DAG over many serial resources (wide topological frontiers)."""
    tasks = []
    for layer in range(layers):
        for r in range(resources):
            deps = ()
            if layer:
                deps = (
                    (f"t{layer - 1}-{r}", 0.0),
                    (f"t{layer - 1}-{(r + 1) % resources}", 1e-5),
                )
            tasks.append(
                ReplayTask(
                    name=f"t{layer}-{r}",
                    resource=f"r{r}",
                    duration=1e-4 * ((layer + r) % 7 + 1),
                    deps=deps,
                )
            )
    return tasks


def bench_replay_fast_path(smoke: bool) -> tuple[dict, bool]:
    """Kahn-sweep replay vs the event-by-event oracle (bit-identical)."""
    if smoke:
        cases = {
            "pipeline-s8-mb64": _pipeline_tasks(8, 64),
            "wide-dag-r96-l24": _wide_dag_tasks(96, 24),
        }
        repeats = 3
    else:
        cases = {
            "pipeline-s8-mb128": _pipeline_tasks(8, 128),
            "pipeline-s16-mb128": _pipeline_tasks(16, 128),
            "wide-dag-r128-l48": _wide_dag_tasks(128, 48),
            "wide-dag-r256-l64": _wide_dag_tasks(256, 64),
        }
        repeats = 5

    def best_of(tasks: list[ReplayTask], replay):
        result, best = None, float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            result = replay(tasks)
            best = min(best, time.perf_counter() - start)
        return result, best

    metrics: dict[str, dict] = {}
    identical = True
    total_ref = total_fast = 0.0
    for name, tasks in cases.items():
        reference, ref_s = best_of(tasks, replay_reference)
        fast, fast_s = best_of(tasks, replay_tasks)
        identical = identical and (
            fast.spans == reference.spans
            and fast.makespan == reference.makespan
            and fast.busy == reference.busy
            and fast.work == reference.work
        )
        total_ref += ref_s
        total_fast += fast_s
        metrics[name] = {
            "tasks": len(tasks),
            "reference_s": ref_s,
            "fast_s": fast_s,
            "speedup": ref_s / fast_s,
        }
    metrics["total"] = {
        "reference_s": total_ref,
        "fast_s": total_fast,
        "speedup": total_ref / total_fast,
    }
    return metrics, identical


def _schedule_steps(estimate) -> dict:
    return {
        name: [result.step_latency for result in schedule.methods.values()]
        for name, schedule in estimate.schedules.items()
    }


def bench_checks(smoke: bool) -> dict:
    """Degeneracy / reuse / determinism checks of the pipeline estimator."""
    layers, stage_counts, microbatch_counts = _grid(smoke)
    settings = OverlapSettings()

    def run(reuse: bool):
        workload = build_pipeline_workload(
            WORKLOAD, stages=stage_counts[0], microbatches=microbatch_counts[0],
            layers=layers, settings=settings,
        )
        return PipelineEstimator(settings, reuse=reuse).estimate(workload)

    first, second, unreused = run(True), run(True), run(False)
    deterministic = json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )
    reuse_identical = json.dumps(_schedule_steps(first), sort_keys=True) == json.dumps(
        _schedule_steps(unreused), sort_keys=True
    )

    degenerate = PipelineEstimator(settings).estimate(
        build_pipeline_workload(WORKLOAD, stages=1, microbatches=1,
                                layers=layers, settings=settings)
    )
    reference = EndToEndEstimator(settings).estimate(
        build_workload(WORKLOAD, layers=layers, settings=settings)
    )
    s1m1_matches = degenerate.microbatch_estimate.to_dict() == reference.to_dict()
    return {
        "deterministic": deterministic,
        "reuse_bit_identical": reuse_identical,
        "s1m1_matches_e2e": s1m1_matches,
    }


def collect(smoke: bool) -> dict:
    """The pp report's meta, metrics and checks."""
    with obs.span("grid"):
        grid, monotonic, hits_seen = bench_bubble_grid(smoke)
    with obs.span("checks"):
        checks = bench_checks(smoke)
    with obs.span("replay"):
        replay, replay_identical = bench_replay_fast_path(smoke)
    return {
        "meta": {"workload": WORKLOAD, "schedules": list(KNOWN_SCHEDULES)},
        "metrics": {"grid": grid, "replay": replay},
        "checks": {
            "bubble_strictly_decreasing_everywhere": monotonic,
            "plan_store_reused_across_grid": hits_seen,
            "replay_fast_bit_identical": replay_identical,
            **checks,
        },
    }


def summary(report: dict) -> list[str]:
    """One bubble-ratio line per grid point."""
    lines = []
    for point, payload in report["metrics"]["grid"].items():
        if "bubble_ratio" not in payload:
            continue
        bubbles = payload["bubble_ratio"]
        lines.append(f"{point:18s} bubble: " + "  ".join(
            f"{name} {bubbles[name] * 100:5.1f}%" for name in KNOWN_SCHEDULES
        ))
    return lines


if __name__ == "__main__":
    raise SystemExit(harness.main("pp", collect, summary))
