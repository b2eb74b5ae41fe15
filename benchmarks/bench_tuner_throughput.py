"""Perf harness for the vectorized tuning & reordering fast path.

Unlike the ``bench_fig*`` scripts (which regenerate paper figures through
pytest-benchmark), this is a standalone CLI that measures the *throughput* of
the tuning/reordering subsystem old-vs-new and emits a machine-readable
``BENCH_tuning.json`` so subsequent PRs can track the perf trajectory.  The
"old" arms are the oracles in ``tests/reference/`` (``tuner.py`` and
``reordering.py``):

* predictive tuning throughput (candidates/s), scalar reference loop vs the
  vectorized ``predict_batch`` path, with the tuning decisions asserted
  identical,
* functional pipeline reorder throughput (elements/s), per-tile/per-row
  reference loops vs the cached index permutations, with outputs asserted
  ``np.allclose`` (in fact bit-identical),
* offline-profile memoization (cold vs warm tune calls),
* exhaustive tuner, naive per-candidate simulation vs the incremental
  early-abandoning search,
* the tuning portion of a sweep (the smoke preset's scenarios) old vs new.

``--check`` gates the speedup ratios against the committed
``benchmarks/BENCH_tuning_baseline.json`` (command line, report and gate
rule: ``benchmarks/harness.py``).

Usage::

    python benchmarks/bench_tuner_throughput.py            # full run
    python benchmarks/bench_tuner_throughput.py --smoke    # CI-sized run
    python benchmarks/bench_tuner_throughput.py --smoke --check
"""

from __future__ import annotations

import math
import time

import numpy as np

import harness
from reference import reordering as reorder_oracle
from reference.tuner import exhaustive_tune, predictive_tune
from reference.wave_grouping import candidate_partitions
from repro import obs
from repro.comm.primitives import CollectiveKind
from repro.comm.topology import rtx4090_pcie
from repro.core.config import OverlapProblem, OverlapSettings
from repro.core.predictor import LatencyPredictor, OfflineProfile, clear_profile_caches
from repro.core.reordering import (
    build_reorder_plan,
    run_all_to_all_pipeline,
    run_allreduce_pipeline,
    run_reduce_scatter_pipeline,
)
from repro.core.tuner import ExhaustiveTuner, PredictiveTuner
from repro.gpu.device import RTX_4090
from repro.gpu.gemm import GemmShape
from repro.sweep.presets import smoke_matrix

#: Timing repetitions (best-of) for every arm, smoke runs included: the
#: regression gate compares ratios, and a single measurement on a loaded CI
#: runner is too noisy to gate on.
REPEATS = 3


def _time(fn) -> float:
    """Best-of-``REPEATS`` wall time of ``fn()`` (seconds)."""
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_predictive_tuning(smoke: bool) -> tuple[dict, bool]:
    """Candidates/s of the scalar reference loop vs predict_batch."""
    problem = OverlapProblem(
        shape=GemmShape(2048, 8192, 8192),
        device=RTX_4090,
        topology=rtx4090_pcie(4),
        collective=CollectiveKind.ALL_REDUCE,
    )
    settings = OverlapSettings()
    profile = OfflineProfile.build(problem, settings)
    predictor = LatencyPredictor(profile, total_bytes=problem.output_bytes())
    matrix = PredictiveTuner(settings).candidates(profile.num_waves)
    candidates = candidate_partitions(
        profile.num_waves,
        settings.max_first_group,
        settings.max_last_group,
        settings.max_exhaustive_waves,
    )
    inner = 1 if smoke else 5

    def scalar() -> None:
        for _ in range(inner):
            for partition in candidates:
                predictor.predict(partition)

    def batch() -> None:
        for _ in range(inner):
            predictor.predict_batch(matrix)

    scalar_s = _time(scalar)
    batch_s = _time(batch)
    evaluated = len(candidates) * inner
    identical = bool(
        np.array_equal(
            predictor.predict_batch(matrix),
            np.array([predictor.predict(p) for p in candidates]),
        )
        and PredictiveTuner(settings).tune(problem) == predictive_tune(problem, settings)
    )
    return {
        "candidates": len(candidates),
        "scalar_candidates_per_s": evaluated / scalar_s,
        "batch_candidates_per_s": evaluated / batch_s,
        "speedup": scalar_s / batch_s,
    }, identical


def bench_pipeline_reorder(smoke: bool) -> tuple[dict, bool]:
    """Elements/s of the per-tile reference reorders vs the index fast path.

    Sized so the reorder stages dominate (many tiles per matrix, as in the
    paper's operator shapes): what is measured is the pre/post-communication
    reordering, not the functional NumPy collective both paths share.
    """
    rng = np.random.default_rng(0)
    size = 256 if smoke else 512
    tile = 8
    n_gpus = 4
    metrics: dict[str, dict] = {}
    all_equal = True

    def add(name: str, runner, oracle, elements: int) -> None:
        nonlocal all_equal
        fast = runner()
        ref = oracle()
        all_equal = all_equal and all(
            np.array_equal(a, b) for a, b in zip(fast.outputs, ref.outputs)
        )
        all_equal = all_equal and fast.allclose()
        fast_s = _time(runner)
        ref_s = _time(oracle)
        metrics[name] = {
            "reference_elements_per_s": elements / ref_s,
            "fast_elements_per_s": elements / fast_s,
            "speedup": ref_s / fast_s,
        }

    # AllReduce: tile-level reorder over a shuffled multi-group plan.
    from repro.tensor.layout import TileLayout

    layout = TileLayout(m=size, n=size, tile_m=tile, tile_n=tile)
    order = list(rng.permutation(layout.num_tiles))
    step = max(1, layout.num_tiles // 8)
    groups = [order[i : i + step] for i in range(0, len(order), step)]
    ar_plan = build_reorder_plan(CollectiveKind.ALL_REDUCE, layout, groups, n_gpus)
    ar_mats = [rng.normal(size=(size, size)) for _ in range(n_gpus)]
    add(
        "allreduce",
        lambda: run_allreduce_pipeline(ar_mats, ar_plan),
        lambda: reorder_oracle.allreduce_pipeline(ar_mats, ar_plan),
        n_gpus * size * size,
    )

    rs_plan = build_reorder_plan(CollectiveKind.REDUCE_SCATTER, layout, groups, n_gpus)
    add(
        "reducescatter",
        lambda: run_reduce_scatter_pipeline(ar_mats, rs_plan),
        lambda: reorder_oracle.reduce_scatter_pipeline(ar_mats, rs_plan),
        n_gpus * size * size,
    )

    # All-to-All: per-source plans, random token routing.
    a2a_size = 64 if smoke else 192
    a2a_layout = TileLayout(m=a2a_size, n=a2a_size, tile_m=8, tile_n=8)
    a2a_plans, a2a_mats, a2a_dests = [], [], []
    for _ in range(n_gpus):
        order = list(rng.permutation(a2a_layout.num_tiles))
        step = max(1, a2a_layout.num_tiles // 6)
        groups = [order[i : i + step] for i in range(0, len(order), step)]
        a2a_plans.append(
            build_reorder_plan(CollectiveKind.ALL_TO_ALL, a2a_layout, groups, n_gpus)
        )
        a2a_mats.append(rng.normal(size=(a2a_size, a2a_size)))
        a2a_dests.append(rng.integers(0, n_gpus, size=a2a_size))
    add(
        "alltoall",
        lambda: run_all_to_all_pipeline(a2a_mats, a2a_dests, a2a_plans),
        lambda: reorder_oracle.all_to_all_pipeline(a2a_mats, a2a_dests, a2a_plans),
        n_gpus * a2a_size * a2a_size,
    )

    speedups = [metrics[name]["speedup"] for name in metrics]
    metrics["speedup_geomean"] = float(np.exp(np.mean(np.log(speedups))))
    return metrics, all_equal


def bench_profile_memoization(smoke: bool) -> dict:
    """Tune calls with cold caches vs memoized offline profiles.

    Both timed callables run several inner passes so the measured spans stay
    well above the millisecond scale -- the CI regression gate compares these
    ratios on shared runners, where sub-millisecond best-of timings flake.
    """
    problems = [
        OverlapProblem(
            shape=GemmShape(m, 4096, 4096),
            device=RTX_4090,
            topology=rtx4090_pcie(4),
            collective=CollectiveKind.ALL_REDUCE,
        )
        for m in ((1024, 2048) if smoke else (1024, 2048, 4096, 8192))
    ]
    settings = OverlapSettings()
    tuner = PredictiveTuner(settings)
    inner = 5

    def cold() -> None:
        for _ in range(inner):
            clear_profile_caches()
            for problem in problems:
                tuner.tune(problem)

    def warm() -> None:
        for _ in range(inner):
            for problem in problems:
                tuner.tune(problem)

    cold_s = _time(cold)
    warm()  # populate
    warm_s = _time(warm)
    return {"cold_s": cold_s, "warm_s": warm_s, "speedup": cold_s / warm_s}


def bench_exhaustive(smoke: bool) -> dict:
    """Naive per-candidate simulation vs incremental early-abandoning search."""
    problem = OverlapProblem(
        shape=GemmShape(1024, 4096, 4096) if smoke else GemmShape(2048, 8192, 8192),
        device=RTX_4090,
        topology=rtx4090_pcie(4),
        collective=CollectiveKind.ALL_REDUCE,
    )
    settings = OverlapSettings()
    inner = 3  # keep the incremental span above the timer-noise floor

    def naive() -> None:
        for _ in range(inner):
            exhaustive_tune(problem, settings)

    def incremental() -> None:
        for _ in range(inner):
            ExhaustiveTuner(settings).tune(problem)

    naive_s = _time(naive)
    incremental_s = _time(incremental)
    return {"naive_s": naive_s, "incremental_s": incremental_s, "speedup": naive_s / incremental_s}


def bench_sweep_tuning(smoke: bool) -> dict:
    """Tuning wall-clock of the smoke sweep's scenarios, old path vs new.

    "Old" is pre-fast-path behavior: scalar candidate loop and a fresh
    offline profile per job.  "New" is the shipped configuration: vectorized
    ranking plus process-level profile memoization.
    """
    scenarios = smoke_matrix().expand()
    jobs = [(s.to_problem(), s.to_settings()) for s in scenarios]

    def old() -> None:
        for problem, settings in jobs:
            clear_profile_caches()
            predictive_tune(problem, settings)

    def new() -> None:
        for problem, settings in jobs:
            PredictiveTuner(settings).tune(problem)

    old_s = _time(old)
    clear_profile_caches()
    new()  # first pass pays the cache misses, as a real sweep's first job does
    new_s = _time(new)
    return {"jobs": len(jobs), "old_s": old_s, "new_s": new_s, "speedup": old_s / new_s}


def collect(smoke: bool) -> dict:
    """The tuning report's meta, metrics and checks."""
    with obs.span("predictive_tuning"):
        predictive, decisions_identical = bench_predictive_tuning(smoke)
    with obs.span("pipeline_reorder"):
        reorder, pipelines_match = bench_pipeline_reorder(smoke)
    with obs.span("profile_memoization"):
        memoization = bench_profile_memoization(smoke)
    with obs.span("exhaustive_tuner"):
        exhaustive = bench_exhaustive(smoke)
    with obs.span("sweep_tuning"):
        sweep_tuning = bench_sweep_tuning(smoke)
    return {
        "meta": {"repeats": REPEATS},
        "metrics": {
            "predictive_tuning": predictive,
            "pipeline_reorder": reorder,
            "profile_memoization": memoization,
            "exhaustive_tuner": exhaustive,
            "sweep_tuning": sweep_tuning,
        },
        "checks": {
            "tuning_decisions_identical": decisions_identical,
            "pipeline_outputs_allclose": pipelines_match,
        },
    }


if __name__ == "__main__":
    raise SystemExit(harness.main("tuning", collect, label="equivalence"))
