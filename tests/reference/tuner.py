"""Scalar oracles of the wave-grouping tuners in :mod:`repro.core.tuner`.

* :func:`predictive_tune` ranks the candidates one
  :meth:`~repro.core.predictor.LatencyPredictor.predict` call at a time --
  the loop :class:`~repro.core.tuner.PredictiveTuner` vectorizes with
  ``predict_batch``;
* :func:`exhaustive_tune` runs the full
  :meth:`~repro.core.executor.OverlapExecutor.simulate` per candidate -- the
  loop :class:`~repro.core.tuner.ExhaustiveTuner` replaces with its
  incremental, early-abandoning search.

Both rank the per-object candidate lists of :mod:`reference.wave_grouping`,
not the production tuners' closed-form candidate matrix.

Both return the :class:`~repro.core.tuner.TuningResult` the production tuner
must reproduce exactly.
"""

from __future__ import annotations

import math

from reference.wave_grouping import candidate_partitions
from repro.core.config import DEFAULT_SETTINGS, OverlapProblem, OverlapSettings
from repro.core.executor import OverlapExecutor
from repro.core.predictor import LatencyPredictor, OfflineProfile
from repro.core.tuner import TuningResult


def _candidates(num_waves: int, settings: OverlapSettings):
    return candidate_partitions(
        num_waves,
        max_first_group=settings.max_first_group,
        max_last_group=settings.max_last_group,
        max_exhaustive_waves=settings.max_exhaustive_waves,
    )


def _argmin(candidates, latency_of):
    best, best_latency = None, math.inf
    for partition in candidates:
        latency = latency_of(partition)
        if latency < best_latency:
            best, best_latency = partition, latency
    return best, best_latency


def predictive_tune(
    problem: OverlapProblem, settings: OverlapSettings = DEFAULT_SETTINGS
) -> TuningResult:
    """The predictive search, one scalar prediction per candidate."""
    profile = OfflineProfile.cached(problem, settings)
    predictor = LatencyPredictor(profile, total_bytes=problem.output_bytes())
    candidates = _candidates(profile.num_waves, settings)
    best, best_latency = _argmin(candidates, predictor.predict)
    return TuningResult(
        partition=best,
        predicted_latency=best_latency,
        candidates_evaluated=len(candidates),
        method="predictive",
        use_overlap=best_latency <= predictor.predict_non_overlap(),
    )


def exhaustive_tune(
    problem: OverlapProblem, settings: OverlapSettings = DEFAULT_SETTINGS
) -> TuningResult:
    """The exhaustive search, one full executor simulation per candidate."""
    executor = OverlapExecutor(problem, settings)
    candidates = _candidates(executor.num_waves(), settings)
    best, best_latency = _argmin(candidates, lambda p: executor.simulate(p).latency)
    return TuningResult(
        partition=best,
        predicted_latency=best_latency,
        candidates_evaluated=len(candidates),
        method="exhaustive",
        use_overlap=best_latency <= executor.simulate_sequential().latency,
    )
