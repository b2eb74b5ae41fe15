"""Tests for the predictive / exhaustive tuners and the shape cache."""

import pytest

from repro.core.config import OverlapSettings
from repro.core.executor import OverlapExecutor
from repro.core.tuner import (
    ExhaustiveTuner,
    GemmShapeCache,
    PredictiveTuner,
    search_quality,
)
from repro.gpu.gemm import GemmShape


@pytest.fixture
def settings():
    return OverlapSettings(executor_jitter=0.0, bandwidth_profile_noise=0.0)


class TestPredictiveTuner:
    def test_tuned_partition_is_valid(self, paper_problem_4090, settings):
        tuner = PredictiveTuner(settings)
        result = tuner.tune(paper_problem_4090)
        executor = OverlapExecutor(paper_problem_4090, settings)
        assert result.partition.num_waves == executor.num_waves()
        assert result.candidates_evaluated > 1
        assert result.predicted_latency > 0
        assert result.method == "predictive"

    def test_tuned_beats_naive_partitions(self, paper_problem_4090, settings):
        from repro.core.wave_grouping import WavePartition

        tuner = PredictiveTuner(settings)
        result = tuner.tune(paper_problem_4090)
        executor = OverlapExecutor(paper_problem_4090, settings)
        tuned = executor.simulate(result.partition).latency
        single = executor.simulate(WavePartition.single_group(executor.num_waves())).latency
        assert tuned <= single * 1.001

    def test_overlap_enabled_on_comm_heavy_problem(self, paper_problem_4090, settings):
        assert PredictiveTuner(settings).tune(paper_problem_4090).use_overlap

    def test_candidates_respect_bounds_for_small_waves(self, settings):
        candidates = PredictiveTuner(settings).candidates(10)
        rows = range(candidates.num_candidates)
        assert all(candidates.partition(r).first_group <= settings.max_first_group for r in rows)
        assert all(candidates.partition(r).last_group <= settings.max_last_group for r in rows)


class TestExhaustiveTuner:
    def test_exhaustive_not_worse_than_predictive(self, paper_problem_4090, settings):
        executor = OverlapExecutor(paper_problem_4090, settings)
        predictive = PredictiveTuner(settings).tune(paper_problem_4090)
        exhaustive = ExhaustiveTuner(settings).tune(paper_problem_4090, executor)
        predictive_actual = executor.simulate(predictive.partition).latency
        assert exhaustive.predicted_latency <= predictive_actual + 1e-12
        assert exhaustive.method == "exhaustive"

    def test_search_quality_claim_c2(self, paper_problem_4090, settings):
        # Claim C2: the predictive search reaches >99% of the exhaustive
        # search's performance.
        quality = search_quality(paper_problem_4090, settings)
        assert quality["performance_ratio"] > 0.97
        assert quality["predictive_latency"] >= quality["exhaustive_latency"]


class TestShapeCache:
    def test_cache_reuses_nearby_shape(self, paper_problem_4090, settings):
        cache = GemmShapeCache()
        tuner = PredictiveTuner(settings)
        first = cache.lookup_or_tune(paper_problem_4090, tuner)
        assert len(cache) == 1
        # A shape within the distance threshold and with the same wave count
        # reuses the cached partition without re-tuning.
        similar = paper_problem_4090.with_shape(GemmShape(2048, 8192, 7680))
        second = cache.lookup_or_tune(similar, tuner)
        assert second is first
        assert len(cache) == 1

    def test_cache_retunes_distant_shape(self, paper_problem_4090, settings):
        cache = GemmShapeCache()
        tuner = PredictiveTuner(settings)
        cache.lookup_or_tune(paper_problem_4090, tuner)
        far = paper_problem_4090.with_shape(GemmShape(16384, 8192, 2048))
        cache.lookup_or_tune(far, tuner)
        assert len(cache) == 2

    def test_nearest_respects_wave_count(self, paper_problem_4090, settings):
        cache = GemmShapeCache()
        tuner = PredictiveTuner(settings)
        result = tuner.tune(paper_problem_4090)
        cache.add(paper_problem_4090.shape, result)
        assert cache.nearest(paper_problem_4090.shape, required_waves=result.partition.num_waves)
        assert cache.nearest(paper_problem_4090.shape, required_waves=3) is None

    def test_empty_cache(self, paper_problem_4090):
        assert GemmShapeCache().nearest(paper_problem_4090.shape) is None
