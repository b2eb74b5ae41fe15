"""Tests for wave-group partitions and the design space (repro.core.wave_grouping)."""

import pytest

from reference.wave_grouping import enumerate_partitions
from repro.core.wave_grouping import (
    WavePartition,
    candidate_matrix,
    design_space_size,
    heuristic_partitions,
)


def _partitions(matrix):
    return [matrix.partition(row) for row in range(matrix.num_candidates)]


class TestWavePartition:
    def test_basic_properties(self):
        partition = WavePartition((1, 2, 2))
        assert partition.num_waves == 5
        assert partition.num_groups == 3
        assert partition.first_group == 1
        assert partition.last_group == 2
        assert partition.boundaries() == [1, 3, 5]

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            WavePartition(())
        with pytest.raises(ValueError):
            WavePartition((2, 0, 1))

    def test_constructors(self):
        assert WavePartition.single_group(4).group_sizes == (4,)
        assert WavePartition.per_wave(3).group_sizes == (1, 1, 1)
        assert WavePartition.from_sizes([2, 3]).group_sizes == (2, 3)

    def test_equal_groups(self):
        assert WavePartition.equal_groups(10, 4).group_sizes == (4, 4, 2)
        assert WavePartition.equal_groups(8, 4).group_sizes == (4, 4)
        assert WavePartition.equal_groups(3, 10).group_sizes == (3,)
        with pytest.raises(ValueError):
            WavePartition.equal_groups(8, 0)

    def test_decision_round_trip(self):
        # Fig. 9 example: partition (1, 2, 2) communicates after waves 1, 3, 5.
        partition = WavePartition((1, 2, 2))
        decisions = partition.decisions()
        assert decisions == [True, False, True, False, True]
        assert WavePartition.from_decisions(decisions) == partition

    def test_from_decisions_forces_last_wave(self):
        partition = WavePartition.from_decisions([False, True, False, False])
        assert partition.group_sizes == (2, 2)

    def test_group_of_wave(self):
        partition = WavePartition((2, 3))
        assert [partition.group_of_wave(w) for w in range(5)] == [0, 0, 1, 1, 1]
        with pytest.raises(IndexError):
            partition.group_of_wave(5)

    def test_group_waves(self):
        partition = WavePartition((1, 2, 2))
        assert list(partition.group_waves(0)) == [0]
        assert list(partition.group_waves(1)) == [1, 2]
        assert list(partition.group_waves(2)) == [3, 4]
        with pytest.raises(IndexError):
            partition.group_waves(3)

    def test_group_tiles(self):
        partition = WavePartition((1, 2))
        wave_tiles = [[0, 2], [1, 3], [4, 5]]
        assert partition.group_tiles(wave_tiles) == [[0, 2], [1, 3, 4, 5]]

    def test_group_tiles_wave_count_mismatch(self):
        with pytest.raises(ValueError):
            WavePartition((1, 1)).group_tiles([[0], [1], [2]])


class TestDesignSpace:
    @pytest.mark.parametrize("waves,expected", [(1, 1), (2, 2), (5, 16), (8, 128)])
    def test_design_space_size(self, waves, expected):
        assert design_space_size(waves) == expected
        assert len(list(enumerate_partitions(waves))) == expected

    def test_enumeration_is_unique_and_complete(self):
        partitions = list(enumerate_partitions(6))
        assert len(set(p.group_sizes for p in partitions)) == 32
        assert all(p.num_waves == 6 for p in partitions)

    def test_invalid_wave_count(self):
        with pytest.raises(ValueError):
            design_space_size(0)
        with pytest.raises(ValueError):
            list(enumerate_partitions(0))

    def test_pruning_bounds_first_and_last_groups(self):
        pruned = _partitions(candidate_matrix(8, 2, 4, max_exhaustive_waves=14))
        assert pruned
        assert all(p.first_group <= 2 and p.last_group <= 4 for p in pruned)
        assert len(pruned) < design_space_size(8)

    def test_pruning_shrinks_with_tighter_bounds(self):
        # Sec. 4.1.4: constraining the first/last group sizes prunes the space.
        full = design_space_size(10)
        loose = candidate_matrix(10, 2, 4, 14).num_candidates
        tight = candidate_matrix(10, 1, 1, 14).num_candidates
        assert tight < loose < full


class TestHeuristicCandidates:
    def test_heuristic_covers_extremes(self):
        candidates = heuristic_partitions(30, max_first_group=2, max_last_group=4)
        sizes = {c.group_sizes for c in candidates}
        assert (1,) * 30 in sizes  # per-wave
        assert all(c.num_waves == 30 for c in candidates)
        assert len(candidates) >= 10

    def test_candidate_matrix_switches_family(self):
        small = _partitions(candidate_matrix(8, 2, 4, max_exhaustive_waves=14))
        large = _partitions(candidate_matrix(40, 2, 4, max_exhaustive_waves=14))
        assert all(p.first_group <= 2 for p in small)
        assert len(large) < 200
        assert all(p.num_waves == 40 for p in large)

    def test_candidate_matrix_single_wave(self):
        assert [p.group_sizes for p in _partitions(candidate_matrix(1, 2, 4, 14))] == [(1,)]
