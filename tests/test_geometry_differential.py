"""Differential suite: closed-form tile geometry vs the per-tile oracles.

Every array computation of tile geometry -- swizzle order, wave tiles, tile
completion times, payload bytes, group membership, signal times and the
reorder plan -- must equal the one-call-per-tile code in
``tests/reference/geometry.py`` exactly, on ragged shapes, every swizzle
regime, random SM counts and random wave partitions.  The invariant checks
(duplicate tile, tile out of range, group that never fires) must raise the
same errors as the counting-table replay.
"""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from reference import geometry as ref
from repro.comm.primitives import CollectiveKind
from repro.comm.topology import rtx4090_pcie
from repro.core.config import OverlapProblem
from repro.core.executor import OverlapExecutor
from repro.core.reordering import build_reorder_plan
from repro.core.signaling import GroupAssignment, SignalOrderError, SignalSchedule
from repro.core.wave_grouping import WavePartition
from repro.gpu.device import RTX_4090
from repro.gpu.gemm import GemmKernelModel, GemmShape, GemmTileConfig
from repro.gpu.swizzle import execution_order, swizzled_order, tiles_to_waves
from repro.tensor.layout import TileLayout
from repro.tensor.mapping import MappingTable
from repro.tensor.tiles import tile_flat_indices


@st.composite
def geometries(draw):
    """A ragged GEMM, a swizzle regime, an SM count and a wave partition."""
    tile_m = draw(st.integers(min_value=32, max_value=128))
    tile_n = draw(st.integers(min_value=32, max_value=128))
    m = draw(st.integers(min_value=1, max_value=12 * tile_m))
    n = draw(st.integers(min_value=1, max_value=12 * tile_n))
    grid_n = -(-n // tile_n)
    swizzle = draw(st.sampled_from(["none", "one", "three", "wide"]))
    swizzle_size = {"none": 0, "one": 1, "three": 3, "wide": grid_n + draw(st.integers(1, 4))}[swizzle]
    config = GemmTileConfig(tile_m=tile_m, tile_n=tile_n, swizzle_size=swizzle_size)
    sms = draw(st.integers(min_value=1, max_value=64))
    problem = OverlapProblem(
        shape=GemmShape(m, n, 256),
        device=RTX_4090.with_sm_count(sms + rtx4090_pcie(4).comm_sm_count),
        topology=rtx4090_pcie(4),
        collective=CollectiveKind.ALL_REDUCE,
        gemm_config=config,
    )
    executor = OverlapExecutor(problem)
    rng = draw(st.randoms(use_true_random=False))
    decisions = [rng.random() < 0.4 for _ in range(executor.num_waves())]
    return executor, WavePartition.from_decisions(decisions)


def _assert_same_assignment(assignment, oracle):
    assert assignment.group_tiles == oracle.group_tiles
    assert assignment.group_tile_counts() == tuple(len(t) for t in oracle.group_tiles)
    expected = np.full(len(oracle.group_of_tile), -1)
    for tile, group in oracle.group_of_tile.items():
        expected[tile] = group
    np.testing.assert_array_equal(assignment.group_of_tile, expected)


class TestClosedFormGeometry:
    @given(geometries())
    @hyp_settings(max_examples=60, deadline=None)
    def test_wave_tiles_payloads_signals_and_reorder_plan(self, case):
        executor, partition = case
        model = executor.gemm_contended
        layout = model.layout
        sms = executor.compute_sms
        dtype = executor.problem.dtype_bytes

        oracle_waves = ref.wave_tiles(model, sms)
        assert model.execution_order() == ref.execution_order(layout, model.config.swizzle_size)
        assert model.wave_tiles(sms) == oracle_waves
        assert model.wave_sizes(sms) == [len(w) for w in oracle_waves]
        np.testing.assert_array_equal(
            executor.wave_payload_bytes(), ref.wave_payload_bytes(layout, oracle_waves, dtype)
        )
        np.testing.assert_array_equal(
            layout.tile_element_counts, [layout.tile_elements(t) for t in range(layout.num_tiles)]
        )

        assignment = executor.assignment(partition)
        oracle = ref.GroupAssignment.build(partition, oracle_waves)
        _assert_same_assignment(assignment, oracle)
        _assert_same_assignment(GroupAssignment.build(partition, oracle_waves), oracle)
        payloads = executor.group_payload_bytes(assignment)
        np.testing.assert_array_equal(payloads, ref.group_payload_bytes(layout, oracle, dtype))
        assert payloads.dtype == np.float64
        for tiles in oracle.group_tiles:
            assert model.group_bytes(list(tiles)) == ref.tiles_bytes(layout, tiles, dtype)

        # simulate() fills tile times per wave (ties within a wave) ...
        wave_end = (
            model.wave_completion_times(sms) * executor.problem.imbalance
            + executor.problem.device.kernel_launch_seconds
        )
        tile_times = np.empty(model.num_tiles)
        for wave_index, tiles in enumerate(oracle_waves):
            for tile in tiles:
                tile_times[tile] = wave_end[wave_index]
        result = executor.simulate(partition)
        np.testing.assert_array_equal(
            result.group_compute_ready,
            ref.signal_ready_times(oracle, tile_times, executor.settings.signal_poll_s),
        )
        np.testing.assert_array_equal(result.metadata["payload_bytes"], payloads)
        # ... and jittered tile times reorder completions within a wave.
        times = model.tile_completion_times(sms, jitter=0.05, seed=len(oracle_waves))
        np.testing.assert_array_equal(
            SignalSchedule.from_tile_times(assignment, times, 3e-6).group_ready_times,
            ref.signal_ready_times(oracle, times, 3e-6),
        )

        plan = build_reorder_plan(CollectiveKind.ALL_REDUCE, layout, assignment.group_tiles, 4)
        oracle_plan = ref.reorder_plan(layout, oracle.group_tiles)
        assert [g.tile_order for g in plan.groups] == [order for order, _ in oracle_plan]
        for group, (_, mapping) in zip(plan.groups, oracle_plan):
            assert group.mapping.forward == mapping.forward
            assert group.mapping.inverse() == mapping.inverse()
        assert plan.global_mapping().forward == MappingTable.from_order(
            [t for order, _ in oracle_plan for t in order]
        ).forward

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=1, max_value=50),
    )
    @hyp_settings(max_examples=80, deadline=None)
    def test_swizzle_and_tiles_to_waves(self, grid_m, grid_n, swizzle_size, wave_size):
        layout = TileLayout(m=grid_m * 32, n=grid_n * 32 - 5, tile_m=32, tile_n=32)
        order = swizzled_order(layout, swizzle_size)
        assert order == ref.swizzled_order(layout, swizzle_size)
        assert execution_order(layout, 0) == ref.execution_order(layout, 0)
        np.testing.assert_array_equal(
            tiles_to_waves(order, wave_size), ref.tiles_to_waves(order, wave_size)
        )

    def test_tile_completion_times_bit_identical_for_fixed_seeds(self):
        model = GemmKernelModel(
            GemmShape(1000, 3000, 512), RTX_4090, GemmTileConfig(tile_m=64, tile_n=96, swizzle_size=3)
        )
        for sms, jitter, seed in ((None, 0.05, 0), (37, 0.05, 7), (5, 0.2, 123), (128, 0.0, 1)):
            np.testing.assert_array_equal(
                model.tile_completion_times(sms, jitter=jitter, seed=seed),
                ref.tile_completion_times(model, sms, jitter=jitter, seed=seed),
            )

    def test_replay_matches_counting_table(self):
        partition = WavePartition((1, 2))
        waves = [[0, 2], [4, 1], [3, 5]]
        assignment = GroupAssignment.build(partition, waves)
        oracle = ref.GroupAssignment.build(partition, waves)
        for order in ([0, 2, 4, 1, 3, 5], [0, 2, 9, 4], [], [5, 4, 3, 1, 2, 0, 7]):
            table = assignment.replay(order)
            expected = ref.replay_signals(oracle, order)
            assert table.counts == expected.counts
            assert table.fired == expected.fired


class TestInvariantErrors:
    """The array checks raise what the counting-table replay raised."""

    PARTITION = WavePartition((1, 2))
    WAVES = [[0, 2], [4, 1], [3, 5]]

    def _both(self, waves):
        return (
            GroupAssignment.build(self.PARTITION, waves),
            ref.GroupAssignment.build(self.PARTITION, waves),
        )

    def test_duplicated_tile_raises_value_error(self):
        waves = [[0, 2], [4, 1], [3, 2]]
        with pytest.raises(ValueError, match="tile 2 assigned to two groups"):
            GroupAssignment.build(self.PARTITION, waves)
        with pytest.raises(ValueError, match="tile 2 assigned to two groups"):
            ref.GroupAssignment.build(self.PARTITION, waves)

    def test_duplicated_tile_within_a_group_raises_value_error(self):
        with pytest.raises(ValueError, match="assigned to two groups"):
            GroupAssignment.build(WavePartition((2,)), [[0, 1], [1, 2]])

    def test_wave_count_mismatch_raises_value_error(self):
        with pytest.raises(ValueError, match="partition covers 3 waves"):
            GroupAssignment.build(WavePartition((1, 2)), [[0, 1], [2, 3]])
        with pytest.raises(ValueError, match="partition covers 3 waves"):
            ref.GroupAssignment.build(WavePartition((1, 2)), [[0, 1], [2, 3]])

    def test_empty_group_raises_value_error(self):
        assignment, oracle = self._both([[], [4, 1], [3, 5]])
        times = np.arange(6.0)
        with pytest.raises(ValueError, match="group sizes must be positive"):
            SignalSchedule.from_tile_times(assignment, times)
        with pytest.raises(ValueError, match="group sizes must be positive"):
            ref.signal_ready_times(oracle, times)

    @pytest.mark.parametrize("bad_tile", [6, 40, -1])
    def test_tile_out_of_range_raises_signal_order_error(self, bad_tile):
        assignment, oracle = self._both([[0, 2], [4, 1], [3, bad_tile]])
        times = np.arange(6.0)
        with pytest.raises(SignalOrderError, match=r"groups \[1\] never became ready"):
            SignalSchedule.from_tile_times(assignment, times)
        with pytest.raises(SignalOrderError, match=r"groups \[1\] never became ready"):
            ref.signal_ready_times(oracle, times)

    def test_group_that_never_fires_raises_signal_order_error(self):
        assignment, oracle = self._both(self.WAVES)
        short = np.arange(3.0)  # tiles 3, 4, 5 never complete
        nan = np.array([0.0, 1.0, np.nan, 2.0, 3.0, 4.0])  # tile 2 never completes
        for times, missing in ((short, r"\[1\]"), (nan, r"\[0\]")):
            with pytest.raises(SignalOrderError, match=f"groups {missing} never became ready"):
                SignalSchedule.from_tile_times(assignment, times)
            with pytest.raises(SignalOrderError, match=f"groups {missing} never became ready"):
                ref.signal_ready_times(oracle, times)

    def test_overcounted_group_raises_signal_order_error(self):
        assignment, oracle = self._both(self.WAVES)
        order = [0, 2, 0, 4, 1, 3, 5]
        with pytest.raises(SignalOrderError, match="group 0 received more tiles"):
            assignment.replay(order)
        with pytest.raises(SignalOrderError, match="group 0 received more tiles"):
            ref.replay_signals(oracle, order)

    @pytest.mark.parametrize("bad_tile", [-1, 6])
    def test_tile_outside_grid_raises_index_error(self, bad_tile):
        layout = TileLayout(m=32, n=48, tile_m=16, tile_n=16)  # 6 tiles
        model = GemmKernelModel(GemmShape(32, 48, 64), RTX_4090, GemmTileConfig(tile_m=16, tile_n=16))
        with pytest.raises(IndexError):
            layout.tile_elements(bad_tile)
        with pytest.raises(IndexError):
            model.group_bytes([0, bad_tile])
        with pytest.raises(IndexError):
            tile_flat_indices(layout, [0, bad_tile])

    def test_reorder_plan_cover_errors(self):
        layout = TileLayout(m=32, n=48, tile_m=16, tile_n=16)  # 6 tiles
        for groups in ([[0, 1, 2], [3, 4]], [[0, 1, 2], [3, 4, 4]], [[0, 1, 2], [3, 4, 5, 6]]):
            with pytest.raises(ValueError):
                build_reorder_plan(CollectiveKind.ALL_REDUCE, layout, groups, 2)
            with pytest.raises(ValueError):
                ref.reorder_plan(layout, groups)
