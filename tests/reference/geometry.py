"""Per-tile oracles of the closed-form tile geometry.

The production code computes tile geometry as NumPy arrays over the whole
grid: element counts in :class:`~repro.tensor.layout.TileLayout`, the
swizzled launch order in :mod:`repro.gpu.swizzle`, wave tiles and tile
completion times in :class:`~repro.gpu.gemm.GemmKernelModel`, group
membership and signal times in :mod:`repro.core.signaling`, payloads in
:class:`~repro.core.executor.OverlapExecutor`, the reorder plan in
:mod:`repro.core.reordering` and its array-backed
:class:`~repro.tensor.mapping.MappingTable`.  This module keeps the straightforward
one-call-per-tile versions they replace; the production results must equal
these exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.signaling import CountingTable, SignalOrderError
from repro.core.wave_grouping import WavePartition
from repro.gpu.gemm import GemmKernelModel
from repro.tensor.layout import TileLayout
from repro.tensor.mapping import MappingTable


def swizzled_order(layout: TileLayout, swizzle_size: int) -> list[int]:
    """Panel-by-panel launch order, one ``tile_index`` call per tile."""
    if swizzle_size <= 0:
        raise ValueError("swizzle_size must be positive")
    order: list[int] = []
    for panel_start in range(0, layout.grid_n, swizzle_size):
        panel_cols = range(panel_start, min(panel_start + swizzle_size, layout.grid_n))
        for row_block in range(layout.grid_m):
            for col_block in panel_cols:
                order.append(layout.tile_index(row_block, col_block))
    return order


def execution_order(layout: TileLayout, swizzle_size: int | None) -> list[int]:
    """Launch order; ``None`` or ``0`` is the row-major order."""
    if not swizzle_size:
        return list(range(layout.num_tiles))
    return swizzled_order(layout, swizzle_size)


def wave_tiles(model: GemmKernelModel, sm_count: int | None = None) -> list[list[int]]:
    """Tile lists of each wave of a GEMM model."""
    order = execution_order(model.layout, model.config.swizzle_size)
    size = model.device.sm_count if sm_count is None else sm_count
    return [order[i : i + size] for i in range(0, len(order), size)]


def tiles_to_waves(order: Sequence[int], wave_size: int) -> np.ndarray:
    """``wave_of[tile] = wave number``, one tile at a time."""
    wave_of = np.empty(len(order), dtype=np.int64)
    for position, tile_index in enumerate(order):
        wave_of[tile_index] = position // wave_size
    return wave_of


def tile_completion_times(
    model: GemmKernelModel, sm_count: int | None = None, jitter: float = 0.05, seed: int = 0
) -> np.ndarray:
    """Per-tile completion times with one RNG draw per wave."""
    waves = wave_tiles(model, sm_count)
    wave_end = model.wave_completion_times(sm_count)
    wave_len = model.wave_duration(sm_count)
    rng = np.random.default_rng(seed)
    times = np.empty(model.num_tiles, dtype=np.float64)
    for wave_index, tiles in enumerate(waves):
        spread = rng.uniform(-jitter, 0.0, size=len(tiles)) * wave_len
        for offset, tile_index in enumerate(tiles):
            times[tile_index] = wave_end[wave_index] + spread[offset]
    return times


def tiles_bytes(layout: TileLayout, tiles: Sequence[int], dtype_bytes: int) -> int:
    """Output bytes of a set of tiles: a ``tile_elements`` sum."""
    return sum(layout.tile_elements(t) for t in tiles) * dtype_bytes


def group_payload_bytes(
    layout: TileLayout, assignment: GroupAssignment, dtype_bytes: int
) -> np.ndarray:
    """Bytes communicated per group (``OverlapExecutor.group_payload_bytes``)."""
    return np.array(
        [tiles_bytes(layout, tiles, dtype_bytes) for tiles in assignment.group_tiles],
        dtype=np.float64,
    )


def wave_payload_bytes(layout: TileLayout, waves: Sequence[Sequence[int]], dtype_bytes: int) -> np.ndarray:
    """Bytes produced per wave (``OverlapExecutor.wave_payload_bytes``)."""
    return np.array([tiles_bytes(layout, tiles, dtype_bytes) for tiles in waves], dtype=np.int64)


@dataclass(frozen=True)
class GroupAssignment:
    """Tile-to-group assignment held as tuples and a ``tile -> group`` dict."""

    partition: WavePartition
    group_tiles: tuple[tuple[int, ...], ...]
    group_of_tile: dict[int, int]

    @classmethod
    def build(cls, partition: WavePartition, wave_tiles: Sequence[Sequence[int]]) -> "GroupAssignment":
        groups = partition.group_tiles(wave_tiles)
        group_of_tile: dict[int, int] = {}
        for group_index, tiles in enumerate(groups):
            for tile in tiles:
                if tile in group_of_tile:
                    raise ValueError(f"tile {tile} assigned to two groups")
                group_of_tile[tile] = group_index
        return cls(
            partition=partition,
            group_tiles=tuple(tuple(t) for t in groups),
            group_of_tile=group_of_tile,
        )

    @property
    def num_groups(self) -> int:
        return len(self.group_tiles)

    def counting_table(self) -> CountingTable:
        return CountingTable(group_sizes=tuple(len(t) for t in self.group_tiles))


def signal_ready_times(
    assignment: GroupAssignment, tile_completion_times: np.ndarray, signal_latency: float = 0.0
) -> np.ndarray:
    """Group fire times by replaying the counting table in completion order."""
    times = np.asarray(tile_completion_times, dtype=np.float64)
    table = assignment.counting_table()
    fire_time = np.full(assignment.num_groups, np.nan)
    for tile in np.argsort(times, kind="stable"):
        tile = int(tile)
        if tile not in assignment.group_of_tile:
            continue
        group = assignment.group_of_tile[tile]
        if table.record_tile(group):
            fire_time[group] = times[tile] + signal_latency
    if np.isnan(fire_time).any():
        missing = [g for g in range(assignment.num_groups) if np.isnan(fire_time[g])]
        raise SignalOrderError(f"groups {missing} never became ready")
    return fire_time


def replay_signals(assignment: GroupAssignment, execution_order: Sequence[int]) -> CountingTable:
    """The counting table after recording every tile of ``execution_order``."""
    table = assignment.counting_table()
    for tile in execution_order:
        if tile in assignment.group_of_tile:
            table.record_tile(assignment.group_of_tile[tile])
    return table


def mapping_table(order: Sequence[int], start: int = 0) -> MappingTable:
    """``MappingTable.from_order(order, start)``, one ``append`` per unit."""
    mapping = MappingTable()
    for offset, unit in enumerate(order):
        mapping.append(int(unit), start + offset)
    return mapping


def reorder_plan(
    layout: TileLayout, group_tiles: Sequence[Sequence[int]]
) -> list[tuple[tuple[int, ...], MappingTable]]:
    """Per-group ``(tile_order, mapping)`` of ``build_reorder_plan``, one
    ``MappingTable.append`` per tile, with the plan's cover check."""
    groups = []
    position = 0
    for tiles in group_tiles:
        groups.append((tuple(int(t) for t in tiles), mapping_table(tiles, position)))
        position += len(tiles)
    covered = [tile for order, _ in groups for tile in order]
    if sorted(covered) != list(range(layout.num_tiles)):
        raise ValueError("reorder plan does not cover every tile exactly once")
    return groups
