"""The signaling mechanism: group-wise tile counting.

On real hardware the GEMM epilogue atomically increments a per-group counter
when a tile finishes; a polling kernel on the communication stream releases
the group's collective once the counter reaches the group size (Fig. 6).
Here the same state machine is implemented explicitly so that

* the functional path can assert that a group is only communicated after all
  of its tiles completed,
* the event-driven executor can derive the exact signal firing times from the
  per-tile completion times of the GEMM model.

Group membership, replay and firing times are array operations over the
tiles; :class:`CountingTable` stays as the one-tile-at-a-time state machine
for the event-driven executor and the functional pipelines' readiness checks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.wave_grouping import WavePartition


class SignalOrderError(RuntimeError):
    """Raised when a group is consumed before all of its tiles finished."""


@dataclass
class CountingTable:
    """Per-group completion counters, mirroring the on-device counting table."""

    group_sizes: tuple[int, ...]
    counts: list[int] = field(default_factory=list)
    fired: list[bool] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.group_sizes or any(s <= 0 for s in self.group_sizes):
            raise ValueError("group sizes must be positive")
        if not self.counts:
            self.counts = [0] * len(self.group_sizes)
        if not self.fired:
            self.fired = [False] * len(self.group_sizes)

    @property
    def num_groups(self) -> int:
        return len(self.group_sizes)

    def record_tile(self, group_index: int) -> bool:
        """Atomically count one finished tile; return True when the group's
        counter just reached the group size (the signal fires)."""
        if not 0 <= group_index < self.num_groups:
            raise IndexError(f"group {group_index} outside 0..{self.num_groups - 1}")
        if self.counts[group_index] >= self.group_sizes[group_index]:
            raise SignalOrderError(
                f"group {group_index} received more tiles than its size "
                f"{self.group_sizes[group_index]}"
            )
        self.counts[group_index] += 1
        if self.counts[group_index] == self.group_sizes[group_index]:
            self.fired[group_index] = True
            return True
        return False

    def is_complete(self, group_index: int) -> bool:
        return self.counts[group_index] == self.group_sizes[group_index]

    def all_complete(self) -> bool:
        return all(self.is_complete(g) for g in range(self.num_groups))

    def assert_ready(self, group_index: int) -> None:
        """Raise unless the group's signal has fired (data dependency check)."""
        if not self.is_complete(group_index):
            raise SignalOrderError(
                f"communication of group {group_index} attempted with only "
                f"{self.counts[group_index]}/{self.group_sizes[group_index]} tiles done"
            )


@dataclass(frozen=True, eq=False)
class GroupAssignment:
    """Static tile-to-group assignment derived from the execution order.

    Held as arrays over the tiles: ``tiles`` lists every grouped tile in
    execution order, group after group, with group ``g`` at
    ``tiles[offsets[g]:offsets[g + 1]]`` -- also the order in which the
    pre-communication reorder packs them.  ``group_of_tile[t]`` gives the
    wave group of tile index ``t`` (``-1`` for a tile in no group).
    """

    partition: WavePartition
    tiles: np.ndarray
    offsets: np.ndarray
    group_of_tile: np.ndarray

    @classmethod
    def build(
        cls, partition: WavePartition, wave_tiles: Sequence[Sequence[int]]
    ) -> "GroupAssignment":
        """Assignment from per-wave tile lists (execution order within each)."""
        sizes = [len(tiles) for tiles in wave_tiles]
        order = np.fromiter(
            (int(tile) for tiles in wave_tiles for tile in tiles), dtype=np.int64, count=sum(sizes)
        )
        wave_offsets = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
        return cls.from_waves(partition, order, wave_offsets)

    @classmethod
    def from_waves(
        cls, partition: WavePartition, order: np.ndarray, wave_offsets: np.ndarray
    ) -> "GroupAssignment":
        """Assignment from the launch order and the position where each wave
        starts (``wave_offsets`` ends with the tile count)."""
        if len(wave_offsets) - 1 != partition.num_waves:
            raise ValueError(
                f"partition covers {partition.num_waves} waves but {len(wave_offsets) - 1} "
                "wave tile lists were provided"
            )
        offsets = np.asarray(wave_offsets, dtype=np.int64)[[0, *partition.boundaries()]]
        tiles = np.asarray(order, dtype=np.int64)[: offsets[-1]]
        group_of_tile = np.full(int(tiles.max(initial=-1)) + 1, -1, dtype=np.int64)
        if tiles.size:
            low = int(tiles.min())
            repeats = np.flatnonzero(np.bincount(tiles - low) > 1)
            if repeats.size:
                raise ValueError(f"tile {int(repeats[0]) + low} assigned to two groups")
            placed = tiles >= 0
            groups = np.repeat(np.arange(partition.num_groups, dtype=np.int64), np.diff(offsets))
            group_of_tile[tiles[placed]] = groups[placed]
        tiles.flags.writeable = False
        group_of_tile.flags.writeable = False
        return cls(partition=partition, tiles=tiles, offsets=offsets, group_of_tile=group_of_tile)

    @property
    def num_groups(self) -> int:
        return len(self.offsets) - 1

    @property
    def group_tiles(self) -> tuple[tuple[int, ...], ...]:
        """Tile indices of every group, in execution order."""
        return tuple(self.tiles_of(g) for g in range(self.num_groups))

    def tiles_of(self, group_index: int) -> tuple[int, ...]:
        return tuple(self.tiles[self.offsets[group_index] : self.offsets[group_index + 1]].tolist())

    def group_tile_counts(self) -> tuple[int, ...]:
        return tuple(np.diff(self.offsets).tolist())

    def counting_table(self) -> CountingTable:
        """A fresh counting table sized in tiles (not waves) per group."""
        return CountingTable(group_sizes=self.group_tile_counts())

    def replay(self, execution_order: Sequence[int] | np.ndarray) -> CountingTable:
        """The counting table after every tile of ``execution_order`` finished.

        Tiles in no group are ignored; a group counting more tiles than its
        size raises :class:`SignalOrderError`, as the on-device counter would.
        """
        table = self.counting_table()
        order = np.asarray(execution_order, dtype=np.int64)
        order = order[(order >= 0) & (order < self.group_of_tile.size)]
        groups = self.group_of_tile[order]
        counts = np.bincount(groups[groups >= 0], minlength=self.num_groups)
        sizes = np.asarray(table.group_sizes)
        over = np.flatnonzero(counts > sizes)
        if over.size:
            group = int(over[0])
            raise SignalOrderError(
                f"group {group} received more tiles than its size {table.group_sizes[group]}"
            )
        table.counts = counts.tolist()
        table.fired = (counts == sizes).tolist()
        return table


@dataclass(frozen=True)
class SignalSchedule:
    """Signal firing time of every group, derived from tile completion times."""

    group_ready_times: np.ndarray

    @classmethod
    def from_tile_times(
        cls,
        assignment: GroupAssignment,
        tile_completion_times: np.ndarray,
        signal_latency: float = 0.0,
    ) -> "SignalSchedule":
        """Compute when each group's signal fires.

        A group is ready when its *last* tile completes, i.e. at the maximum
        of its tiles' completion times; the signal adds the polling
        round-trip latency on top.  A group with a tile outside
        ``tile_completion_times`` never completes its counter and raises
        :class:`SignalOrderError`.
        """
        times = np.asarray(tile_completion_times, dtype=np.float64)
        sizes = np.diff(assignment.offsets)
        if not sizes.size or (sizes <= 0).any():
            raise ValueError("group sizes must be positive")
        tiles = assignment.tiles
        in_range = (tiles >= 0) & (tiles < times.size)
        if not in_range.all():
            groups = np.repeat(np.arange(assignment.num_groups), sizes)
            missing = np.unique(groups[~in_range]).tolist()
            raise SignalOrderError(f"groups {missing} never became ready")
        fire_time = np.maximum.reduceat(times[tiles], assignment.offsets[:-1]) + signal_latency
        if np.isnan(fire_time).any():
            missing = np.flatnonzero(np.isnan(fire_time)).tolist()
            raise SignalOrderError(f"groups {missing} never became ready")
        return cls(group_ready_times=fire_time)

    def ready_time(self, group_index: int) -> float:
        return float(self.group_ready_times[group_index])

    def is_monotonic(self) -> bool:
        """Group signals fire in group order when groups follow wave order."""
        return bool(np.all(np.diff(self.group_ready_times) >= -1e-12))
