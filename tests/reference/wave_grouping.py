"""Per-object oracle of the tuner's candidate space.

:func:`repro.core.wave_grouping.candidate_matrix` builds the pruned design
space in closed form from bitmasks, straight into a read-only
:class:`~repro.core.wave_grouping.PartitionMatrix`.  This module keeps the
enumerator it replaces: one :class:`WavePartition` per "communicate after
wave i" mask, in ascending mask order, then filtered by the first/last group
bounds.  The production matrix must equal the encoding of these lists
exactly, row order included.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.wave_grouping import WavePartition, heuristic_partitions


def enumerate_partitions(num_waves: int) -> Iterator[WavePartition]:
    """Enumerate the full design space: all ``2^(T-1)`` compositions of ``T``."""
    if num_waves <= 0:
        raise ValueError("num_waves must be positive")
    if num_waves == 1:
        yield WavePartition((1,))
        return
    for mask in range(1 << (num_waves - 1)):
        decisions = [bool(mask >> i & 1) for i in range(num_waves - 1)] + [True]
        yield WavePartition.from_decisions(decisions)


def pruned_partitions(
    num_waves: int, max_first_group: int, max_last_group: int
) -> list[WavePartition]:
    """The pruned design space: bounded first and last group sizes."""
    return [
        p
        for p in enumerate_partitions(num_waves)
        if p.first_group <= max_first_group and p.last_group <= max_last_group
    ]


def candidate_partitions(
    num_waves: int,
    max_first_group: int,
    max_last_group: int,
    max_exhaustive_waves: int,
) -> list[WavePartition]:
    """Candidates used by the tuner: pruned enumeration when tractable,
    heuristic family otherwise."""
    if num_waves <= max_exhaustive_waves:
        return pruned_partitions(num_waves, max_first_group, max_last_group)
    return heuristic_partitions(num_waves, max_first_group, max_last_group)
