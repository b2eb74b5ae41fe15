"""Mapping tables used by the pre/post communication reorderings.

FlashOverlap packs the tiles (or sub-tiles / sub-tokens) of each wave group
into a contiguous communication buffer in *execution order*, which generally
differs from the address order of the GEMM output.  A mapping table records,
for every original unit index, the position it occupies in the reordered
buffer; the post-communication reorder uses the inverse mapping to restore the
logical order.  The table is tiny compared to the data (the Table 5 overhead
analysis models it as a small extra memory-traffic term).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class MappingTable:
    """Bidirectional original-index <-> reordered-position table.

    The table is built incrementally by appending original unit indices in the
    order in which they are packed into the communication buffer.
    """

    forward: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Position -> original shadow map, kept in sync by append(): makes the
        # occupancy check and original_of() O(1) instead of scanning forward.
        self._inverse: dict[int, int] = {pos: orig for orig, pos in self.forward.items()}

    @classmethod
    def from_order(cls, order: list[int] | np.ndarray, start: int = 0) -> "MappingTable":
        """Build a table from a packing order.

        ``order[k]`` is the original index of the unit stored at reordered
        position ``start + k``.
        """
        order = np.asarray(order, dtype=np.int64).reshape(-1)
        if np.unique(order).size != order.size:
            raise ValueError("packing order lists a unit twice")
        positions = range(start, start + order.size)
        table = cls()
        table.forward = dict(zip(order.tolist(), positions))
        table._inverse = dict(zip(positions, order.tolist()))
        return table

    def append(self, original: int, position: int | None = None) -> int:
        """Record that ``original`` is packed at ``position`` (default: next slot)."""
        if original in self.forward:
            raise ValueError(f"unit {original} already present in mapping table")
        if position is None:
            position = len(self.forward)
        if position in self._inverse:
            raise ValueError(f"reordered position {position} already occupied")
        self.forward[original] = position
        self._inverse[position] = original
        return position

    def __len__(self) -> int:
        return len(self.forward)

    def __contains__(self, original: int) -> bool:
        return original in self.forward

    def position_of(self, original: int) -> int:
        """Reordered position of an original unit index."""
        return self.forward[original]

    def original_of(self, position: int) -> int:
        """Original unit index stored at a reordered position (O(1))."""
        try:
            return self._inverse[position]
        except KeyError:
            raise KeyError(f"no unit at reordered position {position}") from None

    def inverse(self) -> dict[int, int]:
        """Return the position -> original mapping as a dict."""
        return dict(self._inverse)

    def as_permutation(self) -> np.ndarray:
        """Return ``perm`` with ``perm[position] = original``.

        Requires the table to be dense: positions must be exactly
        ``0 .. len-1``.
        """
        count = len(self)
        perm = np.empty(count, dtype=np.int64)
        covered = 0
        for position, original in self._inverse.items():
            if 0 <= position < count:
                perm[position] = original
                covered += 1
        if covered != count:
            raise ValueError("mapping table positions are not dense")
        return perm

    def is_permutation(self) -> bool:
        """True when the positions form a dense permutation ``0 .. len-1``."""
        return sorted(self.forward.values()) == list(range(len(self)))

    def size_bytes(self, index_bytes: int = 4) -> int:
        """Memory footprint of the table (one index per entry)."""
        return len(self.forward) * index_bytes

    def merge(self, other: "MappingTable", position_offset: int) -> "MappingTable":
        """Concatenate another table, shifting its positions by ``position_offset``."""
        merged = MappingTable(dict(self.forward))
        for original, pos in other.forward.items():
            merged.append(original, pos + position_offset)
        return merged
