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

import operator

import numpy as np


class MappingTable:
    """Bidirectional original-index <-> reordered-position table.

    The table is built incrementally by appending original unit indices in the
    order in which they are packed into the communication buffer, or in one
    step from a whole packing order (:meth:`from_order`).  A table built from
    an order keeps just that array and its start position; the ``forward``
    and position -> original dicts are built the first time something asks
    for them.
    """

    def __init__(self, forward: dict[int, int] | None = None) -> None:
        self._order: np.ndarray | None = None
        self._start = 0
        self._forward = {} if forward is None else forward
        # Position -> original shadow map, kept in sync by append(): makes the
        # occupancy check and original_of() O(1) instead of scanning forward.
        self._inverse = {pos: orig for orig, pos in self._forward.items()}

    @classmethod
    def from_order(cls, order: list[int] | np.ndarray, start: int = 0) -> "MappingTable":
        """Build a table from a packing order.

        ``order[k]`` is the original index of the unit stored at reordered
        position ``start + k``.
        """
        order = np.array(order, dtype=np.int64).reshape(-1)
        ranked = np.sort(order)
        if np.any(ranked[1:] == ranked[:-1]):
            raise ValueError("packing order lists a unit twice")
        order.flags.writeable = False
        table = cls()
        table._order, table._start = order, operator.index(start)
        return table

    def _dicts(self) -> tuple[dict[int, int], dict[int, int]]:
        """``(forward, inverse)``, built from the packing order on first use."""
        if self._order is not None:
            originals = self._order.tolist()
            positions = range(self._start, self._start + len(originals))
            self._forward = dict(zip(originals, positions))
            self._inverse = dict(zip(positions, originals))
            self._order = None
        return self._forward, self._inverse

    @property
    def forward(self) -> dict[int, int]:
        """Original unit index -> reordered position."""
        return self._dicts()[0]

    def append(self, original: int, position: int | None = None) -> int:
        """Record that ``original`` is packed at ``position`` (default: next slot)."""
        forward, inverse = self._dicts()
        if original in forward:
            raise ValueError(f"unit {original} already present in mapping table")
        if position is None:
            position = len(forward)
        if position in inverse:
            raise ValueError(f"reordered position {position} already occupied")
        forward[original] = position
        inverse[position] = original
        return position

    def __len__(self) -> int:
        return len(self.forward)

    def __contains__(self, original: int) -> bool:
        return original in self.forward

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MappingTable):
            return NotImplemented
        return self.forward == other.forward

    def __repr__(self) -> str:
        return f"MappingTable(forward={self.forward!r})"

    def position_of(self, original: int) -> int:
        """Reordered position of an original unit index."""
        return self.forward[original]

    def original_of(self, position: int) -> int:
        """Original unit index stored at a reordered position (O(1))."""
        try:
            return self._dicts()[1][position]
        except KeyError:
            raise KeyError(f"no unit at reordered position {position}") from None

    def inverse(self) -> dict[int, int]:
        """Return the position -> original mapping as a dict."""
        return dict(self._dicts()[1])

    def as_permutation(self) -> np.ndarray:
        """Return ``perm`` with ``perm[position] = original``.

        Requires the table to be dense: positions must be exactly
        ``0 .. len-1``.
        """
        count = len(self)
        perm = np.empty(count, dtype=np.int64)
        covered = 0
        for position, original in self._dicts()[1].items():
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
