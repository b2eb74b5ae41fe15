"""Block-swizzling tile execution order.

GEMM kernels do not launch output tiles in address (row-major) order.  To
improve L2 reuse of the ``B`` operand, CUTLASS-style kernels *swizzle* the
launch order: tiles are visited column-panel by column-panel (a panel is
``swizzle_size`` tile columns wide), walking down the rows within a panel.
The consequence exploited by FlashOverlap is that the tiles of an execution
wave are **not contiguous in memory**, which is why a pre-communication
reordering is needed (paper Sec. 2.1.2 and Fig. 2).
"""

from __future__ import annotations

import numpy as np

from repro.tensor.layout import TileLayout


def unswizzled_order(layout: TileLayout) -> list[int]:
    """Row-major (address order) tile execution order."""
    return list(range(layout.num_tiles))


def swizzled_order(layout: TileLayout, swizzle_size: int) -> list[int]:
    """Tile execution order under block swizzling.

    Tiles are launched panel by panel, where a panel is ``swizzle_size``
    consecutive tile columns; within a panel the walk is row-major across the
    panel's columns, descending the tile rows.  ``swizzle_size == 1`` reduces
    to a column-major launch; ``swizzle_size >= grid_n`` reduces to the
    row-major order.
    """
    if swizzle_size <= 0:
        raise ValueError("swizzle_size must be positive")
    return execution_order_array(layout, swizzle_size).tolist()


def execution_order_array(layout: TileLayout, swizzle_size: int | None) -> np.ndarray:
    """Tile execution order as an ``int64`` array; ``None`` or ``0`` disables
    swizzling (see :func:`swizzled_order`).

    In closed form: a stable sort of the row-major tile indices by panel
    number keeps each panel's tiles in row-major order.
    """
    if not swizzle_size:
        return np.arange(layout.num_tiles, dtype=np.int64)
    if swizzle_size < 0:
        raise ValueError("swizzle_size must be positive")
    panel_of_tile = np.tile(np.arange(layout.grid_n) // swizzle_size, layout.grid_m)
    return np.argsort(panel_of_tile, kind="stable")


def execution_order(layout: TileLayout, swizzle_size: int | None) -> list[int]:
    """Return the tile execution order; ``None`` or ``0`` disables swizzling."""
    return execution_order_array(layout, swizzle_size).tolist()


def is_valid_order(layout: TileLayout, order: list[int]) -> bool:
    """Check that ``order`` is a permutation of all tile indices."""
    return sorted(order) == list(range(layout.num_tiles))


def address_discontiguity(layout: TileLayout, order: list[int], window: int) -> float:
    """Fraction of adjacent pairs in the first ``window`` launched tiles that
    are *not* adjacent in address order.

    A value of 0 means the first wave is a contiguous block (communication
    could proceed without reordering); larger values quantify how much the
    swizzle scrambles addresses.
    """
    if window < 2:
        return 0.0
    window = min(window, len(order))
    pairs = zip(order[: window - 1], order[1:window])
    broken = sum(1 for a, b in pairs if b != a + 1)
    return broken / (window - 1)


def default_swizzle_size(layout: TileLayout, l2_cache_mb: float, dtype_bytes: int = 2,
                         k: int | None = None) -> int:
    """Heuristic swizzle size: keep a panel of ``B`` columns resident in L2.

    The panel footprint along ``N`` is ``swizzle_size * tile_n * K * dtype``;
    the heuristic picks the largest power of two that fits in roughly half of
    L2, clamped to ``[1, grid_n]``.  When ``k`` is unknown a fixed panel of 3
    (the value used in the paper's Fig. 3) is returned.
    """
    if k is None:
        return max(1, min(3, layout.grid_n))
    budget = l2_cache_mb * 1024 * 1024 / 2
    per_column_panel = layout.tile_n * k * dtype_bytes
    if per_column_panel <= 0:
        return 1
    size = max(1, int(budget // per_column_panel))
    power = 1
    while power * 2 <= size:
        power *= 2
    return max(1, min(power, layout.grid_n))


def wave_partition(order: list[int], wave_size: int) -> list[list[int]]:
    """Chunk an execution order into waves of ``wave_size`` tiles.

    The last wave may be smaller.  ``wave_size`` is normally the number of SMs
    available to the GEMM kernel.
    """
    if wave_size <= 0:
        raise ValueError("wave_size must be positive")
    return [order[i : i + wave_size] for i in range(0, len(order), wave_size)]


def tiles_to_waves(order: list[int] | np.ndarray, wave_size: int) -> np.ndarray:
    """Return ``wave_of[tile_index] = wave number`` for an execution order."""
    if wave_size <= 0:
        raise ValueError("wave_size must be positive")
    order = np.asarray(order, dtype=np.int64)
    wave_of = np.empty(order.size, dtype=np.int64)
    wave_of[order] = np.arange(order.size, dtype=np.int64) // wave_size
    return wave_of
