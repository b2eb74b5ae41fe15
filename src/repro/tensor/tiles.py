"""Gather/scatter helpers between a matrix and a packed tile buffer.

The pre-communication reordering of FlashOverlap writes finished tiles into a
contiguous communication buffer; the post-communication reordering reads them
back into their logical positions.  On real hardware these are fused into the
GEMM epilogue and the next element-wise kernel; here they are NumPy copies
driven by the same index arithmetic, so that correctness of the mapping logic
can be validated end to end.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.tensor.layout import TileLayout


def extract_tile(matrix: np.ndarray, layout: TileLayout, tile_index: int) -> np.ndarray:
    """Return a copy of one tile of ``matrix``."""
    _check_matrix(matrix, layout)
    rs, cs = layout.tile_slices(tile_index)
    return np.ascontiguousarray(matrix[rs, cs])


def scatter_tile(
    matrix: np.ndarray, layout: TileLayout, tile_index: int, data: np.ndarray
) -> None:
    """Write one tile's data back into ``matrix`` in place."""
    _check_matrix(matrix, layout)
    rs, cs = layout.tile_slices(tile_index)
    expected = (rs.stop - rs.start, cs.stop - cs.start)
    if data.shape != expected:
        raise ValueError(
            f"tile {tile_index} expects shape {expected}, got {data.shape}"
        )
    matrix[rs, cs] = data


def gather_tiles(
    matrix: np.ndarray, layout: TileLayout, tile_indices: Iterable[int]
) -> np.ndarray:
    """Pack tiles into a flat contiguous buffer in the given order.

    This is the pre-communication reordering at tile granularity: each tile is
    flattened row-major and tiles are concatenated in the order of
    ``tile_indices`` (normally the execution order of a wave group).
    """
    parts = [extract_tile(matrix, layout, t).ravel() for t in tile_indices]
    if not parts:
        return np.empty(0, dtype=matrix.dtype)
    return np.concatenate(parts)


def scatter_tiles(
    matrix: np.ndarray,
    layout: TileLayout,
    tile_indices: Sequence[int],
    buffer: np.ndarray,
) -> None:
    """Unpack a flat buffer produced by :func:`gather_tiles` back into ``matrix``."""
    offset = 0
    for tile_index in tile_indices:
        rows, cols = layout.tile_shape(tile_index)
        count = rows * cols
        chunk = buffer[offset : offset + count]
        if chunk.size != count:
            raise ValueError(
                f"buffer exhausted while scattering tile {tile_index}: "
                f"needed {count} elements, got {chunk.size}"
            )
        scatter_tile(matrix, layout, tile_index, chunk.reshape(rows, cols))
        offset += count
    if offset != buffer.size:
        raise ValueError(
            f"buffer has {buffer.size - offset} trailing elements after scattering"
        )


def tile_flat_indices(
    layout: TileLayout, tile_indices: Iterable[int], row_limit: tuple[int, int] | None = None
) -> np.ndarray:
    """Flat (row-major) matrix indices of the given tiles, in pack order.

    ``tile_flat_indices(layout, order)[k]`` is the flat position in the
    ``layout.m x layout.n`` matrix of the ``k``-th element of the buffer
    :func:`gather_tiles` would build for the same tile order.  With
    ``row_limit=(start, stop)`` only rows ``start..stop-1`` *within each tile*
    are included (the ReduceScatter sub-tile split).  Precomputing these
    permutations once per reorder plan turns every pre/post-communication
    reorder into a single ``np.take`` / fancy-index assignment.
    """
    row_start, col_start, rows, cols = layout.tile_extents(tile_indices)
    if row_limit is not None:
        row_start = row_start + row_limit[0]
        rows = np.full_like(rows, max(0, row_limit[1] - row_limit[0]))
    # Each tile fills a run of rows * cols buffer elements; an element's
    # offset within its tile's run gives its local row (offset // cols) and
    # local column (offset % cols).
    sizes = rows * cols
    first = np.cumsum(sizes) - sizes
    offset = np.arange(int(sizes.sum()), dtype=np.int64) - np.repeat(first, sizes)
    width = np.repeat(cols, sizes)
    row = np.repeat(row_start, sizes) + offset // width
    return row * layout.n + np.repeat(col_start, sizes) + offset % width


def gather_tiles_indexed(matrix: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Index-based fast path of :func:`gather_tiles`.

    ``indices`` is the permutation from :func:`tile_flat_indices`; the result
    is element-for-element identical to the per-tile reference.
    """
    return np.take(matrix, indices)


def scatter_tiles_indexed(matrix: np.ndarray, indices: np.ndarray, buffer: np.ndarray) -> None:
    """Index-based fast path of :func:`scatter_tiles` (in-place)."""
    if buffer.size != indices.size:
        raise ValueError(
            f"buffer has {buffer.size} elements but the index permutation covers {indices.size}"
        )
    np.put(matrix, indices, buffer)


def split_tile_rows(tile: np.ndarray, parts: int) -> list[np.ndarray]:
    """Split a tile along its rows into ``parts`` equal sub-tiles.

    Used by the ReduceScatter reordering: the ``k``-th sub-tile of every tile
    ends up on GPU ``k``, so every matrix row stays whole on a single GPU.
    """
    rows = tile.shape[0]
    if parts <= 0:
        raise ValueError("parts must be positive")
    if rows % parts != 0:
        raise ValueError(
            f"tile with {rows} rows cannot be split into {parts} equal sub-tiles"
        )
    step = rows // parts
    return [np.ascontiguousarray(tile[k * step : (k + 1) * step]) for k in range(parts)]


def _check_matrix(matrix: np.ndarray, layout: TileLayout) -> None:
    if matrix.ndim != 2 or matrix.shape != (layout.m, layout.n):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match layout "
            f"({layout.m}, {layout.n})"
        )
