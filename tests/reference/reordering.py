"""Per-tile / per-row oracles of the reorder pipelines in :mod:`repro.core.reordering`.

Each function runs one functional pipeline end to end -- the plain
collective as the reference result, then pre-communication reorder,
collective and post-communication reorder -- with the straightforward
per-tile (AllReduce, ReduceScatter) or per-row (All-to-All) packing loops
that the production pipelines replace with cached index permutations.  The
production outputs must equal these bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.comm.collectives import all_reduce, all_to_all, all_to_all_rows, reduce_scatter_flat
from repro.core.reordering import PipelineResult, ReorderPlan
from repro.tensor.tiles import gather_tiles, scatter_tiles


def allreduce_pipeline(matrices: Sequence[np.ndarray], plan: ReorderPlan) -> PipelineResult:
    """AllReduce, packing and unpacking one tile at a time."""
    layout = plan.layout
    reference = all_reduce(matrices)
    inputs = [np.asarray(m, dtype=np.float64) for m in matrices]
    outputs = [np.zeros((layout.m, layout.n), dtype=np.float64) for _ in matrices]
    for group in plan.groups:
        buffers = [gather_tiles(m, layout, group.tile_order) for m in inputs]
        reduced = all_reduce(buffers)
        for gpu, out in enumerate(outputs):
            scatter_tiles(out, layout, group.tile_order, reduced[gpu])
    return PipelineResult(outputs=outputs, reference=reference, groups_communicated=plan.num_groups)


def reduce_scatter_pipeline(
    matrices: Sequence[np.ndarray],
    plan: ReorderPlan,
    elementwise: Callable[[np.ndarray], np.ndarray] | None = None,
) -> PipelineResult:
    """ReduceScatter + element-wise + AllGather, one sub-tile at a time."""
    layout = plan.layout
    n = plan.n_gpus
    op = elementwise if elementwise is not None else (lambda x: x)
    inputs = [np.asarray(m, dtype=np.float64) for m in matrices]
    reference_full = op(np.sum(np.stack(inputs), axis=0))
    reference = [reference_full.copy() for _ in range(n)]

    sub_rows = layout.tile_m // n
    owned_values = [np.zeros((layout.m, layout.n), dtype=np.float64) for _ in range(n)]
    owned_rows: list[set[int]] = [set() for _ in range(n)]
    for group in plan.groups:
        # The k-th contiguous chunk holds the k-th sub-tile of every tile.
        buffers = []
        for matrix in inputs:
            chunks = []
            for k in range(n):
                for tile in group.tile_order:
                    rs, cs = layout.tile_slices(tile)
                    chunks.append(matrix[rs.start + k * sub_rows : rs.start + (k + 1) * sub_rows, cs].ravel())
            buffers.append(np.concatenate(chunks))
        received = reduce_scatter_flat(buffers)
        for k in range(n):
            chunk = received[k]
            offset = 0
            for tile in group.tile_order:
                rs, cs = layout.tile_slices(tile)
                block = chunk[offset : offset + sub_rows * layout.tile_n].reshape(sub_rows, layout.tile_n)
                row_start = rs.start + k * sub_rows
                owned_values[k][row_start : row_start + sub_rows, cs] = block
                owned_rows[k].update(range(row_start, row_start + sub_rows))
                offset += sub_rows * layout.tile_n

    shard_rows = [sorted(rows) for rows in owned_rows]
    shards = [
        op(owned_values[k][rows, :]) if rows else np.empty((0, layout.n))
        for k, rows in enumerate(shard_rows)
    ]
    gathered = np.concatenate(shards, axis=0)
    row_order = [r for rows in shard_rows for r in rows]
    outputs = []
    for _ in range(n):
        restored = np.empty_like(gathered)
        restored[row_order, :] = gathered
        outputs.append(restored)
    return PipelineResult(
        outputs=outputs, reference=reference, groups_communicated=plan.num_groups,
        extras={"owned_rows": shard_rows, "pre_allgather_shards": shards},
    )


@dataclass(frozen=True)
class _Subtoken:
    """One row segment of one tile, routed to a destination GPU."""

    source_row: int
    col_block: int
    data: np.ndarray


def all_to_all_pipeline(
    matrices: Sequence[np.ndarray],
    destinations: Sequence[np.ndarray],
    plans: Sequence[ReorderPlan],
) -> PipelineResult:
    """All-to-All, routing one sub-token (row segment of a tile) at a time."""
    n = len(matrices)
    reference = all_to_all_rows(matrices, destinations)
    inputs = [np.asarray(m, dtype=np.float64) for m in matrices]
    dest_arrays = [np.asarray(d) for d in destinations]
    max_groups = max(plan.num_groups for plan in plans)
    # recv[dst][src] maps source row -> {col_block -> data}
    recv: list[list[dict[int, dict[int, np.ndarray]]]] = [
        [dict() for _ in range(n)] for _ in range(n)
    ]

    for group_round in range(max_groups):
        # Each source packs one memory pool per destination for this round.
        send: list[list[list[_Subtoken]]] = [[[] for _ in range(n)] for _ in range(n)]
        for src in range(n):
            plan = plans[src]
            if group_round >= plan.num_groups:
                continue
            layout = plan.layout
            for tile in plan.groups[group_round].tile_order:
                rs, cs = layout.tile_slices(tile)
                _, col_block = layout.tile_coords(tile)
                for row in range(rs.start, rs.stop):
                    send[src][int(dest_arrays[src][row])].append(
                        _Subtoken(source_row=row, col_block=col_block, data=inputs[src][row, cs].copy())
                    )
        payload = [
            [
                np.concatenate([s.data for s in send[src][dst]]) if send[src][dst] else np.empty(0)
                for dst in range(n)
            ]
            for src in range(n)
        ]
        received = all_to_all(payload)
        for dst in range(n):
            for src in range(n):
                buffer = received[dst][src]
                offset = 0
                for token in send[src][dst]:
                    size = token.data.size
                    recv[dst][src].setdefault(token.source_row, {})[token.col_block] = (
                        buffer[offset : offset + size]
                    )
                    offset += size

    # Assemble complete tokens ordered by (source GPU, source row index).
    outputs = []
    for dst in range(n):
        rows = []
        for src in range(n):
            expected_blocks = plans[src].layout.grid_n
            for source_row in sorted(recv[dst][src]):
                blocks = recv[dst][src][source_row]
                if sorted(blocks) != list(range(expected_blocks)):
                    raise ValueError(
                        f"token (src={src}, row={source_row}) arrived incomplete at GPU {dst}"
                    )
                rows.append(np.concatenate([blocks[cb] for cb in range(expected_blocks)]))
        outputs.append(np.stack(rows) if rows else np.empty((0, plans[0].layout.n)))
    return PipelineResult(outputs=outputs, reference=reference, groups_communicated=max_groups)
