"""Pipeline-parallel microbatch schedules: GPipe, 1F1B and zero-bubble.

A schedule assigns every per-microbatch *cell* -- forward (``F``),
input-gradient backward (``B``) and weight-gradient (``W``) -- a position in
one stage's serial execution order.  Timing then follows from greedy list
scheduling: a cell starts when its stage is free *and* its cross-stage
dependencies (plus the inter-stage P2P transfer) have arrived, which is what
:func:`Schedule.replay` computes with :func:`repro.sim.replay.replay_tasks`
on a cell-indexed :class:`~repro.sim.replay.TaskGraph`.  One rule,
:func:`_dependency_rule`, says which cells a cell waits for; the replay
graph, the named :meth:`Schedule.tasks` and the zero-bubble list scheduler
all read it.

The three generators:

* :func:`gpipe_schedule` -- all forwards, then all backwards.  GPipe as
  published relies on activation *recomputation* (only stage-boundary
  activations are stored), so each backward cell carries an extra forward
  pass; that recomputation is overhead, not useful work, which is why GPipe's
  bubble ratio exceeds 1F1B's even at equal memory-free step structure.
* :func:`one_f_one_b_schedule` -- PipeDream-flush / Megatron 1F1B: stage
  ``s`` of ``S`` runs ``min(M, S - s - 1)`` warmup forwards, alternates
  forward/backward in the steady state, and drains backwards in the
  cooldown.  Backward cells bundle dgrad + wgrad.
* :func:`zero_bubble_schedule` -- ZB-H1-style: the backward is split into a
  ``B`` cell (input gradients -- the only part the upstream stage waits for)
  and a deferred ``W`` cell (weight gradients).  ``B``/``F`` keep the 1F1B
  order; the ``W`` cells are placed by a clairvoyant list scheduler that
  searches a small family of placement policies (fill bubbles without
  delaying F/B, fill every idle gap eagerly, run W inline after its B) and
  keeps the fastest.  The inline member reproduces 1F1B's placement with a
  split backward -- upstream stages stop waiting for wgrad work -- so the
  selected step time, and therefore the bubble ratio, is never worse than
  1F1B's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import fsum
from typing import NamedTuple

from repro.gpu.kernels import KernelCategory
from repro.sim.replay import ReplayResult, ReplayTask, TaskGraph, replay_tasks

__all__ = [
    "Cell",
    "StageCostVector",
    "Schedule",
    "gpipe_schedule",
    "one_f_one_b_schedule",
    "zero_bubble_schedule",
    "generate_schedule",
    "stage_peak_inflight",
    "KNOWN_SCHEDULES",
]

#: Trace/category colour per cell kind.
_CELL_CATEGORIES = {
    "F": KernelCategory.GEMM,
    "B": KernelCategory.OTHER,
    "W": KernelCategory.ELEMENTWISE,
}


@dataclass(frozen=True)
class StageCostVector:
    """Realized per-microbatch cell durations of one stage (one method)."""

    forward: float
    dgrad: float
    wgrad: float

    def __post_init__(self) -> None:
        for name in ("forward", "dgrad", "wgrad"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} duration must be non-negative")

    @property
    def backward(self) -> float:
        """The bundled dgrad + wgrad backward cell of GPipe / 1F1B."""
        return self.dgrad + self.wgrad

    @property
    def useful(self) -> float:
        """True per-microbatch compute (excludes any recomputation)."""
        return self.forward + self.dgrad + self.wgrad


class Cell(NamedTuple):
    """One scheduled unit: a microbatch's F/B/W pass through one stage.

    A named tuple rather than a dataclass: schedules hold hundreds of
    thousands of cells, and tuples are several times cheaper to build.
    """

    stage: int
    microbatch: int
    kind: str  # "F" | "B" | "W"
    duration: float

    @property
    def name(self) -> str:
        return f"{self.kind}{self.microbatch}@s{self.stage}"


def _dependency_rule(
    kind: str, stage: int, last: int, fwd_delay: float, bwd_delay: float
) -> tuple[tuple[str, int, float], ...]:
    """``(kind, stage, delay)`` of each cell a ``kind`` cell on ``stage`` waits for.

    Every edge stays within one microbatch: a forward waits for the previous
    stage's forward plus the activation transfer, an input-gradient backward
    for its own forward and the next stage's backward plus the gradient
    transfer, and a weight-gradient cell for its own backward.  ``last`` is
    the index of the last stage.
    """
    if kind == "F":
        return (("F", stage - 1, fwd_delay),) if stage > 0 else ()
    if kind == "B":
        if stage < last:
            return (("F", stage, 0.0), ("B", stage + 1, bwd_delay))
        return (("F", stage, 0.0),)
    if kind == "W":
        return (("B", stage, 0.0),)
    raise ValueError(f"unknown cell kind {kind!r}")


@dataclass(frozen=True)
class Schedule:
    """Per-stage execution orders plus everything timing depends on."""

    name: str
    num_stages: int
    num_microbatches: int
    #: Serial execution order of each stage (index = stage).
    stage_orders: tuple[tuple[Cell, ...], ...]
    fwd_delay: float  # P2P transfer of forward activations between stages
    bwd_delay: float  # P2P transfer of backward gradients between stages
    #: Non-useful (recomputation) work per stage per microbatch, carried
    #: inside backward cells (GPipe only).
    recompute: tuple[float, ...] = ()
    #: True when backward is split into B + W cells (zero-bubble).
    split_backward: bool = False

    def cells(self) -> list[Cell]:
        return [cell for order in self.stage_orders for cell in order]

    def dependencies(self, cell: Cell) -> list[tuple[str, float]]:
        """Cross-stage / cross-kind dependency edges of one cell."""
        return [
            (f"{kind}{cell.microbatch}@s{stage}", delay)
            for kind, stage, delay in _dependency_rule(
                cell.kind, cell.stage, self.num_stages - 1, self.fwd_delay, self.bwd_delay
            )
        ]

    def tasks(self) -> list[ReplayTask]:
        """The schedule as replayable tasks (one serial resource per stage)."""
        return [
            ReplayTask(
                name=cell.name,
                resource=f"stage{cell.stage}",
                duration=cell.duration,
                deps=tuple(self.dependencies(cell)),
                category=_CELL_CATEGORIES[cell.kind],
            )
            for cell in self.cells()
        ]

    def _task_graph(self) -> TaskGraph | None:
        """:meth:`tasks` as a cell-indexed graph, or ``None`` if malformed.

        Cell ``i`` is the ``i``-th cell of :meth:`cells`; a dependency is
        found through per-stage, per-kind microbatch tables instead of by
        name.  Stage orders that do not hold each (kind, microbatch) cell of
        their own stage at most once, that leave an ``F`` or ``B`` cell out,
        or that carry a negative duration or delay give ``None``.
        """
        num_stages = self.num_stages
        microbatches = self.num_microbatches
        if len(self.stage_orders) != num_stages or min(self.fwd_delay, self.bwd_delay) < 0:
            return None
        # index[kind][stage][microbatch] -> cell index (-1: no such cell).
        index = {
            kind: [[-1] * microbatches for _ in range(num_stages)] for kind in _CELL_CATEGORIES
        }
        columns = []
        position = 0
        for stage, order in enumerate(self.stage_orders):
            if not order:
                continue
            cell_stages, mbs, kinds, durations = zip(*order)
            present = set(kinds)
            if (cell_stages.count(stage) != len(order) or min(durations) < 0
                    or not present <= _CELL_CATEGORIES.keys()
                    or min(mbs) < 0 or max(mbs) >= microbatches):
                return None
            tables = {kind: index[kind][stage] for kind in present}
            for kind, mb in zip(kinds, mbs):
                table = tables[kind]
                if table[mb] >= 0:
                    return None
                table[mb] = position
                position += 1
            columns.append((stage, kinds, mbs, durations, present))
        # Every dependency points at an F or B cell, so full F/B tables
        # guarantee that every dependency resolves.
        if any(-1 in table for kind in "FB" for table in index[kind]):
            return None

        last = num_stages - 1
        names: list[str] = []
        resources: list[str] = []
        all_durations: list[float] = []
        categories: list[KernelCategory] = []
        deps: list[tuple[tuple[int, float], ...]] = []
        for stage, kinds, mbs, durations, present in columns:
            # Per kind, the dependency list of each microbatch's cell.
            waits = {}
            for kind in present:
                rule = _dependency_rule(kind, stage, last, self.fwd_delay, self.bwd_delay)
                edges = [zip(index[dep_kind][dep_stage], repeat(delay))
                         for dep_kind, dep_stage, delay in rule]
                waits[kind] = list(zip(*edges)) if edges else [()] * microbatches
            names += [f"{kind}{mb}@s{stage}" for kind, mb in zip(kinds, mbs)]
            resources += [f"stage{stage}"] * len(kinds)
            all_durations += durations
            categories += map(_CELL_CATEGORIES.__getitem__, kinds)
            deps += [waits[kind][mb] for kind, mb in zip(kinds, mbs)]
        return TaskGraph(names, resources, all_durations, categories, deps)

    def replay(self, record_trace: bool = False) -> ReplayResult:
        """Greedy list-scheduled execution of the stage orders.

        Identical to replaying :meth:`tasks`, which a malformed schedule
        falls back to so that it raises the replay's own error.
        """
        graph = self._task_graph()
        return replay_tasks(self.tasks() if graph is None else graph, record_trace=record_trace)

    def useful_work(self) -> float:
        """Total F+B+W compute across all stages (recomputation excluded)."""
        overhead = list(self.recompute) or [0.0] * self.num_stages
        return fsum(
            cell.duration - (overhead[cell.stage] if cell.kind == "B" else 0.0)
            for cell in self.cells()
        )


def _check_costs(stages: tuple[StageCostVector, ...], microbatches: int) -> None:
    if not stages:
        raise ValueError("a schedule needs at least one stage")
    if microbatches < 1:
        raise ValueError("microbatches must be >= 1")


def gpipe_schedule(
    stages: tuple[StageCostVector, ...],
    microbatches: int,
    fwd_delay: float = 0.0,
    bwd_delay: float = 0.0,
) -> Schedule:
    """GPipe: all forwards, then all backwards, with activation recompute."""
    _check_costs(stages, microbatches)
    orders = []
    for index, cost in enumerate(stages):
        order = [Cell(index, m, "F", cost.forward) for m in range(microbatches)]
        # Rematerialisation: the backward cell re-runs the stage's forward
        # before computing dgrad + wgrad (GPipe stores only boundary
        # activations).
        order += [
            Cell(index, m, "B", cost.forward + cost.backward) for m in range(microbatches)
        ]
        orders.append(tuple(order))
    return Schedule(
        name="gpipe",
        num_stages=len(stages),
        num_microbatches=microbatches,
        stage_orders=tuple(orders),
        fwd_delay=fwd_delay,
        bwd_delay=bwd_delay,
        recompute=tuple(cost.forward for cost in stages),
    )


def _one_f_one_b_orders(num_stages: int, microbatches: int) -> list[list[tuple[str, int]]]:
    """The (kind, microbatch) order of every stage under 1F1B."""
    orders = []
    for stage in range(num_stages):
        warmup = min(microbatches, num_stages - stage - 1)
        order: list[tuple[str, int]] = [("F", m) for m in range(warmup)]
        for i in range(microbatches - warmup):
            order.append(("F", warmup + i))
            order.append(("B", i))
        order += [("B", m) for m in range(microbatches - warmup, microbatches)]
        orders.append(order)
    return orders


def one_f_one_b_schedule(
    stages: tuple[StageCostVector, ...],
    microbatches: int,
    fwd_delay: float = 0.0,
    bwd_delay: float = 0.0,
) -> Schedule:
    """1F1B (PipeDream-flush): warmup forwards, steady 1F1B, cooldown."""
    _check_costs(stages, microbatches)
    orders = []
    for stage, order in enumerate(_one_f_one_b_orders(len(stages), microbatches)):
        cost = stages[stage]
        orders.append(
            tuple(
                Cell(stage, m, kind, cost.forward if kind == "F" else cost.backward)
                for kind, m in order
            )
        )
    return Schedule(
        name="1f1b",
        num_stages=len(stages),
        num_microbatches=microbatches,
        stage_orders=tuple(orders),
        fwd_delay=fwd_delay,
        bwd_delay=bwd_delay,
    )


#: W-placement policies the zero-bubble generator searches over (in
#: tie-break order).  ``defer`` fills gaps only when the W provably cannot
#: delay the next F/B cell and drains the rest after the cooldown; ``eager``
#: fills every idle gap even when the W overshoots into the next cell's
#: start (keeping the stage busy at the cost of a small delay); ``inline``
#: runs each W directly after its B, which reproduces 1F1B's placement but
#: with the split backward -- downstream stages no longer wait for the wgrad
#: part, so its step time never exceeds 1F1B's.
_ZB_POLICIES = ("defer", "eager", "inline")


@lru_cache(maxsize=64)
def _one_f_one_b_runs(num_stages: int, microbatches: int) -> tuple[tuple[int, int, int], ...]:
    """``(stage, first, stop)`` slices of the 1F1B orders in dependency order.

    Visiting the stages round-robin, each stage runs through its order until
    it reaches a cell that waits for a cell not yet visited.  Replaying the
    slices in sequence therefore reaches every cell after the cells it waits
    for.  The slices depend only on the pipeline shape, not on costs.
    """
    orders = _one_f_one_b_orders(num_stages, microbatches)
    last = num_stages - 1
    placed = {kind: [[False] * microbatches for _ in range(num_stages)] for kind in "FB"}
    waits = [
        {
            kind: [placed[dep_kind][dep_stage] for dep_kind, dep_stage, _ in
                   _dependency_rule(kind, stage, last, 0.0, 0.0)]
            for kind in "FB"
        }
        for stage in range(num_stages)
    ]
    heads = [0] * num_stages
    runs = []
    remaining = sum(map(len, orders))
    while remaining:
        progressed = False
        for stage, order in enumerate(orders):
            head = first = heads[stage]
            while head < len(order):
                kind, mb = order[head]
                if not all(table[mb] for table in waits[stage][kind]):
                    break
                placed[kind][stage][mb] = True
                head += 1
            if head > first:
                runs.append((stage, first, head))
                heads[stage] = head
                remaining -= head - first
                progressed = True
        if not progressed:  # pragma: no cover - the 1F1B order is feasible
            raise RuntimeError("1F1B order stalled (infeasible order)")
    return tuple(runs)


def _zero_bubble_candidate(
    stages: tuple[StageCostVector, ...],
    microbatches: int,
    fwd_delay: float,
    bwd_delay: float,
    policy: str,
) -> tuple[float, list[list[tuple[str, int, float]]]]:
    """List-schedule the split backward under one W-placement policy.

    Returns the step time and each stage's order as ``(kind, microbatch,
    duration)`` tuples.
    """
    num_stages = len(stages)
    last = num_stages - 1
    fb_orders = _one_f_one_b_orders(num_stages, microbatches)
    # ends[kind][stage][microbatch]: end time of a placed F/B cell.
    ends = {kind: [[None] * microbatches for _ in range(num_stages)] for kind in "FB"}
    free = [0.0] * num_stages
    pending_w: list[deque[int]] = [deque() for _ in range(num_stages)]
    orders: list[list[tuple[str, int, float]]] = [[] for _ in range(num_stages)]
    defer = policy == "defer"
    inline = policy == "inline"
    # Per stage and kind: (end table, delay) of each cell a cell waits for,
    # the cell duration (a B cell carries only dgrad) and its own end table.
    plans = []
    for stage, cost in enumerate(stages):
        plan = {}
        for kind, duration in (("F", cost.forward), ("B", cost.dgrad)):
            rule = _dependency_rule(kind, stage, last, fwd_delay, bwd_delay)
            waits = [(ends[dep_kind][dep_stage], delay) for dep_kind, dep_stage, delay in rule]
            plan[kind] = (waits, duration, ends[kind][stage])
        plans.append(plan)
    # A stage's placements depend only on its own order and on the end times
    # of the cells it waits for, so any visit order that reaches those cells
    # first yields the same schedule.
    for stage, first, stop in _one_f_one_b_runs(num_stages, microbatches):
        plan = plans[stage]
        order = orders[stage]
        pending = pending_w[stage]
        wgrad = stages[stage].wgrad
        clock = free[stage]
        for kind, mb in fb_orders[stage][first:stop]:
            waits, duration, own_ends = plan[kind]
            ready = max([table[mb] + delay for table, delay in waits], default=0.0)
            # Fill the gap in front of this cell with deferred W work:
            # `defer` only when the W provably cannot delay the cell, `eager`
            # whenever the stage would otherwise idle (inline keeps no pool,
            # so its loop never runs).
            while pending and (clock + wgrad <= ready if defer else clock < ready):
                order.append(("W", pending.popleft(), wgrad))
                clock += wgrad
            clock = (ready if ready > clock else clock) + duration
            order.append((kind, mb, duration))
            own_ends[mb] = clock
            if kind == "B":
                if inline:
                    order.append(("W", mb, wgrad))
                    clock += wgrad
                else:
                    pending.append(mb)
        free[stage] = clock
    for stage in range(num_stages):
        wgrad = stages[stage].wgrad
        for mb in pending_w[stage]:
            orders[stage].append(("W", mb, wgrad))
            free[stage] += wgrad
    # Stage clocks only move forward, so each stage's last end is its latest.
    return max(free), orders


def zero_bubble_schedule(
    stages: tuple[StageCostVector, ...],
    microbatches: int,
    fwd_delay: float = 0.0,
    bwd_delay: float = 0.0,
) -> Schedule:
    """Zero-bubble (ZB-H1-style): split backward, W cells fill the bubbles.

    F and B keep the 1F1B order (B now carries only the input gradients, so
    the cross-stage backward chain is shorter); the W cells are placed by a
    clairvoyant list scheduler that searches the small family of placement
    policies in :data:`_ZB_POLICIES` and keeps the fastest schedule.  The
    ``inline`` member of that family strictly dominates 1F1B (same placement,
    but upstream stages stop waiting for wgrad work), so the selected step
    time -- and therefore the bubble ratio -- is never worse than 1F1B's.
    """
    _check_costs(stages, microbatches)
    best_step, best_orders = None, None
    for policy in _ZB_POLICIES:
        step, orders = _zero_bubble_candidate(
            stages, microbatches, fwd_delay, bwd_delay, policy
        )
        if best_step is None or step < best_step:
            best_step, best_orders = step, orders
    return Schedule(
        name="zero-bubble",
        num_stages=len(stages),
        num_microbatches=microbatches,
        stage_orders=tuple(
            tuple(Cell(stage, mb, kind, duration) for kind, mb, duration in order)
            for stage, order in enumerate(best_orders)
        ),
        fwd_delay=fwd_delay,
        bwd_delay=bwd_delay,
        split_backward=True,
    )


#: Schedule slug -> generator, in canonical (bubble-decreasing) order.
KNOWN_SCHEDULES = {
    "gpipe": gpipe_schedule,
    "1f1b": one_f_one_b_schedule,
    "zero-bubble": zero_bubble_schedule,
}


def generate_schedule(
    name: str,
    stages: tuple[StageCostVector, ...],
    microbatches: int,
    fwd_delay: float = 0.0,
    bwd_delay: float = 0.0,
) -> Schedule:
    """Generate a named schedule over per-stage cell costs."""
    try:
        generator = KNOWN_SCHEDULES[name]
    except KeyError:
        raise KeyError(
            f"unknown schedule {name!r}; known: {sorted(KNOWN_SCHEDULES)}"
        ) from None
    return generator(stages, microbatches, fwd_delay=fwd_delay, bwd_delay=bwd_delay)


def stage_peak_inflight(schedule: Schedule) -> tuple[int, ...]:
    """Peak number of microbatches whose activations a stage holds at once.

    Walks each stage's serial order: a forward cell admits one microbatch's
    activations (``+1``); they are freed once the weight gradient no longer
    needs them -- at the ``W`` cell when the backward is split (zero-bubble
    defers wgrad, so activations live *longer* than under 1F1B), at the
    bundled ``B`` cell otherwise.  The stage order is a valid serialisation
    of the replayed execution, so the walk's running peak is exactly the
    schedule's activation high-water mark in microbatch units; the planner
    turns it into bytes (GPipe's recomputation stores only the stage-boundary
    activation, the other schedules keep every layer's).
    """
    peaks = []
    for order in schedule.stage_orders:
        live = peak = 0
        release = "W" if schedule.split_backward else "B"
        for cell in order:
            if cell.kind == "F":
                live += 1
                peak = max(peak, live)
            elif cell.kind == release:
                live -= 1
        peaks.append(peak)
    return tuple(peaks)
