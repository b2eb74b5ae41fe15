"""Reference oracles of the pipeline schedules.

* :func:`critical_path` -- an independent critical path of a schedule, the
  oracle of :meth:`repro.pp.schedule.Schedule.replay`'s makespan, built
  straight from the cell DAG rather than from the replay tasks;
* :func:`zero_bubble_candidate` / :func:`zero_bubble_schedule` -- the
  straightforward zero-bubble list scheduler :mod:`repro.pp.schedule` was
  optimized from: it visits the stages round-robin, keys every placed cell's
  end time by ``(kind, stage, microbatch)`` in a dict, restates the F/B
  dependency rule inline and builds a :class:`Cell` for every candidate.
"""

from __future__ import annotations

from repro.pp.schedule import (
    _ZB_POLICIES,
    Cell,
    Schedule,
    StageCostVector,
    _check_costs,
    _one_f_one_b_orders,
)


def critical_path(schedule: Schedule) -> float:
    """Step time recomputed independently from the cell DAG.

    Kahn-style longest path over the union of the cross-stage dependency
    edges and the per-stage serial-order edges -- no event engine, no
    resource bookkeeping.  Must equal ``schedule.replay().makespan`` exactly
    (the property suite asserts bit-equality).
    """
    cells = {cell.name: cell for cell in schedule.cells()}
    edges: dict[str, list[tuple[str, float]]] = {name: [] for name in cells}
    indegree = dict.fromkeys(cells, 0)
    for cell in cells.values():
        for dep, delay in schedule.dependencies(cell):
            edges[dep].append((cell.name, delay))
            indegree[cell.name] += 1
    for order in schedule.stage_orders:
        for earlier, later in zip(order, order[1:]):
            edges[earlier.name].append((later.name, 0.0))
            indegree[later.name] += 1

    start = dict.fromkeys(cells, 0.0)
    queue = [name for name, degree in indegree.items() if degree == 0]
    finished: dict[str, float] = {}
    while queue:
        name = queue.pop()
        end = start[name] + cells[name].duration
        finished[name] = end
        for successor, delay in edges[name]:
            start[successor] = max(start[successor], end + delay)
            indegree[successor] -= 1
            if indegree[successor] == 0:
                queue.append(successor)
    if len(finished) != len(cells):
        raise RuntimeError("schedule DAG is cyclic")
    return max(finished.values(), default=0.0)


def zero_bubble_candidate(
    stages: tuple[StageCostVector, ...],
    microbatches: int,
    fwd_delay: float,
    bwd_delay: float,
    policy: str,
) -> tuple[float, Schedule]:
    """List-schedule the split backward under one W-placement policy."""
    num_stages = len(stages)
    last = num_stages - 1
    fb_orders = _one_f_one_b_orders(num_stages, microbatches)

    ends: dict[tuple[str, int, int], float] = {}  # (kind, stage, mb) -> end
    free = [0.0] * num_stages
    heads = [0] * num_stages
    pending_w: list[list[int]] = [[] for _ in range(num_stages)]
    orders: list[list[Cell]] = [[] for _ in range(num_stages)]

    def place(stage: int, kind: str, mb: int, duration: float, start: float) -> None:
        orders[stage].append(Cell(stage, mb, kind, duration))
        ends[(kind, stage, mb)] = start + duration
        free[stage] = start + duration

    remaining = sum(len(order) for order in fb_orders)
    while remaining:
        progressed = False
        for stage in range(num_stages):
            cost = stages[stage]
            while heads[stage] < len(fb_orders[stage]):
                kind, mb = fb_orders[stage][heads[stage]]
                if kind == "F":
                    dep_keys = [("F", stage - 1, mb)] if stage > 0 else []
                    delays = [fwd_delay]
                    duration = cost.forward
                else:
                    dep_keys = [("F", stage, mb)]
                    delays = [0.0]
                    if stage < last:
                        dep_keys.append(("B", stage + 1, mb))
                        delays.append(bwd_delay)
                    duration = cost.dgrad
                if any(key not in ends for key in dep_keys):
                    break
                ready = max(
                    (ends[key] + delay for key, delay in zip(dep_keys, delays)),
                    default=0.0,
                )
                while pending_w[stage] and (
                    free[stage] + cost.wgrad <= ready
                    if policy == "defer"
                    else free[stage] < ready
                ):
                    place(stage, "W", pending_w[stage].pop(0), cost.wgrad, free[stage])
                place(stage, kind, mb, duration, max(free[stage], ready))
                if kind == "B":
                    if policy == "inline":
                        place(stage, "W", mb, cost.wgrad, free[stage])
                    else:
                        pending_w[stage].append(mb)
                heads[stage] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise RuntimeError("zero-bubble generation stalled (infeasible order)")
    for stage in range(num_stages):
        for mb in pending_w[stage]:
            place(stage, "W", mb, stages[stage].wgrad, free[stage])
    schedule = Schedule(
        name="zero-bubble",
        num_stages=num_stages,
        num_microbatches=microbatches,
        stage_orders=tuple(tuple(order) for order in orders),
        fwd_delay=fwd_delay,
        bwd_delay=bwd_delay,
        split_backward=True,
    )
    return max(ends.values(), default=0.0), schedule


def zero_bubble_schedule(
    stages: tuple[StageCostVector, ...],
    microbatches: int,
    fwd_delay: float = 0.0,
    bwd_delay: float = 0.0,
) -> Schedule:
    """The fastest :func:`zero_bubble_candidate` (first policy wins ties)."""
    _check_costs(stages, microbatches)
    best: tuple[float, Schedule] | None = None
    for policy in _ZB_POLICIES:
        step, candidate = zero_bubble_candidate(
            stages, microbatches, fwd_delay, bwd_delay, policy
        )
        if best is None or step < best[0]:
            best = (step, candidate)
    return best[1]
