"""Independent critical path of a pipeline schedule.

Oracle of :meth:`repro.pp.schedule.Schedule.replay`'s makespan, built
straight from the cell DAG rather than from the replay tasks.
"""

from __future__ import annotations

from repro.pp.schedule import Schedule


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
