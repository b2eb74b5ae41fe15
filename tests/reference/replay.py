"""Event-by-event oracle of :func:`repro.sim.replay.replay_tasks`.

Greedy list scheduling realized literally on the
:class:`~repro.sim.engine.EventEngine`: after every completion, scan the
resources in first-appearance order and start each idle resource's head task
once all its dependencies have finished.  The production Kahn sweep must
match it bit for bit -- spans, makespan, busy/work folds, error messages and,
with ``record_trace=True``, the trace's span order.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.sim.engine import EventEngine
from repro.sim.replay import ReplayResult, ReplayTask, SpeedProfile
from repro.sim.trace import Trace


def replay_reference(
    tasks: list[ReplayTask],
    record_trace: bool = False,
    resource_profiles: Mapping[str, SpeedProfile] | None = None,
) -> ReplayResult:
    """Replay ``tasks`` event by event (same contract as ``replay_tasks``)."""
    _validate(tasks)
    queues: dict[str, list[ReplayTask]] = {}
    for task in tasks:
        queues.setdefault(task.resource, []).append(task)
    resources = list(queues)

    engine = EventEngine()
    trace = Trace() if record_trace else None
    heads = dict.fromkeys(resources, 0)  # next queue index per resource
    running: dict[str, bool] = dict.fromkeys(resources, False)
    free_at: dict[str, float] = dict.fromkeys(resources, 0.0)
    ends: dict[str, float] = {}
    spans: dict[str, tuple[float, float]] = {}

    def finish(task: ReplayTask, start: float) -> None:
        ends[task.name] = engine.now
        spans[task.name] = (start, engine.now)
        if trace is not None:
            trace.record(task.resource, task.name, start, engine.now, task.category)
        running[task.resource] = False
        free_at[task.resource] = engine.now
        pump()

    def pump() -> None:
        # Start every resource head whose dependencies have completed.
        for resource in resources:
            if running[resource] or heads[resource] >= len(queues[resource]):
                continue
            task = queues[resource][heads[resource]]
            if any(dep not in ends for dep, _ in task.deps):
                continue
            ready = free_at[resource]
            for dep, delay in task.deps:
                ready = max(ready, ends[dep] + delay)
            start = max(ready, engine.now)
            heads[resource] += 1
            running[resource] = True
            profile = (resource_profiles or {}).get(resource)
            end = start + task.duration if profile is None else profile.finish_time(
                start, task.duration
            )
            engine.schedule(end, finish, task, start)

    engine.schedule(0.0, pump)
    engine.run()
    stuck = [
        queues[resource][heads[resource]].name
        for resource in resources
        if heads[resource] < len(queues[resource])
    ]
    if stuck:
        raise RuntimeError(
            f"replay deadlocked: tasks {stuck} wait on dependencies that can "
            "never finish (cyclic schedule?)"
        )

    # Fold python floats in queue order.
    busy = {
        resource: sum(spans[task.name][1] - spans[task.name][0] for task in queue)
        for resource, queue in queues.items()
    }
    work = {resource: sum(task.duration for task in queue) for resource, queue in queues.items()}
    return ReplayResult(
        makespan=max((end for _, end in spans.values()), default=0.0),
        spans=spans, resources=resources, trace=trace, busy=busy, work=work,
    )


def _validate(tasks: list[ReplayTask]) -> None:
    names = set()
    for task in tasks:
        if task.name in names:
            raise ValueError(f"duplicate task name {task.name!r}")
        names.add(task.name)
    for task in tasks:
        for dep, _ in task.deps:
            if dep not in names:
                raise ValueError(f"task {task.name!r} depends on unknown task {dep!r}")
