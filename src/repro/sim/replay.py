"""Dependency-aware replay of tasks on serial resources (multi-stage replay).

Several subsystems need the same small scheduling semantic (the pipeline
scheduler replays stage timelines with it):

* every :class:`ReplayTask` runs on one named *resource* (a pipeline stage, a
  CUDA stream, ...) that executes its tasks strictly in list order, one at a
  time;
* a task additionally waits for its *dependencies* -- other tasks, each with
  an optional extra delay after the dependency finishes (e.g. a P2P transfer
  between pipeline stages);
* a task therefore starts at ``max(resource free, max(dep end + delay))``,
  which is exactly the greedy list-scheduling rule.

Greedy list scheduling on FIFO serial resources is longest-path evaluation
over the dependency DAG extended with per-resource chain edges, so one scalar
Kahn sweep resolves every start and end time.  When a trace is requested, a
heap pass over the resolved end times lays the spans out in the order an
event-by-event replay completes them (see :func:`_trace`).  The event-driven
oracle the sweep is checked against, span for span and trace order included,
lives in ``tests/reference/replay.py``.

The sweep runs on a :class:`TaskGraph`: tasks addressed by list index, with
``(index, delay)`` dependency lists.  :func:`replay_tasks` takes either such
a graph (callers that already know their task indices, like the pipeline
schedules, build it directly) or a list of named :class:`ReplayTask` objects,
whose dependency names the sweep resolves as it goes.

The result carries per-task spans, per-resource busy times and a
:class:`~repro.sim.trace.Trace` (one stream per resource) ready for Chrome
trace export.  An order that can never make progress (a dependency cycle
through the resource orders) raises instead of hanging.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import itemgetter, sub
from typing import Protocol

from repro.gpu.kernels import KernelCategory
from repro.sim.trace import Span, Trace

__all__ = ["ReplayTask", "ReplayResult", "SpeedProfile", "TaskGraph", "replay_tasks"]


class SpeedProfile(Protocol):
    """Anything that can stretch a task's duration over wall-clock time.

    ``finish_time(start, work)`` returns when ``work`` nominal seconds of
    work complete if started at ``start``.  The fault layer's
    :class:`repro.faults.timeline.SpeedTimeline` satisfies this; the protocol
    keeps ``sim`` free of a dependency on ``faults``.
    """

    def finish_time(self, start: float, work: float) -> float: ...


@dataclass(frozen=True)
class ReplayTask:
    """One unit of work on a serial resource.

    ``deps`` is a tuple of ``(task name, extra delay)`` pairs: the task may
    start only once every named dependency has finished plus its delay.
    """

    name: str
    resource: str
    duration: float
    deps: tuple[tuple[str, float], ...] = ()
    category: KernelCategory = KernelCategory.OTHER

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"task {self.name!r} has a negative duration")
        for dep, delay in self.deps:
            if delay < 0:
                raise ValueError(f"task {self.name!r} dependency {dep!r} has a negative delay")


@dataclass
class ReplayResult:
    """Realized timeline of one replay.

    ``busy`` is *occupancy*: the wall-clock length of every span the resource
    executed, straggler stretch included.  ``work`` is the *nominal* duration
    sum of the same tasks -- what the resource would have been busy for at
    full speed.  The two coincide (up to float association) on unprofiled
    replays and diverge exactly by the fault stretch under a
    :class:`SpeedProfile`.
    """

    makespan: float
    #: Task name -> (start, end) in replay time.
    spans: dict[str, tuple[float, float]]
    #: Resource names in first-appearance order.
    resources: list[str]
    trace: Trace | None = None
    #: Stretched occupancy per resource (wall-clock span lengths).
    busy: dict[str, float] = field(default_factory=dict)
    #: Nominal work per resource (task durations, stretch excluded).
    work: dict[str, float] = field(default_factory=dict)

    def start(self, name: str) -> float:
        return self.spans[name][0]

    def end(self, name: str) -> float:
        return self.spans[name][1]

    def idle(self, resource: str) -> float:
        """Wall-clock time the resource spends *unoccupied* within the makespan.

        Straggler-stretched spans count as occupied: a slowed stage is not
        idle, it is slow.  Use :meth:`stall` for the useful-work view.
        """
        return self.makespan - self.busy[resource]

    def stall(self, resource: str) -> float:
        """Makespan share not covered by *nominal* work on the resource.

        Unlike :meth:`idle`, straggler stretch counts as stalled time, so
        this is the number that exposes fault-induced bubbles: it answers
        "how much of the step was not useful work on this resource".
        """
        return self.makespan - self.work[resource]


@dataclass(slots=True)
class TaskGraph:
    """Replay input addressed by task index: task ``i`` is ``names[i]``.

    Task ``i`` runs on ``resources[i]`` for ``durations[i]`` seconds, is
    drawn as ``categories[i]``, and waits for every ``(key, delay)`` in
    ``deps[i]``: the task the key addresses finished, plus ``delay``.  A key
    is a task index or, when ``index`` is given, a key of ``index``, which
    maps it to one (:func:`replay_tasks` resolves task names this way while
    it sweeps).  The builder vouches for unique names and non-negative
    durations and delays.  ``len()`` is the task count.
    """

    names: Sequence[str]
    resources: Sequence[str]
    durations: Sequence[float]
    categories: Sequence[KernelCategory]
    deps: Sequence[Sequence[tuple[Hashable, float]]]
    index: Mapping[Hashable, int] | None = None

    def __len__(self) -> int:
        return len(self.names)


def replay_tasks(
    tasks: list[ReplayTask] | TaskGraph,
    record_trace: bool = False,
    resource_profiles: Mapping[str, SpeedProfile] | None = None,
) -> ReplayResult:
    """Replay ``tasks`` (FIFO per resource, dependency-gated).

    ``tasks`` is a :class:`TaskGraph` or a list of :class:`ReplayTask`
    objects, which replays as the graph of their names.
    ``resource_profiles`` optionally maps a resource name to a
    :class:`SpeedProfile`; that resource's tasks then take
    ``profile.finish_time(start, duration) - start`` wall-clock seconds
    instead of ``duration`` (straggling or crashed stages stretch, nominal
    profiles change nothing).  ``record_trace`` also builds
    :attr:`ReplayResult.trace`.
    """
    graph = tasks if isinstance(tasks, TaskGraph) else _named_graph(tasks)
    names = graph.names
    durations = graph.durations
    profiles = resource_profiles or {}
    profile_of = [profiles.get(resource) for resource in graph.resources] if profiles else None

    starts, ends, queues, out, chain_next = _sweep(graph, profile_of)

    # Left-fold python floats in queue order over C-speed gathers, so the
    # aggregates are stable plain floats.
    busy = {}
    work = {}
    for resource, queue in queues.items():
        if len(queue) == 1:
            i = queue[0]
            busy[resource] = ends[i] - starts[i]
            work[resource] = durations[i]
            continue
        get = itemgetter(*queue)
        busy[resource] = sum(map(sub, get(ends), get(starts)))
        work[resource] = sum(get(durations))
    return ReplayResult(
        makespan=max(ends) if ends else 0.0,
        spans=dict(zip(names, zip(starts, ends))),
        resources=list(queues),
        trace=_trace(graph, starts, ends, queues, out, chain_next) if record_trace else None,
        busy=busy,
        work=work,
    )


def _named_graph(tasks: list[ReplayTask]) -> TaskGraph:
    """The :class:`TaskGraph` of a task list, its dependencies keyed by name."""
    names = [task.name for task in tasks]
    index = dict(zip(names, range(len(names))))
    if len(index) != len(names):
        seen = set()
        for name in names:
            if name in seen:
                raise ValueError(f"duplicate task name {name!r}")
            seen.add(name)
    return TaskGraph(
        names=names,
        resources=[task.resource for task in tasks],
        durations=[task.duration for task in tasks],
        categories=[task.category for task in tasks],
        deps=[task.deps for task in tasks],
        index=index,
    )


def _sweep(graph: TaskGraph, profile_of: list[SpeedProfile | None] | None):
    """Fused Kahn sweep: ``(starts, ends, queues, out-edges, chain edges)``.

    Every task starts at the max of its predecessors' ``end + delay``, where
    the previous task on the same resource is a zero-delay predecessor
    (``end + 0.0 == end`` exactly, so the chain edges are float-transparent).
    """
    n = len(graph)
    durations = graph.durations
    out: list[list[tuple[int, float]] | None] = [None] * n
    chain_next = [-1] * n
    indeg = [0] * n
    ready = [0.0] * n
    ends = [0.0] * n
    queues: dict[str, list[int]] = {}
    lookup = range(n) if graph.index is None else graph.index
    try:
        for i, (deps, resource) in enumerate(zip(graph.deps, graph.resources)):
            if deps:
                indeg[i] = len(deps)
                for dep, delay in deps:
                    j = lookup[dep]
                    edges = out[j]
                    if edges is None:
                        out[j] = [(i, delay)]
                    else:
                        edges.append((i, delay))
            queue = queues.get(resource)
            if queue is None:
                queues[resource] = [i]
            else:
                chain_next[queue[-1]] = i
                indeg[i] += 1
                queue.append(i)
    except LookupError:
        raise ValueError(
            f"task {graph.names[i]!r} depends on unknown task {dep!r}"
        ) from None

    stack = [i for i in range(n) if not indeg[i]]
    pop = stack.pop
    push = stack.append
    resolved = 0
    if profile_of is None:
        while stack:
            u = pop()
            resolved += 1
            end = ready[u] + durations[u]
            ends[u] = end
            edges = out[u]
            if edges is not None:
                for v, delay in edges:
                    t = end + delay
                    if t > ready[v]:
                        ready[v] = t
                    d = indeg[v] - 1
                    indeg[v] = d
                    if not d:
                        push(v)
            v = chain_next[u]
            if v >= 0:
                if end > ready[v]:
                    ready[v] = end
                d = indeg[v] - 1
                indeg[v] = d
                if not d:
                    push(v)
    else:
        while stack:
            u = pop()
            resolved += 1
            start = ready[u]
            profile = profile_of[u]
            end = (
                start + durations[u]
                if profile is None
                else profile.finish_time(start, durations[u])
            )
            ends[u] = end
            edges = out[u]
            if edges is not None:
                for v, delay in edges:
                    t = end + delay
                    if t > ready[v]:
                        ready[v] = t
                    d = indeg[v] - 1
                    indeg[v] = d
                    if not d:
                        push(v)
            v = chain_next[u]
            if v >= 0:
                if end > ready[v]:
                    ready[v] = end
                d = indeg[v] - 1
                indeg[v] = d
                if not d:
                    push(v)

    if resolved < n:
        # The first unresolved task of each queue is the head it is stuck on.
        stuck = [graph.names[next(i for i in queue if indeg[i])]
                 for queue in queues.values() if indeg[queue[-1]]]
        raise RuntimeError(
            f"replay deadlocked: tasks {stuck} wait on dependencies that can "
            "never finish (cyclic schedule?)"
        )
    return ready, ends, queues, out, chain_next


def _trace(
    graph: TaskGraph,
    starts: list[float],
    ends: list[float],
    queues: dict[str, list[int]],
    out: list[list[tuple[int, float]] | None],
    chain_next: list[int],
) -> Trace:
    """The spans in the order an event-by-event replay completes them.

    An event engine starts a task in the resource scan that follows the
    completion of its last-finishing predecessor (a dependency, or the
    previous task on the same resource), visiting resources in
    first-appearance order, and completes tasks by ``(end time, start
    order)``.  So completions order by ``(end, position of that predecessor's
    completion, resource rank)``, with source tasks starting in the initial
    scan (position -1).  One task per resource can start per scan, so the key
    is unique.
    """
    pending = list(map(len, graph.deps))
    rank = [0] * len(graph)
    heap = []
    for r, queue in enumerate(queues.values()):
        for i in queue:
            rank[i] = r
        for i in queue[1:]:
            pending[i] += 1
        head = queue[0]
        if not pending[head]:
            heap.append((ends[head], -1, r, head))
    heapify(heap)

    trace = Trace()
    append = trace.spans.append
    names, resources, categories = graph.names, graph.resources, graph.categories
    position = 0
    while heap:
        end, _, _, u = heappop(heap)
        append(Span(resources[u], names[u], starts[u], end, categories[u]))
        successors = [v for v, _ in out[u] or ()]
        if chain_next[u] >= 0:
            successors.append(chain_next[u])
        for v in successors:
            left = pending[v] - 1
            pending[v] = left
            if not left:
                heappush(heap, (ends[v], position, rank[v], v))
        position += 1
    return trace
