"""Differential suite: the Kahn-sweep replay vs the event-by-event oracle.

``replay_tasks`` resolves the greedy list-scheduling recurrence with one
fused Kahn sweep and, when asked, orders the trace with a heap pass over the
resolved end times.  It must be **bit-identical** to the event-driven oracle
in ``tests/reference/replay.py``: same spans, same makespan, same busy and
work folds, same resources, same error messages on malformed inputs, and the
same trace spans in the same list order.  Hypothesis drives random DAGs
(random resources, durations, dependency fan-in, transfer delays) and random
straggler :class:`SpeedProfile` assignments through both sweep branches.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from reference.replay import replay_reference
from repro.sim.replay import ReplayTask, replay_tasks

DURATIONS = st.floats(min_value=0.0, max_value=1e-2, allow_nan=False, allow_infinity=False)
DELAYS = st.floats(min_value=0.0, max_value=1e-3, allow_nan=False, allow_infinity=False)
FACTORS = st.floats(min_value=1.0, max_value=4.0, allow_nan=False, allow_infinity=False)
#: Few distinct values, so many tasks end at the same instant and the trace
#: order rests on the event engine's tie-breaking.
TIED = st.sampled_from([0.0, 1.0, 2.0])


@dataclass(frozen=True)
class KneeProfile:
    """Start-dependent straggler: slow before the knee, nominal after.

    The start-dependence matters -- it makes ``finish_time`` a genuine
    function of the realized schedule, so any ordering divergence between the
    two paths surfaces as a bitwise span difference.
    """

    factor: float
    knee: float

    def finish_time(self, start: float, work: float) -> float:
        stretch = self.factor if start < self.knee else 1.0
        return start + work * stretch


@st.composite
def task_lists(draw, min_tasks: int = 0, max_tasks: int = 24, durations=DURATIONS, delays=DELAYS):
    """Random dependency-acyclic task lists over a handful of resources.

    Dependencies only point at earlier list positions, which (together with
    the FIFO queue order) guarantees the replay can always make progress.
    """
    n_resources = draw(st.integers(min_value=1, max_value=6))
    resources = [f"r{i}" for i in range(n_resources)]
    n = draw(st.integers(min_value=min_tasks, max_value=max_tasks))
    tasks = []
    for i in range(n):
        deps = ()
        if i:
            dep_ids = draw(
                st.lists(st.integers(0, i - 1), min_size=0, max_size=3, unique=True)
            )
            deps = tuple((f"t{j}", draw(delays)) for j in dep_ids)
        tasks.append(
            ReplayTask(
                name=f"t{i}",
                resource=draw(st.sampled_from(resources)),
                duration=draw(durations),
                deps=deps,
            )
        )
    return tasks


@st.composite
def profiled_task_lists(draw):
    """A task list plus straggler profiles on a random subset of resources."""
    tasks = draw(task_lists(min_tasks=1))
    resources = sorted({task.resource for task in tasks})
    profiled = draw(
        st.lists(st.sampled_from(resources), min_size=0, max_size=len(resources), unique=True)
    )
    profiles = {
        resource: KneeProfile(factor=draw(FACTORS), knee=draw(DURATIONS))
        for resource in profiled
    }
    return tasks, profiles


def assert_bit_identical(tasks, profiles=None):
    reference = replay_reference(tasks, record_trace=True, resource_profiles=profiles)
    fast = replay_tasks(tasks, resource_profiles=profiles)
    traced = replay_tasks(tasks, record_trace=True, resource_profiles=profiles)
    for result in (fast, traced):
        assert result.spans == reference.spans
        assert result.makespan == reference.makespan
        assert result.busy == reference.busy
        assert result.work == reference.work
        assert result.resources == reference.resources
    assert fast.trace is None
    assert traced.trace.spans == reference.trace.spans
    # The aggregates are plain python floats (JSON stability).
    assert all(type(value) is float for value in fast.busy.values())
    assert all(
        type(start) is float and type(end) is float
        for start, end in fast.spans.values()
    )


def _wide_dag(resources, layers):
    tasks = []
    for layer in range(layers):
        for r in range(resources):
            deps = ()
            if layer:
                deps = ((f"t{layer - 1}-{r}", 0.0), (f"t{layer - 1}-{(r + 1) % resources}", 1e-4))
            tasks.append(
                ReplayTask(
                    name=f"t{layer}-{r}",
                    resource=f"r{r}",
                    duration=1e-3 * ((layer + r) % 5 + 1),
                    deps=deps,
                )
            )
    return tasks


class TestScalarSweepMatchesReference:
    @hsettings(max_examples=200, deadline=None)
    @given(tasks=task_lists())
    def test_random_dags(self, tasks):
        assert_bit_identical(tasks)

    @hsettings(max_examples=150, deadline=None)
    @given(drawn=profiled_task_lists())
    def test_random_dags_with_speed_profiles(self, drawn):
        tasks, profiles = drawn
        assert_bit_identical(tasks, profiles)

    @hsettings(max_examples=200, deadline=None)
    @given(tasks=task_lists(max_tasks=40, durations=TIED, delays=TIED))
    def test_random_dags_with_tied_end_times(self, tasks):
        assert_bit_identical(tasks)


class TestWideDagsMatchReference:
    @pytest.mark.parametrize(("resources", "layers"), [(96, 24), (256, 64)])
    def test_wide_dag(self, resources, layers):
        assert_bit_identical(_wide_dag(resources, layers))

    def test_wide_dag_with_speed_profiles(self):
        tasks = _wide_dag(96, 24)
        profiles = {f"r{r}": KneeProfile(factor=1.0 + r % 3, knee=2e-3 * (r % 7)) for r in range(0, 96, 5)}
        assert_bit_identical(tasks, profiles)


class TestFastPathErrorParity:
    def test_empty_task_list(self):
        assert_bit_identical([])

    def test_duplicate_names_raise_the_reference_error(self):
        tasks = [
            ReplayTask(name="t0", resource="r0", duration=1.0),
            ReplayTask(name="t0", resource="r1", duration=1.0),
        ]
        with pytest.raises(ValueError, match="duplicate task name 't0'"):
            replay_reference(tasks)
        with pytest.raises(ValueError, match="duplicate task name 't0'"):
            replay_tasks(tasks)

    def test_unknown_dependency_raises_the_reference_error(self):
        tasks = [ReplayTask(name="t0", resource="r0", duration=1.0, deps=(("ghost", 0.0),))]
        with pytest.raises(ValueError, match="depends on unknown task 'ghost'"):
            replay_reference(tasks)
        with pytest.raises(ValueError, match="depends on unknown task 'ghost'"):
            replay_tasks(tasks)

    def test_deadlock_raises_with_the_same_stuck_tasks(self):
        # t0 waits on t1, but t1 sits behind t0 in the same queue: a cycle
        # through the resource order.
        tasks = [
            ReplayTask(name="t0", resource="r0", duration=1.0, deps=(("t1", 0.0),)),
            ReplayTask(name="t1", resource="r0", duration=1.0),
        ]
        with pytest.raises(RuntimeError, match=r"deadlocked: tasks \['t0'\]"):
            replay_reference(tasks)
        with pytest.raises(RuntimeError, match=r"deadlocked: tasks \['t0'\]"):
            replay_tasks(tasks)
