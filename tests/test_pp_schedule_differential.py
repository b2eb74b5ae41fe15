"""Differential suite: index-addressed pipeline schedules vs their oracles.

The zero-bubble generator keeps per-stage end-time lists and replays the
1F1B orders in precomputed dependency order; ``Schedule.replay`` builds the
replay graph by cell index straight from the stage orders.  Both must be
**bit-identical** to the straightforward versions:

* every W-placement policy of the generator yields the same stage orders
  (kind, microbatch, duration) and the same step as the dict-keyed oracle in
  ``tests/reference/schedule.py``, and the selected schedule is the same;
* for all three generators, ``Schedule.replay()`` equals replaying the named
  ``Schedule.tasks()`` through ``replay_tasks``: spans, makespan, busy,
  work, resources and the trace spans in list order;
* hand-built malformed schedules raise exactly the error the named replay
  raises.

Hypothesis draws 1-8 stages, 1-48 microbatches, stage costs from a small
tied set or a continuous range (zero ``wgrad`` included) and zero or
non-zero transfer delays.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from reference.schedule import zero_bubble_candidate, zero_bubble_schedule
from repro.pp.schedule import (
    _ZB_POLICIES,
    KNOWN_SCHEDULES,
    Cell,
    StageCostVector,
    _zero_bubble_candidate,
    generate_schedule,
    one_f_one_b_schedule,
)
from repro.sim.replay import replay_tasks

#: Few distinct values, so many cells tie on their end times.
TIED = st.sampled_from([0.0, 0.5, 1.0, 2.0])
COSTS = st.one_of(
    TIED, st.floats(min_value=1e-4, max_value=1e-2, allow_nan=False, allow_infinity=False)
)
DELAYS = st.one_of(
    st.just(0.0),
    st.sampled_from([0.25, 1.0]),
    st.floats(min_value=0.0, max_value=1e-3, allow_nan=False, allow_infinity=False),
)


@st.composite
def pipelines(draw):
    """(stage costs, microbatches, fwd_delay, bwd_delay) of a random pipeline."""
    num_stages = draw(st.integers(min_value=1, max_value=8))
    wgrad = st.one_of(st.just(0.0), COSTS)
    stages = tuple(
        StageCostVector(draw(COSTS), draw(COSTS), draw(wgrad)) for _ in range(num_stages)
    )
    microbatches = draw(st.integers(min_value=1, max_value=48))
    return stages, microbatches, draw(DELAYS), draw(DELAYS)


def _bits(x: float) -> str:
    return x.hex()


def _fingerprint(result):
    """Every field of a replay result, floats as their exact bit patterns."""
    return {
        "spans": [(name, _bits(start), _bits(end)) for name, (start, end) in result.spans.items()],
        "makespan": _bits(result.makespan),
        "busy": [(key, _bits(value)) for key, value in result.busy.items()],
        "work": [(key, _bits(value)) for key, value in result.work.items()],
        "resources": list(result.resources),
        "trace": None if result.trace is None else [
            (span.stream, span.name, _bits(span.start), _bits(span.end), span.category)
            for span in result.trace.spans
        ],
    }


def _orders(schedule):
    return [[(cell.kind, cell.microbatch, _bits(cell.duration)) for cell in order]
            for order in schedule.stage_orders]


@hsettings(max_examples=60, deadline=None)
@given(pipeline=pipelines())
def test_every_w_policy_matches_the_dict_keyed_oracle(pipeline):
    stages, microbatches, fwd_delay, bwd_delay = pipeline
    for policy in _ZB_POLICIES:
        step, orders = _zero_bubble_candidate(stages, microbatches, fwd_delay, bwd_delay, policy)
        ref_step, reference = zero_bubble_candidate(
            stages, microbatches, fwd_delay, bwd_delay, policy
        )
        assert _bits(step) == _bits(ref_step), policy
        assert [[(kind, mb, _bits(duration)) for kind, mb, duration in order]
                for order in orders] == _orders(reference), policy
    selected = generate_schedule("zero-bubble", stages, microbatches, fwd_delay, bwd_delay)
    assert selected == zero_bubble_schedule(stages, microbatches, fwd_delay, bwd_delay)


@hsettings(max_examples=60, deadline=None)
@given(pipeline=pipelines(), record_trace=st.booleans())
def test_indexed_replay_matches_the_named_replay(pipeline, record_trace):
    stages, microbatches, fwd_delay, bwd_delay = pipeline
    for name in KNOWN_SCHEDULES:
        schedule = generate_schedule(name, stages, microbatches, fwd_delay, bwd_delay)
        indexed = schedule.replay(record_trace=record_trace)
        named = replay_tasks(schedule.tasks(), record_trace=record_trace)
        assert _fingerprint(indexed) == _fingerprint(named), name


def _error(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def _with_stage0(schedule, order):
    return replace(schedule, stage_orders=(tuple(order),) + schedule.stage_orders[1:])


BASE = one_f_one_b_schedule((StageCostVector(1.0, 1.0, 1.0),) * 2, 3, 0.1, 0.2)
ZB_BASE = generate_schedule("zero-bubble", (StageCostVector(1.0, 1.0, 1.0),) * 2, 3)
STAGE0 = list(BASE.stage_orders[0])


class TestMalformedSchedules:
    """Hand-built schedules raise what ``replay_tasks(schedule.tasks())`` raises."""

    @pytest.mark.parametrize(
        "schedule",
        [
            _with_stage0(BASE, STAGE0 + [STAGE0[0]]),
            _with_stage0(BASE, [cell for cell in STAGE0 if cell != Cell(0, 1, "F", 1.0)]),
            replace(BASE, fwd_delay=-0.1),
            replace(BASE, bwd_delay=-0.2),
            _with_stage0(BASE, [Cell(0, 0, "F", -1.0)] + STAGE0[1:]),
            _with_stage0(BASE, list(reversed(STAGE0))),
        ],
        ids=[
            "duplicated-cell",
            "B-without-its-F",
            "negative-fwd-delay",
            "negative-bwd-delay",
            "negative-duration",
            "cyclic-stage-order",
        ],
    )
    def test_same_error_as_the_named_replay(self, schedule):
        expected = _error(lambda: replay_tasks(schedule.tasks()))
        assert _error(schedule.replay) == expected
        assert _error(lambda: schedule.replay(record_trace=True)) == expected

    @pytest.mark.parametrize(
        "schedule",
        [
            # A W cell nothing waits for can go missing without a deadlock.
            replace(ZB_BASE, stage_orders=tuple(
                tuple(cell for cell in order if cell != Cell(stage, 2, "W", 1.0))
                for stage, order in enumerate(ZB_BASE.stage_orders)
            )),
            # A cell filed under another stage's order still runs on its
            # own stage, after that stage's cells.
            replace(BASE, stage_orders=(
                BASE.stage_orders[0], BASE.stage_orders[1] + (Cell(0, 9, "F", 0.5),),
            )),
        ],
        ids=["missing-w-cell", "cell-under-another-stage"],
    )
    def test_unusual_but_valid_orders_replay_like_the_named_replay(self, schedule):
        assert _fingerprint(schedule.replay(record_trace=True)) == _fingerprint(
            replay_tasks(schedule.tasks(), record_trace=True)
        )
