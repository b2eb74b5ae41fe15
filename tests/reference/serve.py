"""One-event-per-iteration oracle of the batched serving loop.

:class:`~repro.serve.simulator.ServingSimulator` commits an iteration inline
whenever no engine event (arrival, deadline, crash or recovery) fires before
it lands, and collapses silent steady-decode runs in bulk.  The reference
behaviour takes one heap round-trip per iteration instead: every iteration
is scheduled as a finish event on the :class:`~repro.sim.engine.EventEngine`
and committed when the engine dispatches it.

Rather than keeping a copy of the loop, the oracle runs the production loop
on an engine that always reports an event due *now*.  The inline-commit test
``finish < next_event_time()`` then never passes, so every iteration takes
the scheduled-event branch and the steady-run collapse (reachable only after
an inline commit) never runs.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from unittest import mock

from repro.serve import simulator
from repro.sim.engine import EventEngine


class IterationEventEngine(EventEngine):
    """An engine whose next event is always due now."""

    def next_event_time(self) -> float:
        return self.now


@contextmanager
def one_event_per_iteration() -> Iterator[list[IterationEventEngine]]:
    """Run every ``ServingSimulator`` in the block one event per iteration.

    Yields the list of engines the simulators create (one per ``run``), so a
    caller can check that each committed iteration really was an engine
    event.
    """
    engines: list[IterationEventEngine] = []

    def make_engine() -> IterationEventEngine:
        engine = IterationEventEngine()
        engines.append(engine)
        return engine

    with mock.patch.object(simulator, "EventEngine", make_engine):
        yield engines
