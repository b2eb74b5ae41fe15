"""Unit tests of the pipeline schedule generators and the replay substrate.

The uniform-cost cases are hand-computed: with S=2 stages, M=4 microbatches
and f = b = w = 1, no transfer delay, the step times are 20 (GPipe with
recomputation), 15 (1F1B) and 13 (zero-bubble).
"""

import pytest

from reference.schedule import critical_path
from repro.pp.schedule import (
    Cell,
    StageCostVector,
    generate_schedule,
    gpipe_schedule,
    one_f_one_b_schedule,
    zero_bubble_schedule,
)
from repro.sim.replay import ReplayTask, replay_tasks

UNIFORM = (StageCostVector(1.0, 1.0, 1.0),) * 2


class TestReplay:
    def test_serial_resource_with_dependency_delay(self):
        tasks = [
            ReplayTask(name="a", resource="r0", duration=2.0),
            ReplayTask(name="b", resource="r1", duration=3.0, deps=(("a", 0.5),)),
            ReplayTask(name="c", resource="r1", duration=1.0),
        ]
        result = replay_tasks(tasks, record_trace=True)
        assert result.spans["a"] == (0.0, 2.0)
        assert result.spans["b"] == (2.5, 5.5)  # waits for a + 0.5 transfer
        assert result.spans["c"] == (5.5, 6.5)  # FIFO behind b on r1
        assert result.makespan == 6.5
        assert result.busy == {"r0": 2.0, "r1": 4.0}
        assert result.idle("r1") == pytest.approx(2.5)
        result.trace.validate_stream_order()

    def test_duplicate_and_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            replay_tasks([ReplayTask("a", "r", 1.0), ReplayTask("a", "r", 1.0)])
        with pytest.raises(ValueError, match="unknown task"):
            replay_tasks([ReplayTask("a", "r", 1.0, deps=(("ghost", 0.0),))])

    def test_cyclic_order_deadlocks_loudly(self):
        tasks = [
            ReplayTask(name="a", resource="r0", duration=1.0, deps=(("b", 0.0),)),
            ReplayTask(name="b", resource="r1", duration=1.0, deps=(("a", 0.0),)),
        ]
        with pytest.raises(RuntimeError, match="deadlocked"):
            replay_tasks(tasks)

    def test_empty_replay(self):
        assert replay_tasks([]).makespan == 0.0


class TestGeneratorStructure:
    @pytest.mark.parametrize("name", ["gpipe", "1f1b", "zero-bubble"])
    def test_cell_conservation(self, name):
        schedule = generate_schedule(name, UNIFORM, 4)
        for stage, order in enumerate(schedule.stage_orders):
            kinds = [cell.kind for cell in order]
            assert kinds.count("F") == 4
            assert kinds.count("B") == 4
            assert kinds.count("W") == (4 if name == "zero-bubble" else 0)
            assert all(cell.stage == stage for cell in order)
            assert sorted(c.microbatch for c in order if c.kind == "F") == [0, 1, 2, 3]

    def test_gpipe_orders_and_recompute(self):
        schedule = gpipe_schedule(UNIFORM, 2)
        assert [(c.kind, c.microbatch) for c in schedule.stage_orders[0]] == [
            ("F", 0), ("F", 1), ("B", 0), ("B", 1),
        ]
        # Backward cells carry the recomputed forward: duration f + b + w = 3.
        assert [c.duration for c in schedule.stage_orders[0]] == [1.0, 1.0, 3.0, 3.0]
        assert schedule.recompute == (1.0, 1.0)
        assert schedule.useful_work() == pytest.approx(2 * 2 * 3.0)

    def test_1f1b_warmup_depth_per_stage(self):
        schedule = one_f_one_b_schedule((StageCostVector(1.0, 1.0, 1.0),) * 3, 4)
        # Stage s warms up with min(M, S - s - 1) forwards.
        for stage, warmup in enumerate((2, 1, 0)):
            kinds = [c.kind for c in schedule.stage_orders[stage]]
            assert kinds[:warmup] == ["F"] * warmup
            assert kinds[warmup] == "F" and kinds[warmup + 1] == "B"

    def test_zero_bubble_splits_backward(self):
        schedule = zero_bubble_schedule(UNIFORM, 4)
        assert schedule.split_backward
        durations = {c.kind: c.duration for c in schedule.stage_orders[0]}
        assert durations == {"F": 1.0, "B": 1.0, "W": 1.0}

    def test_unknown_schedule_name(self):
        with pytest.raises(KeyError, match="unknown schedule"):
            generate_schedule("dualpipe", UNIFORM, 2)

    def test_degenerate_single_stage_single_microbatch(self):
        stages = (StageCostVector(2.0, 1.0, 0.5),)
        assert one_f_one_b_schedule(stages, 1).replay().makespan == 3.5
        assert zero_bubble_schedule(stages, 1).replay().makespan == 3.5
        # GPipe still pays the recomputation even on one stage.
        assert gpipe_schedule(stages, 1).replay().makespan == 5.5


class TestHandComputedSteps:
    def test_uniform_two_stage_steps(self):
        for name, expected in (("gpipe", 20.0), ("1f1b", 15.0), ("zero-bubble", 13.0)):
            schedule = generate_schedule(name, UNIFORM, 4)
            result = schedule.replay()
            assert result.makespan == expected, name
            assert critical_path(schedule) == expected, name

    def test_transfer_delays_stretch_the_pipeline(self):
        without = one_f_one_b_schedule(UNIFORM, 4).replay().makespan
        with_delay = one_f_one_b_schedule(UNIFORM, 4, fwd_delay=0.25, bwd_delay=0.25)
        assert with_delay.replay().makespan == pytest.approx(without + 4 * 0.25)

    def test_dependencies_of_cells(self):
        schedule = one_f_one_b_schedule(UNIFORM, 2, fwd_delay=0.1, bwd_delay=0.2)
        assert schedule.dependencies(Cell(1, 0, "F", 1.0)) == [("F0@s0", 0.1)]
        assert schedule.dependencies(Cell(0, 1, "B", 2.0)) == [
            ("F1@s0", 0.0), ("B1@s1", 0.2),
        ]
        assert schedule.dependencies(Cell(0, 1, "W", 1.0)) == [("B1@s0", 0.0)]

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="at least one stage"):
            gpipe_schedule((), 2)
        with pytest.raises(ValueError, match="microbatches"):
            one_f_one_b_schedule(UNIFORM, 0)
        with pytest.raises(ValueError, match="non-negative"):
            StageCostVector(-1.0, 1.0, 1.0)
