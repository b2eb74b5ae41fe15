"""Outside-in span tracing of one ``repro`` process.

The traced run wraps the public functions and methods of each layer from
here, without touching ``src/``: every wrapped call records a span (name,
start, end, parent) in memory, and a few wrappers also read call counts and
public result fields into work counters.  :func:`analyse` turns the spans
into self times, a per-layer table and the share of the post-setup interval
that no layer below the front end explains.

A span's layer is the first dotted component of its name, which is the
``repro`` package the wrapped code lives in (``core``, ``gpu``, ``plans``,
``sim``, ``pp``, ``e2e``, ``plan``, ``serve``, ``sweep``, ``api``, ``cli``,
``analysis``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: (span name, module, attribute path) of every wrapped callable.  Functions
#: are also replaced in every ``repro`` module that bound them at import time
#: (``from x import f``), e.g. ``replay_tasks`` in ``repro.pp.schedule`` and
#: ``price_pipeline`` in ``repro.plan.planner``.
TARGETS = (
    ("cli.main", "repro.cli", "main"),
    ("api.sweep", "repro.api", "sweep"),
    ("api.plan", "repro.api", "plan"),
    ("api.pp", "repro.api", "pp"),
    ("api.serve", "repro.api", "serve"),
    ("sweep.run", "repro.sweep.runner", "SweepRunner.run"),
    ("sweep.store", "repro.sweep.store", "ResultStore.append"),
    ("serve.compare", "repro.serve.simulator", "compare_serving"),
    ("serve.run", "repro.serve.simulator", "ServingSimulator.run"),
    ("serve.iteration_latency", "repro.serve.simulator", "ServingSimulator.iteration_latency"),
    ("serve.scheduler", "repro.serve.scheduler", "ContinuousBatchingScheduler.next_batch"),
    ("plan.search", "repro.plan.planner", "search_plan"),
    ("pp.estimate", "repro.pp.estimator", "PipelineEstimator.estimate"),
    ("pp.price", "repro.pp.pricing", "price_pipeline"),
    ("pp.schedule", "repro.pp.schedule", "generate_schedule"),
    ("e2e.estimate", "repro.e2e.estimator", "EndToEndEstimator.estimate"),
    ("e2e.resolve", "repro.e2e.estimator", "EndToEndEstimator.resolve_operator"),
    ("sim.replay", "repro.sim.replay", "replay_tasks"),
    ("plans.lookup", "repro.plans.cache", "PlanCache.lookup"),
    ("plans.repeat_hits", "repro.plans.cache", "PlanCache.count_repeat_hits"),
    ("analysis.compare", "repro.analysis.speedup", "compare_methods"),
    ("core.tuner", "repro.core.tuner", "PredictiveTuner.tune"),
    ("core.tuner", "repro.core.tuner", "ExhaustiveTuner.tune"),
    ("core.executor", "repro.core.executor", "OverlapExecutor.simulate"),
    ("core.executor", "repro.core.executor", "OverlapExecutor.simulate_sequential"),
    ("core.payload", "repro.core.executor", "OverlapExecutor.group_payload_bytes"),
    ("core.signaling", "repro.core.signaling", "SignalSchedule.from_tile_times"),
    ("gpu.wave_tiles", "repro.gpu.gemm", "GemmKernelModel.wave_tiles"),
)


#: Layers that only parse arguments, call the layers below and write reports.
FRONT_END = ("cli", "api")


def layer_of(name: str) -> str:
    """The layer of a span: the first dotted component of its name."""
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; one per process, single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a ``name`` span per call.

        ``before(args)`` runs ahead of the call and its return value is handed
        to ``after(span, state, args, result)``, which may rename the span or
        bump counters.
        """
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(index, state, args, result)
            return result

        return functools.wraps(fn)(traced)

    # -- counters read from call arguments and public result fields ------------

    def _hooks(self, name: str):
        counters = self.counters
        names = self.names

        if name == "plans.lookup":
            def before(args):
                return args[0].hits, args[0].misses

            def after(index, state, args, result):
                hits, misses = args[0].hits - state[0], args[0].misses - state[1]
                counters["plans.lookups"] += hits + misses
                counters["plans.hits"] += hits
                names[index] = "plans.miss" if misses else "plans.hit"
            return before, after
        if name == "plans.repeat_hits":
            def before(args):
                return args[0].hits

            def after(index, state, args, result):
                counters["plans.lookups"] += args[0].hits - state
                counters["plans.hits"] += args[0].hits - state
            return before, after
        if name == "core.tuner":
            def after(index, state, args, result):
                counters["core.tuner.calls"] += 1
                counters["core.tuner.candidates"] += result.candidates_evaluated
            return None, after
        if name == "core.executor":
            def after(index, state, args, result):
                counters["core.executor.calls"] += 1
                if not result.metadata.get("sequential_fallback"):
                    counters["core.executor.tiles"] += args[0].gemm_contended.num_tiles
            return None, after
        if name == "sim.replay":
            def after(index, state, args, result):
                counters["sim.replay.calls"] += 1
                counters["sim.replay.tasks"] += len(args[0])
            return None, after
        if name == "e2e.resolve":
            def after(index, state, args, result):
                counters["e2e.resolve.calls"] += 1
            return None, after
        return None, None

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; ``repro`` must already be imported."""
        from repro.core.baselines import BaselineMethod

        targets = list(TARGETS)
        pending = [BaselineMethod]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "latency" in vars(cls) and cls is not BaselineMethod:
                targets.append(("core.baselines", cls.__module__, f"{cls.__name__}.latency"))
        for name, module_name, path in targets:
            before, after = self._hooks(name)
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                cls = getattr(module, class_name)
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, before, after))
                else:
                    wrapped = self.wrap(name, raw, before, after)
                setattr(cls, attr, wrapped)
            else:
                original = getattr(module, path)
                wrapped = self.wrap(name, original, before, after)
                for other in list(sys.modules.values()):
                    if (getattr(other, "__name__", "").startswith("repro")
                            and getattr(other, path, None) is original):
                        setattr(other, path, wrapped)

    def dump(self, path: str) -> None:
        """Write the spans as JSONL: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in zip(self.names, self.starts, self.ends, self.parents):
                handle.write(json.dumps(record) + "\n")


def load_spans(path: str) -> list[tuple[str, float, float, int]]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


def analyse(spans, window_start: float, window_end: float) -> dict:
    """Self time per span name and per layer, plus post-setup coverage.

    A span's self time is its duration minus the durations of its direct
    children; spans on one thread nest, so children never overlap.  The
    front end (``cli``, ``api``) wraps the whole window, so coverage counts
    only the outermost spans below it: ``untracked_s`` is front-end self time
    (argument parsing, report building, output writing) plus any time
    outside every span.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_by_name: dict[str, float] = defaultdict(float)
    durations_by_name: dict[str, list[float]] = defaultdict(list)
    below_front_end = [False] * len(spans)
    covered = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        self_by_name[name] += (end - start) - child_time[index]
        durations_by_name[name].append(end - start)
        if parent >= 0 and below_front_end[parent]:
            below_front_end[index] = True
        elif layer_of(name) not in FRONT_END:
            below_front_end[index] = True
            covered += end - start
    self_by_layer: dict[str, float] = defaultdict(float)
    for name, value in self_by_name.items():
        self_by_layer[layer_of(name)] += value
    window = window_end - window_start
    return {
        "window_s": window,
        "untracked_s": window - covered,
        "self_by_name": dict(self_by_name),
        "self_by_layer": dict(self_by_layer),
        "durations_by_name": dict(durations_by_name),
    }
