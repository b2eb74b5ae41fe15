"""The four benchmark workloads: inputs, ``repro`` invocations, output checks.

Every workload is a whole ``repro`` CLI run (one or more subcommand calls in
one fresh process).  Its inputs are made here from the seed, never by the
program's own generators, so a change to a preset or to
``serve/arrivals.py`` cannot change what is measured.  After timing, the
outputs a process wrote are checked, reduced to a digest of the simulated
results (no paths, no timings) and to the deterministic work counters.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: The five paper workloads of ``repro plan`` / ``repro pp``.
PAPER_WORKLOADS = (
    "llama2-training",
    "llama3-inference",
    "llama3-training",
    "mixtral-training",
    "step-video",
)

#: serve-chat traffic: open-loop Poisson arrivals of chat-length requests.
SERVE_RATE_RPS = 32.0
SERVE_REQUESTS = 4096
#: Chat length mix: log-normal medians, clamp ranges and log-space spread.
CHAT_PROMPT = (128, 16, 1024)
CHAT_OUTPUT = (128, 16, 512)
CHAT_SIGMA = 0.6

#: pp-schedule depth: 256 microbatches of 2048 tokens each, so every
#: microbatch GEMM is large enough for the overlap decision to matter.
PP_MICROBATCHES = 256
PP_TOKENS = 256 * 2048


def geomean(values) -> float:
    """Geometric mean; 0 when there is nothing to average (a failed run)."""
    logs = [math.log(v) for v in values]
    return math.exp(math.fsum(logs) / len(logs)) if logs else 0.0


def _read_json(path: Path):
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


class Workload:
    """One benchmark workload; subclasses fill in the ``repro`` specifics.

    ``check`` returns the number of failed items and why they failed; a
    failed check that concerns no single item fails them all.
    """

    name = ""

    def prepare(self, inputs: Path, seed: int) -> dict:
        """Write the inputs; return the child spec (input files, argv lists)."""
        raise NotImplementedError

    def collect(self, out: Path) -> dict:
        """The simulated results one process wrote into ``out``."""
        raise NotImplementedError

    def items(self, outputs: dict) -> int:
        raise NotImplementedError

    def check(self, outputs: dict) -> tuple[int, list[str]]:
        raise NotImplementedError

    def sim_speedup(self, outputs: dict) -> float:
        raise NotImplementedError

    def counters(self, outputs: dict) -> dict:
        """Deterministic work counters read from public result fields."""
        return {}


class OperatorSweep(Workload):
    """``repro sweep`` over every scenario of the 20 sweep presets.

    The paper's operator-level experiment (Figs. 10, 11, 13, Table 3); core
    and tile geometry dominate, reached through GemmShapeCache, not PlanCache.
    The matrices are frozen in ``inputs/``; each run sets their seed.  The CLI
    takes one ``--config`` per call, so one process makes 20 calls that share
    a shape-cache file, as ``--preset`` x 20 would share one runner.
    """

    name = "operator-sweep"

    #: Matrix axes whose product is a matrix's scenario count (one seed each).
    axes = ("shapes", "platforms", "collectives", "imbalances", "settings_grid")

    def __init__(self) -> None:
        self.frozen = _read_json(HERE / "inputs" / "operator_sweep_matrices.json")
        self.scenarios = sum(math.prod(len(matrix[axis]) for axis in self.axes)
                             for matrix in self.frozen["matrices"])

    def prepare(self, inputs: Path, seed: int) -> dict:
        paths = []
        for matrix in self.frozen["matrices"]:
            path = inputs / f"sweep-{matrix['name']}.json"
            path.write_text(json.dumps(dict(matrix, seeds=[seed])), encoding="utf-8")
            paths.append(str(path))
        invocations = [
            ["sweep", "--config", path, "--baselines", "--workers", "1",
             "--out", "results.jsonl", "--cache", "shapes.json"]
            for path in paths
        ]
        return {"inputs": paths, "invocations": invocations}

    def collect(self, out: Path) -> dict:
        with (out / "results.jsonl").open(encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        return {"records": sorted(records, key=lambda r: r["job_id"])}

    def items(self, outputs: dict) -> int:
        return self.scenarios

    def check(self, outputs: dict) -> tuple[int, list[str]]:
        records = outputs["records"]
        expected = self.items(outputs)
        failed, errors = max(0, expected - len(records)), []
        if len(records) != expected:
            errors.append(f"{len(records)} jobs for {expected} scenarios")
        for r in records:
            if r["status"] != "ok":
                failed += 1
                errors.append(f"job {r['job_id']} ended with status {r['status']}")
            elif r["speedup"] != r["non_overlap_latency"] / r["overlap_latency"]:
                failed += 1
                errors.append(f"job {r['job_id']}: speedup != non-overlap / overlap")
        return min(failed, expected), errors

    def sim_speedup(self, outputs: dict) -> float:
        return geomean(r["speedup"] for r in outputs["records"] if r["status"] == "ok")

    def counters(self, outputs: dict) -> dict:
        records = outputs["records"]
        return {
            "sweep.jobs": len(records),
            "sweep.shape_cache_hit_ratio":
                sum(1 for r in records if r.get("cache_hit")) / len(records),
        }


class PlanSearch(Workload):
    """``repro plan`` for the five paper workloads on the default 8-GPU A800.

    The heaviest user command: executor and tile geometry dominate, then the
    tuner, and the plan store mixes reads and writes.
    """

    name = "plan-search"

    def prepare(self, inputs: Path, seed: int) -> dict:
        invocations = [
            ["plan", "--workload", workload, "--seed", str(seed),
             "--json", f"plan-{workload}.json", "--emit-plan", f"winner-{workload}.json"]
            for workload in PAPER_WORKLOADS
        ]
        return {"inputs": [], "invocations": invocations}

    def collect(self, out: Path) -> dict:
        return {
            workload: {
                "report": _read_json(out / f"plan-{workload}.json"),
                "winner": _read_json(out / f"winner-{workload}.json"),
            }
            for workload in PAPER_WORKLOADS
        }

    @staticmethod
    def _enumerated(output: dict) -> int:
        space = output["report"]["space"]
        return space["batches"] + len(space["skipped"])

    def items(self, outputs: dict) -> int:
        return sum(self._enumerated(o) for o in outputs.values())

    def check(self, outputs: dict) -> tuple[int, list[str]]:
        from repro.plan import ParallelismPlan, verify_replay

        failed, errors = 0, []
        for workload, o in outputs.items():
            if not verify_replay(ParallelismPlan.from_dict(o["winner"]))["matches"]:
                failed += self._enumerated(o)
                errors.append(f"{workload}: winner does not replay bit-identically")
        return failed, errors

    def sim_speedup(self, outputs: dict) -> float:
        return geomean(o["winner"]["predicted"]["speedup"] for o in outputs.values())

    def counters(self, outputs: dict) -> dict:
        spaces = [o["report"]["space"] for o in outputs.values()]
        priced = sum(s["evaluated"] for s in spaces)
        return {
            "plan.configs_priced": priced,
            "plan.configs_pruned": sum(len(s["pruned"]) for s in spaces),
            "plan.priced_ratio": priced / self.items(outputs),
        }


class PipelineSchedule(Workload):
    """``repro pp`` over all five workloads and all three schedules.

    At 256 microbatches, schedule generation, scoring and replay dominate and
    core is small: the one workload that measures pp and sim.  ``--tokens``
    gives each microbatch 2048 tokens; at the paper token counts every
    microbatch GEMM is too small to overlap and every speedup is exactly 1.
    """

    name = "pp-schedule"

    def prepare(self, inputs: Path, seed: int) -> dict:
        invocations = [[
            "pp", "--microbatches", str(PP_MICROBATCHES), "--tokens", str(PP_TOKENS),
            "--seed", str(seed), "--json", "pp.json",
        ]]
        return {"inputs": [], "invocations": invocations}

    def collect(self, out: Path) -> dict:
        return _read_json(out / "pp.json")

    def _schedules(self, outputs: dict):
        for workload_name, workload in outputs["workloads"].items():
            for schedule_name, schedule in workload["schedules"].items():
                yield f"{workload_name} / {schedule_name}", schedule

    def items(self, outputs: dict) -> int:
        return sum(1 for _ in self._schedules(outputs))

    def check(self, outputs: dict) -> tuple[int, list[str]]:
        failed, errors = 0, []
        for where, schedule in self._schedules(outputs):
            bad = [
                f"{where} / {method}: bubble ratio {r['bubble_ratio']}, "
                f"step latency {r['step_latency']}"
                for method, r in schedule["methods"].items()
                if not (0.0 <= r["bubble_ratio"] < 1.0 and r["step_latency"] > 0.0)
            ]
            failed += bool(bad)
            errors += bad
        return failed, errors

    def sim_speedup(self, outputs: dict) -> float:
        return geomean(s["speedup"] for _, s in self._schedules(outputs))


class ServeChat(Workload):
    """``repro serve`` on a Poisson chat trace at 32 req/s with ``--baseline``.

    The serving loop, scheduler and iteration pricing dominate and the plan
    cache serves reads only; core is a few percent, so this is the workload
    that bypasses every core optimisation.  The trace is generated here, so a
    change to ``serve/arrivals.py`` cannot change the traffic.
    """

    name = "serve-chat"
    arms = ("overlap", "non-overlap")

    def prepare(self, inputs: Path, seed: int) -> dict:
        rng = random.Random(seed)
        now = 0.0
        lines = []
        for _ in range(SERVE_REQUESTS):
            now += rng.expovariate(SERVE_RATE_RPS)
            prompt, output = (
                min(max(round(rng.lognormvariate(math.log(median), CHAT_SIGMA)), low), high)
                for median, low, high in (CHAT_PROMPT, CHAT_OUTPUT)
            )
            lines.append(json.dumps(
                {"arrival_time": now, "prompt_tokens": prompt, "output_tokens": output}))
        trace = inputs / "chat-trace.jsonl"
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        invocations = [[
            "serve", "--trace", str(trace), "--workload", "llama3-70b", "--baseline",
            "--seed", str(seed), "--json", "serve.json",
        ]]
        return {"inputs": [str(trace)], "invocations": invocations}

    def collect(self, out: Path) -> dict:
        report = _read_json(out / "serve.json")
        report["meta"].pop("traffic", None)  # names the trace file path
        return report

    def items(self, outputs: dict) -> int:
        return SERVE_REQUESTS * len(self.arms)

    def check(self, outputs: dict) -> tuple[int, list[str]]:
        failed, errors = 0, []
        for arm in self.arms:
            completed = outputs[arm]["metrics"]["requests_completed"]
            if completed != SERVE_REQUESTS:
                failed += SERVE_REQUESTS - completed
                errors.append(f"{arm}: {completed} of {SERVE_REQUESTS} requests completed")
        return failed, errors

    def sim_speedup(self, outputs: dict) -> float:
        return (outputs["non-overlap"]["metrics"]["e2e_latency"]["mean"]
                / outputs["overlap"]["metrics"]["e2e_latency"]["mean"])

    def counters(self, outputs: dict) -> dict:
        return {"serve.iterations": sum(outputs[arm]["iterations"] for arm in self.arms)}


WORKLOADS = {w.name: w for w in (OperatorSweep(), PlanSearch(), PipelineSchedule(), ServeChat())}
