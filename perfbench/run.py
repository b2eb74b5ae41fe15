"""Benchmark of whole ``repro`` processes, with outside-in per-layer tracing.

Run from the root of a checkout::

    python3 perfbench/run.py --workload operator-sweep --seed 1 --seconds 20 --trace 0

Each run makes the workload's inputs from ``--seed``, then spawns fresh,
single-threaded ``repro`` processes one at a time until ``--seconds`` have
passed, and times each from spawn to exit.  After timing it checks every
process's outputs, prints one digest line of the simulated results and, as
the last line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics (medians over the processes):
``wall_s``, ``cpu_s``, ``setup_s``, ``items_per_s``, ``peak_rss_mb`` (host)
and ``sim_speedup`` (simulated); ``setup_s`` also takes the processes that
only set up, one after each workload process.  ``--trace 1`` reports the
per-layer metrics: start-up probes, then traced processes (spans recorded
around the public functions of each layer by ``tracing.py``) alternating with
untraced ones, which give the tracing overhead.  End-to-end metrics come only
from untraced processes.

Every host time and rate of a process is scaled to a reference host speed,
measured by a fixed kernel timed right after that process (see
``calibration.py``); the raw host times go to standard error.  This process, its children and
the kernel share one CPU.

Metric-to-workload predictions (which layer metric should move which
end-to-end metric) are recorded in ``BENCHMARK.json`` and in
``workloads.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: At least this many timed processes per run, even past ``--seconds``.
MIN_PROCESSES = 3
#: At least this many traced + untraced process pairs per traced run, so the
#: work counters of two traced processes can be compared.
MIN_TRACED_PAIRS = 2
#: Start-up probe rounds of a traced run.
PROBE_ROUNDS = 3
#: A process running longer than this is killed and counted as failed.
PROCESS_TIMEOUT_S = 120.0

#: Useful-over-attempt ratios made of work counters: they must repeat exactly.
DETERMINISTIC_RATIOS = ("plans.hit_ratio", "plan.priced_ratio", "sweep.shape_cache_hit_ratio",
                        "core.tuner.candidates_per_call")

#: Layers of the per-layer table, by ``repro`` package.  The front end
#: (``cli``, ``api``) is not one of them: its self time is untracked time.
LAYERS = ("sweep", "serve", "plan", "pp", "e2e", "sim", "plans", "analysis", "core", "gpu")


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(argv: list[str], cwd: Path, env: dict, log: Path) -> dict:
    """Run one process to completion; host wall, CPU and peak RSS from outside."""
    with log.open("wb") as handle:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=handle,
                                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            # Interrupted (SIGTERM, Ctrl-C): leave no process behind.
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    return {
        "start": start,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


class Run:
    def __init__(self, root: Path, workload, seed: int, traced: bool) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.env = _env(root)
        self.dir = root / ".perfbench_work" / f"{workload.name}-{seed}-{int(traced)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        inputs = self.dir / "inputs"
        inputs.mkdir(parents=True)
        self.spec = self.dir / "spec.json"
        self.spec.write_text(json.dumps(workload.prepare(inputs, seed)), encoding="utf-8")
        self.processes: list[dict] = []
        self.setups: list[float] = []
        self.setup_errors: list[str] = []
        self.calibration: list[float] = []

    def python(self, *args: str, log: str) -> dict:
        return spawn([sys.executable, *args], self.dir, self.env, self.dir / log)

    def workload_process(self, traced: bool = False) -> dict:
        index = len(self.processes)
        out = self.dir / f"proc-{index}"
        out.mkdir()
        argv = [str(HERE / "child.py"), str(self.spec), str(out / "result.json")]
        if traced:
            argv.append(str(out / "spans.jsonl"))
        sample = spawn([sys.executable, *argv], out, self.env, out / "stdout.log")
        kernel_times: list[float] = []
        calibration.sample(kernel_times)
        self.calibration.extend(kernel_times)
        sample.update(out=out, traced=traced,
                      speed=calibration.REFERENCE_S / statistics.median(kernel_times))
        self.processes.append(sample)
        return sample

    def setup_process(self) -> None:
        """A process that only sets up, for more ``setup_s`` samples.

        It runs right after a workload process and its calibration, whose
        host speed it shares.
        """
        out = self.dir / "setup-only"
        out.mkdir(exist_ok=True)
        argv = [str(HERE / "child.py"), str(self.spec), str(out / "result.json"), "--setup-only"]
        sample = spawn([sys.executable, *argv], out, self.env, out / "stdout.log")
        if sample["code"] != 0:
            self.setup_errors.append(f"setup-only process exited with code {sample['code']}")
            return
        result = json.loads((out / "result.json").read_text("utf-8"))
        self.setups.append((result["setup_done"] - sample["start"]) * self.processes[-1]["speed"])

    def evaluate(self) -> None:
        """Check each process's outputs (after all timing is done).

        Outputs with equal digests are equal, so each distinct output is
        checked once.
        """
        sys.path.insert(0, str(self.root / "src"))
        checked: dict[str, tuple[int, list[str]]] = {}
        for sample in self.processes:
            sample.update(items=1, failed_items=1, errors=[])
            try:
                result = json.loads((sample["out"] / "result.json").read_text("utf-8"))
                outputs = self.workload.collect(sample["out"])
            except (OSError, ValueError, KeyError) as error:
                sample["errors"] = [f"no outputs (exit {sample['code']}): {error!r}"]
                continue
            digest = hashlib.sha256(
                json.dumps(outputs, sort_keys=True).encode("utf-8")).hexdigest()
            if digest not in checked:
                checked[digest] = self.workload.check(outputs)
            failed, errors = checked[digest]
            items = self.workload.items(outputs)
            if sample["code"] != 0:
                errors = [*errors, f"exit code {sample['code']}"]
            if errors and not failed or sample["code"] != 0:
                failed = items  # not tied to single items: every item fails
            setup_s = result["setup_done"] - sample["start"]
            sample.update(
                result=result,
                setup_s=setup_s,
                items=items,
                failed_items=failed,
                errors=errors,
                items_per_s=items / (sample["wall_s"] - setup_s),
                sim_speedup=self.workload.sim_speedup(outputs),
                digest=digest,
                counters=self.workload.counters(outputs),
            )
        if len({s.get("digest") for s in self.processes}) != 1:
            self.fail("simulated results differ between processes")
        for error in self.setup_errors:
            self.fail(error)

    def fail(self, error: str) -> None:
        """Mark every process failed: a run-level check did not hold."""
        for sample in self.processes:
            sample["errors"].append(error)
            sample["failed_items"] = sample["items"]

    def report(self, metrics: dict) -> dict:
        attempted = sum(s["items"] for s in self.processes)
        failed = sum(s["failed_items"] for s in self.processes)
        for sample in self.processes:
            print(f"{sample['out'].name}: traced={int(sample['traced'])} "
                  f"wall={sample['wall_s']:.4f}s cpu={sample['cpu_s']:.4f}s "
                  f"setup={sample.get('setup_s', float('nan')):.4f}s "
                  f"rss={sample['peak_rss_mb']:.1f}MB items={sample['items']}",
                  file=sys.stderr)
            for error in sample["errors"][:5]:
                print(f"check failed: {sample['out'].name}: {error}", file=sys.stderr)
        print(f"calibration kernel median {statistics.median(self.calibration) * 1e3:.2f} ms "
              f"(reference {calibration.REFERENCE_S * 1e3:.0f} ms)", file=sys.stderr)
        digest = self.processes[0].get("digest")
        print(f"digest {self.workload.name} seed={self.seed} {digest}")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def _at_reference_speed(name: str, value: float, speed: float) -> float:
    """A host time or rate of a process scaled to the reference host speed."""
    unit = _unit(name)
    if unit in ("s", "ms"):
        return value * speed
    if unit == "1/s":
        return value / speed
    return value


def _scaled_median(samples: list[dict], key: str) -> float:
    return statistics.median(_at_reference_speed(key, s[key], s["speed"]) for s in samples)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_plain(run: Run, seconds: float) -> dict:
    began = time.monotonic()
    while len(run.processes) < MIN_PROCESSES or time.monotonic() - began < seconds:
        run.workload_process()
        run.setup_process()
    run.evaluate()
    ok = [s for s in run.processes if "result" in s]
    if not ok:
        return run.report({})
    setups = [s["setup_s"] * s["speed"] for s in ok] + run.setups
    return run.report({
        "wall_s": _metric(_scaled_median(ok, "wall_s"), "s"),
        "cpu_s": _metric(_scaled_median(ok, "cpu_s"), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "items_per_s": _metric(_scaled_median(ok, "items_per_s"), "1/s"),
        "peak_rss_mb": _metric(_median(ok, "peak_rss_mb"), "MB"),
        "sim_speedup": _metric(ok[0]["sim_speedup"], "x"),
    })


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(sample: dict) -> dict:
    """Per-layer numbers of one traced process."""
    import tracing

    result = sample["result"]
    start, end = result["window"]
    table = tracing.analyse(tracing.load_spans(str(sample["out"] / "spans.jsonl")), start, end)
    window = table["window_s"]
    own = table["self_by_name"]
    durations = table["durations_by_name"]
    counters = dict(result["counters"])
    counters.update(sample["counters"])

    def count(name: str) -> float:
        return counters.get(name, 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def total(name: str) -> float:
        return sum(durations.get(name, []))

    executor = durations.get("core.executor", [])
    values = {
        "core.tuner.calls": count("core.tuner.calls"),
        "core.tuner.self_s": own.get("core.tuner", 0.0),
        "core.tuner.candidates_per_call":
            ratio(count("core.tuner.candidates"), count("core.tuner.calls")),
        "core.executor.calls": count("core.executor.calls"),
        "core.executor.self_s": own.get("core.executor", 0.0),
        "core.executor.call_p50_ms": 1e3 * _percentile(executor, 0.5) if executor else 0.0,
        "core.executor.call_p90_ms": 1e3 * _percentile(executor, 0.9) if executor else 0.0,
        "core.executor.tiles": count("core.executor.tiles"),
        "core.executor.tiles_per_s": ratio(count("core.executor.tiles"), sum(executor)),
        "core.payload.self_s": own.get("core.payload", 0.0),
        "core.signaling.self_s": own.get("core.signaling", 0.0),
        "gpu.wave_tiles.self_s": own.get("gpu.wave_tiles", 0.0),
        "core.baselines.self_s": own.get("core.baselines", 0.0),
        "plans.lookups": count("plans.lookups"),
        "plans.hit_ratio": ratio(count("plans.hits"), count("plans.lookups")),
        "plans.hit_s": total("plans.hit"),
        "plans.miss_s": total("plans.miss"),
        "sim.replay.calls": count("sim.replay.calls"),
        "sim.replay.tasks": count("sim.replay.tasks"),
        "sim.replay.self_s": own.get("sim.replay", 0.0),
        "sim.replay.tasks_per_s": ratio(count("sim.replay.tasks"), total("sim.replay")),
        "pp.estimate.self_s": own.get("pp.estimate", 0.0),
        "pp.price.self_s": own.get("pp.price", 0.0),
        "e2e.resolve.calls": count("e2e.resolve.calls"),
        "e2e.self_s": table["self_by_layer"].get("e2e", 0.0),
        "plan.search.self_s": own.get("plan.search", 0.0),
        "plan.configs_priced": count("plan.configs_priced"),
        "plan.configs_pruned": count("plan.configs_pruned"),
        "plan.priced_ratio": count("plan.priced_ratio"),
        "serve.run.self_s": own.get("serve.run", 0.0),
        "serve.scheduler.self_s": own.get("serve.scheduler", 0.0),
        "serve.iteration_latency.self_s": own.get("serve.iteration_latency", 0.0),
        "serve.iterations": count("serve.iterations"),
        "serve.iterations_per_s": ratio(count("serve.iterations"), total("serve.run")),
        "sweep.jobs": count("sweep.jobs"),
        "sweep.store.self_s": own.get("sweep.store", 0.0),
        "sweep.shape_cache_hit_ratio": count("sweep.shape_cache_hit_ratio"),
        "trace.window_s": window,
        "trace.untracked_share": table["untracked_s"] / window,
    }
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = table["self_by_layer"].get(layer, 0.0)
    return values


def _unit(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_ms", "ms"), ("_share", "ratio"),
                         ("_ratio", "ratio"), ("_per_call", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_traced(run: Run, seconds: float) -> dict:
    probes = {"cli.interpreter_s": [], "cli.import_s": [], "cli.help_s": []}
    for _ in range(PROBE_ROUNDS):
        probes["cli.interpreter_s"].append(run.python("-c", "pass", log="probe.log"))
        probes["cli.import_s"].append(run.python("-c", "import repro.api", log="probe.log"))
        probes["cli.help_s"].append(run.python("-m", "repro.cli", "--help", log="probe.log"))
    began = time.monotonic()
    pairs = 0
    while pairs < MIN_TRACED_PAIRS or time.monotonic() - began < seconds:
        # Alternate which of the pair runs first, so drift does not bias the overhead.
        for traced in ((True, False) if pairs % 2 == 0 else (False, True)):
            run.workload_process(traced=traced)
        pairs += 1
    run.evaluate()
    traced = [s for s in run.processes if s["traced"] and "result" in s]
    plain = [s for s in run.processes if not s["traced"]]
    per_process = [layer_metrics(s) for s in traced]
    scaled = [{name: _at_reference_speed(name, value, s["speed"]) for name, value in p.items()}
              for s, p in zip(traced, per_process)]
    if per_process:
        first = per_process[0]
        window = first["trace.window_s"]
        print("layer        self_s   share of the traced window (first traced process)",
              file=sys.stderr)
        rows = [(name.split(".")[1], value) for name, value in first.items()
                if name.startswith("layer.")]
        rows.append(("(untracked)", first["trace.untracked_share"] * window))
        for layer, value in sorted(rows, key=lambda row: -row[1]):
            print(f"{layer:<11} {value:7.3f}s {value / window:8.2%}", file=sys.stderr)
    metrics = {}
    # The probes run before any calibration: they take the run's median speed.
    speed = calibration.REFERENCE_S / statistics.median(run.calibration)
    for name, samples in probes.items():
        if any(s["code"] != 0 for s in samples):
            run.fail(f"start-up probe {name} exited non-zero")
        metrics[name] = _metric(_median(samples, "wall_s") * speed, "s")
    for name in per_process[0] if per_process else ():
        values = [p[name] for p in per_process]
        unit = _unit(name)
        if (unit == "count" or name in DETERMINISTIC_RATIOS) and len(set(values)) != 1:
            run.fail(f"work counter {name} differs between traced processes: {values}")
        metrics[name] = _metric(statistics.median(p[name] for p in scaled), unit)
    metrics["host.calibration_ms"] = _metric(1e3 * statistics.median(run.calibration), "ms")
    if traced and plain:
        metrics["trace.overhead_ratio"] = _metric(
            _scaled_median(traced, "wall_s") / _scaled_median(plain, "wall_s") - 1.0, "ratio")
    return run.report(dict(sorted(metrics.items())))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like Ctrl-C, so a running workload process is stopped too.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    # One CPU for this process, its children and the calibration kernel: the
    # CPUs of a shared virtual machine drift in speed independently.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {root / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    run = Run(root, WORKLOADS[args.workload], args.seed, bool(args.trace))
    # One untimed import first, so every timed process finds compiled bytecode.
    warm = run.python("-c", "import repro.cli", log="warmup.log")
    if warm["code"] != 0:
        print(f"perfbench: `import repro.cli` failed; see {run.dir / 'warmup.log'}",
              file=sys.stderr)
        return 2
    payload = (run_traced if args.trace else run_plain)(run, args.seconds)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
