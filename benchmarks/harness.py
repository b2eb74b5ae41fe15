"""Command line and regression gate shared by the gated perf benches.

Each ``bench_*.py`` perf script declares one ``collect(smoke)`` function
that measures its sections and returns ``{"meta", "metrics", "checks"}``;
its ``__main__`` block hands that function to :func:`main`.  The harness
owns everything else: the ``--smoke/--out/--baseline/--check`` command line,
the observability session around ``collect``, the ``BENCH_<name>.json``
report, the printed summary and the exit code:

* 1 when any ``checks`` entry is false (before any gating);
* 1 under ``--check`` when the baseline is missing, or when a gated ratio
  fell below ``baseline / REGRESSION_FACTOR`` or vanished from the report;
* 0 otherwise.

**Which keys are gated.**  A numeric leaf of ``metrics`` is gated when its
own key contains ``speedup``, or when the dict holding it is stored under a
key containing ``speedup`` (``{"overlap_speedup": {"gpipe": 1.2, ...}}``).
Ratios rather than absolute times are gated, so the gate is portable across
machines; an informational wall-clock ratio that should not be gated is
named without ``speedup`` (``wall_ratio``).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "tests", _ROOT / "src"):  # tests/ holds the reference oracles
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np

from repro import obs
from repro.atomic import atomic_write_text

BENCH_DIR = Path(__file__).resolve().parent

#: Fail --check when a gated ratio drops below baseline / REGRESSION_FACTOR.
REGRESSION_FACTOR = 2.0


def gated_ratios(metrics: dict, prefix: str = "", under_speedup: bool = False) -> dict[str, float]:
    """Flatten the gated ratios of a metrics tree into ``{dotted.key: value}``."""
    found: dict[str, float] = {}
    for key, value in metrics.items():
        if isinstance(value, dict):
            found.update(gated_ratios(value, f"{prefix}{key}.", "speedup" in key))
        elif (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and (under_speedup or "speedup" in key)
        ):
            found[f"{prefix}{key}"] = float(value)
    return found


def regressions(metrics: dict, baseline_metrics: dict) -> list[str]:
    """Gated baseline ratios that vanished or regressed >2x in ``metrics``."""
    current = gated_ratios(metrics)
    failures = []
    for name, ref_value in gated_ratios(baseline_metrics).items():
        cur_value = current.get(name)
        if cur_value is None:
            failures.append(f"{name}: missing from current report (baseline {ref_value:.2f}x)")
        elif cur_value < ref_value / REGRESSION_FACTOR:
            failures.append(
                f"{name}: {cur_value:.2f}x is a >{REGRESSION_FACTOR:g}x regression "
                f"vs baseline {ref_value:.2f}x"
            )
    return failures


def main(
    name: str,
    collect: Callable[[bool], dict],
    summary: Callable[[dict], list[str]] | None = None,
    label: str | None = None,
    argv: list[str] | None = None,
) -> int:
    """Run one bench: measure, write ``BENCH_<name>.json``, report, gate.

    ``summary`` returns extra lines printed after the report path;
    ``label`` names the checks in the failure message (default ``name``).
    The bench's module supplies the ``--help`` text and the observability
    command name.
    """
    module = sys.modules[collect.__module__]
    command = Path(module.__file__).stem
    parser = argparse.ArgumentParser(description=(module.__doc__ or command).splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--out", type=Path, default=BENCH_DIR / "output" / f"BENCH_{name}.json",
        help="report JSON path",
    )
    parser.add_argument(
        "--baseline", type=Path, default=BENCH_DIR / f"BENCH_{name}_baseline.json",
        help="committed baseline JSON",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero on a >{REGRESSION_FACTOR:g}x speedup regression vs the baseline",
    )
    args = parser.parse_args(argv)

    with obs.observe() as obs_session:
        sections = collect(args.smoke)
    report = {
        "meta": {
            "smoke": args.smoke,
            **sections["meta"],
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "metrics": sections["metrics"],
        "checks": sections["checks"],
        "observability": obs_session.snapshot(command=command).to_dict(),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")

    ratios = gated_ratios(report["metrics"])
    width = max(map(len, [*ratios, *report["checks"]]), default=0)
    print(f"wrote {args.out}")
    for line in summary(report) if summary is not None else ():
        print(f"  {line}")
    for key, value in ratios.items():
        print(f"  {key:{width}s} {value:8.3f}x")
    for key, ok in report["checks"].items():
        print(f"  {key:{width}s} {'ok' if ok else 'FAILED'}")

    failed = [key for key, ok in report["checks"].items() if not ok]
    if failed:
        print(f"{label or name} checks failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    if args.check:
        if not args.baseline.exists():
            print(f"baseline {args.baseline} missing; cannot --check", file=sys.stderr)
            return 1
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
        failures = regressions(report["metrics"], baseline.get("metrics", {}))
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION {failure}", file=sys.stderr)
            return 1
        print(f"no >{REGRESSION_FACTOR:g}x regressions vs {args.baseline}")
    return 0
