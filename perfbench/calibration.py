"""Host-speed calibration: a fixed kernel timed between workload processes.

The benchmark host is a shared virtual machine whose speed drifts with the
load of its neighbours, by a third within an hour at times.  Such drift
slows CPU time as much as wall time (it is contention, not steal), so no
run length averages it out.  Each run therefore times this kernel, which
never changes with the program under test, right after every workload
process, and scales that process's host times by ``REFERENCE_S / median
kernel time``: they read as seconds on a host where the kernel takes
``REFERENCE_S``.

The kernel is a plain integer loop in the interpreter: no allocation, so it
measures the speed of the CPU the workload runs on and nothing else.  On
the tuning host, over eight runs each of plan-search and serve-chat in
drifting load, scaling each process by the kernel times right after it cut
the run-to-run spread of the median wall time from 0.086 to 0.023 and from
0.097 to 0.056 (interquartile range over median); kernels that allocate (a
large dict) or call numpy tracked the workloads worse.
"""

from __future__ import annotations

import time

#: Median kernel time on the host the bounds were tuned on (a 2-vCPU Intel
#: Xeon KVM guest, CPython 3.11).  Only a unit: host times are scaled by it,
#: so changing it rescales every time metric alike.
REFERENCE_S = 0.036

#: Kernel repetitions after each workload process.
REPETITIONS = 5

def kernel() -> float:
    """Run the fixed kernel once; return its wall seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    return time.perf_counter() - start


def sample(samples: list[float]) -> None:
    """Append ``REPETITIONS`` kernel times to ``samples``."""
    samples.extend(kernel() for _ in range(REPETITIONS))
