"""One workload process: import ``repro``, load the inputs, run the CLI.

Spawned by ``run.py`` as a fresh interpreter; never imported.  Usage::

    python3 perfbench/child.py SPEC.json RESULT.json [SPANS.jsonl | --setup-only]

``SPEC.json`` holds the input files to load and the ``repro`` argument lists
to run, one after the other, in this process.  ``RESULT.json`` receives the
monotonic time stamps (setup done, work done) and the exit codes.  With
``SPANS.jsonl`` the layers are traced and the spans written there; with
``--setup-only`` the process stops once set up.
"""

import json
import sys
import time


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    extra = sys.argv[3] if len(sys.argv) > 3 else None
    setup_only = extra == "--setup-only"
    spans_path = None if setup_only else extra

    import repro.cli

    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    for path in spec["inputs"]:
        with open(path, encoding="utf-8") as handle:
            if path.endswith(".jsonl"):
                for line in handle:
                    json.loads(line)
            else:
                json.load(handle)

    setup_done = time.monotonic()
    if setup_only:
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump({"setup_done": setup_done}, handle)
        return 0
    window_start = time.perf_counter()
    codes = [repro.cli.main(argv) for argv in spec["invocations"]]
    work_done = time.monotonic()
    window_end = time.perf_counter()

    result = {"setup_done": setup_done, "work_done": work_done, "codes": codes}
    if tracer is not None:
        tracer.dump(spans_path)
        result.update(window=[window_start, window_end], counters=dict(tracer.counters))
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
