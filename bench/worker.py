"""One benchmark answer in a fresh interpreter.

Usage: ``python3 bench/worker.py JOB.json`` with gridmarg's ``src`` on
PYTHONPATH. The worker imports gridmarg (and, for a traced answer, installs
the tracer), prints ``ready``, and waits for one line on stdin. It then runs
the job's command lines through ``gridmarg.cli.main``, timing only that, and
prints ``RESULT {json}`` as its last line: the exit codes, the wall time and
the peak resident memory of itself and its reaped children (sweep workers).
"""

from __future__ import annotations

import json
import resource
import sys
import time

import concurrent.futures.process  # noqa: F401  (the sweep's pool; an import, not answer work)

import gridmarg.cli


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    tracer = None
    if job.get("trace_out"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    sys.stdin.readline()

    started = time.perf_counter()
    codes = [gridmarg.cli.main(argv) for argv in job["commands"]]
    answer_s = time.perf_counter() - started

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"codes": codes, "answer_s": answer_s, "peak_rss_mb": peak_kb / 1024.0}
    if tracer is not None:
        result["layers"] = tracer.summary()
        with open(job["trace_out"], "w") as fh:
            json.dump({"spans": tracer.dump_spans(), "layers": result["layers"]}, fh)
    sys.stdout.flush()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
