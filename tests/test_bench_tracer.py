"""Smoke test: the benchmark's tracer still installs against the program.

bench/tracing.py wraps gridmarg's functions from outside and rebinds them by
name, so renaming or removing a name it relies on breaks the traced run
without breaking any other test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_scenario_io import TUTORIAL

ROOT = Path(__file__).resolve().parents[1]


def test_traced_worker_runs_a_schedule_with_no_repeat_solve(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "commands": [["schedule", str(TUTORIAL), "--signal", "srme2", "--flex", "none",
                      "--out", str(tmp_path / "schedule")]],
        "trace_out": str(tmp_path / "trace.json"),
    }))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"), str(job)],
                          input="\n", capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1].removeprefix("RESULT "))
    assert result["codes"] == [0]
    layers = result["layers"]
    assert layers["lp.solves"] > 0
    assert layers["planner.builds"] > 0
    # No layer remembers a solve, so this counts every LP the command solves
    # twice. The tutorial builds nothing and --flex none leaves one schedule:
    # the operational start, the check's base, the rates' base and both
    # evaluations' base all share the expansion LP, and the evaluations'
    # EV-scaled LP is the check's. Each is solved once and handed on.
    assert layers["lp.repeat_solves"] == 0
