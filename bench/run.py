"""Fixed-work CLI benchmark for gridmarg.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N      # every workload in turn

Run from the root of a gridmarg checkout; the program is imported from
``src/``. Each run generates its scenario from ``--seed`` (see synth.py),
times ``gridmarg validate`` in five fresh interpreters (set-up, untraced
runs only), computes the check references, and then runs answers for
``--seconds`` seconds. An
answer is the workload's command sequence run through ``gridmarg.cli.main``
in a fresh interpreter whose imports are already done (worker.py); nothing
carries over between answers. Every answer's outputs are checked
(checks.py); an answer that exits nonzero or fails a check counts as failed.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` answers, and the metrics. With ``--trace 0``
these are the end-to-end metrics (medians over the run's answers); with
``--trace 1`` they are the per-layer metrics (tracing.py), medians over the
traced answers; a traced run alternates traced and untraced answers, and
writes the tracing overhead to ``overhead.json``. Files go under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import synth
from tracing import PER_LAYER

BENCH = Path(__file__).resolve().parent

SETUP_REPEATS = 5
ANSWER_TIMEOUT_S = 60.0
SWEEP_SPEC = {"ev_multipliers": [0.9, 1.0, 1.1], "flexibility_modes": ["none", "scenario"]}
SWEEP_WORKERS = 2
# The shortrun schedule keeps EV charging rigid: with the scenario's 4/8 h
# window, pinning a served profile fails on some seeds (see CHANGES.md).
SHORTRUN_FLEX = "none"
SHORTRUN_WINDOW = (0, 0)

END_TO_END = (("answer_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclass(frozen=True)
class Workload:
    name: str
    grid: str
    hours: int
    commands: Callable[["Run", Path, bool], list[list[str]]]
    reference: Callable[["Run"], object]
    check: Callable[["Run", Path, object], list[str]]


@dataclass
class Run:
    root: Path
    workdir: Path
    scenario: Path
    doc: dict
    files: dict[str, np.ndarray]
    env: dict[str, str]


def _shortrun_commands(run: Run, out: Path, serial: bool) -> list[list[str]]:
    scn = str(run.scenario)
    return [["metrics", scn, "--method", "srme1", "--zone", "all", "--out", str(out / "srme1")],
            ["schedule", scn, "--signal", "srme2", "--flex", SHORTRUN_FLEX,
             "--out", str(out / "schedule")]]


def _shortrun_reference(run: Run):
    return checks.srme1_reference(run.scenario, run.doc, run.files, run.workdir / "srme1_ref",
                                  _in_process_cli)


def _shortrun_check(run: Run, out: Path, ref) -> list[str]:
    return (checks.check_srme1(out / "srme1", run.doc, run.files, ref)
            + checks.check_schedule(out / "schedule", run.files, SHORTRUN_WINDOW))


def _lrmer_commands(run: Run, out: Path, serial: bool) -> list[list[str]]:
    return [["metrics", str(run.scenario), "--method", "lrmer", "--zone", "all", "--out", str(out)]]


def _lrmer_reference(run: Run):
    return checks.lrmer_reference(run.scenario, run.doc)


def _lrmer_check(run: Run, out: Path, ref) -> list[str]:
    return checks.check_lrmer(out, run.doc, run.files, ref)


def _sweep_commands(run: Run, out: Path, serial: bool) -> list[list[str]]:
    workers = 1 if serial else SWEEP_WORKERS
    return [["sweep", str(run.scenario), "--spec", str(run.workdir / "sweep_spec.json"),
             "--parallel", str(workers), "--out", str(out)]]


def _sweep_reference(run: Run):
    (run.workdir / "sweep_spec.json").write_text(json.dumps(SWEEP_SPEC) + "\n")
    return {}


def _sweep_check(run: Run, out: Path, ref) -> list[str]:
    problems = checks.check_sweep(out, run.doc, run.files, SWEEP_SPEC)
    # Every answer of a run, serial or parallel, must write the same bytes.
    data = (out / "sweep_results.csv").read_bytes()
    first = ref.setdefault("sweep_results.csv", data)
    if data != first:
        problems.append("sweep: sweep_results.csv differs from the run's first answer")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("shortrun-fleet-168h", "fleet", 168, _shortrun_commands,
             _shortrun_reference, _shortrun_check),
    Workload("lrmer-expansion-336h", "expansion", 336, _lrmer_commands,
             _lrmer_reference, _lrmer_check),
    Workload("sweep-expansion-168h", "expansion", 168, _sweep_commands,
             _sweep_reference, _sweep_check),
)}


def _in_process_cli(argv: list[str]) -> None:
    from gridmarg.cli import main
    code = main(["--log-level", "warning"] + argv)
    if code != 0:
        raise RuntimeError(f"reference command {argv} exited {code}")


def _median(values):
    return statistics.median(values) if values else 0.0


def time_setup(run: Run) -> float:
    """Median wall time of ``gridmarg validate`` in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "gridmarg.cli", "validate",
                               str(run.scenario)], env=run.env, cwd=run.root,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=ANSWER_TIMEOUT_S)
        times.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"validate exited {proc.returncode}: {proc.stderr.decode()}")
    return statistics.median(times)


def run_answer(run: Run, commands: list[list[str]], answer_dir: Path,
               trace: bool) -> dict | None:
    """One answer in a fresh worker; None if the worker died or timed out."""
    answer_dir.mkdir(parents=True, exist_ok=True)
    job = answer_dir / "job.json"
    trace_out = str(answer_dir / "trace.json") if trace else None
    job.write_text(json.dumps({"commands": commands, "trace_out": trace_out}))
    with open(answer_dir / "stderr.log", "w") as err:
        # A process group of its own, so a hung answer is stopped with its sweep workers.
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(job)],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                                env=run.env, cwd=run.root, text=True, process_group=0)
        try:
            if proc.stdout.readline().strip() != "ready":  # the worker failed to start
                proc.communicate(timeout=ANSWER_TIMEOUT_S)
                return None
            out, _ = proc.communicate("go\n", timeout=ANSWER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
    results = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    return json.loads(results[-1][len("RESULT "):]) if results else None


def answer_loop(run: Run, wl: Workload, ref, seconds: float, label: str,
                trace: bool = False) -> list[dict]:
    """Answers for ``seconds`` seconds (at least one), each checked.

    With ``trace`` every other answer is traced, and the untraced ones in
    between give the tracing overhead. All of them then run the serial form
    of the commands, so every span of a sweep is in one process.
    """
    answers = []
    cycles: list[float] = []
    started = time.perf_counter()
    # Start another answer only while it is expected to end within the run.
    while not answers or time.perf_counter() - started + _median(cycles) <= seconds:
        cycle_started = time.perf_counter()
        out = run.workdir / label / f"{len(answers):03d}" / "out"
        commands = wl.commands(run, out, trace)
        traced = trace and len(answers) % 2 == 0
        result = run_answer(run, commands, out.parent, traced)
        problems = ["worker died or timed out"] if result is None else []
        if result is not None:
            if any(result["codes"]):
                problems.append(f"exit codes {result['codes']}")
            else:
                problems += wl.check(run, out, ref)
        answers.append({"result": result, "problems": problems, "traced": traced,
                        "label": label,
                        "exited": result is not None and not any(result["codes"])})
        status = "ok" if not problems else "; ".join(problems)
        took = result["answer_s"] if result else float("nan")
        kind = "traced" if traced else label
        print(f"{wl.name} {kind} {len(answers)}: {took:.3f} s {status}", flush=True)
        cycles.append(time.perf_counter() - cycle_started)
    return answers


def bench(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    wl = WORKLOADS[workload]
    workdir = root / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    src = root / "src"
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(src)] + [p for p in [
                   os.environ.get("PYTHONPATH")] if p]))
    doc, files = synth.scenario_doc(wl.grid, wl.hours, seed)
    scenario = synth.write(wl.grid, wl.hours, seed, workdir / "scenario")
    run = Run(root=root, workdir=workdir, scenario=scenario, doc=doc, files=files, env=env)

    ref = wl.reference(run)
    if trace:
        answers = answer_loop(run, wl, ref, seconds, "untraced", trace=True)
        if wl.name == "sweep-expansion-168h":
            # The serial traced output must equal the timed parallel output.
            answers += answer_loop(run, wl, ref, 0, "parallel")
    else:
        setup_s = time_setup(run)
        answers = answer_loop(run, wl, ref, seconds, "answers")
    failed = sum(1 for a in answers if a["problems"])
    # `correct` speaks of the answers that ran to completion: their outputs
    # must pass every check.
    correct = all(not a["problems"] for a in answers if a["exited"])

    if trace:
        traced = [a["result"] for a in answers if a["traced"] and a["result"]]
        metrics = {name: {"value": _median([r["layers"][name] for r in traced]), "unit": unit}
                   for name, unit in PER_LAYER}
        serial = [a for a in answers
                  if a["result"] and not a["traced"] and a["label"] == "untraced"]
        overhead = {"traced_answer_s": [r["answer_s"] for r in traced],
                    "untraced_answer_s": [a["result"]["answer_s"] for a in serial]}
        overhead["overhead_s"] = (_median(overhead["traced_answer_s"])
                                  - _median(overhead["untraced_answer_s"])
                                  if serial else None)  # a run too short to alternate
        (workdir / "overhead.json").write_text(json.dumps(overhead, indent=2) + "\n")
        print(f"{workload} tracing overhead: {overhead['overhead_s']} s per answer", flush=True)
    else:
        done = [a["result"] for a in answers if a["result"]]
        values = {"answer_s": _median([r["answer_s"] for r in done]),
                  "setup_s": setup_s,
                  "peak_rss_mb": _median([r["peak_rss_mb"] for r in done])}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": correct, "attempted": len(answers), "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="gridmarg fixed-work CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "gridmarg" / "cli.py").is_file():
        print("bench: run from the root of a gridmarg checkout (src/gridmarg not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {}
    for name in names:
        reports[name] = bench(name, args.seed, args.seconds, bool(args.trace), root)
        for metric, m in reports[name]["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}", flush=True)
        print(f"{name} attempted {reports[name]['attempted']} "
              f"failed {reports[name]['failed']} correct {reports[name]['correct']}",
              flush=True)
    if args.workload == "all":
        print(json.dumps(reports))
        return 0 if all(r["correct"] and not r["failed"] for r in reports.values()) else 1
    print(json.dumps(reports[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
