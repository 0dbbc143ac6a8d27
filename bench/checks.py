"""Output checks for benchmark answers.

Each check compares an answer's files against a computation made apart from
the command under test, or against a property the method must have; none
compares against stored outputs. A check returns a list of problems (empty
when the answer is correct). The references (``*_reference``) are computed
once per run, before any answer is timed.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import numpy as np

import synth

ENERGY_TOL_MWH = 1e-6
SERVED_FLOOR_MW = -1e-9


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _hourly_emissions(outdir: Path, hours: int) -> np.ndarray:
    total = np.zeros(hours)
    for row in _read_rows(outdir / "emissions.csv"):
        total[int(row["hour"])] += float(row["tco2"])
    return total


def _ev_energy(files: dict[str, np.ndarray]) -> float:
    return float(sum(files[f"{z}_ev.csv"].sum() for z in synth.ZONES))


# --- SRME1 -----------------------------------------------------------------------

def srme1_reference(scenario: Path, doc: dict, files: dict[str, np.ndarray],
                    work: Path, run_cli) -> dict:
    """Hourly total emissions of the base and of each zone's demand x (1 + f).

    Each perturbed copy is a separate scenario written by the benchmark and
    solved with ``solve --mode operational``: SRME1 is by definition this
    finite difference.
    """
    frac = doc["config"]["srme1_fraction"]
    hours = doc["config"]["horizon_hours"]
    run_cli(["solve", str(scenario), "--mode", "operational", "--out", str(work / "base")])
    ref = {"base": _hourly_emissions(work / "base", hours), "pert": {}}
    for z in synth.ZONES:
        copy = work / f"scenario_{z}"
        shutil.copytree(scenario.parent, copy, dirs_exist_ok=True)
        synth.write_series(copy / f"{z}_demand.csv", files[f"{z}_demand.csv"] * (1.0 + frac))
        run_cli(["solve", str(copy / "scenario.json"), "--mode", "operational",
                 "--out", str(work / f"pert_{z}")])
        ref["pert"][z] = _hourly_emissions(work / f"pert_{z}", hours)
    return ref


def check_srme1(outdir: Path, doc: dict, files: dict[str, np.ndarray], ref: dict) -> list[str]:
    frac = doc["config"]["srme1_fraction"]
    rates: dict[str, dict[int, float]] = {}
    for row in _read_rows(outdir / "srme.csv"):
        if row["method"] == "SRME1":
            rates.setdefault(row["zone"], {})[int(row["hour"])] = float(row["rate_tco2_per_mwh"])
    tol = 1e-6 * float(ref["base"].sum())
    problems = []
    for z in synth.ZONES:
        demand = files[f"{z}_demand.csv"]
        delta = ref["pert"][z] - ref["base"]
        if sorted(rates.get(z, {})) != list(range(len(demand))):
            problems.append(f"srme1: zone {z} rates missing hours")
            continue
        rate = np.array([rates[z][t] for t in range(len(demand))])
        err = np.abs(rate * frac * demand - delta)[demand > 0]
        if err.max(initial=0.0) > tol:
            problems.append(f"srme1: zone {z} differs from the finite difference by "
                            f"{err.max():.3g} tCO2 (tolerance {tol:.3g})")
    return problems


# --- schedule ---------------------------------------------------------------------

def check_schedule(outdir: Path, files: dict[str, np.ndarray],
                   window: tuple[int, int]) -> list[str]:
    """Energy conservation, nonnegative charging and window bounds per load."""
    advance, delay = window
    served: dict[str, dict[int, float]] = {}
    for row in _read_rows(outdir / "schedule.csv"):
        served.setdefault(row["zone"], {})[int(row["hour"])] = float(row["served_mw"])
    problems = []
    for z in synth.ZONES:
        baseline = files[f"{z}_ev.csv"]
        hours = len(baseline)
        if sorted(served.get(z, {})) != list(range(hours)):
            problems.append(f"schedule: zone {z} missing hours")
            continue
        s = np.array([served[z][t] for t in range(hours)])
        total = float(baseline.sum())
        tol = ENERGY_TOL_MWH + 1e-9 * total
        if abs(float(s.sum()) - total) > ENERGY_TOL_MWH:
            problems.append(f"schedule: zone {z} serves {s.sum():.9g} MWh of {total:.9g}")
        if s.min() < SERVED_FLOOR_MW:
            problems.append(f"schedule: zone {z} serves {s.min():.3g} MW")
        # Cumulative window bounds as documented in gridmarg.flex.
        cum = np.cumsum(baseline)
        t = np.arange(hours)
        floor = np.where(t - delay >= 0, cum[np.clip(t - delay, 0, hours - 1)], 0.0)
        ceiling = cum[np.minimum(t + advance, hours - 1)]
        got = np.cumsum(s)
        if np.any(got < floor - tol) or np.any(got > ceiling + tol):
            problems.append(f"schedule: zone {z} leaves its ({advance}, {delay}) h window")
    comparison = json.loads((outdir / "comparison.json").read_text())
    cost = comparison["cost_reference"]["base_total_cost_usd"]
    gap = comparison["deltas_vs_cost_reference"]["base_total_cost_usd"]
    if gap < -1e-6 * abs(cost):
        problems.append(f"schedule: pinned schedule beats the cost optimum by {-gap:.6g} USD")
    return problems


# --- LR-MER -----------------------------------------------------------------------

def lrmer_reference(scenario: Path, doc: dict) -> float:
    """Base expansion cost from an interior-point solve of the same LP.

    The LP is built by gridmarg; it is solved by scipy's HiGHS interior-point
    method (the program uses dual simplex). The fixed O&M on the existing
    fleet, a constant outside the LP, is added from the scenario document.
    """
    from scipy.optimize import linprog

    from gridmarg.grid import resolve_scenario
    from gridmarg.planner import build_expansion_lp
    from gridmarg.scenario_io import load_scenario

    p = build_expansion_lp(resolve_scenario(load_scenario(scenario))).problem
    res = linprog(p.c, A_ub=p.A_ub, b_ub=p.b_ub, A_eq=p.A_eq, b_eq=p.b_eq,
                  bounds=np.column_stack([p.lb, p.ub]), method="highs-ipm")
    if res.status != 0:
        raise RuntimeError(f"reference interior-point solve failed: {res.message}")
    return float(res.fun) + synth.fixed_om_offset(doc)


def check_lrmer(outdir: Path, doc: dict, files: dict[str, np.ndarray],
                ref_cost: float) -> list[str]:
    report = json.loads((outdir / "consequential.json").read_text())
    problems = []
    want = doc["config"]["perturbation_fraction"] * _ev_energy(files)
    if abs(report["delta_demand_mwh"] - want) > 1e-6 * want:
        problems.append(f"lrmer: delta demand {report['delta_demand_mwh']:.9g} MWh, "
                        f"expected {want:.9g}")
    cost = report["base_total_cost_usd"]
    if abs(cost - ref_cost) > 1e-6 * abs(ref_cost):
        problems.append(f"lrmer: base cost {cost:.12g} differs from the interior-point "
                        f"reference {ref_cost:.12g}")
    return problems


# --- sweep ------------------------------------------------------------------------

def check_sweep(outdir: Path, doc: dict, files: dict[str, np.ndarray], spec: dict) -> list[str]:
    problems = []
    manifest = json.loads((outdir / "manifest.json").read_text())
    runs = manifest["runs"]
    expected_cells = len(spec["ev_multipliers"]) * len(spec["flexibility_modes"])
    if len(runs) != expected_cells:
        problems.append(f"sweep: {len(runs)} cells, expected {expected_cells}")
    for run in runs:
        if run["status"] != "success":
            problems.append(f"sweep: cell {run['run_id']} {run['status']}: {run.get('error')}")
    energy = _ev_energy(files)
    frac = doc["config"]["perturbation_fraction"]
    seen = set()
    for row in _read_rows(outdir / "sweep_results.csv"):
        if row["metric"] != "delta_demand_mwh":
            continue
        seen.add(int(row["run_id"]))
        want = frac * float(row["ev_multiplier"]) * energy
        if abs(float(row["value"]) - want) > 1e-6 * want:
            problems.append(f"sweep: cell {row['run_id']} delta demand {row['value']} MWh, "
                            f"expected {want:.9g}")
    if len(seen) != expected_cells:
        problems.append(f"sweep: delta_demand_mwh for {len(seen)} of {expected_cells} cells")
    return problems
