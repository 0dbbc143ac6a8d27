"""Command-line entry point: solve, metrics, schedule, sweep, validate.

Exit codes: 0 success (including non-converged schedules, reported in the
outputs), 1 input/validation error, 2 infeasible model, 3 unbounded model.
Diagnostics go to stderr; result files go under --out. Output files are
written atomically (temp file + rename) and with fixed float formatting so
identical inputs produce byte-identical data files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import itertools
import json
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import lp
from .errors import GridmargError, InfeasibleModel, UnboundedModel
from .flex import ScheduleSource
from .grid import CostMultipliers, GridModel, resolve_scenario
from .metrics import (average_emission_rate, icev_comparison, long_run_mer, report_to_dict,
                      srme_dual, srme_uniform, write_consequential_json, write_srme_csv)
from .planner import (ScaleEV, _fmt, atomic_write_text, build_expansion_lp,
                      build_operational_lp, solve_model, write_dispatch_outputs)
from .scenario_io import load_scenario
from .scheduler import (evaluate_fixed_schedule, schedule_from_result, schedule_min_srme,
                        write_schedule_csv, write_trace_csv)

log = logging.getLogger("gridmarg")

FLEX_MODES = {"none": (0, 0), "delay8": (0, 8), "window24": (12, 12)}

DEFAULT_EV_MULTIPLIERS = [0.85, 0.90, 0.95, 1.00, 1.05, 1.10, 1.15]


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad arguments; this toolkit reserves 2
    for infeasible models, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _apply_flex_mode(grid: GridModel, mode: str) -> GridModel:
    if mode == "scenario":
        return grid
    advance, delay = FLEX_MODES[mode]
    loads = tuple(replace(l, max_advance_hours=advance, max_delay_hours=delay)
                  for l in grid.flexible_loads)
    return replace(grid, flexible_loads=loads)


def _load(path: str) -> GridModel:
    return resolve_scenario(load_scenario(path))


def cmd_validate(args) -> int:
    grid = _load(args.scenario)
    print(f"scenario OK: {len(grid.zones)} zone(s), {len(grid.generators)} generator(s), "
          f"{len(grid.storage_units)} storage, {len(grid.lines)} line(s), "
          f"{len(grid.flexible_loads)} flexible load(s), horizon {grid.horizon} h")
    return 0


def cmd_solve(args) -> int:
    grid = _load(args.scenario)
    outdir = Path(args.out)
    if args.mode == "expansion":
        result = solve_model(build_expansion_lp(grid))
    else:
        expansion = solve_model(build_expansion_lp(grid))
        result = solve_model(build_operational_lp(grid, expansion.fixed_capacities()))
    write_dispatch_outputs(grid, result, outdir)
    log.info("solved %s (%s): cost %.2f, emissions %.2f tCO2",
             args.scenario, args.mode, result.total_cost, result.total_emissions)
    return 0


def cmd_metrics(args) -> int:
    grid = _load(args.scenario)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    if args.method == "aer":
        result = solve_model(build_expansion_lp(grid))
        payload = {"aer_system_tco2_per_mwh": average_emission_rate(result),
                   "aer_by_zone_tco2_per_mwh": {
                       z: average_emission_rate(result, z) for z in grid.zone_ids()}}
        atomic_write_text(outdir / "aer.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(_fmt(payload["aer_system_tco2_per_mwh"]))
        return 0

    if args.method in ("srme1", "srme2"):
        expansion = solve_model(build_expansion_lp(grid))
        caps = expansion.fixed_capacities()
        if args.method == "srme1":
            zones = "all" if args.zone in ("all", "each-separately") else args.zone
            series = srme_uniform(grid, caps, zones=zones)
        else:
            series = srme_dual(grid, caps)
        write_srme_csv(series, outdir / "srme.csv")
        log.info("wrote %s rates for %d zone(s)", series.method, len(series.zone_ids))
        return 0

    # lrmer
    fraction = grid.config.perturbation_fraction
    if args.zone == "each-separately":
        reports = {}
        for zone in grid.zone_ids():
            report = long_run_mer(grid, ScaleEV(fraction), target_zones=[zone])
            reports[zone] = report_to_dict(report)
        write_consequential_json(reports, outdir / "consequential.json")
    else:
        targets = "all" if args.zone == "all" else [args.zone]
        report = long_run_mer(grid, ScaleEV(fraction), target_zones=targets)
        ev_energy = sum(float(l.effective_baseline().sum()) for l in grid.flexible_loads)
        if grid.config.ev_annual_mwh > 0 and ev_energy > 0:
            fleet = ev_energy / grid.config.ev_annual_mwh
            report = replace(report, per_ev_normalization=icev_comparison(
                report, fleet, grid.config.ev_annual_mwh, grid.config.icev_tco2_per_year))
        write_consequential_json(report, outdir / "consequential.json")
        print(_fmt(report.lr_mer))
    return 0


def cmd_schedule(args) -> int:
    grid = _apply_flex_mode(_load(args.scenario), args.flex)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    expansion = solve_model(build_expansion_lp(grid))
    cost_schedule = schedule_from_result(grid, expansion, ScheduleSource.COST_MIN)
    cost_report = evaluate_fixed_schedule(grid, cost_schedule)

    if args.signal == "cost":
        schedule, trace = cost_schedule, None
        report = cost_report
    else:
        schedule, trace = schedule_min_srme(grid, expansion.fixed_capacities(),
                                            method=args.signal.upper())
        report = evaluate_fixed_schedule(grid, schedule)

    write_schedule_csv(schedule, outdir / "schedule.csv")
    if trace is not None:
        write_trace_csv(trace, outdir / "iteration_trace.csv")

    comparison = {
        "signal": args.signal,
        "flex": args.flex,
        "converged": trace.converged if trace is not None else True,
        "iterations_used": trace.iterations_used if trace is not None else 0,
        "cost_reference": report_to_dict(cost_report),
        "signal_schedule": report_to_dict(report),
        "deltas_vs_cost_reference": {
            "base_total_emissions_tco2": report.base_total_emissions
                                          - cost_report.base_total_emissions,
            "base_total_cost_usd": report.base_total_cost - cost_report.base_total_cost,
            "lr_mer_tco2_per_mwh": report.lr_mer - cost_report.lr_mer,
        },
    }
    ev_energy = sum(float(l.effective_baseline().sum()) for l in grid.flexible_loads)
    if grid.config.ev_annual_mwh > 0 and ev_energy > 0:
        fleet = ev_energy / grid.config.ev_annual_mwh
        comparison["per_1000_ev"] = {
            "fleet_vehicles": fleet,
            "emissions_delta_tco2": (report.base_total_emissions
                                     - cost_report.base_total_emissions) / fleet * 1000.0,
            "cost_delta_usd": (report.base_total_cost
                               - cost_report.base_total_cost) / fleet * 1000.0,
        }
    atomic_write_text(outdir / "comparison.json",
                      json.dumps(comparison, indent=2, sort_keys=True) + "\n")
    if trace is not None and not trace.converged:
        log.warning("penalty iteration did not converge in %d iteration(s); "
                    "results use the final schedule", trace.iterations_used)
    return 0


# --- sweep -----------------------------------------------------------------------

def _read_sweep_spec(path: str | None) -> dict:
    spec = {}
    raw = b""
    if path is not None:
        raw = Path(path).read_bytes()
        spec = json.loads(raw)
        allowed = {"ev_multipliers", "renewable_capex_multipliers",
                   "gas_price_multipliers", "flexibility_modes", "target_zones"}
        extra = set(spec) - allowed
        if extra:
            raise GridmargError(f"sweep spec: unknown field(s) {sorted(extra)}")
    out = {
        "ev_multipliers": [float(v) for v in spec.get("ev_multipliers", DEFAULT_EV_MULTIPLIERS)],
        "renewable_capex_multipliers": [float(v) for v in
                                        spec.get("renewable_capex_multipliers", [1.0])],
        "gas_price_multipliers": [float(v) for v in spec.get("gas_price_multipliers", [1.0])],
        "flexibility_modes": list(spec.get("flexibility_modes", ["scenario"])),
        "target_zones": spec.get("target_zones", "all"),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }
    for key in ("ev_multipliers", "renewable_capex_multipliers", "gas_price_multipliers",
                "flexibility_modes"):
        if not out[key]:
            raise GridmargError(f"sweep spec: {key} must be non-empty")
    for key in ("ev_multipliers", "renewable_capex_multipliers", "gas_price_multipliers"):
        if any(v <= 0 for v in out[key]):
            raise GridmargError(f"sweep spec: {key} must be positive")
    for mode in out["flexibility_modes"]:
        if mode not in set(FLEX_MODES) | {"scenario"}:
            raise GridmargError(f"sweep spec: unknown flexibility mode {mode!r}")
    return out


def _sweep_cells(grid: GridModel, spec: dict) -> list[dict]:
    if spec["target_zones"] == "each-separately":
        zones = [[z] for z in grid.zone_ids()]
    elif spec["target_zones"] == "all":
        zones = ["all"]
    else:
        zones = [[z] for z in spec["target_zones"]]
    cells = []
    for run_id, (ev, capex, gas, flex, target) in enumerate(itertools.product(
            spec["ev_multipliers"], spec["renewable_capex_multipliers"],
            spec["gas_price_multipliers"], spec["flexibility_modes"], zones)):
        cells.append({"run_id": run_id, "ev_multiplier": ev, "renewable_capex": capex,
                      "gas_price": gas, "flex": flex, "target_zone": target})
    return cells


def _run_sweep_cell(raw_grid: GridModel, cell: dict,
                    warm_start: lp.LpSolution | None = None) -> tuple[dict, lp.LpSolution | None]:
    """One sweep cell: its outcome row, and its base solution if it succeeded.

    warm_start seeds the cell's base expansion solve (see _run_sweep_group).
    """
    started = time.time()
    try:
        with lp.solve_memo_scope():  # a cell keeps no solution for the next one
            cfg = replace(raw_grid.config,
                          ev_penetration_multiplier=cell["ev_multiplier"],
                          cost_multipliers=CostMultipliers(renewable_capex=cell["renewable_capex"],
                                                           gas_price=cell["gas_price"]))
            grid = _apply_flex_mode(resolve_scenario(replace(raw_grid, config=cfg)), cell["flex"])
            report = long_run_mer(grid, ScaleEV(grid.config.perturbation_fraction),
                                  target_zones=cell["target_zone"], warm_start=warm_start)
        metrics = {
            "lr_mer_tco2_per_mwh": report.lr_mer,
            "aer_system_tco2_per_mwh": average_emission_rate(report.base),
            "base_total_emissions_tco2": report.base_total_emissions,
            "pert_total_emissions_tco2": report.pert_total_emissions,
            "delta_demand_mwh": report.delta_demand_mwh,
            "base_total_cost_usd": report.base_total_cost,
        }
        return ({**cell, "status": "success", "metrics": metrics,
                 "wall_clock_s": time.time() - started}, report.base.solution)
    except Exception as exc:  # individual failures must not abort the sweep
        return ({**cell, "status": "error", "error": f"{type(exc).__name__}: {exc}",
                 "metrics": {}, "wall_clock_s": time.time() - started}, None)


def _run_sweep_group(raw_grid: GridModel, cells: list[dict]) -> list[dict]:
    """Run cells that share a flexibility mode, in order, as one warm-start chain.

    Such cells build expansion LPs of one shape that differ only in bounds
    and costs, so each cell's base solve starts from the base solution of the
    last cell before it that succeeded; the first cell's base solve is cold.
    Which solves start from which basis depends on the spec alone, never on
    the worker count.
    """
    outcomes, warm_start = [], None
    for cell in cells:
        # Looked up by name at call time, so a wrapper bound to the module
        # attribute (the benchmark's tracer) sees every cell.
        outcome, base = _run_sweep_cell(raw_grid, cell, warm_start)
        outcomes.append(outcome)
        if base is not None:
            warm_start = base
    return outcomes


def cmd_sweep(args) -> int:
    raw_grid = load_scenario(args.scenario)
    spec = _read_sweep_spec(args.spec)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    groups: dict[str, list[dict]] = {}
    for cell in _sweep_cells(raw_grid, spec):
        groups.setdefault(cell["flex"], []).append(cell)

    workers = min(args.parallel, len(groups))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_sweep_group, itertools.repeat(raw_grid), groups.values()))
    else:
        done = [_run_sweep_group(raw_grid, cells) for cells in groups.values()]
    outcomes = sorted(itertools.chain.from_iterable(done), key=lambda o: o["run_id"])

    rows = ["run_id,ev_multiplier,renewable_capex,gas_price,flex,target_zone,metric,value"]
    for out in outcomes:
        zone_label = out["target_zone"] if isinstance(out["target_zone"], str) \
            else "+".join(out["target_zone"])
        for metric in sorted(out["metrics"]):
            rows.append(f"{out['run_id']},{_fmt(out['ev_multiplier'])},"
                        f"{_fmt(out['renewable_capex'])},{_fmt(out['gas_price'])},"
                        f"{out['flex']},{zone_label},{metric},{_fmt(out['metrics'][metric])}")
    atomic_write_text(outdir / "sweep_results.csv", "\n".join(rows) + "\n")

    manifest = {
        "scenario": str(args.scenario),
        "sweep_spec_sha256": spec["sha256"],
        "outputs": ["sweep_results.csv"],
        "runs": [{k: v for k, v in out.items() if k != "metrics"} for out in outcomes],
    }
    atomic_write_text(outdir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    failures = sum(1 for o in outcomes if o["status"] != "success")
    log.info("sweep finished: %d run(s), %d failure(s)", len(outcomes), failures)
    return 0


def _worker_count(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"worker count must be a whole number >= 1, got {text!r} "
            f"(from --parallel, or GRIDMARG_THREADS when --parallel is not given)")
    return workers


def build_parser() -> _Parser:
    parser = _Parser(prog="gridmarg",
                     description="Zonal capacity-expansion LPs and consequential "
                                 "emission metrics for flexible EV charging")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load and validate a scenario")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve a scenario and write dispatch outputs")
    p.add_argument("scenario")
    p.add_argument("--mode", default="expansion", choices=["expansion", "operational"])
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("metrics", help="compute emission-rate metrics")
    p.add_argument("scenario")
    p.add_argument("--method", required=True, choices=["aer", "srme1", "srme2", "lrmer"])
    p.add_argument("--zone", default="all",
                   help="zone id, 'all', or 'each-separately' (lrmer/srme1)")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("schedule", help="run a charging-signal experiment")
    p.add_argument("scenario")
    p.add_argument("--signal", default="cost", choices=["cost", "srme1", "srme2"])
    p.add_argument("--flex", default="scenario",
                   choices=["none", "delay8", "window24", "scenario"])
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("sweep", help="run a scenario sweep")
    p.add_argument("scenario")
    p.add_argument("--spec", default=None, help="sweep spec JSON (defaults cover the EV range)")
    # A string default goes through type= only when sweep is the command, so
    # a bad GRIDMARG_THREADS fails sweep alone.
    p.add_argument("--parallel", type=_worker_count,
                   default=os.environ.get("GRIDMARG_THREADS", "1"),
                   help="worker processes, at least 1 (default: GRIDMARG_THREADS, else 1); "
                        "each runs one flexibility mode's cells, so no more workers "
                        "start than the spec has modes")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse --help or usage error
        return int(exc.code or 0)
    logging.basicConfig(level=args.log_level.upper(),
                        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr,
                        force=True)
    try:
        with lp.solve_memo_scope():
            return args.func(args)
    except InfeasibleModel as exc:
        log.error("infeasible: %s", exc)
        return 2
    except UnboundedModel as exc:
        log.error("unbounded: %s", exc)
        return 3
    except GridmargError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 1
    except OSError as exc:
        log.error("i/o error: %s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
