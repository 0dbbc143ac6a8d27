"""Command-line entry point: solve, metrics, schedule, sweep, validate.

Exit codes: 0 success (including non-converged schedules, reported in the
outputs), 1 input/validation error, 2 infeasible model, 3 unbounded model.
Diagnostics go to stderr; result files go under --out, written by
gridmarg.outputs, so identical inputs produce byte-identical data files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import itertools
import json
import logging
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import outputs
from .errors import DegenerateDelta, GridmargError, InfeasibleModel, UnboundedModel, UnknownZone
from .grid import CostMultipliers, GridModel, resolve_scenario
from .metrics import (ConsequentialReport, average_emission_rate, icev_comparison,
                      long_run_mer, short_run_rates)
from .planner import DispatchResult, solve_expansion, solve_operational
from .scenario_io import load_scenario
from .scheduler import compare_signal

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


def _ev_fleet(grid: GridModel, zone: str | None = None) -> float | None:
    """Vehicles in the EV energy of zone (of every zone if None) at ev_annual_mwh
    each; None unless both are > 0."""
    ev_energy = sum(float(l.effective_baseline().sum()) for l in grid.flexible_loads
                    if zone is None or l.zone_id == zone)
    if grid.config.ev_annual_mwh > 0 and ev_energy > 0:
        return ev_energy / grid.config.ev_annual_mwh
    return None


def _per_vehicle(report: ConsequentialReport, zone: str | None = None) -> ConsequentialReport:
    """report with its per-vehicle normalization against the ICEV, for the
    fleet of _ev_fleet(grid, zone) on the report's grid; report itself where
    there is no fleet."""
    grid = report.base.model.grid
    fleet = _ev_fleet(grid, zone)
    if fleet is None:
        return report
    return replace(report, per_ev_normalization=icev_comparison(
        report, fleet, grid.config.ev_annual_mwh, grid.config.icev_tco2_per_year))


def cmd_validate(args) -> int:
    grid = _load(args.scenario)
    print(f"scenario OK: {len(grid.zones)} zone(s), {len(grid.generators)} generator(s), "
          f"{len(grid.storage_units)} storage, {len(grid.lines)} line(s), "
          f"{len(grid.flexible_loads)} flexible load(s), horizon {grid.horizon} h")
    return 0


def cmd_solve(args) -> int:
    grid = _load(args.scenario)
    if args.mode == "expansion":
        result = solve_expansion(grid)
    else:
        result = solve_operational(solve_expansion(grid))
    outputs.write_dispatch_outputs(result, args.out)
    log.info("solved %s (%s): cost %.2f, emissions %.2f tCO2",
             args.scenario, args.mode, result.total_cost, result.total_emissions)
    return 0


def cmd_metrics(args) -> int:
    grid = _load(args.scenario)
    if args.zone not in ("all", "each-separately", *grid.zone_ids()):
        raise UnknownZone(f"unknown zone id(s): {[args.zone]}")
    outdir = outputs.out_dir(args.out)

    if args.method == "aer":
        result = solve_expansion(grid)
        system = average_emission_rate(result)
        outputs.write_aer_json(outdir / "aer.json", system,
                               {z: average_emission_rate(result, z) for z in grid.zone_ids()})
        print(outputs.fmt(system))
        return 0

    if args.method in ("srme1", "srme2"):
        zones = "all" if args.zone in ("all", "each-separately") else args.zone
        series = short_run_rates(args.method.upper(), solve_operational(solve_expansion(grid)),
                                 zones)
        outputs.write_srme_csv(series, outdir / "srme.csv")
        log.info("wrote %s rates for %d zone(s)", series.method, len(series.zone_ids))
        return 0

    # lrmer: one base solve, differenced against each perturbation
    base = solve_expansion(grid)
    if args.zone == "each-separately":
        # A zone whose perturbation moves no demand (no EV load) has no rate;
        # it is recorded as such and the other zones are still reported.
        reports = {}
        for zone in grid.zone_ids():
            try:
                reports[zone] = outputs.report_to_dict(
                    _per_vehicle(long_run_mer(base, target_zones=[zone]), zone))
            except DegenerateDelta as exc:
                log.warning("zone %s: DegenerateDelta: %s", zone, exc)
                reports[zone] = {"error": f"DegenerateDelta: {exc}"}
        outputs.write_consequential_json(reports, outdir / "consequential.json")
        if all("error" in r for r in reports.values()):
            log.error("no zone has a defined LR-MER")
            return 1
    else:
        zone = None if args.zone == "all" else args.zone
        report = _per_vehicle(long_run_mer(base, target_zones="all" if zone is None else [zone]),
                              zone)
        outputs.write_consequential_json(report, outdir / "consequential.json")
        print(outputs.fmt(report.lr_mer))
    return 0


def cmd_schedule(args) -> int:
    grid = _apply_flex_mode(_load(args.scenario), args.flex)
    outdir = outputs.out_dir(args.out)

    schedule, trace, cost_report, report = compare_signal(solve_expansion(grid), args.signal)

    outputs.write_schedule_csv(schedule, outdir / "schedule.csv")
    if trace is not None:
        outputs.write_trace_csv(trace, outdir / "iteration_trace.csv")
    outputs.write_comparison_json(outdir / "comparison.json", args.signal, args.flex, trace,
                                  cost_report, report, _ev_fleet(grid))
    if trace is not None and not trace.converged:
        log.warning("penalty iteration did not converge in %d iteration(s); "
                    "results use the final schedule", trace.iterations_used)
    return 0


# --- sweep -----------------------------------------------------------------------

# Sweep spec list fields and their defaults, in cell-key order; target_zones comes last.
SWEEP_LISTS = {"ev_multipliers": DEFAULT_EV_MULTIPLIERS, "renewable_capex_multipliers": [1.0],
               "gas_price_multipliers": [1.0], "flexibility_modes": ["scenario"]}
CELL_KEYS = ("ev_multiplier", "renewable_capex", "gas_price", "flex", "target_zone")


def _read_sweep_spec(path: str | None, zone_ids: list[str]) -> tuple[str, list[dict]]:
    """The SHA-256 of the sweep spec at path, and its cells: one per combination
    of its values (every default when path is None). Each field is checked."""
    spec, raw = {}, b""
    if path is not None:
        raw = Path(path).read_bytes()
        try:
            spec = json.loads(raw)
        except ValueError as exc:  # malformed JSON, or bytes that are not text
            raise GridmargError(f"sweep spec: {path}: {exc}") from None
        if not isinstance(spec, dict):
            raise GridmargError(f"sweep spec: top level must be an object, got {spec!r}")
        extra = set(spec) - set(SWEEP_LISTS) - {"target_zones"}
        if extra:
            raise GridmargError(f"sweep spec: unknown field(s) {sorted(extra)}")
    modes = [*FLEX_MODES, "scenario"]
    axes = []
    for key, default in SWEEP_LISTS.items():
        values = spec.get(key, default)
        ok = isinstance(values, list) and bool(values)
        if key == "flexibility_modes":
            # `in` on a list compares with ==, so an unhashable entry is just not found.
            ok, what = ok and all(v in modes for v in values), f"flexibility modes {modes}"
        else:  # type(), not isinstance(), so that true and false are refused
            ok = ok and all(type(v) in (int, float) and math.isfinite(v) and v > 0
                            for v in values)
            what = "positive finite numbers"
        if not ok:
            raise GridmargError(f"sweep spec: {key} must be a non-empty list of {what}, "
                                f"got {values!r}")
        axes.append(values if key == "flexibility_modes" else [float(v) for v in values])
    zones = spec.get("target_zones", "all")
    if zones == "each-separately":
        zones = zone_ids
    elif zones != "all" and not (isinstance(zones, list) and zones
                                 and all(z in zone_ids for z in zones)):
        raise GridmargError(f"sweep spec: target_zones must be 'all', 'each-separately' or a "
                            f"non-empty list of zone ids from {zone_ids}, got {zones!r}")
    axes.append(["all"] if zones == "all" else [[z] for z in zones])
    cells = [{"run_id": run_id, **dict(zip(CELL_KEYS, values))}
             for run_id, values in enumerate(itertools.product(*axes))]
    return hashlib.sha256(raw).hexdigest(), cells


def _run_sweep_cell(raw_grid: GridModel, cell: dict, like: DispatchResult | None = None,
                    base: DispatchResult | None = None) -> tuple[dict, DispatchResult | None]:
    """One sweep cell: its outcome row, and its base result if that solved.

    base, if given, is the cell's base result, held from a cell that differs
    only in target_zone; else like, if given, seeds the cell's base solve
    (see _run_sweep_group).
    """
    started = time.time()
    try:
        if base is None:
            cfg = replace(raw_grid.config,
                          ev_penetration_multiplier=cell["ev_multiplier"],
                          cost_multipliers=CostMultipliers(renewable_capex=cell["renewable_capex"],
                                                           gas_price=cell["gas_price"]))
            grid = _apply_flex_mode(resolve_scenario(replace(raw_grid, config=cfg)),
                                    cell["flex"])
            base = solve_expansion(grid, like)
        report = long_run_mer(base, target_zones=cell["target_zone"])
        metrics = {
            "lr_mer_tco2_per_mwh": report.lr_mer,
            "aer_system_tco2_per_mwh": average_emission_rate(report.base),
            "base_total_emissions_tco2": report.base_total_emissions,
            "pert_total_emissions_tco2": report.pert_total_emissions,
            "delta_demand_mwh": report.delta_demand_mwh,
            "base_total_cost_usd": report.base_total_cost,
        }
        outcome = {**cell, "status": "success", "metrics": metrics}
    except Exception as exc:  # individual failures must not abort the sweep
        outcome = {**cell, "status": "error", "error": f"{type(exc).__name__}: {exc}",
                   "metrics": {}}
    return {**outcome, "wall_clock_s": time.time() - started}, base


def _run_sweep_group(raw_grid: GridModel, cells: list[dict]) -> list[dict]:
    """Run cells that share a flexibility mode, in order, as one warm-start chain.

    Such cells build expansion LPs of one shape that differ only in bounds
    and costs, so each cell's base LP fills the structure of the base result
    of the last cell before it that succeeded, and its solve starts from
    that result's solution; the first cell's base has neither (see
    planner.solve_expansion). Cells that differ only in target_zone have
    one base LP, and the cells after the first take its result as it is.
    Which solves start from which basis depends on the spec alone, never on
    the worker count.
    """
    outcomes, like, held = [], None, (None, None)
    for cell in cells:
        key = tuple(cell[k] for k in CELL_KEYS if k != "target_zone")
        # Looked up by name at call time, so a wrapper bound to the module
        # attribute (the benchmark's tracer) sees every cell.
        outcome, base = _run_sweep_cell(raw_grid, cell, like,
                                        held[1] if held[0] == key else None)
        outcomes.append(outcome)
        if base is not None:
            held = key, base
        if outcome["status"] == "success":
            like = base
    return outcomes


def cmd_sweep(args) -> int:
    raw_grid = load_scenario(args.scenario)
    spec_sha256, cells = _read_sweep_spec(args.spec, raw_grid.zone_ids())
    outdir = outputs.out_dir(args.out)
    groups: dict[str, list[dict]] = {}
    for cell in cells:
        groups.setdefault(cell["flex"], []).append(cell)

    workers = min(args.parallel, len(groups))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_sweep_group, itertools.repeat(raw_grid), groups.values()))
    else:
        done = [_run_sweep_group(raw_grid, cells) for cells in groups.values()]
    outcomes = sorted(itertools.chain.from_iterable(done), key=lambda o: o["run_id"])

    outputs.write_sweep_outputs(outdir, args.scenario, spec_sha256, outcomes)
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
