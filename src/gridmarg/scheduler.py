"""Emissions-signal charging scheduler and fixed-schedule evaluation.

Marginal emission rates cannot be minimized endogenously in one LP (the
rates are themselves outputs of the model), so scheduling works by fixed-point
iteration: freeze the current rate estimates, re-solve the flexible
operational model with a high per-ton penalty on rate-weighted charging, then
re-estimate the rates around the new schedule. Convergence is declared on the
consequential-emissions check (the operational emissions delta from scaling
the current schedule up by the configured EV perturbation), not on schedule
stability; the schedule delta norm is reported for diagnostics only.

Every schedule is pinned once (pin_schedule) and every solve around it
reads that one pinned grid from its check's base: the check scales it
(planner.solve_derived), and the next pass's rates start from the base.
The loop keeps its checks by the pinned loads' profiles, so a pass that
returns to an earlier schedule (a converged pass, a rigid one, a cycle)
reads that schedule's check instead of solving it again.

Final schedules are evaluated under full capacity expansion at base and
EV-scaled levels, which is where structural (capacity) effects enter. A
pinned schedule changes only the bounds of the charging columns, so an
evaluation starts from the grid's expansion optimum where the grid has
something to build. With nothing to build, a pinned expansion LP is the
operational LP of the schedule's check, solved cold as the check solves it,
so compare_signal decodes the loop's checks instead. With rigid charging the
one schedule pins to the grid itself: the grid's optimum, decoded with the
pinned grid's model, is the pinned one, and one evaluation serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ScheduleMismatch
from .flex import ChargingSchedule, ScheduleSource
from .grid import GridModel
from .metrics import (SRME1, SRME2, ConsequentialReport, consequential_report,
                      flex_served_by_zone, long_run_mer, short_run_rates)
from .planner import (DispatchResult, ScaleEV, build_expansion_lp, build_operational_lp,
                      decode_solution, perturb_demand, solve_derived, solve_model,
                      solve_operational)
from . import lp


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    consequential_tco2: float
    rel_change: float
    schedule_delta_norm: float
    rate_weighted_proxy: float       # sum(R_k * served) after the re-solve
    rate_weighted_proxy_prev: float  # same rates applied to the previous schedule


@dataclass(frozen=True)
class ConsequentialCheck:
    """A pinned grid's operational optimum, and its EV-scaled grid's, solved from it."""

    base: DispatchResult
    pert: DispatchResult

    @property
    def delta(self) -> float:
        """The operational emissions delta, tCO2."""
        return self.pert.total_emissions - self.base.total_emissions


@dataclass(frozen=True)
class IterationTrace:
    records: tuple[IterationRecord, ...]
    converged: bool
    # The start schedule's check, then each pass's; a pass that repeats a
    # schedule holds that schedule's earlier check.
    checks: tuple[ConsequentialCheck, ...] = field(default=(), repr=False, compare=False)

    @property
    def iterations_used(self) -> int:
        return len(self.records)


# Served charging this far below zero is solver round-off and is pinned as 0.
PIN_SNAP_TOL = lp.FEAS_TOL


def pin_schedule(grid: GridModel, per_load: dict[str, np.ndarray]) -> GridModel:
    """Replace each flexible load with a rigid profile equal to its served schedule.

    The pinned loads drop their explicit rate cap (a fixed profile cannot
    exceed itself), so EV-scaling perturbations of a pinned grid stay valid.
    Entries in [-PIN_SNAP_TOL, 0) are snapped to 0; anything more negative is
    kept and rejected when the pinned grid is built.
    """
    loads = []
    for load in grid.flexible_loads:
        if load.id not in per_load:
            raise ScheduleMismatch(f"schedule missing profile for load {load.id!r}")
        profile = per_load[load.id]
        profile = np.where((profile < 0) & (profile >= -PIN_SNAP_TOL), 0.0, profile)
        loads.append(replace(load, baseline_profile=profile,
                             max_advance_hours=0, max_delay_hours=0,
                             max_charge_rate_mw=None, penetration_scale=1.0))
    return replace(grid, flexible_loads=tuple(loads))


def schedule_from_result(result: DispatchResult, source: ScheduleSource) -> ChargingSchedule:
    grid = result.model.grid
    per_load = {load.id: result.flex_served[load.id].copy() for load in grid.flexible_loads}
    return ChargingSchedule(served=flex_served_by_zone(grid, per_load), per_load=per_load,
                            source=source, zone_ids=tuple(grid.zone_ids()))


def _profiles(grid: GridModel) -> tuple[bytes, ...]:
    """The loads' effective baselines, as bytes: all that a schedule sets in
    a pinned grid, so pinned grids with equal profiles build equal LPs."""
    return tuple(load.effective_baseline().tobytes() for load in grid.flexible_loads)


def consequential_check(base: DispatchResult, fraction: float) -> ConsequentialCheck:
    """Operational emissions delta from scaling a pinned grid's schedule by (1 + fraction).

    base is the pinned grid's operational optimum, solved by the caller. The
    scaled LP differs from base's only in the bounds of the charging
    columns, so its solve starts from base's basis (planner.solve_derived).
    """
    return ConsequentialCheck(base, solve_derived(
        base, perturb_demand(base.model.grid, "all", ScaleEV(fraction))))


def schedule_min_srme(expansion: DispatchResult,
                      method: str = SRME1) -> tuple[ChargingSchedule, IterationTrace]:
    """Iteratively schedule flexible charging against frozen marginal-emission rates.

    The loop runs on the grid and at the capacities of expansion, a
    solve_expansion result, and starts from the cost-minimizing operational
    schedule (planner.solve_operational). Each pass re-solves the flexible
    operational model with the objective
    cost + emissions_penalty * sum(R_k[z,t] * served[z,t]); rates R_k come
    from the pinned schedule of the previous pass (SRME1 perturbs only the
    zones with flexible load) and start from its check's base. With rigid
    charging a pass keeps the cost-minimizing schedule without that
    re-solve. Stops when the consequential-emissions check moves by less
    than the configured threshold, or after max_iterations (returned with
    converged=False; not fatal).
    """
    method = method.upper()
    if method not in (SRME1, SRME2):
        raise ValueError(f"method must be {SRME1} or {SRME2}, got {method!r}")
    grid = expansion.model.grid
    cfg = grid.config
    caps = expansion.fixed_capacities()
    zone_ids = grid.zone_ids()
    load_zones = [(load.id, zone_ids.index(load.zone_id)) for load in grid.flexible_loads]
    flex_zones = {load.zone_id for load in grid.flexible_loads}
    rate_zones = [z for z in zone_ids if z in flex_zones] or "all"
    # No penalty can move a rigid schedule, and it pins to grid itself.
    rigid = grid.charging_is_rigid

    start = solve_operational(expansion)  # B0: cost-minimizing flexible schedule
    checks: dict[tuple[bytes, ...], ConsequentialCheck] = {}

    def pin_and_check(result: DispatchResult) -> ConsequentialCheck:
        pinned = pin_schedule(grid, result.flex_served)
        key = _profiles(pinned)
        if key not in checks:
            model = build_operational_lp(pinned, caps, like=start.model)
            base = decode_solution(model, start.solution) if rigid else solve_model(model)
            checks[key] = consequential_check(base, cfg.perturbation_fraction)
        return checks[key]

    result = start
    check = pin_and_check(result)
    trace_checks = [check]
    model = start.model
    records: list[IterationRecord] = []
    converged = False
    for iteration in range(1, cfg.max_iterations + 1):
        rates = short_run_rates(method, check.base, rate_zones)
        if rigid:
            new_result = result
        else:
            c2 = model.problem.c.copy()
            for fid, zi in load_zones:
                c2[model.index.served[fid]] += cfg.emissions_penalty * rates.rates[zi]
            new_result = solve_model(replace(model, problem=replace(model.problem, c=c2)))
        new_check = pin_and_check(new_result)

        def proxy(profiles: dict[str, np.ndarray]) -> float:
            total = 0.0
            for fid, zi in load_zones:
                total += float(rates.rates[zi] @ profiles[fid])
            return total

        old, new = result.flex_served, new_result.flex_served
        rel = abs(new_check.delta - check.delta) / max(abs(check.delta), 1e-9)
        delta_norm = math.sqrt(sum(float(np.sum((new[fid] - old[fid]) ** 2)) for fid in old))
        records.append(IterationRecord(
            iteration=iteration,
            consequential_tco2=new_check.delta,
            rel_change=rel,
            schedule_delta_norm=delta_norm,
            rate_weighted_proxy=proxy(new),
            rate_weighted_proxy_prev=proxy(old),
        ))
        result, check = new_result, new_check
        trace_checks.append(check)
        if rel < cfg.convergence_threshold:
            converged = True
            break

    source = ScheduleSource.MIN_SRME1 if method == SRME1 else ScheduleSource.MIN_SRME2
    schedule = schedule_from_result(result, source)
    return schedule, IterationTrace(records=tuple(records), converged=converged,
                                    checks=tuple(trace_checks))


def _pin_requested(grid: GridModel, schedule: ChargingSchedule) -> GridModel:
    """grid with schedule pinned; ScheduleMismatch unless each load's
    scheduled energy matches its baseline request to 1e-6 MWh."""
    pinned = pin_schedule(grid, schedule.per_load)
    for load in grid.flexible_loads:
        scheduled = float(np.sum(schedule.per_load[load.id]))
        requested = float(np.sum(load.effective_baseline()))
        if abs(scheduled - requested) > 1e-6:
            raise ScheduleMismatch(
                f"load {load.id!r}: scheduled {scheduled:g} MWh vs requested {requested:g} MWh")
    return pinned


def evaluate_fixed_schedule(schedule: ChargingSchedule,
                            expansion: DispatchResult) -> ConsequentialReport:
    """Full capacity expansion at base and EV-scaled levels with charging pinned.

    expansion is a solve_expansion result; schedule is pinned to its grid.
    The base solve starts from expansion's basis where the grid has
    something to build, else cold, as the schedule's check solves the same
    LP. A schedule that pins to the grid itself (with rigid charging, the
    baseline) takes expansion's solution, decoded as the pinned grid's, as
    its base. Raises ScheduleMismatch unless each load's scheduled energy
    matches its baseline request to 1e-6 MWh.
    """
    grid = expansion.model.grid
    pinned = _pin_requested(grid, schedule)
    model = build_expansion_lp(pinned, like=expansion.model)
    if grid.charging_is_rigid and _profiles(pinned) == _profiles(grid):
        base = decode_solution(model, expansion.solution)
    else:
        base = solve_model(model, warm_start=expansion.solution if grid.has_investment
                           else None)
    return long_run_mer(base)


def _evaluation_from_check(grid: GridModel, schedule: ChargingSchedule,
                           check: ConsequentialCheck) -> ConsequentialReport:
    """evaluate_fixed_schedule's report on a grid with nothing to build, from
    the schedule's check: its LPs are the evaluation's, from the same starts."""
    _pin_requested(grid, schedule)  # its energy check; the pinned grids are the check's
    return consequential_report(
        *(decode_solution(build_expansion_lp(r.model.grid, like=r.model), r.solution)
          for r in (check.base, check.pert)))


def compare_signal(expansion: DispatchResult, signal: str) -> tuple[
        ChargingSchedule, IterationTrace | None, ConsequentialReport, ConsequentialReport]:
    """A charging signal's schedule, evaluated against the cost-minimizing one.

    signal is "cost", "srme1" or "srme2"; expansion is a solve_expansion
    result, whose schedule is the cost-minimizing one. Returns the signal's
    schedule, its penalty-loop trace (None for the cost signal), and the
    evaluations of the cost schedule and of the signal's schedule.
    """
    grid = expansion.model.grid
    cost_schedule = schedule_from_result(expansion, ScheduleSource.COST_MIN)
    if signal == "cost":
        report = evaluate_fixed_schedule(cost_schedule, expansion)
        return cost_schedule, None, report, report
    if grid.has_investment:
        cost_report = evaluate_fixed_schedule(cost_schedule, expansion)
        schedule, trace = schedule_min_srme(expansion, method=signal)
        report = (cost_report if grid.charging_is_rigid
                  else evaluate_fixed_schedule(schedule, expansion))
        return schedule, trace, cost_report, report
    # Nothing to build: the loop starts from expansion's own solution, so its
    # first check is the cost schedule's.
    schedule, trace = schedule_min_srme(expansion, method=signal)
    first, last = trace.checks[0], trace.checks[-1]
    cost_report = _evaluation_from_check(grid, cost_schedule, first)
    report = cost_report if last is first else _evaluation_from_check(grid, schedule, last)
    return schedule, trace, cost_report, report
