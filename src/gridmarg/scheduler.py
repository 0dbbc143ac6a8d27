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
reads that one pinned grid: the check and the next pass's rates solve it as
it is, and the EV-scaled solves scale it with perturb_demand(..., ScaleEV).

Final schedules are evaluated under full capacity expansion at base and
EV-scaled levels, which is where structural (capacity) effects enter. A
pinned schedule changes only the bounds of the charging columns, so each
evaluation can start from the unpinned expansion optimum where the grid has
something to build. With nothing to build it starts cold, as the
consequential checks of the same pinned LP do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ScheduleMismatch
from .flex import ChargingSchedule, ScheduleSource
from .grid import GridModel
from .metrics import (SRME1, SRME2, ConsequentialReport, flex_served_by_zone, long_run_mer,
                      short_run_rates)
from .planner import (DispatchResult, FixedCapacities, ScaleEV, build_operational_lp,
                      perturb_demand, solve_model)
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
class IterationTrace:
    records: tuple[IterationRecord, ...]
    converged: bool

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


def schedule_from_result(grid: GridModel, result: DispatchResult,
                         source: ScheduleSource) -> ChargingSchedule:
    per_load = {load.id: result.flex_served[load.id].copy() for load in grid.flexible_loads}
    return ChargingSchedule(served=flex_served_by_zone(grid, per_load), per_load=per_load,
                            source=source, zone_ids=tuple(grid.zone_ids()))


def consequential_check(pinned: GridModel, fixed_capacities: FixedCapacities,
                        fraction: float) -> float:
    """Operational emissions delta from scaling a pinned grid's schedule by (1 + fraction).

    The scaled LP differs from pinned only in the bounds of the charging
    columns, so its solve starts from the base solve's basis.
    """
    base = solve_model(build_operational_lp(pinned, fixed_capacities))
    scaled = perturb_demand(pinned, "all", ScaleEV(fraction))
    pert = solve_model(build_operational_lp(scaled, fixed_capacities),
                       warm_start=base.solution)
    return pert.total_emissions - base.total_emissions


def schedule_min_srme(grid: GridModel, fixed_capacities: FixedCapacities,
                      method: str = SRME1) -> tuple[ChargingSchedule, IterationTrace]:
    """Iteratively schedule flexible charging against frozen marginal-emission rates.

    Each pass re-solves the flexible operational model with the objective
    cost + emissions_penalty * sum(R_k[z,t] * served[z,t]); rates R_k come
    from the pinned schedule of the previous pass (SRME1 perturbs only the
    zones with flexible load). Where every served column is fixed (rigid
    charging), a pass keeps the cost-minimizing schedule without that
    re-solve. Stops when the consequential-emissions check
    moves by less than the configured threshold, or after max_iterations
    (returned with converged=False; not fatal).
    """
    method = method.upper()
    if method not in (SRME1, SRME2):
        raise ValueError(f"method must be {SRME1} or {SRME2}, got {method!r}")
    cfg = grid.config
    zone_ids = grid.zone_ids()
    load_zones = [(load.id, zone_ids.index(load.zone_id)) for load in grid.flexible_loads]
    flex_zones = {load.zone_id for load in grid.flexible_loads}
    rate_zones = [z for z in zone_ids if z in flex_zones] or "all"

    model = build_operational_lp(grid, fixed_capacities)
    base_cost = model.problem.c
    result = solve_model(model)  # B0: cost-minimizing flexible schedule
    pinned = pin_schedule(grid, result.flex_served)
    cons_prev = consequential_check(pinned, fixed_capacities, cfg.perturbation_fraction)
    # No penalty can move a schedule whose served columns are all fixed.
    rigid = all(np.array_equal(model.problem.lb[cols], model.problem.ub[cols])
                for cols in model.index.served.values())

    records: list[IterationRecord] = []
    converged = False
    for iteration in range(1, cfg.max_iterations + 1):
        # The rate and penalty solves of one pass recur only if a schedule
        # does; the consequential checks recur in the next pass's rates.
        with lp.solve_memo_scope(nested=True):
            rates = short_run_rates(pinned, fixed_capacities, method, rate_zones)
            if rigid:
                new_result = result
            else:
                c2 = base_cost.copy()
                for fid, zi in load_zones:
                    c2[model.index.served[fid]] += cfg.emissions_penalty * rates.rates[zi]
                new_result = solve_model(replace(model, problem=replace(model.problem, c=c2)))
        new_pinned = pin_schedule(grid, new_result.flex_served)

        def proxy(profiles: dict[str, np.ndarray]) -> float:
            total = 0.0
            for fid, zi in load_zones:
                total += float(rates.rates[zi] @ profiles[fid])
            return total

        old, new = result.flex_served, new_result.flex_served
        cons = consequential_check(new_pinned, fixed_capacities, cfg.perturbation_fraction)
        rel = abs(cons - cons_prev) / max(abs(cons_prev), 1e-9)
        delta_norm = math.sqrt(sum(float(np.sum((new[fid] - old[fid]) ** 2)) for fid in old))
        records.append(IterationRecord(
            iteration=iteration,
            consequential_tco2=cons,
            rel_change=rel,
            schedule_delta_norm=delta_norm,
            rate_weighted_proxy=proxy(new),
            rate_weighted_proxy_prev=proxy(old),
        ))
        result, pinned, cons_prev = new_result, new_pinned, cons
        if rel < cfg.convergence_threshold:
            converged = True
            break

    source = ScheduleSource.MIN_SRME1 if method == SRME1 else ScheduleSource.MIN_SRME2
    schedule = schedule_from_result(grid, result, source)
    return schedule, IterationTrace(records=tuple(records), converged=converged)


def evaluate_fixed_schedule(grid: GridModel, schedule: ChargingSchedule,
                            warm_start: lp.LpSolution | None = None) -> ConsequentialReport:
    """Full capacity expansion at base and EV-scaled levels with charging pinned.

    The pinned LP has the shape of grid's own expansion LP, so warm_start,
    typically that LP's optimum, seeds the base solve (see long_run_mer).
    Raises ScheduleMismatch unless each load's scheduled energy matches its
    baseline request to 1e-6 MWh.
    """
    pinned = pin_schedule(grid, schedule.per_load)
    for load in grid.flexible_loads:
        scheduled = float(np.sum(schedule.per_load[load.id]))
        requested = float(np.sum(load.effective_baseline()))
        if abs(scheduled - requested) > 1e-6:
            raise ScheduleMismatch(
                f"load {load.id!r}: scheduled {scheduled:g} MWh vs requested {requested:g} MWh")
    return long_run_mer(pinned, ScaleEV(grid.config.perturbation_fraction),
                        warm_start=warm_start)
