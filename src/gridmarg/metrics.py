"""Emission-rate metrics: average, short-run marginal (two estimators), long-run marginal.

Short-run rates hold installed capacity fixed:

  * srme_uniform ("SRME1"): re-solve operations with the target zone's fixed
    demand scaled up uniformly; the hourly rate is the system-wide hourly
    emissions change divided by the hourly demand increment. One perturbed
    solve per zone, started from the base solve's basis. (A variant
    normalized by the annual zonal load is kept alongside for inspection; the
    hourly-load normalization is the default.)

  * srme_dual ("SRME2"): two solves for all zones and hours at once. Step 1
    minimizes cost and records the optimum C and the balance duals mu1. Step 2
    minimizes emissions subject to the same constraints plus cost <= C, and
    records balance duals mu2 and the cost-cap dual lam. The rate is
    mu2[z,t] - lam * mu1[z,t]: the emissions value of demand corrected for the
    emissions shadow-price of holding cost at its minimum. Step 2 is solved to
    one canonical optimal basis (see gridmarg.lp), so its duals do not depend
    on its start, and it starts from step 1's basis.

Long-run rates re-optimize capacity: two full expansion solves (base and
EV-scaled) differenced over annual totals. The EV-scaled LP differs from the
base only in the bounds of the EV charging columns, so its solve starts from
the base solve's optimal basis. That solve (ev_scaled) is also the
scheduler's consequential check.

Every estimator takes its base from the caller and reads the grid and the
capacities from the model the base carries; each perturbed solve is
planner.solve_derived(base, perturbed grid).

All emissions quantities are recomputed from primal generation; duals are
used only where they are the estimator itself (SRME2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import lp
from .errors import (CostCapInfeasible, DegenerateDelta, InfeasibleModel,
                     InfeasiblePerturbation, UnknownZone, ZeroDemand)
from .grid import GridModel
from .planner import (DispatchResult, ScaleEV, UniformAll, _resolve_zones, perturb_demand,
                      solve_derived)

SRME1 = "SRME1"
SRME2 = "SRME2"


@dataclass(frozen=True)
class EmissionRateSeries:
    """Zone x hour marginal emission rates, tCO2/MWh. Negative entries are legitimate."""

    rates: np.ndarray                       # (zones, H)
    method: str                             # SRME1 | SRME2
    zone_ids: tuple[str, ...]
    alt_rates: np.ndarray | None = None     # SRME1 only: annual-zonal-load normalization
    details: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ConsequentialReport:
    """Base-vs-perturbed expansion outcomes and the metrics derived from them."""

    base_total_emissions: float
    pert_total_emissions: float
    delta_demand_mwh: float
    lr_mer: float
    base_total_cost: float
    pert_total_cost: float
    capacity_deltas: dict[str, dict]
    sr_attributed: float | None = None      # SR-rate-weighted EV energy delta, tCO2
    aer_attributed: float | None = None
    per_ev_normalization: dict[str, float] | None = None
    base: DispatchResult | None = field(default=None, repr=False, compare=False)


def average_emission_rate(result: DispatchResult, scope: str = "system") -> float:
    """Total emissions over total served demand (tCO2/MWh), system-wide or one zone.

    Zonal scope uses zonal generation-side emissions over zonal served demand.
    """
    if scope == "system":
        emissions = result.total_emissions
        demand = result.total_served
    else:
        if scope not in result.zone_ids:
            raise UnknownZone(f"unknown zone id {scope!r}")
        zi = result.zone_ids.index(scope)
        emissions = float(result.zonal_emissions[zi].sum())
        demand = float(result.served_demand[zi].sum())
    if demand <= 0:
        raise ZeroDemand(f"scope {scope!r} served no demand")
    return emissions / demand


def flex_served_by_zone(grid: GridModel, per_load: dict[str, np.ndarray]) -> np.ndarray:
    """(zones, H) sum of per-load served charging, zones in grid.zone_ids() order."""
    out = np.zeros((len(grid.zones), grid.horizon))
    zpos = {zid: i for i, zid in enumerate(grid.zone_ids())}
    for load in grid.flexible_loads:
        out[zpos[load.zone_id]] += per_load[load.id]
    return out


def srme_uniform(base: DispatchResult, zones="all") -> EmissionRateSeries:
    """SRME1: per-zone uniform perturbation rates on a fixed-capacity system.

    rate[z,t] = (hourly system emissions, perturbed - base)
                / (srme1_fraction * fixed zonal demand at t)

    Hours with zero zonal demand carry a zero rate (no perturbation happened
    there). base is an operational optimum, which the caller solved. One
    perturbed solve of base's LP per requested zone (planner.solve_derived);
    each starts from base's basis, since the perturbed LP differs from the
    base only in right-hand sides (the zone's balance rows and clean-share
    row). Every solve reaches the LP's canonical vertex (see gridmarg.lp), so
    the rates are those of cold solves.
    """
    grid = base.model.grid
    zone_ids = grid.zone_ids()
    targets = _resolve_zones(grid, zones)

    frac = grid.config.srme1_fraction
    base_hourly = base.zonal_emissions.sum(axis=0)

    rates = np.zeros((len(zone_ids), grid.horizon))
    alt = np.zeros_like(rates)
    for zi, zone_id in enumerate(zone_ids):
        if zone_id not in targets:
            continue
        try:
            pert = solve_derived(base, perturb_demand(grid, [zone_id], UniformAll(frac)))
        except InfeasibleModel as exc:
            raise InfeasiblePerturbation(
                f"uniform {frac:.0%} perturbation of zone {zone_id} is infeasible") from exc
        delta = pert.zonal_emissions.sum(axis=0) - base_hourly
        hourly_load = grid.zones[zi].demand
        denom = frac * hourly_load
        rates[zi] = np.divide(delta, denom, out=np.zeros_like(delta), where=denom > 0)
        annual = frac * float(hourly_load.sum())
        if annual > 0:
            alt[zi] = delta / annual
    return EmissionRateSeries(
        rates=rates,
        method=SRME1,
        zone_ids=tuple(zone_ids),
        alt_rates=alt,
    )


def srme_dual(base: DispatchResult) -> EmissionRateSeries:
    """SRME2: dual-based rates for every zone and hour from two operational solves.

    Step 1 is base, an operational optimum, which the caller solved; step 2
    adds a cost cap to base's LP and is solved here.
    """
    model = base.model
    sol1 = base.solution
    cbar = sol1.objective_value
    # Slight relative slack keeps the cap numerically feasible at the optimum
    # (absolute floor covers zero-cost systems) without materially moving duals.
    cap = cbar + 1e-7 * max(1.0, abs(cbar))

    cost_idx = np.nonzero(model.problem.c)[0]
    if cost_idx.size:
        prob2 = lp.with_extra_le_row(model.problem, cost_idx, model.problem.c[cost_idx],
                                     cap, new_cost=model.emissions_coeffs)
    else:
        prob2 = replace(model.problem, c=model.emissions_coeffs)
    # Step 2's right-hand-side tie-break (at most 2 * RHS_TIE_BREAK_EPS per
    # row) moves the minimum cost by up to that much per unit of base dual,
    # to first order; the cap is relaxed by as much while the tie-break is on.
    cap_slack = 2.0 * lp.RHS_TIE_BREAK_EPS * float(np.abs(sol1.eq_duals).sum()
                                                   + np.abs(sol1.ineq_duals).sum())
    sol2 = lp.solve(prob2, warm_start=sol1, canonical_basis=True, cap_slack=cap_slack)
    if sol2.status is not lp.SolveStatus.OPTIMAL:
        raise CostCapInfeasible(
            f"emissions-minimizing solve under cost cap {cap:g}: {sol2.status.value}")

    lam = float(sol2.ineq_duals[-1]) if cost_idx.size else 0.0
    step2_cost = float(model.problem.c @ sol2.x)
    rates = np.zeros((len(base.zone_ids), model.grid.horizon))
    for zi, zid in enumerate(base.zone_ids):
        rows = model.index.balance_rows[zid]
        rates[zi] = sol2.eq_duals[rows] - lam * sol1.eq_duals[rows]
    return EmissionRateSeries(
        rates=rates,
        method=SRME2,
        zone_ids=base.zone_ids,
        details={"base_objective": float(cbar), "cost_cap": float(cap),
                 "step2_cost": step2_cost, "lambda_second": lam,
                 "step2_emissions": float(model.emissions_coeffs @ sol2.x)},
    )


def short_run_rates(method: str, base: DispatchResult, zones="all") -> EmissionRateSeries:
    """SRME1 rates (perturbing zones) or SRME2 rates (of every zone) at fixed
    capacity, from base, an operational optimum, which the caller solved."""
    if method == SRME1:
        return srme_uniform(base, zones=zones)
    if method == SRME2:
        return srme_dual(base)
    raise ValueError(f"method must be {SRME1} or {SRME2}, got {method!r}")


def consequential_report(base: DispatchResult, pert: DispatchResult,
                         sr_rates: EmissionRateSeries | None = None,
                         aer_value: float | None = None) -> ConsequentialReport:
    """Difference base and pert, a perturbation of base's grid, into a ConsequentialReport.

    sr_attributed weights the per-(zone, hour) EV-charging delta by the
    supplied short-run rates.
    """
    grid = base.model.grid
    delta_demand = pert.total_served - base.total_served
    if abs(delta_demand) < 1.0:
        raise DegenerateDelta(
            f"demand delta {delta_demand:g} MWh is below 1 MWh; rate undefined")
    lr_mer = (pert.total_emissions - base.total_emissions) / delta_demand

    capacity_deltas: dict[str, dict] = {}
    for gen in grid.generators:
        entry = {
            "kind": gen.kind,
            "new_mw": pert.new_gen_capacity.get(gen.id, 0.0)
                      - base.new_gen_capacity.get(gen.id, 0.0),
            "retired_mw": pert.retired_gen_capacity.get(gen.id, 0.0)
                          - base.retired_gen_capacity.get(gen.id, 0.0),
        }
        if entry["new_mw"] or entry["retired_mw"]:
            capacity_deltas[gen.id] = entry
    for sto in grid.storage_units:
        entry = {
            "kind": "storage",
            "new_power_mw": pert.new_storage_power.get(sto.id, 0.0)
                            - base.new_storage_power.get(sto.id, 0.0),
            "new_energy_mwh": pert.new_storage_energy.get(sto.id, 0.0)
                              - base.new_storage_energy.get(sto.id, 0.0),
        }
        if entry["new_power_mw"] or entry["new_energy_mwh"]:
            capacity_deltas[sto.id] = entry
    for line in grid.lines:
        delta = (pert.new_line_capacity.get(line.id, 0.0)
                 - base.new_line_capacity.get(line.id, 0.0))
        if delta:
            capacity_deltas[line.id] = {"kind": "line", "new_mw": delta}

    sr_attributed = None
    if sr_rates is not None:
        ev_delta = (flex_served_by_zone(grid, pert.flex_served)
                    - flex_served_by_zone(grid, base.flex_served))
        sr_attributed = float(np.sum(sr_rates.rates * ev_delta))
    aer_attributed = None if aer_value is None else float(aer_value) * delta_demand

    return ConsequentialReport(
        base_total_emissions=base.total_emissions,
        pert_total_emissions=pert.total_emissions,
        delta_demand_mwh=delta_demand,
        lr_mer=lr_mer,
        base_total_cost=base.total_cost,
        pert_total_cost=pert.total_cost,
        capacity_deltas=capacity_deltas,
        sr_attributed=sr_attributed,
        aer_attributed=aer_attributed,
        base=base,
    )


def ev_scaled(base: DispatchResult, target_zones="all",
              perturbation: ScaleEV | None = None) -> DispatchResult:
    """base's LP with target_zones' EV charging scaled (by default by the
    grid's perturbation_fraction), solved from base's basis
    (planner.solve_derived). A perturbation that moves no load (no EV
    charging in the zones) rebuilds base's own LP, so base's optimum is
    decoded (planner.solve_from) and nothing is solved.
    """
    grid = base.model.grid
    if perturbation is None:
        perturbation = ScaleEV(grid.config.perturbation_fraction)
    return solve_derived(base, perturb_demand(grid, target_zones, perturbation))


def long_run_mer(base: DispatchResult, perturbation: ScaleEV | None = None,
                 target_zones="all", sr_rates: EmissionRateSeries | None = None,
                 aer_value: float | None = None) -> ConsequentialReport:
    """LR-MER: two full capacity-expansion solves differenced over annual totals.

    base is an expansion optimum, which the caller solved once for all its
    perturbations, and ev_scaled solves the other. Where no load moved,
    ev_scaled decodes base's optimum and the report raises DegenerateDelta.
    The report keeps the base result (``report.base``) for callers that
    need more of it than the totals.
    """
    return consequential_report(base, ev_scaled(base, target_zones, perturbation),
                                sr_rates=sr_rates, aer_value=aer_value)


def icev_comparison(report: ConsequentialReport, n_vehicles: float,
                    ev_annual_mwh: float, icev_tco2: float) -> dict[str, float]:
    """Per-vehicle EV emissions at the report's LR-MER versus an ICEV constant."""
    if n_vehicles <= 0:
        raise ValueError("n_vehicles must be positive")
    ev_tco2 = report.lr_mer * ev_annual_mwh
    return {
        "ev_tco2_per_vehicle": ev_tco2,
        "icev_tco2_per_vehicle": icev_tco2,
        "pct_reduction": 1.0 - ev_tco2 / icev_tco2,
        "fleet_tco2": ev_tco2 * n_vehicles,
    }

