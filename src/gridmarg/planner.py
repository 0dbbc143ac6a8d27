"""Translate a GridModel into capacity-expansion / operational LPs and decode results.

Formulation per zone z and hour t (hour weight = 1 h, so MW and MWh coincide):

    balance[z,t]:  sum(gen) + sum(discharge - charge) + sum(imports*(1-loss))
                   - sum(exports) + nse - sum(flex served) = fixed demand     (=, dual = price)

Generation is capped by surviving capacity (existing - retired + new) times
hourly availability. Thermal units with a minimum-stable level or startup
cost get a linearized commitment block: committed capacity u, startup s,

    min_stable*u <= gen <= u <= surviving capacity,   s_t >= u_t - u_{t-1}

with the hour-0 startup wrapping to hour H-1 (cyclic, like storage). Storage
follows soc_t = soc_{t-1} + eta_c*charge - discharge/eta_d with cyclic wrap.
Flexible loads contribute served-charging variables constrained by their
windows (see flex module), a rate cap, and total-energy conservation.

In OPERATIONAL mode every investment/retirement variable is pinned to the
supplied capacities and the objective keeps only operational terms (fuel,
variable O&M, startup, non-served-energy penalty).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import lp
from .errors import (InfeasibleModel, MissingCapacity, ModelBuildError, UnboundedModel,
                     UnknownZone, ValidationError)
from .flex import FlexWindow, check_window_feasible, cumulative_bounds
from .grid import HYDRO_LIKE, VARIABLE_RENEWABLE, GridModel

MODE_EXPANSION = "capacity_expansion"
MODE_OPERATIONAL = "operational_fixed"


# --- demand perturbation modes -------------------------------------------------

@dataclass(frozen=True)
class ScaleEV:
    """Scale flexible-load baselines in the target zones by (1 + fraction)."""
    fraction: float


@dataclass(frozen=True)
class UniformAll:
    """Scale fixed zonal demand in the target zones by (1 + fraction), all hours."""
    fraction: float


@dataclass(frozen=True)
class SingleHour:
    """Add mw to the fixed demand of one (zone, hour) cell."""
    zone: str
    hour: int
    mw: float


def _resolve_zones(grid: GridModel, target_zones) -> set[str]:
    known = set(grid.zone_ids())
    if target_zones == "all" or target_zones is None:
        return known
    if isinstance(target_zones, str):  # a bare id, not an iterable of characters
        target_zones = [target_zones]
    zones = set(target_zones)
    unknown = zones - known
    if unknown:
        raise UnknownZone(f"unknown zone id(s): {sorted(unknown)}")
    return zones


def perturb_demand(grid: GridModel, target_zones, mode) -> GridModel:
    """Return a new GridModel with demand perturbed per the mode; input untouched."""
    if isinstance(mode, (ScaleEV, UniformAll)) and mode.fraction <= -1:
        raise ValueError("fraction must exceed -1")
    if isinstance(mode, ScaleEV):
        zones = _resolve_zones(grid, target_zones)
        loads = tuple(
            replace(l, baseline_profile=l.baseline_profile * (1.0 + mode.fraction))
            if l.zone_id in zones else l
            for l in grid.flexible_loads)
        return replace(grid, flexible_loads=loads)
    if isinstance(mode, UniformAll):
        zones = _resolve_zones(grid, target_zones)
        new_zones = tuple(
            replace(z, demand=z.demand * (1.0 + mode.fraction)) if z.id in zones else z
            for z in grid.zones)
        return replace(grid, zones=new_zones)
    if isinstance(mode, SingleHour):
        _resolve_zones(grid, [mode.zone])
        if not 0 <= mode.hour < grid.horizon:
            raise ValueError(f"hour {mode.hour} outside horizon {grid.horizon}")
        new_zones = []
        for z in grid.zones:
            if z.id == mode.zone:
                demand = z.demand.copy()
                demand[mode.hour] += mode.mw
                new_zones.append(replace(z, demand=demand))
            else:
                new_zones.append(z)
        return replace(grid, zones=tuple(new_zones))
    raise TypeError(f"unknown perturbation mode {mode!r}")


# --- model container ------------------------------------------------------------

@dataclass
class ModelIndex:
    """Registry mapping grid entities/hours to LP variable and row indices."""

    gen: dict[str, np.ndarray] = field(default_factory=dict)
    commit: dict[str, np.ndarray] = field(default_factory=dict)
    startup: dict[str, np.ndarray] = field(default_factory=dict)
    new_gen: dict[str, int] = field(default_factory=dict)
    retired_gen: dict[str, int] = field(default_factory=dict)
    charge: dict[str, np.ndarray] = field(default_factory=dict)
    discharge: dict[str, np.ndarray] = field(default_factory=dict)
    soc: dict[str, np.ndarray] = field(default_factory=dict)
    new_storage_power: dict[str, int] = field(default_factory=dict)
    new_storage_energy: dict[str, int] = field(default_factory=dict)
    flow_fwd: dict[str, np.ndarray] = field(default_factory=dict)
    flow_bwd: dict[str, np.ndarray] = field(default_factory=dict)
    new_line: dict[str, int] = field(default_factory=dict)
    nse: dict[str, np.ndarray] = field(default_factory=dict)
    served: dict[str, np.ndarray] = field(default_factory=dict)
    balance_rows: dict[str, np.ndarray] = field(default_factory=dict)
    clean_share_rows: dict[str, int] = field(default_factory=dict)
    co2_cap_row: int | None = None


@dataclass
class ExpansionModel:
    """A built LP plus the registry needed to decode its solution."""

    problem: lp.LpProblem
    grid: GridModel
    index: ModelIndex
    mode: str
    cost_offset: float                 # constant objective part (fixed O&M on existing fleet)
    emissions_coeffs: np.ndarray       # tCO2 per unit of each LP variable (generation only)


@dataclass(frozen=True)
class FixedCapacities:
    """Investment outcomes pinned into an operational model (MW / MWh)."""

    new_gen: dict[str, float] = field(default_factory=dict)
    retired_gen: dict[str, float] = field(default_factory=dict)
    storage_power: dict[str, float] = field(default_factory=dict)
    storage_energy: dict[str, float] = field(default_factory=dict)
    lines: dict[str, float] = field(default_factory=dict)

    @classmethod
    def none(cls) -> "FixedCapacities":
        """All-zero capacities: operate the existing fleet as-is."""
        return cls()


def build_expansion_lp(grid: GridModel) -> ExpansionModel:
    """Capacity-expansion LP: investment, retirement, and dispatch co-optimized."""
    return _build(grid, MODE_EXPANSION, None)


def build_operational_lp(grid: GridModel, fixed_capacities: FixedCapacities) -> ExpansionModel:
    """Operational LP with investment pinned; objective has operational terms only."""
    return _build(grid, MODE_OPERATIONAL, fixed_capacities)


def _pin(fixed: FixedCapacities, table: str, key: str) -> float:
    mapping = getattr(fixed, table)
    if key not in mapping:
        raise MissingCapacity(f"fixed capacities missing {table} entry for {key!r}")
    return float(mapping[key])


def _build(grid: GridModel, mode: str, fixed: FixedCapacities | None) -> ExpansionModel:
    try:
        grid.validate()
    except ValidationError as exc:
        raise ModelBuildError(str(exc)) from exc

    horizon = grid.horizon
    cfg = grid.config
    expansion = mode == MODE_EXPANSION
    b = lp.LpBuilder()
    ix = ModelIndex()
    emis: list[tuple[np.ndarray, float]] = []
    cost_offset = 0.0

    # Per-zone injection terms accumulated for balance rows: (zone, t) -> [(var, coef)].
    inject: dict[str, list[tuple[np.ndarray, float]]] = {z.id: [] for z in grid.zones}

    for gen in grid.generators:
        gvars = b.add_vars(horizon, cost=gen.marginal_cost)
        ix.gen[gen.id] = gvars
        inject[gen.zone_id].append((gvars, 1.0))
        if gen.emissions_factor:
            emis.append((gvars, gen.emissions_factor))

        n_idx = r_idx = None
        if gen.buildable:
            n_idx = b.add_var(cost=(gen.inv_cost_annual + gen.fixed_om) if expansion else 0.0)
            if not expansion:
                b.fix_var(n_idx, _pin(fixed, "new_gen", gen.id))
            ix.new_gen[gen.id] = n_idx
        if gen.retirable:
            r_idx = b.add_var(cost=-gen.fixed_om if expansion else 0.0,
                              ub=gen.existing_cap_mw)
            if not expansion:
                b.fix_var(r_idx, _pin(fixed, "retired_gen", gen.id))
            ix.retired_gen[gen.id] = r_idx
        if expansion:
            cost_offset += gen.fixed_om * gen.existing_cap_mw

        avail = gen.availability(horizon)
        if gen.has_commitment:
            uvars = b.add_vars(horizon)
            svars = b.add_vars(horizon, cost=gen.startup_cost)
            ix.commit[gen.id] = uvars
            ix.startup[gen.id] = svars
            for t in range(horizon):
                b.add_le([gvars[t], uvars[t]], [1.0, -1.0], 0.0)
                if gen.min_stable_fraction > 0:
                    b.add_le([uvars[t], gvars[t]], [gen.min_stable_fraction, -1.0], 0.0)
                idx = [uvars[t]]
                coef = [1.0]
                if n_idx is not None:
                    idx.append(n_idx)
                    coef.append(-1.0)
                if r_idx is not None:
                    idx.append(r_idx)
                    coef.append(1.0)
                b.add_le(idx, coef, gen.existing_cap_mw)
                prev = uvars[t - 1] if t > 0 else uvars[horizon - 1]
                b.add_le([uvars[t], prev, svars[t]], [1.0, -1.0, -1.0], 0.0)
        else:
            for t in range(horizon):
                idx = [gvars[t]]
                coef = [1.0]
                if n_idx is not None:
                    idx.append(n_idx)
                    coef.append(-float(avail[t]))
                if r_idx is not None:
                    idx.append(r_idx)
                    coef.append(float(avail[t]))
                b.add_le(idx, coef, float(avail[t]) * gen.existing_cap_mw)

    for sto in grid.storage_units:
        ch = b.add_vars(horizon)
        dis = b.add_vars(horizon, cost=sto.var_om)
        soc = b.add_vars(horizon)
        ix.charge[sto.id], ix.discharge[sto.id], ix.soc[sto.id] = ch, dis, soc
        inject[sto.zone_id].append((dis, 1.0))
        inject[sto.zone_id].append((ch, -1.0))

        p_idx = e_idx = None
        if sto.buildable:
            p_idx = b.add_var(cost=sto.inv_cost_power if expansion else 0.0)
            e_idx = b.add_var(cost=sto.inv_cost_energy if expansion else 0.0)
            if not expansion:
                b.fix_var(p_idx, _pin(fixed, "storage_power", sto.id))
                b.fix_var(e_idx, _pin(fixed, "storage_energy", sto.id))
            ix.new_storage_power[sto.id] = p_idx
            ix.new_storage_energy[sto.id] = e_idx

        for t in range(horizon):
            for var in (ch[t], dis[t]):
                idx = [var]
                coef = [1.0]
                if p_idx is not None:
                    idx.append(p_idx)
                    coef.append(-1.0)
                b.add_le(idx, coef, sto.existing_power_mw)
            idx = [soc[t]]
            coef = [1.0]
            if e_idx is not None:
                idx.append(e_idx)
                coef.append(-1.0)
            b.add_le(idx, coef, sto.existing_energy_mwh)
            prev = soc[t - 1] if t > 0 else soc[horizon - 1]  # cyclic wrap
            b.add_eq([soc[t], prev, ch[t], dis[t]],
                     [1.0, -1.0, -sto.charge_efficiency, 1.0 / sto.discharge_efficiency],
                     0.0)

    for line in grid.lines:
        fwd = b.add_vars(horizon)
        bwd = b.add_vars(horizon)
        ix.flow_fwd[line.id], ix.flow_bwd[line.id] = fwd, bwd
        keep = 1.0 - line.loss_fraction
        inject[line.to_zone].append((fwd, keep))
        inject[line.from_zone].append((fwd, -1.0))
        inject[line.from_zone].append((bwd, keep))
        inject[line.to_zone].append((bwd, -1.0))
        l_idx = None
        if line.expandable:
            l_idx = b.add_var(cost=line.expansion_cost if expansion else 0.0)
            if not expansion:
                b.fix_var(l_idx, _pin(fixed, "lines", line.id))
            ix.new_line[line.id] = l_idx
        for t in range(horizon):
            for var in (fwd[t], bwd[t]):
                idx = [var]
                coef = [1.0]
                if l_idx is not None:
                    idx.append(l_idx)
                    coef.append(-1.0)
                b.add_le(idx, coef, line.capacity_mw)

    if cfg.nse_penalty is not None:
        for zone in grid.zones:
            nse = b.add_vars(horizon, cost=cfg.nse_penalty)
            ix.nse[zone.id] = nse
            inject[zone.id].append((nse, 1.0))

    for load in grid.flexible_loads:
        baseline = load.effective_baseline()
        window = FlexWindow(load.max_advance_hours, load.max_delay_hours)
        rate = load.effective_max_charge_rate()
        check_window_feasible(baseline, window, rate, load.id)
        if window.is_rigid:
            served = b.add_vars(horizon, lb=baseline, ub=baseline)
        else:
            served = b.add_vars(horizon, ub=rate)
            floor, ceiling = cumulative_bounds(baseline, window)
            total = float(np.sum(baseline))
            floor = floor.copy()
            ceiling = ceiling.copy()
            floor[-1] = total   # conservation: all requested energy is served
            ceiling[-1] = total
            cum = b.add_vars(horizon, lb=floor, ub=ceiling)
            b.add_eq([cum[0], served[0]], [1.0, -1.0], 0.0)
            for t in range(1, horizon):
                b.add_eq([cum[t], cum[t - 1], served[t]], [1.0, -1.0, -1.0], 0.0)
        ix.served[load.id] = served
        inject[load.zone_id].append((served, -1.0))

    # Power balance: one equality per (zone, hour).
    for zone in grid.zones:
        rows = np.empty(horizon, dtype=int)
        terms = inject[zone.id]
        for t in range(horizon):
            idx = [int(vars_[t]) for vars_, _ in terms]
            coef = [c for _, c in terms]
            rows[t] = b.add_eq(idx, coef, float(zone.demand[t]))
        ix.balance_rows[zone.id] = rows

    # Zonal clean-share floors: clean generation >= share * consumption.
    for zone in grid.zones:
        share = zone.clean_share_min
        if share <= 0:
            continue
        idx: list[int] = []
        coef: list[float] = []
        for gen in grid.generators:
            if gen.zone_id == zone.id and gen.is_clean:
                idx.extend(int(v) for v in ix.gen[gen.id])
                coef.extend([-1.0] * horizon)
        if zone.id in ix.nse:
            idx.extend(int(v) for v in ix.nse[zone.id])
            coef.extend([-share] * horizon)
        for load in grid.flexible_loads:
            if load.zone_id == zone.id:
                idx.extend(int(v) for v in ix.served[load.id])
                coef.extend([share] * horizon)
        ix.clean_share_rows[zone.id] = b.add_le(idx, coef, -share * float(np.sum(zone.demand)))

    if cfg.co2_cap_tons is not None:
        idx = []
        coef = []
        for gen in grid.generators:
            if gen.emissions_factor:
                idx.extend(int(v) for v in ix.gen[gen.id])
                coef.extend([gen.emissions_factor] * horizon)
        if idx:
            ix.co2_cap_row = b.add_le(idx, coef, float(cfg.co2_cap_tons))

    problem = b.build()
    emissions_coeffs = np.zeros(problem.num_vars)
    for vars_, factor in emis:
        emissions_coeffs[vars_] = factor
    return ExpansionModel(problem=problem, grid=grid, index=ix, mode=mode,
                          cost_offset=cost_offset if expansion else 0.0,
                          emissions_coeffs=emissions_coeffs)


# --- decode ----------------------------------------------------------------------

@dataclass
class DispatchResult:
    """Decoded solve outcome; immutable by convention once returned."""

    mode: str
    zone_ids: tuple[str, ...]
    total_cost: float
    objective_value: float
    generation: dict[str, np.ndarray]
    commitment: dict[str, np.ndarray]
    startups: dict[str, np.ndarray]
    new_gen_capacity: dict[str, float]
    retired_gen_capacity: dict[str, float]
    new_storage_power: dict[str, float]
    new_storage_energy: dict[str, float]
    new_line_capacity: dict[str, float]
    zonal_emissions: np.ndarray          # (zones, H) tCO2 per hour
    served_demand: np.ndarray            # (zones, H) MWh per hour, fixed - nse + flex
    prices: np.ndarray                   # (zones, H) $/MWh from balance duals
    curtailment: dict[str, np.ndarray]
    nse: np.ndarray                      # (zones, H) MW
    charge: dict[str, np.ndarray]
    discharge: dict[str, np.ndarray]
    soc: dict[str, np.ndarray]
    flows_fwd: dict[str, np.ndarray]
    flows_bwd: dict[str, np.ndarray]
    flex_served: dict[str, np.ndarray]
    solution: lp.LpSolution

    @property
    def total_emissions(self) -> float:
        return float(self.zonal_emissions.sum())

    @property
    def total_served(self) -> float:
        return float(self.served_demand.sum())

    def fixed_capacities(self) -> FixedCapacities:
        return FixedCapacities(
            new_gen=dict(self.new_gen_capacity),
            retired_gen=dict(self.retired_gen_capacity),
            storage_power=dict(self.new_storage_power),
            storage_energy=dict(self.new_storage_energy),
            lines=dict(self.new_line_capacity),
        )


def solve_model(model: ExpansionModel, warm_start: lp.LpSolution | None = None) -> DispatchResult:
    """Solve and decode; emissions are recomputed from primal generation, never duals.

    warm_start is handed to lp.solve: the solution of a same-shaped LP whose
    basis seeds this solve.
    """
    sol = lp.solve(model.problem, warm_start=warm_start)
    if sol.status is lp.SolveStatus.INFEASIBLE:
        raise InfeasibleModel(f"{model.mode} model infeasible", mode=model.mode)
    if sol.status is lp.SolveStatus.UNBOUNDED:
        raise UnboundedModel(f"{model.mode} model unbounded", mode=model.mode)
    return decode_solution(model, sol)


def decode_solution(model: ExpansionModel, sol: lp.LpSolution) -> DispatchResult:
    grid = model.grid
    ix = model.index
    horizon = grid.horizon
    x = sol.x
    zone_ids = tuple(grid.zone_ids())
    nzones = len(zone_ids)
    zpos = {zid: i for i, zid in enumerate(zone_ids)}

    generation = {gid: x[vars_].copy() for gid, vars_ in ix.gen.items()}
    commitment = {gid: x[vars_].copy() for gid, vars_ in ix.commit.items()}
    startups = {gid: x[vars_].copy() for gid, vars_ in ix.startup.items()}
    new_gen = {gid: float(x[i]) for gid, i in ix.new_gen.items()}
    retired = {gid: float(x[i]) for gid, i in ix.retired_gen.items()}

    zonal_emissions = np.zeros((nzones, horizon))
    curtailment: dict[str, np.ndarray] = {}
    for gen in grid.generators:
        g = generation[gen.id]
        if gen.emissions_factor:
            zonal_emissions[zpos[gen.zone_id]] += g * gen.emissions_factor
        if gen.kind in (VARIABLE_RENEWABLE, HYDRO_LIKE):
            fleet = (gen.existing_cap_mw + new_gen.get(gen.id, 0.0)
                     - retired.get(gen.id, 0.0))
            curtailment[gen.id] = gen.availability(horizon) * fleet - g

    nse = np.zeros((nzones, horizon))
    prices = np.zeros((nzones, horizon))
    for zid, vars_ in ix.nse.items():
        nse[zpos[zid]] = x[vars_]
    for zid, rows in ix.balance_rows.items():
        prices[zpos[zid]] = sol.eq_duals[rows]

    flex_served = {fid: x[vars_].copy() for fid, vars_ in ix.served.items()}
    served_demand = np.zeros((nzones, horizon))
    for zone in grid.zones:
        served_demand[zpos[zone.id]] = zone.demand
    served_demand -= nse
    for load in grid.flexible_loads:
        served_demand[zpos[load.zone_id]] += flex_served[load.id]

    return DispatchResult(
        mode=model.mode,
        zone_ids=zone_ids,
        total_cost=float(sol.objective_value) + model.cost_offset,
        objective_value=float(sol.objective_value),
        generation=generation,
        commitment=commitment,
        startups=startups,
        new_gen_capacity=new_gen,
        retired_gen_capacity=retired,
        new_storage_power={sid: float(x[i]) for sid, i in ix.new_storage_power.items()},
        new_storage_energy={sid: float(x[i]) for sid, i in ix.new_storage_energy.items()},
        new_line_capacity={lid: float(x[i]) for lid, i in ix.new_line.items()},
        zonal_emissions=zonal_emissions,
        served_demand=served_demand,
        prices=prices,
        curtailment=curtailment,
        nse=nse,
        charge={sid: x[vars_].copy() for sid, vars_ in ix.charge.items()},
        discharge={sid: x[vars_].copy() for sid, vars_ in ix.discharge.items()},
        soc={sid: x[vars_].copy() for sid, vars_ in ix.soc.items()},
        flows_fwd={lid: x[vars_].copy() for lid, vars_ in ix.flow_fwd.items()},
        flows_bwd={lid: x[vars_].copy() for lid, vars_ in ix.flow_bwd.items()},
        flex_served=flex_served,
        solution=sol,
    )


def degenerate_hour_mask(model: ExpansionModel, sol: lp.LpSolution,
                         tol: float = 1e-7) -> np.ndarray:
    """Conservative hour flags: a balance-coupled variable sits at a bound with ~zero
    reduced cost, the textbook signature of a degenerate optimal basis.

    Internal-state variables (soc, commitment, startup) are excluded; they do
    not by themselves make hourly rates ambiguous.
    """
    horizon = model.grid.horizon
    mask = np.zeros(horizon, dtype=bool)
    x, rc = sol.x, sol.reduced_costs
    lb, ub = model.problem.lb, model.problem.ub
    groups = [model.index.gen, model.index.charge, model.index.discharge,
              model.index.flow_fwd, model.index.flow_bwd, model.index.nse,
              model.index.served]
    for group in groups:
        for vars_ in group.values():
            at_lb = np.abs(x[vars_] - lb[vars_]) <= tol * np.maximum(1.0, np.abs(lb[vars_]))
            finite = np.isfinite(ub[vars_])
            at_ub = finite & (np.abs(x[vars_] - ub[vars_]) <= tol * np.maximum(1.0, np.abs(ub[vars_])))
            pinned = np.abs(ub[vars_] - lb[vars_]) <= 1e-12  # fixed vars are not degeneracy
            suspicious = (at_lb | at_ub) & ~pinned & (np.abs(rc[vars_]) <= tol)
            mask |= suspicious
    return mask


# --- result files ----------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.12g}"


def atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def write_dispatch_outputs(grid: GridModel, result: DispatchResult, outdir) -> list[str]:
    """Write dispatch/capacity/emissions/prices/summary files; returns filenames."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    horizon = grid.horizon

    rows = ["hour,zone,unit,generation_mw"]
    for gen in grid.generators:
        g = result.generation[gen.id]
        for t in range(horizon):
            rows.append(f"{t},{gen.zone_id},{gen.id},{_fmt(g[t])}")
    for sto in grid.storage_units:
        net = result.discharge[sto.id] - result.charge[sto.id]
        for t in range(horizon):
            rows.append(f"{t},{sto.zone_id},{sto.id},{_fmt(net[t])}")
    atomic_write_text(outdir / "dispatch.csv", "\n".join(rows) + "\n")

    rows = ["unit,existing_mw,new_mw,retired_mw"]
    for gen in grid.generators:
        rows.append(f"{gen.id},{_fmt(gen.existing_cap_mw)},"
                    f"{_fmt(result.new_gen_capacity.get(gen.id, 0.0))},"
                    f"{_fmt(result.retired_gen_capacity.get(gen.id, 0.0))}")
    for sto in grid.storage_units:
        rows.append(f"{sto.id}_power,{_fmt(sto.existing_power_mw)},"
                    f"{_fmt(result.new_storage_power.get(sto.id, 0.0))},0")
        rows.append(f"{sto.id}_energy,{_fmt(sto.existing_energy_mwh)},"
                    f"{_fmt(result.new_storage_energy.get(sto.id, 0.0))},0")
    for line in grid.lines:
        rows.append(f"{line.id},{_fmt(line.capacity_mw)},"
                    f"{_fmt(result.new_line_capacity.get(line.id, 0.0))},0")
    atomic_write_text(outdir / "capacity.csv", "\n".join(rows) + "\n")

    rows = ["hour,zone,tco2"]
    for zi, zid in enumerate(result.zone_ids):
        for t in range(horizon):
            rows.append(f"{t},{zid},{_fmt(result.zonal_emissions[zi, t])}")
    atomic_write_text(outdir / "emissions.csv", "\n".join(rows) + "\n")

    rows = ["hour,zone,usd_per_mwh"]
    for zi, zid in enumerate(result.zone_ids):
        for t in range(horizon):
            rows.append(f"{t},{zid},{_fmt(result.prices[zi, t])}")
    atomic_write_text(outdir / "prices.csv", "\n".join(rows) + "\n")

    by_kind: dict[str, float] = {}
    for gen in grid.generators:
        by_kind[gen.kind] = by_kind.get(gen.kind, 0.0) + float(result.generation[gen.id].sum())
    summary = {
        "mode": result.mode,
        "total_cost": result.total_cost,
        "total_emissions_tco2": result.total_emissions,
        "total_served_mwh": result.total_served,
        "total_nse_mwh": float(result.nse.sum()),
        "generation_mwh_by_kind": by_kind,
        "new_gen_capacity_mw": result.new_gen_capacity,
        "retired_gen_capacity_mw": result.retired_gen_capacity,
        "new_storage_power_mw": result.new_storage_power,
        "new_storage_energy_mwh": result.new_storage_energy,
        "new_line_capacity_mw": result.new_line_capacity,
    }
    atomic_write_text(outdir / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return ["dispatch.csv", "capacity.csv", "emissions.csv", "prices.csv", "summary.json"]
