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
Flexible loads contribute served-charging and cumulative-served variables
constrained by their windows (see flex module), a rate cap, and total-energy
conservation; a rigid load (zero window) differs only in its bounds.

A capacity limit (the generation or commitment cap above, a storage unit's
charge, discharge and state-of-charge caps, a line's flow caps) is a
<=-row only where its entity has an investment column (buildable,
retirable or expandable). Without one the limit is the column's upper
bound: a singleton row is a bound in disguise, which presolve removes on a
cold solve, but a warm solve skips presolve and would carry every such row
(4,536 of the 6,048 <=-rows of the synthetic 168 h fleet grid).

In OPERATIONAL mode every investment/retirement variable is pinned to the
supplied capacities and the objective keeps only operational terms (fuel,
variable O&M, startup, non-served-energy penalty). Both modes have the same
columns and rows; they differ only in costs and bounds. A limit with an
investment column stays a row in both, its column pinned by its bounds in
operational mode, so that the layout depends only on which entities have
such a column.

A build runs in two steps after validating the grid:

  * the structure step (``_assemble``) lays out the columns and rows, records
    them in a ModelIndex, and assembles the constraint matrix (an
    ``lp.LpMatrix``) and the emissions coefficients.
  * the vector step (``_fill``) writes the costs, right-hand sides, bounds
    and cost offset from the grid by index assignment, and runs every check
    on those values (pinned capacities, charging windows).

A build given ``like=``, a model of the grid its own grid is derived from,
skips the structure step and fills like's index, matrix and emissions
coefficients. Demand perturbations, EV scaling, charging windows, pinned
schedules, cost multipliers and operational pinning reach only the vectors,
so every re-solve of such a grid builds from the model of the result it
starts from, and nothing looks a structure up. The LP is the one a fresh
build returns, array for array. A grid that differs in anything the
structure step reads (an entity, a profile, an efficiency or loss, a
commitment, clean-share or emissions parameter, whether NSE or a CO2 cap is
on) is not derived, and is built without ``like``.

A held optimum answers another LP by one exact rule (``solve_from``): it
is decoded only where the LP is the held one (``same_lp``), else the LP is
solved, so a layout change under two LPs gives a solve, never a wrong decode.

An expansion solve with no earlier result to start from goes through
``solve_expansion``; one with such a result (a sweep cell after the first
of its chain) is ``solve_derived`` from it. ``solve_expansion`` starts a
long horizon (over 2 * CRASH_HOURS) with something to build from a crash
basis: it solves the expansion LP of the grid's first CRASH_HOURS
(``grid.first_hours``, per-horizon costs scaled to match), then the full
operational LP at those capacities, and starts the full expansion solve
from that optimum. If either step is infeasible or unbounded, cannot be
built, or breaks down numerically, the full solve starts cold. The cost
tie-break makes the optimal vertex unique (see gridmarg.lp), so the start
changes the simplex path and its time, not the answer: capacities,
emissions and costs agree with a cold solve to round-off. Duals at a
dual-degenerate optimum (``prices.csv``) can still depend on the basis
reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import lp
from .errors import (InfeasibleModel, InfeasibleWindow, MissingCapacity, NumericalFailure,
                     UnboundedModel, UnknownZone, ValidationError)
from .flex import FlexWindow, check_window_feasible
from .grid import GridModel, first_hours

MODE_EXPANSION = "capacity_expansion"
MODE_OPERATIONAL = "operational_fixed"


# --- demand perturbation modes -------------------------------------------------

@dataclass(frozen=True)
class ScaleEV:
    """Scale flexible-load baselines in the target zones by (1 + fraction).

    A rigid load also drops its explicit rate cap, as a pinned one does
    (scheduler.pin_schedule): its charging is fixed at its baseline, so the
    cap never reaches its LP, and a cap at the baseline's peak would reject
    any upward scaling.
    """
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
            replace(l, baseline_profile=l.baseline_profile * (1.0 + mode.fraction),
                    max_charge_rate_mw=None if l.is_rigid else l.max_charge_rate_mw)
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
    cumulative: dict[str, np.ndarray] = field(default_factory=dict)   # served through hour t
    balance_rows: dict[str, np.ndarray] = field(default_factory=dict)
    clean_share_rows: dict[str, int] = field(default_factory=dict)
    co2_cap_row: int | None = None
    # <=-rows whose right-hand side is a capacity, of the entities with an
    # investment column only: per generator its hourly capacity rows; per
    # storage unit its charge, discharge and state-of-charge caps, and per
    # line its forward and backward caps, one array row per hour. Any other
    # entity's capacity is its columns' upper bound.
    gen_cap_rows: dict[str, np.ndarray] = field(default_factory=dict)
    storage_cap_rows: dict[str, np.ndarray] = field(default_factory=dict)
    line_cap_rows: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class ExpansionModel:
    """A built LP plus the registry needed to decode its solution."""

    problem: lp.LpProblem
    grid: GridModel
    index: ModelIndex
    fixed: FixedCapacities | None      # the pinned capacities; None in expansion mode
    cost_offset: float                 # constant objective part (fixed O&M on existing fleet)
    emissions_coeffs: np.ndarray       # tCO2 per unit of each LP variable (generation only)

    @property
    def mode(self) -> str:
        return MODE_EXPANSION if self.fixed is None else MODE_OPERATIONAL


@dataclass(frozen=True)
class FixedCapacities:
    """Investment outcomes pinned into an operational model (MW / MWh)."""

    new_gen: dict[str, float] = field(default_factory=dict)
    retired_gen: dict[str, float] = field(default_factory=dict)
    storage_power: dict[str, float] = field(default_factory=dict)
    storage_energy: dict[str, float] = field(default_factory=dict)
    lines: dict[str, float] = field(default_factory=dict)


def build_expansion_lp(grid: GridModel, like: ExpansionModel | None = None) -> ExpansionModel:
    """Capacity-expansion LP: investment, retirement, and dispatch co-optimized.

    like, a model of a grid that grid is derived from (same entities, same
    matrix), lends its structure, so only the vectors are filled.
    """
    return _build(grid, None, like)


def build_operational_lp(grid: GridModel, fixed_capacities: FixedCapacities,
                         like: ExpansionModel | None = None) -> ExpansionModel:
    """Operational LP with investment pinned; objective has operational terms only.

    like lends its structure as in build_expansion_lp.
    """
    return _build(grid, fixed_capacities, like)


def _pin(fixed: FixedCapacities, table: str, key: str) -> float:
    mapping = getattr(fixed, table)
    if key not in mapping:
        raise MissingCapacity(f"fixed capacities missing {table} entry for {key!r}")
    return float(mapping[key])


def _row(terms: list[tuple[np.ndarray, float]]) -> tuple[np.ndarray, np.ndarray]:
    """One row from (variables, shared coefficient) terms, in term order."""
    if not terms:
        return np.zeros(0, dtype=int), np.zeros(0)
    return (np.concatenate([vars_ for vars_, _ in terms]),
            np.concatenate([np.full(len(vars_), c) for vars_, c in terms]))


def _build(grid: GridModel, fixed: FixedCapacities | None,
           like: ExpansionModel | None) -> ExpansionModel:
    grid.validate()
    if like is None:
        return _fill(*_assemble(grid), grid, fixed)
    return _fill(like.index, like.problem.matrix, like.emissions_coeffs, grid, fixed)


def _assemble(grid: GridModel) -> tuple[ModelIndex, lp.LpMatrix, np.ndarray]:
    """The structure step: lay out the columns and rows, and assemble the
    matrix and the (read-only) emissions coefficients."""
    horizon = grid.horizon
    b = lp.LpBuilder()
    ix = ModelIndex()
    emis: list[tuple[np.ndarray, float]] = []
    prev_hour = np.roll(np.arange(horizon), 1)   # cyclic wrap: hour 0 follows hour H-1

    def each_hour(var: int) -> np.ndarray:
        return np.full(horizon, var)

    def capped(vars_: np.ndarray, new: int):
        """The block of hourly rows vars_[t] - new <= existing."""
        return np.column_stack((vars_, each_hour(new))), (1.0, -1.0)

    # Per-zone injection terms accumulated for balance rows: zone -> [(vars, coef)].
    inject: dict[str, list[tuple[np.ndarray, float]]] = {z.id: [] for z in grid.zones}

    for gen in grid.generators:
        gvars = b.add_vars(horizon)
        ix.gen[gen.id] = gvars
        inject[gen.zone_id].append((gvars, 1.0))
        if gen.emissions_factor:
            emis.append((gvars, gen.emissions_factor))

        # Each investment column and its coefficient in the capacity rows.
        invest = []
        if gen.buildable:
            ix.new_gen[gen.id] = b.add_var()
            invest.append((ix.new_gen[gen.id], -1.0))
        if gen.retirable:
            ix.retired_gen[gen.id] = b.add_var()
            invest.append((ix.retired_gen[gen.id], 1.0))

        if gen.has_commitment:
            uvars = b.add_vars(horizon)
            svars = b.add_vars(horizon)
            ix.commit[gen.id] = uvars
            ix.startup[gen.id] = svars
            # Per hour, in order: gen <= u, min_stable*u <= gen, u <= surviving
            # capacity (with an investment column), u_t - u_{t-1} <= s_t.
            idx = [np.column_stack((gvars, uvars))]
            coef = [(1.0, -1.0)]
            if gen.min_stable_fraction > 0:
                idx.append(np.column_stack((uvars, gvars)))
                coef.append((gen.min_stable_fraction, -1.0))
            if invest:
                idx.append(np.column_stack([uvars] + [each_hour(i) for i, _ in invest]))
                coef.append([1.0] + [c for _, c in invest])
            idx.append(np.column_stack((uvars, uvars[prev_hour], svars)))
            coef.append((1.0, -1.0, -1.0))
            rows = b.add_le_rows(tuple(idx), tuple(coef))
            if invest:
                ix.gen_cap_rows[gen.id] = rows[len(idx) - 2::len(idx)]   # the capacity rows
        elif invest:
            avail = np.asarray(gen.availability(horizon), dtype=float)
            ix.gen_cap_rows[gen.id] = b.add_le_rows(
                np.column_stack([gvars] + [each_hour(i) for i, _ in invest]),
                np.column_stack([np.ones(horizon)] + [c * avail for _, c in invest]))

    for sto in grid.storage_units:
        ch = b.add_vars(horizon)
        dis = b.add_vars(horizon)
        soc = b.add_vars(horizon)
        ix.charge[sto.id], ix.discharge[sto.id], ix.soc[sto.id] = ch, dis, soc
        inject[sto.zone_id].append((dis, 1.0))
        inject[sto.zone_id].append((ch, -1.0))

        if sto.buildable:
            p_idx = ix.new_storage_power[sto.id] = b.add_var()
            e_idx = ix.new_storage_energy[sto.id] = b.add_var()
            # Per hour, in order: charge, discharge and state-of-charge caps.
            idx, coef = zip(capped(ch, p_idx), capped(dis, p_idx), capped(soc, e_idx))
            ix.storage_cap_rows[sto.id] = b.add_le_rows(idx, coef).reshape(horizon, 3)
        b.add_eq_rows(np.column_stack((soc, soc[prev_hour], ch, dis)),
                      (1.0, -1.0, -sto.charge_efficiency, 1.0 / sto.discharge_efficiency))

    for line in grid.lines:
        fwd = b.add_vars(horizon)
        bwd = b.add_vars(horizon)
        ix.flow_fwd[line.id], ix.flow_bwd[line.id] = fwd, bwd
        keep = 1.0 - line.loss_fraction
        inject[line.to_zone].append((fwd, keep))
        inject[line.from_zone].append((fwd, -1.0))
        inject[line.from_zone].append((bwd, keep))
        inject[line.to_zone].append((bwd, -1.0))
        if line.expandable:
            l_idx = ix.new_line[line.id] = b.add_var()
            # Per hour, in order: forward and backward flow caps.
            idx, coef = zip(capped(fwd, l_idx), capped(bwd, l_idx))
            ix.line_cap_rows[line.id] = b.add_le_rows(idx, coef).reshape(horizon, 2)

    if grid.config.nse_penalty is not None:
        for zone in grid.zones:
            nse = b.add_vars(horizon)
            ix.nse[zone.id] = nse
            inject[zone.id].append((nse, 1.0))

    for load in grid.flexible_loads:
        served = b.add_vars(horizon)
        # Cumulative served energy, bounded by the window (see _fill).
        cum = b.add_vars(horizon)
        ix.served[load.id], ix.cumulative[load.id] = served, cum
        b.add_eq([cum[0], served[0]], [1.0, -1.0])
        b.add_eq_rows(np.column_stack((cum[1:], cum[:-1], served[1:])), (1.0, -1.0, -1.0))
        inject[load.zone_id].append((served, -1.0))

    # Power balance: one equality per (zone, hour).
    for zone in grid.zones:
        terms = inject[zone.id]
        idx = (np.column_stack([vars_ for vars_, _ in terms]) if terms
               else np.zeros((horizon, 0), dtype=int))
        ix.balance_rows[zone.id] = b.add_eq_rows(idx, [c for _, c in terms])

    # Zonal clean-share floors: clean generation >= share * consumption.
    for zone in grid.zones:
        share = zone.clean_share_min
        if share <= 0:
            continue
        terms = [(ix.gen[gen.id], -1.0) for gen in grid.generators
                 if gen.zone_id == zone.id and gen.is_clean]
        if zone.id in ix.nse:
            terms.append((ix.nse[zone.id], -share))
        terms += [(ix.served[load.id], share) for load in grid.flexible_loads
                  if load.zone_id == zone.id]
        ix.clean_share_rows[zone.id] = b.add_le(*_row(terms))

    if grid.config.co2_cap_tons is not None:
        terms = [(ix.gen[gen.id], gen.emissions_factor) for gen in grid.generators
                 if gen.emissions_factor]
        if terms:
            ix.co2_cap_row = b.add_le(*_row(terms))

    emissions_coeffs = np.zeros(b.num_vars)
    for vars_, factor in emis:
        emissions_coeffs[vars_] = factor
    emissions_coeffs.flags.writeable = False
    return ix, b.matrix(), emissions_coeffs


def _fill(ix: ModelIndex, matrix: lp.LpMatrix, emissions_coeffs: np.ndarray, grid: GridModel,
          fixed: FixedCapacities | None) -> ExpansionModel:
    """The vector step: costs, right-hand sides, bounds and cost offset, by index.

    Every check on values (pinned capacities, charging windows) runs here,
    so it runs on every build, handed-over structure or not.
    """
    horizon = grid.horizon
    expansion = fixed is None
    n = matrix.num_cols
    c, lb, ub = np.zeros(n), np.zeros(n), np.full(n, np.inf)
    b_eq = np.zeros(matrix.rows_eq.shape[0])
    b_ub = np.zeros(matrix.rows_ub.shape[0])
    cost_offset = 0.0

    def invest(col: int, cost: float, table: str, key: str) -> None:
        """An investment column: its cost when expanding, else pinned to the fixed capacity."""
        if expansion:
            c[col] = cost
        else:
            lb[col] = ub[col] = _pin(fixed, table, key)

    def cap(rows: dict[str, np.ndarray], key: str, cols: np.ndarray, value) -> None:
        """A capacity limit: the right-hand side of key's capacity rows where
        it has an investment column, else the upper bound of cols."""
        if key in rows:
            b_ub[rows[key]] = value
        else:
            ub[cols] = value

    for gen in grid.generators:
        c[ix.gen[gen.id]] = gen.marginal_cost
        if gen.buildable:
            invest(ix.new_gen[gen.id], gen.inv_cost_annual + gen.fixed_om, "new_gen", gen.id)
        if gen.retirable:
            ub[ix.retired_gen[gen.id]] = gen.existing_cap_mw
            invest(ix.retired_gen[gen.id], -gen.fixed_om, "retired_gen", gen.id)
        if expansion:
            cost_offset += gen.fixed_om * gen.existing_cap_mw
        if gen.has_commitment:
            c[ix.startup[gen.id]] = gen.startup_cost
            cap(ix.gen_cap_rows, gen.id, ix.commit[gen.id], gen.existing_cap_mw)
        else:
            avail = np.asarray(gen.availability(horizon), dtype=float)
            cap(ix.gen_cap_rows, gen.id, ix.gen[gen.id], avail * gen.existing_cap_mw)

    for sto in grid.storage_units:
        c[ix.discharge[sto.id]] = sto.var_om
        if sto.buildable:
            invest(ix.new_storage_power[sto.id], sto.inv_cost_power, "storage_power", sto.id)
            invest(ix.new_storage_energy[sto.id], sto.inv_cost_energy, "storage_energy", sto.id)
        cap(ix.storage_cap_rows, sto.id,
            np.column_stack((ix.charge[sto.id], ix.discharge[sto.id], ix.soc[sto.id])),
            (sto.existing_power_mw, sto.existing_power_mw, sto.existing_energy_mwh))

    for line in grid.lines:
        if line.expandable:
            invest(ix.new_line[line.id], line.expansion_cost, "lines", line.id)
        cap(ix.line_cap_rows, line.id,
            np.column_stack((ix.flow_fwd[line.id], ix.flow_bwd[line.id])), line.capacity_mw)

    for nse in ix.nse.values():
        c[nse] = grid.config.nse_penalty

    for load in grid.flexible_loads:
        baseline = load.effective_baseline()
        window = FlexWindow(load.max_advance_hours, load.max_delay_hours)
        rate = load.effective_max_charge_rate()
        bounds = check_window_feasible(baseline, window, rate, load.id)
        served = ix.served[load.id]
        if window.is_rigid:
            # The cumulative columns keep [0, inf): they never bind, and
            # SRME2's right-hand-side tie-break on their rows stays feasible.
            lb[served] = ub[served] = baseline
        else:
            ub[served] = rate
            cum = ix.cumulative[load.id]
            lb[cum], ub[cum] = bounds
            # Conservation: all requested energy is served.
            lb[cum[-1]] = ub[cum[-1]] = float(np.sum(baseline))

    for zone in grid.zones:
        b_eq[ix.balance_rows[zone.id]] = zone.demand
        if zone.id in ix.clean_share_rows:
            b_ub[ix.clean_share_rows[zone.id]] = (-zone.clean_share_min
                                                  * float(np.sum(zone.demand)))
    if ix.co2_cap_row is not None:
        b_ub[ix.co2_cap_row] = float(grid.config.co2_cap_tons)

    problem = lp.LpProblem(c=c, matrix=matrix, b_eq=b_eq, b_ub=b_ub, lb=lb, ub=ub)
    return ExpansionModel(problem=problem, grid=grid, index=ix, fixed=fixed,
                          cost_offset=cost_offset, emissions_coeffs=emissions_coeffs)


# --- decode ----------------------------------------------------------------------

@dataclass
class DispatchResult:
    """Decoded solve outcome; immutable by convention once returned."""

    model: ExpansionModel = field(repr=False)   # the LP whose solution this decodes
    zone_ids: tuple[str, ...]
    total_cost: float
    objective_value: float
    generation: dict[str, np.ndarray]
    new_gen_capacity: dict[str, float]
    retired_gen_capacity: dict[str, float]
    new_storage_power: dict[str, float]
    new_storage_energy: dict[str, float]
    new_line_capacity: dict[str, float]
    zonal_emissions: np.ndarray          # (zones, H) tCO2 per hour
    served_demand: np.ndarray            # (zones, H) MWh per hour, fixed - nse + flex
    prices: np.ndarray                   # (zones, H) $/MWh from balance duals
    nse: np.ndarray                      # (zones, H) MW
    charge: dict[str, np.ndarray]
    discharge: dict[str, np.ndarray]
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


# Hours of the short expansion behind the crash start. On the synthetic 336 h
# grid a 24 h window guessed the capacities too poorly to save time (+3%),
# and 96 h saved less than 48 h.
CRASH_HOURS = 48


def solve_expansion(grid: GridModel) -> DispatchResult:
    """Build and solve grid's capacity-expansion LP with no earlier result to
    start from: an LP with an investment column over more than 2 *
    CRASH_HOURS hours starts from _crash_start's basis, else cold.
    """
    model = build_expansion_lp(grid)
    start = (_crash_start(model) if grid.horizon > 2 * CRASH_HOURS and grid.has_investment
             else None)
    return solve_model(model, warm_start=start)


def _crash_start(model: ExpansionModel) -> lp.LpSolution | None:
    """The full-horizon operational optimum at the capacities of the expansion
    over the first CRASH_HOURS of model's grid (grid.first_hours), or None
    where either solve fails. The operational LP fills model's structure.

    Capacities from a short horizon are a cheap first guess (the first step
    of time-series aggregation; Kotzur et al. 2018, Applied Energy 213), and
    the operational LP at fixed capacities iterates far faster than the
    expansion LP. The full solve takes only that optimum's basis: the
    pinned investment columns are nonbasic there, so the full solve starts
    them at a bound (0 for every one on the synthetic 336 h expansion
    grid), not at the guess, and the guess reaches it only through the
    dispatch part of the basis. On that grid the two steps take 1,842 and
    5,683 iterations, and the expansion solve from their basis 7,311,
    against 14,113 cold, in about half the time.
    """
    try:
        short = solve_model(build_expansion_lp(first_hours(model.grid, CRASH_HOURS)))
        return solve_model(build_operational_lp(model.grid, short.fixed_capacities(),
                                                like=model)).solution
    except (InfeasibleModel, UnboundedModel, ValidationError, InfeasibleWindow,
            NumericalFailure):
        return None


def solve_operational(expansion: DispatchResult) -> DispatchResult:
    """The operational optimum of expansion's grid at expansion's capacities.

    expansion is a solve_expansion result. Its operational LP is solved
    cold, or is its own LP (nothing to build), whose optimum is decoded.
    """
    return solve_from(expansion, build_operational_lp(
        expansion.model.grid, expansion.fixed_capacities(), like=expansion.model), warm=False)


def solve_derived(base: DispatchResult, grid: GridModel) -> DispatchResult:
    """base's LP rebuilt for grid, solved from base (solve_from).

    grid is derived from base.model.grid (a demand perturbation, a scaled
    schedule), and the rebuilt LP fills base's structure and keeps its mode
    and pinned capacities, so base's basis is a start for it.
    """
    fixed = base.model.fixed
    model = (build_expansion_lp(grid, like=base.model) if fixed is None
             else build_operational_lp(grid, fixed, like=base.model))
    return solve_from(base, model)


def same_lp(a: ExpansionModel, b: ExpansionModel) -> bool:
    """Whether a and b are one LP: they share one LpMatrix object, and their
    costs, right-hand sides and bounds are equal bit for bit."""
    p, q = a.problem, b.problem
    pairs = ((p.c, q.c), (p.b_eq, q.b_eq), (p.b_ub, q.b_ub), (p.lb, q.lb), (p.ub, q.ub))
    return p.matrix is q.matrix and all(u.tobytes() == v.tobytes() for u, v in pairs)


def solve_from(held: DispatchResult, model: ExpansionModel, warm: bool = True) -> DispatchResult:
    """model's optimum: held's solution decoded with model where model is
    held's LP (same_lp), else a solve of model from held's basis, or cold
    where warm is False."""
    if same_lp(model, held.model):
        return decode_solution(model, held.solution)
    return solve_model(model, warm_start=held.solution if warm else None)


def solve_model(model: ExpansionModel, warm_start: lp.LpSolution | None = None) -> DispatchResult:
    """Solve and decode; emissions are recomputed from primal generation, never duals.

    warm_start, the solution of a same-shaped LP, seeds the solve with its
    basis (see lp.solve).
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
    new_gen = {gid: float(x[i]) for gid, i in ix.new_gen.items()}
    retired = {gid: float(x[i]) for gid, i in ix.retired_gen.items()}

    zonal_emissions = np.zeros((nzones, horizon))
    for gen in grid.generators:
        if gen.emissions_factor:
            zonal_emissions[zpos[gen.zone_id]] += generation[gen.id] * gen.emissions_factor

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
        model=model,
        zone_ids=zone_ids,
        total_cost=float(sol.objective_value) + model.cost_offset,
        objective_value=float(sol.objective_value),
        generation=generation,
        new_gen_capacity=new_gen,
        retired_gen_capacity=retired,
        new_storage_power={sid: float(x[i]) for sid, i in ix.new_storage_power.items()},
        new_storage_energy={sid: float(x[i]) for sid, i in ix.new_storage_energy.items()},
        new_line_capacity={lid: float(x[i]) for lid, i in ix.new_line.items()},
        zonal_emissions=zonal_emissions,
        served_demand=served_demand,
        prices=prices,
        nse=nse,
        charge={sid: x[vars_].copy() for sid, vars_ in ix.charge.items()},
        discharge={sid: x[vars_].copy() for sid, vars_ in ix.discharge.items()},
        flex_served=flex_served,
        solution=sol,
    )

