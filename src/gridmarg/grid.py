"""Zonal grid data model: zones, generators, storage, lines, flexible loads.

Units used throughout:

    power             MW          energy            MWh
    investment cost   $/MW-yr     (annualized; see annualized_capital_cost)
    fixed O&M         $/MW-yr     variable O&M      $/MWh
    heat rate         MMBtu/MWh   fuel price        $/MMBtu
    emissions factor  tCO2/MWh of generation

A GridModel is immutable after construction and safe to share read-only
across concurrent solves. All transforms below return new models and leave
their inputs untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError

THERMAL = "thermal"
VARIABLE_RENEWABLE = "variable_renewable"
HYDRO_LIKE = "hydro_like"
GENERATOR_KINDS = (THERMAL, VARIABLE_RENEWABLE, HYDRO_LIKE)


def annualized_capital_cost(overnight_cost: float, wacc: float, lifetime_years: float) -> float:
    """Convert an overnight cost ($/MW) to an annualized $/MW-yr via the capital recovery factor."""
    if lifetime_years <= 0:
        raise ValueError("lifetime_years must be positive")
    if wacc < 0:
        raise ValueError("wacc must be nonnegative")
    if wacc == 0:
        return overnight_cost / lifetime_years
    q = (1.0 + wacc) ** lifetime_years
    return overnight_cost * wacc * q / (q - 1.0)


def _require_finite(entity, where: str) -> None:
    """Reject NaN and infinite numbers in an entity's float and series fields.

    Every range check below is a comparison, which NaN passes. None, where
    a field allows it, stays the way to say "no limit".
    """
    for name, value in vars(entity).items():
        if isinstance(value, float):
            finite = math.isfinite(value)
        elif isinstance(value, np.ndarray):
            finite = np.isfinite(value).all()
        else:
            continue
        if not finite:
            raise ValidationError(f"{where}: {name} must be finite")


@dataclass(frozen=True)
class Zone:
    id: str
    demand: np.ndarray          # fixed (non-EV) hourly load, MW, length H
    clean_share_min: float = 0.0

    def validate(self, horizon: int) -> None:
        _require_finite(self, f"zone {self.id}")
        if len(self.demand) != horizon:
            raise ValidationError(
                f"zone {self.id}: demand series has length {len(self.demand)}, expected {horizon}")
        if (self.demand < 0).any():
            raise ValidationError(f"zone {self.id}: demand must be nonnegative")
        if not 0.0 <= self.clean_share_min <= 1.0:
            raise ValidationError(f"zone {self.id}: clean_share_min must lie in [0, 1]")


@dataclass(frozen=True)
class Generator:
    id: str
    zone_id: str
    kind: str
    existing_cap_mw: float = 0.0
    buildable: bool = False
    retirable: bool = False
    inv_cost_annual: float = 0.0
    fixed_om: float = 0.0
    var_om: float = 0.0                 # may be negative (production subsidy)
    heat_rate: float = 0.0              # thermal only
    fuel_price: float = 0.0             # thermal only
    emissions_factor: float = 0.0
    capacity_factor_profile: np.ndarray | None = None   # VRE / hydro_like availability
    min_stable_fraction: float = 0.0    # thermal only, linearized commitment
    startup_cost: float = 0.0           # thermal only, $/MW-started
    is_clean: bool = False

    @property
    def marginal_cost(self) -> float:
        """Short-run marginal cost, $/MWh."""
        if self.kind == THERMAL:
            return self.fuel_price * self.heat_rate + self.var_om
        return self.var_om

    @property
    def has_commitment(self) -> bool:
        """Linearized commitment variables are emitted only when they can bind."""
        return self.kind == THERMAL and (self.min_stable_fraction > 0 or self.startup_cost > 0)

    def validate(self, horizon: int) -> None:
        _require_finite(self, f"generator {self.id}")
        if self.kind not in GENERATOR_KINDS:
            raise ValidationError(f"generator {self.id}: unknown kind {self.kind!r}")
        if self.existing_cap_mw < 0:
            raise ValidationError(f"generator {self.id}: existing_cap_mw must be nonnegative")
        if self.emissions_factor < 0:
            raise ValidationError(f"generator {self.id}: emissions_factor must be nonnegative")
        if not 0.0 <= self.min_stable_fraction < 1.0:
            raise ValidationError(f"generator {self.id}: min_stable_fraction must lie in [0, 1)")
        if self.kind == THERMAL and self.heat_rate <= 0:
            raise ValidationError(f"generator {self.id}: thermal units need heat_rate > 0")
        if self.capacity_factor_profile is not None:
            if self.kind == THERMAL:
                raise ValidationError(
                    f"generator {self.id}: thermal units do not take a "
                    f"capacity_factor_profile")
            prof = self.capacity_factor_profile
            if len(prof) != horizon:
                raise ValidationError(
                    f"generator {self.id}: capacity_factor_profile has length {len(prof)}, "
                    f"expected {horizon}")
            if (prof < 0).any() or (prof > 1).any():
                raise ValidationError(
                    f"generator {self.id}: capacity_factor_profile must lie in [0, 1]")
        elif self.kind in (VARIABLE_RENEWABLE, HYDRO_LIKE):
            raise ValidationError(
                f"generator {self.id}: kind {self.kind} requires capacity_factor_profile")

    def availability(self, horizon: int) -> np.ndarray:
        if self.capacity_factor_profile is not None:
            return self.capacity_factor_profile
        return np.ones(horizon)


@dataclass(frozen=True)
class StorageUnit:
    id: str
    zone_id: str
    existing_power_mw: float = 0.0
    existing_energy_mwh: float = 0.0
    buildable: bool = False
    inv_cost_power: float = 0.0     # $/MW-yr
    inv_cost_energy: float = 0.0    # $/MWh-yr
    charge_efficiency: float = 1.0
    discharge_efficiency: float = 1.0
    var_om: float = 0.0             # $/MWh discharged

    def validate(self) -> None:
        _require_finite(self, f"storage {self.id}")
        for name in ("charge_efficiency", "discharge_efficiency"):
            eff = getattr(self, name)
            if not 0.0 < eff <= 1.0:
                raise ValidationError(f"storage {self.id}: {name} must lie in (0, 1]")
        if self.existing_power_mw < 0 or self.existing_energy_mwh < 0:
            raise ValidationError(f"storage {self.id}: capacities must be nonnegative")


@dataclass(frozen=True)
class TransmissionLine:
    id: str
    from_zone: str
    to_zone: str
    capacity_mw: float              # symmetric rating
    expandable: bool = False
    expansion_cost: float = 0.0     # $/MW-yr
    loss_fraction: float = 0.0

    def validate(self) -> None:
        _require_finite(self, f"line {self.id}")
        if self.from_zone == self.to_zone:
            raise ValidationError(f"line {self.id}: from_zone equals to_zone")
        if self.capacity_mw < 0:
            raise ValidationError(f"line {self.id}: capacity_mw must be nonnegative")
        if not 0.0 <= self.loss_fraction < 1.0:
            raise ValidationError(f"line {self.id}: loss_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class FlexibleLoad:
    """Shiftable charging demand (the EV block).

    baseline_profile is the requested charging in MW; energy requested at hour
    t may be served within [t - max_advance_hours, t + max_delay_hours].
    """

    id: str
    zone_id: str
    baseline_profile: np.ndarray
    max_advance_hours: int = 0
    max_delay_hours: int = 0
    max_charge_rate_mw: float | None = None   # None: defaults to 3x effective baseline peak
    penetration_scale: float = 1.0

    @property
    def is_rigid(self) -> bool:
        """Whether the window is zero, so that charging is fixed at the baseline."""
        return self.max_advance_hours == 0 and self.max_delay_hours == 0

    def effective_baseline(self) -> np.ndarray:
        return self.baseline_profile * self.penetration_scale

    def effective_max_charge_rate(self) -> float:
        if self.max_charge_rate_mw is not None:
            return self.max_charge_rate_mw
        peak = float(np.max(self.effective_baseline(), initial=0.0))
        return 3.0 * peak

    def validate(self, horizon: int) -> None:
        _require_finite(self, f"flexible_load {self.id}")
        if len(self.baseline_profile) != horizon:
            raise ValidationError(
                f"flexible_load {self.id}: baseline_profile has length "
                f"{len(self.baseline_profile)}, expected {horizon}")
        if (self.baseline_profile < 0).any():
            raise ValidationError(f"flexible_load {self.id}: baseline_profile must be nonnegative")
        if self.max_advance_hours < 0 or self.max_delay_hours < 0:
            raise ValidationError(f"flexible_load {self.id}: window hours must be nonnegative")
        if self.penetration_scale < 0:
            raise ValidationError(f"flexible_load {self.id}: penetration_scale must be nonnegative")
        if self.max_charge_rate_mw is not None and self.max_charge_rate_mw < 0:
            raise ValidationError(f"flexible_load {self.id}: max_charge_rate_mw must be nonnegative")
        if self.is_rigid:
            peak = float(np.max(self.effective_baseline(), initial=0.0))
            if self.effective_max_charge_rate() < peak - 1e-9:
                raise ValidationError(
                    f"flexible_load {self.id}: max_charge_rate_mw below baseline peak "
                    f"with no flexibility window")


@dataclass(frozen=True)
class CostMultipliers:
    renewable_capex: float = 1.0
    gas_price: float = 1.0

    def validate(self) -> None:
        _require_finite(self, "cost_multipliers")
        if self.renewable_capex <= 0 or self.gas_price <= 0:
            raise ValidationError("cost_multipliers: multipliers must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    horizon_hours: int
    ev_penetration_multiplier: float = 1.0
    perturbation_fraction: float = 0.05
    srme1_fraction: float = 0.03
    emissions_penalty: float = 1000.0       # $/tCO2 in the scheduling objective
    convergence_threshold: float = 0.01
    max_iterations: int = 10
    cost_multipliers: CostMultipliers = field(default_factory=CostMultipliers)
    nse_penalty: float | None = 9000.0      # $/MWh of non-served energy; None disables NSE
    icev_tco2_per_year: float = 3.0
    ev_annual_mwh: float = 3.0              # MWh per EV-year, for per-vehicle normalization
    co2_cap_tons: float | None = None

    def validate(self) -> None:
        _require_finite(self, "config")
        if self.horizon_hours <= 0:
            raise ValidationError("config: horizon_hours must be positive")
        if self.ev_penetration_multiplier <= 0:
            raise ValidationError("config: ev_penetration_multiplier must be positive")
        if self.perturbation_fraction <= 0:
            raise ValidationError("config: perturbation_fraction must be positive")
        if self.srme1_fraction <= 0:
            raise ValidationError("config: srme1_fraction must be positive")
        if self.convergence_threshold <= 0:
            raise ValidationError("config: convergence_threshold must be positive")
        if self.max_iterations <= 0:
            raise ValidationError("config: max_iterations must be positive")
        if self.nse_penalty is not None and self.nse_penalty < 0:
            raise ValidationError("config: nse_penalty must be nonnegative")
        if self.icev_tco2_per_year <= 0:
            raise ValidationError("config: icev_tco2_per_year must be positive")
        self.cost_multipliers.validate()


@dataclass(frozen=True)
class GridModel:
    zones: tuple[Zone, ...]
    generators: tuple[Generator, ...] = ()
    storage_units: tuple[StorageUnit, ...] = ()
    lines: tuple[TransmissionLine, ...] = ()
    flexible_loads: tuple[FlexibleLoad, ...] = ()
    config: ScenarioConfig = None  # type: ignore[assignment]

    @property
    def horizon(self) -> int:
        return self.config.horizon_hours

    @property
    def has_investment(self) -> bool:
        """Whether the expansion LP has an investment column: a buildable or
        retirable generator, a buildable storage unit or an expandable line."""
        return (any(g.buildable or g.retirable for g in self.generators)
                or any(s.buildable for s in self.storage_units)
                or any(l.expandable for l in self.lines))

    @property
    def charging_is_rigid(self) -> bool:
        """Whether every flexible load has a zero window, so that its charging
        columns are fixed at its baseline and no schedule but that one exists."""
        return all(l.is_rigid for l in self.flexible_loads)

    def zone_ids(self) -> list[str]:
        return [z.id for z in self.zones]

    def validate(self) -> None:
        if self.config is None:
            raise ValidationError("grid: config section is required")
        self.config.validate()
        if not self.zones:
            raise ValidationError("grid: at least one zone is required")
        horizon = self.config.horizon_hours
        for coll in (self.zones, self.generators, self.storage_units, self.lines,
                     self.flexible_loads):
            for ent in coll:
                if not ent.id or not ent.id.isascii():
                    raise ValidationError(f"entity id {ent.id!r}: identifiers must be "
                                          f"non-empty ASCII")
        zone_ids = set()
        for zone in self.zones:
            if zone.id in zone_ids:
                raise ValidationError(f"zone {zone.id}: duplicate id")
            zone_ids.add(zone.id)
            zone.validate(horizon)
        # Capacity deltas are reported by id, so assets share one id space.
        asset_ids: set[str] = set()
        for coll, label, seen in ((self.generators, "generator", asset_ids),
                                  (self.storage_units, "storage", asset_ids),
                                  (self.flexible_loads, "flexible_load", set())):
            for ent in coll:
                if ent.id in seen:
                    raise ValidationError(f"{label} {ent.id}: duplicate id")
                seen.add(ent.id)
                if ent.zone_id not in zone_ids:
                    raise ValidationError(f"{label} {ent.id}: unknown zone_id {ent.zone_id!r}")
        for line in self.lines:
            if line.id in asset_ids:
                raise ValidationError(f"line {line.id}: duplicate id")
            asset_ids.add(line.id)
            for fieldname in ("from_zone", "to_zone"):
                if getattr(line, fieldname) not in zone_ids:
                    raise ValidationError(
                        f"line {line.id}: unknown {fieldname} {getattr(line, fieldname)!r}")
            line.validate()
        for gen in self.generators:
            gen.validate(horizon)
        for store in self.storage_units:
            store.validate()
        for load in self.flexible_loads:
            load.validate(horizon)


def apply_sensitivity(grid: GridModel, multipliers: CostMultipliers) -> GridModel:
    """Scale renewable investment costs and thermal fuel prices; everything else untouched."""
    multipliers.validate()
    gens = []
    for gen in grid.generators:
        if gen.kind == VARIABLE_RENEWABLE:
            gen = replace(gen, inv_cost_annual=gen.inv_cost_annual * multipliers.renewable_capex)
        elif gen.kind == THERMAL:
            gen = replace(gen, fuel_price=gen.fuel_price * multipliers.gas_price)
        gens.append(gen)
    return replace(grid, generators=tuple(gens))


def scale_ev_penetration(grid: GridModel, multiplier: float) -> GridModel:
    """Scale every flexible load's baseline profile; fixed zonal demand untouched."""
    if multiplier <= 0:
        raise ValueError("multiplier must be positive")
    loads = tuple(replace(l, baseline_profile=l.baseline_profile * multiplier)
                  for l in grid.flexible_loads)
    return replace(grid, flexible_loads=loads)


def first_hours(grid: GridModel, hours: int) -> GridModel:
    """The grid over its first hours only.

    Every hourly series is cut to its first hours. Every cost or cap that
    covers the whole horizon (investment and fixed O&M costs, storage
    investment, line expansion, the CO2 cap) is scaled by hours / horizon,
    so the short grid prices capacity against the energy it serves. Hourly
    costs are unchanged.
    """
    scale = hours / grid.horizon
    cfg = grid.config
    gens = tuple(
        replace(g, inv_cost_annual=g.inv_cost_annual * scale, fixed_om=g.fixed_om * scale,
                capacity_factor_profile=(None if g.capacity_factor_profile is None
                                         else g.capacity_factor_profile[:hours]))
        for g in grid.generators)
    return replace(
        grid,
        zones=tuple(replace(z, demand=z.demand[:hours]) for z in grid.zones),
        generators=gens,
        storage_units=tuple(replace(s, inv_cost_power=s.inv_cost_power * scale,
                                    inv_cost_energy=s.inv_cost_energy * scale)
                            for s in grid.storage_units),
        lines=tuple(replace(l, expansion_cost=l.expansion_cost * scale) for l in grid.lines),
        flexible_loads=tuple(replace(l, baseline_profile=l.baseline_profile[:hours])
                             for l in grid.flexible_loads),
        config=replace(cfg, horizon_hours=hours,
                       co2_cap_tons=None if cfg.co2_cap_tons is None
                       else cfg.co2_cap_tons * scale),
    )


def resolve_scenario(grid: GridModel) -> GridModel:
    """Apply the config's declarative multipliers (cost sensitivities, EV penetration)
    and validate the result, which is the grid every command solves.

    Entry points call this exactly once after loading; applying it twice
    compounds the multipliers.
    """
    out = apply_sensitivity(grid, grid.config.cost_multipliers)
    if grid.config.ev_penetration_multiplier != 1.0:
        out = scale_ev_penetration(out, grid.config.ev_penetration_multiplier)
    out.validate()
    return out
