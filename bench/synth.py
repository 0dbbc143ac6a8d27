"""Seeded synthetic scenarios for the benchmark: a 3-zone ring.

Every zone has a coal unit with min-stable and start-up commitment, a gas
unit, solar, wind, a battery and one EV load with a 4 h advance / 8 h delay
window; the three zones are joined in a ring of lossy lines. Two grids share
that topology:

- ``fleet``: the existing fleet only. Nothing is buildable, retirable or
  expandable. The scheduler config caps the penalty passes at a small
  ``max_iterations`` with a convergence threshold far below any
  pass-to-pass change, so a flexible schedule always runs the cap; with
  rigid charging (``--flex none``) the rates cannot move and the scheduler
  stops after exactly one pass.
- ``expansion``: gas, solar, wind, battery and lines are buildable and coal
  is retirable. Investment costs are annual costs scaled to the horizon.

Demand, solar and wind come from one fixed sample; the seed draws the
hourly noise on the EV baselines. Every seed gives an LP of the same size
and structure. The files follow the documented scenario format:
``scenario.json`` plus ``hour,value`` sidecar CSVs.

    python3 bench/synth.py --grid expansion --hours 336 --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

ZONES = ("A", "B", "C")
EV_ADVANCE_HOURS = 4
EV_DELAY_HOURS = 8
PERTURBATION_FRACTION = 0.05
SRME1_FRACTION = 0.03
# Fleet grid: the most penalty passes a schedule may run.
FLEET_PASSES = 3
FLEET_CONVERGENCE_THRESHOLD = 1e-12

# Demand and weather are one fixed sample; the seed only draws hourly noise
# (standard deviation EV_SEED_NOISE) on the EV baselines. Weather and demand
# decide what the expansion builds and how hard its LP is: seeding them made
# the LR-MER solve time vary by about 20% from seed to seed, far more than
# any change to the program should be judged by.
SAMPLE_SEED = 2504
EV_SEED_NOISE = 0.02

_PEAK_DEMAND = {"A": 1000.0, "B": 800.0, "C": 600.0}
_EV_PEAK = {"A": 120.0, "B": 100.0, "C": 80.0}
_SOLAR_CF_PEAK = {"A": 0.80, "B": 0.70, "C": 0.60}
_WIND_CF_MEAN = {"A": 0.30, "B": 0.40, "C": 0.45}


def _sample(hours: int) -> dict[str, dict[str, np.ndarray]]:
    """The fixed sample of hourly demand, capacity-factor and EV-baseline series."""
    rng = np.random.default_rng([SAMPLE_SEED, hours])
    t = np.arange(hours)
    hod = t % 24
    out: dict[str, dict[str, np.ndarray]] = {}
    for k, z in enumerate(ZONES):
        daily = 0.75 + 0.15 * np.sin(2 * np.pi * (hod - 8 - k) / 24) \
            + 0.10 * np.exp(-0.5 * ((hod - 18 - k) / 2.0) ** 2)
        weekend = np.where((t // 24) % 7 >= 5, 0.92, 1.0)
        noise = 1.0 + 0.03 * rng.standard_normal(hours)
        demand = _PEAK_DEMAND[z] * daily * weekend * noise

        sun = np.clip(np.sin(np.pi * (hod - 6 - 0.5 * k) / 13), 0.0, None)
        clouds = rng.uniform(0.75, 1.0, size=hours // 24 + 1)[t // 24]
        solar = np.clip(_SOLAR_CF_PEAK[z] * sun * clouds, 0.0, 1.0)

        walk = np.zeros(hours)
        shocks = 0.08 * rng.standard_normal(hours)
        for h in range(1, hours):
            walk[h] = 0.92 * walk[h - 1] + shocks[h]
        wind = np.clip(_WIND_CF_MEAN[z] + walk, 0.02, 0.95)

        evening = np.exp(-0.5 * (((hod - 19 - k) % 24) / 2.5) ** 2)
        overnight = 0.3 * np.exp(-0.5 * (((hod - 1 - k) % 24) / 2.0) ** 2)
        ev = _EV_PEAK[z] * (0.05 + evening + overnight) \
            * (1.0 + 0.05 * rng.standard_normal(hours))
        out[z] = {"demand": demand, "solar": solar, "wind": wind,
                  "ev": np.clip(ev, 0.0, None)}
    return out


def _series(hours: int, seed: int) -> dict[str, dict[str, np.ndarray]]:
    """The fixed sample with the seed's noise on every EV baseline."""
    rng = np.random.default_rng([seed, hours])
    out = _sample(hours)
    for z in ZONES:
        out[z]["ev"] = out[z]["ev"] * (1.0 + EV_SEED_NOISE * rng.standard_normal(hours))
    return out


def write_series(path: Path, values: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("hour,value\n")
        for h, v in enumerate(values):
            fh.write(f"{h},{float(v)!r}\n")


def scenario_doc(grid: str, hours: int, seed: int) -> tuple[dict, dict[str, np.ndarray]]:
    """The scenario JSON document and its sidecar series, keyed by file name."""
    if grid not in ("fleet", "expansion"):
        raise ValueError(f"unknown grid {grid!r}")
    expansion = grid == "expansion"
    scale = hours / 8760.0  # annual investment costs against a horizon-long year
    series = _series(hours, seed)
    files: dict[str, np.ndarray] = {}
    zones, generators, storage, loads = [], [], [], []
    for z in ZONES:
        peak = _PEAK_DEMAND[z]
        files[f"{z}_demand.csv"] = series[z]["demand"]
        files[f"{z}_solar.csv"] = series[z]["solar"]
        files[f"{z}_wind.csv"] = series[z]["wind"]
        files[f"{z}_ev.csv"] = series[z]["ev"]
        zones.append({"id": z, "demand_series": f"{z}_demand.csv"})
        generators += [
            {"id": f"coal_{z}", "zone_id": z, "kind": "thermal",
             "existing_cap_mw": 0.55 * peak, "retirable": expansion,
             "fixed_om": 40000.0 * scale, "var_om": 2.0, "heat_rate": 10.0,
             "fuel_price": 2.0, "emissions_factor": 0.95,
             "min_stable_fraction": 0.4, "startup_cost": 60.0},
            {"id": f"gas_{z}", "zone_id": z, "kind": "thermal",
             "existing_cap_mw": (0.15 if expansion else 0.75) * peak, "buildable": expansion,
             "inv_cost_annual": 90000.0 * scale, "fixed_om": 15000.0 * scale,
             "var_om": 3.0, "heat_rate": 7.0, "fuel_price": 4.0,
             "emissions_factor": 0.37},
            {"id": f"solar_{z}", "zone_id": z, "kind": "variable_renewable",
             "existing_cap_mw": 0.2 * peak, "buildable": expansion,
             "inv_cost_annual": 40000.0 * scale, "fixed_om": 10000.0 * scale,
             "capacity_factor_series": f"{z}_solar.csv", "is_clean": True},
            {"id": f"wind_{z}", "zone_id": z, "kind": "variable_renewable",
             "existing_cap_mw": 0.2 * peak, "buildable": expansion,
             "inv_cost_annual": 75000.0 * scale, "fixed_om": 20000.0 * scale,
             "capacity_factor_series": f"{z}_wind.csv", "is_clean": True},
        ]
        storage.append({"id": f"battery_{z}", "zone_id": z,
                        "existing_power_mw": 0.1 * peak, "existing_energy_mwh": 0.4 * peak,
                        "buildable": expansion, "inv_cost_power": 20000.0 * scale,
                        "inv_cost_energy": 8000.0 * scale, "charge_efficiency": 0.92,
                        "discharge_efficiency": 0.92, "var_om": 0.5})
        loads.append({"id": f"ev_{z}", "zone_id": z, "baseline_series": f"{z}_ev.csv",
                      "max_advance_hours": EV_ADVANCE_HOURS,
                      "max_delay_hours": EV_DELAY_HOURS})
    lines = [{"id": f"{a}{b}", "from_zone": a, "to_zone": b, "capacity_mw": 150.0,
              "expandable": expansion, "expansion_cost": 20000.0 * scale,
              "loss_fraction": 0.03}
             for a, b in zip(ZONES, ZONES[1:] + ZONES[:1])]
    config = {"horizon_hours": hours, "perturbation_fraction": PERTURBATION_FRACTION,
              "srme1_fraction": SRME1_FRACTION, "emissions_penalty": 1000.0,
              "nse_penalty": 9000.0, "ev_annual_mwh": 3.0 * scale}
    if not expansion:
        config["convergence_threshold"] = FLEET_CONVERGENCE_THRESHOLD
        config["max_iterations"] = FLEET_PASSES
    doc = {"config": config, "zones": zones, "generators": generators,
           "storage": storage, "lines": lines, "flexible_loads": loads}
    return doc, files


def write(grid: str, hours: int, seed: int, out: Path) -> Path:
    """Write the scenario under ``out`` and return the path of its JSON file."""
    doc, files = scenario_doc(grid, hours, seed)
    out.mkdir(parents=True, exist_ok=True)
    for name, values in files.items():
        write_series(out / name, values)
    path = out / "scenario.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def fixed_om_offset(doc: dict) -> float:
    """Fixed O&M on the existing generator fleet: the constant part of total cost."""
    return sum(g.get("fixed_om", 0.0) * g.get("existing_cap_mw", 0.0)
               for g in doc["generators"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", required=True, choices=["fleet", "expansion"])
    parser.add_argument("--hours", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(write(args.grid, args.hours, args.seed, Path(args.out)))


if __name__ == "__main__":
    main()
