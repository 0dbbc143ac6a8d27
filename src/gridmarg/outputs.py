"""Result files: the one module that formats and writes what the commands produce.

Rules shared by every file, so identical inputs give byte-identical files:
numbers in CSV rows, and those the CLI prints, have 12 significant digits
(``fmt``); JSON is indented by two spaces with sorted keys (manifest.json
keeps its write order); each file ends with a newline and is written to a
temporary file renamed over the target, so no reader sees a partial file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .flex import ChargingSchedule
from .metrics import ConsequentialReport, EmissionRateSeries
from .planner import DispatchResult
from .scheduler import IterationTrace


def fmt(v: float) -> str:
    """A number as every result file writes it: 12 significant digits."""
    return f"{v:.12g}"


def out_dir(path) -> Path:
    """Create the result directory, and its parents, and return it."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path, lines) -> None:
    """Write the lines, each ending in a newline, to a temporary file renamed over path."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    tmp.replace(path)


def _write_json(path, payload, sort_keys: bool = True) -> None:
    _write(path, [json.dumps(payload, indent=2, sort_keys=sort_keys)])


def _zone_hour_rows(zone_ids, values: np.ndarray, *labels: str) -> list[str]:
    """``hour,zone,[labels,]value`` rows of a (zones, H) array, zone by zone."""
    return [",".join((str(t), zid, *labels, fmt(values[zi, t])))
            for zi, zid in enumerate(zone_ids) for t in range(values.shape[1])]


def write_dispatch_outputs(result: DispatchResult, outdir) -> list[str]:
    """Write dispatch/capacity/emissions/prices/summary files; returns filenames."""
    grid = result.model.grid
    outdir = out_dir(outdir)
    units = [(gen.zone_id, gen.id, result.generation[gen.id]) for gen in grid.generators]
    units += [(sto.zone_id, sto.id, result.discharge[sto.id] - result.charge[sto.id])
              for sto in grid.storage_units]
    _write(outdir / "dispatch.csv", ["hour,zone,unit,generation_mw"] + [
        f"{t},{zone},{unit},{fmt(mw[t])}" for zone, unit, mw in units for t in range(grid.horizon)])

    rows = ["unit,existing_mw,new_mw,retired_mw"]
    for gen in grid.generators:
        rows.append(f"{gen.id},{fmt(gen.existing_cap_mw)},"
                    f"{fmt(result.new_gen_capacity.get(gen.id, 0.0))},"
                    f"{fmt(result.retired_gen_capacity.get(gen.id, 0.0))}")
    for sto in grid.storage_units:
        rows.append(f"{sto.id}_power,{fmt(sto.existing_power_mw)},"
                    f"{fmt(result.new_storage_power.get(sto.id, 0.0))},0")
        rows.append(f"{sto.id}_energy,{fmt(sto.existing_energy_mwh)},"
                    f"{fmt(result.new_storage_energy.get(sto.id, 0.0))},0")
    for line in grid.lines:
        rows.append(f"{line.id},{fmt(line.capacity_mw)},"
                    f"{fmt(result.new_line_capacity.get(line.id, 0.0))},0")
    _write(outdir / "capacity.csv", rows)
    _write(outdir / "emissions.csv",
           ["hour,zone,tco2", *_zone_hour_rows(result.zone_ids, result.zonal_emissions)])
    _write(outdir / "prices.csv",
           ["hour,zone,usd_per_mwh", *_zone_hour_rows(result.zone_ids, result.prices)])

    by_kind: dict[str, float] = {}
    for gen in grid.generators:
        by_kind[gen.kind] = by_kind.get(gen.kind, 0.0) + float(result.generation[gen.id].sum())
    _write_json(outdir / "summary.json", {
        "mode": result.model.mode,
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
    })
    return ["dispatch.csv", "capacity.csv", "emissions.csv", "prices.csv", "summary.json"]


def write_aer_json(path, system_rate: float, zone_rates: dict[str, float]) -> None:
    _write_json(path, {"aer_system_tco2_per_mwh": system_rate,
                       "aer_by_zone_tco2_per_mwh": zone_rates})


def write_srme_csv(series: EmissionRateSeries, path) -> None:
    """hour,zone,method,rate_tco2_per_mwh; 12 significant digits round-trip."""
    rows = ["hour,zone,method,rate_tco2_per_mwh",
            *_zone_hour_rows(series.zone_ids, series.rates, series.method)]
    if series.alt_rates is not None:
        rows += _zone_hour_rows(series.zone_ids, series.alt_rates, f"{series.method}_ANNUAL")
    _write(path, rows)


def read_srme_csv(path) -> dict[tuple[str, str], list[float]]:
    """Read back rates keyed by (zone, method), hours in order."""
    out: dict[tuple[str, str], dict[int, float]] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "hour,zone,method,rate_tco2_per_mwh":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in fh:
            hour, zone, method, rate = line.strip().split(",")
            out.setdefault((zone, method), {})[int(hour)] = float(rate)
    return {key: [vals[h] for h in sorted(vals)] for key, vals in out.items()}


def report_to_dict(report: ConsequentialReport) -> dict:
    return {
        "base_total_emissions_tco2": report.base_total_emissions,
        "pert_total_emissions_tco2": report.pert_total_emissions,
        "delta_demand_mwh": report.delta_demand_mwh,
        "lr_mer_tco2_per_mwh": report.lr_mer,
        "base_total_cost_usd": report.base_total_cost,
        "pert_total_cost_usd": report.pert_total_cost,
        "capacity_deltas": report.capacity_deltas,
        "sr_attributed_tco2": report.sr_attributed,
        "aer_attributed_tco2": report.aer_attributed,
        "per_ev_normalization": report.per_ev_normalization,
    }


def write_consequential_json(report: ConsequentialReport | dict, path) -> None:
    payload = report_to_dict(report) if isinstance(report, ConsequentialReport) else report
    _write_json(path, payload)


def write_schedule_csv(schedule: ChargingSchedule, path) -> None:
    _write(path, ["hour,zone,source,served_mw", *_zone_hour_rows(
        schedule.zone_ids, schedule.served, schedule.source.value)])


def write_trace_csv(trace: IterationTrace, path) -> None:
    _write(path, ["iteration,consequential_tco2,rel_change,schedule_delta_norm"] + [
        f"{rec.iteration},{fmt(rec.consequential_tco2)},{fmt(rec.rel_change)},"
        f"{fmt(rec.schedule_delta_norm)}" for rec in trace.records])


def write_comparison_json(path, signal: str, flex: str, trace: IterationTrace | None,
                          cost_report: ConsequentialReport, report: ConsequentialReport,
                          fleet: float | None) -> None:
    """The signal schedule against the cost-minimizing one. trace is None for the
    cost signal; the per-1000-EV deltas need fleet, the EV count, to be known."""
    d_emissions = report.base_total_emissions - cost_report.base_total_emissions
    d_cost = report.base_total_cost - cost_report.base_total_cost
    comparison = {
        "signal": signal,
        "flex": flex,
        "converged": trace.converged if trace is not None else True,
        "iterations_used": trace.iterations_used if trace is not None else 0,
        "cost_reference": report_to_dict(cost_report),
        "signal_schedule": report_to_dict(report),
        "deltas_vs_cost_reference": {"base_total_emissions_tco2": d_emissions,
                                     "base_total_cost_usd": d_cost,
                                     "lr_mer_tco2_per_mwh": report.lr_mer - cost_report.lr_mer},
    }
    if fleet is not None:
        comparison["per_1000_ev"] = {"fleet_vehicles": fleet,
                                     "emissions_delta_tco2": d_emissions / fleet * 1000.0,
                                     "cost_delta_usd": d_cost / fleet * 1000.0}
    _write_json(path, comparison)


def write_sweep_outputs(outdir, scenario, spec_sha256: str, outcomes: list[dict]) -> None:
    """sweep_results.csv, one row per metric of each successful run, and
    manifest.json, every run's cell, status and timing; runs in the order given."""
    rows = ["run_id,ev_multiplier,renewable_capex,gas_price,flex,target_zone,metric,value"]
    for out in outcomes:
        zone_label = out["target_zone"] if isinstance(out["target_zone"], str) \
            else "+".join(out["target_zone"])
        for metric in sorted(out["metrics"]):
            rows.append(f"{out['run_id']},{fmt(out['ev_multiplier'])},"
                        f"{fmt(out['renewable_capex'])},{fmt(out['gas_price'])},"
                        f"{out['flex']},{zone_label},{metric},{fmt(out['metrics'][metric])}")
    _write(Path(outdir) / "sweep_results.csv", rows)
    _write_json(Path(outdir) / "manifest.json", {
        "scenario": str(scenario),
        "sweep_spec_sha256": spec_sha256,
        "outputs": ["sweep_results.csv"],
        "runs": [{k: v for k, v in out.items() if k != "metrics"} for out in outcomes],
    }, sort_keys=False)
