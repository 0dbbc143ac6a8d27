"""A derived LP fills the structure of the model it comes from.

A build given ``like=`` (a model of the grid its own grid is derived from)
skips the structure step and fills only the costs, right-hand sides and
bounds into like's index, matrix and emissions coefficients. These tests
pin what that may not change: the LP equals a fresh build of the derived
grid, array for array and dtype for dtype, with the same index and cost
offset; a grid that differs in any field that reaches the matrix assembles
a structure of its own, while rigid, windowed and pinned charging share one;
every check on values still runs; and the CLI assembles each LP shape once
per command without changing its solves. That every command hands over only
structures its grids would assemble is checked on every command of
``test_solve_counts``.
"""

import functools
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmarg import cli, lp, planner, scheduler
from gridmarg.cli import main
from gridmarg.errors import InfeasibleWindow, MissingCapacity, ModelBuildError, UnknownZone
from gridmarg.flex import FlexWindow, check_window_feasible
from gridmarg.grid import CostMultipliers, resolve_scenario
from gridmarg.planner import (FixedCapacities, ScaleEV, SingleHour, UniformAll,
                              build_expansion_lp, build_operational_lp, perturb_demand)
from gridmarg.scenario_io import load_scenario
from gridmarg.scheduler import pin_schedule

from oracles import bounds_as_rows, spy_on_solves
from test_build_digests import GRIDS, every_feature, pinned_capacities
from test_cli import scenario_file
from test_lp import synth_grid
from test_scenario_io import TUTORIAL


@functools.cache
def raw_grid(name: str):
    return every_feature() if name == "every_feature" else load_scenario(TUTORIAL)


def assert_same_array(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_model(got, want):
    """Equal LPs: every vector and matrix array, the index and the cost offset, bit for bit."""
    for name in ("c", "b_eq", "b_ub", "lb", "ub"):
        assert_same_array(getattr(got.problem, name), getattr(want.problem, name))
    for name in ("rows_eq", "rows_ub"):
        g, w = getattr(got.problem, name), getattr(want.problem, name)
        assert g.num_cols == w.num_cols
        for part in ("data", "indices", "indptr"):
            assert_same_array(getattr(g, part), getattr(w, part))
    assert_same_array(got.emissions_coeffs, want.emissions_coeffs)
    for f in fields(planner.ModelIndex):
        g, w = getattr(got.index, f.name), getattr(want.index, f.name)
        if isinstance(w, dict):
            assert list(g) == list(w), f.name
            for key in w:
                assert_same_array(g[key], w[key])
        else:
            assert g == w, f.name
    assert type(got.cost_offset) is type(want.cost_offset)
    assert_same_array(got.cost_offset, want.cost_offset)
    assert got.mode == want.mode


def build(grid, fixed: FixedCapacities | None, like=None):
    return (build_expansion_lp(grid, like=like) if fixed is None
            else build_operational_lp(grid, fixed, like=like))


def outcome(grid, fixed, like=None):
    """The built model, or the type and message of the error the build raised."""
    try:
        return build(grid, fixed, like)
    except Exception as exc:  # compared, never swallowed: see assert_derived_equals_fresh
        return type(exc), str(exc)


def assert_derived_equals_fresh(base, derived, fixed=None):
    """Build derived from base's expansion model, and again from scratch;
    both builds give the same model or raise the same error. Returns base's
    model and the derived build."""
    like = build_expansion_lp(base)
    shared = outcome(derived, fixed, like)
    fresh = outcome(derived, fixed)
    if isinstance(fresh, tuple):
        assert shared == fresh
    else:
        assert_same_model(shared, fresh)
    return like, shared


def changed(grid, collection: str, entity_id: str, **changes):
    """grid with the entity entity_id of grid.<collection> replaced by a changed copy."""
    return replace(grid, **{collection: tuple(replace(e, **changes) if e.id == entity_id else e
                                              for e in getattr(grid, collection))})


# --- derived LPs -----------------------------------------------------------------

FRACTIONS = st.floats(-0.5, 1.0)


@st.composite
def derived_grids(draw):
    """(base, derived grid, fixed capacities or None, kind) for a random seeded change."""
    name = draw(st.sampled_from(["every_feature", "tutorial"]))
    base = resolve_scenario(raw_grid(name))
    zone_ids = base.zone_ids()
    zones = draw(st.sampled_from(["all", *([z] for z in zone_ids), zone_ids]))
    kind = draw(st.sampled_from(["uniform", "single_hour", "scale_ev", "pin", "capacities",
                                 "multipliers", "flex"]))
    fixed = draw(st.sampled_from([None, pinned_capacities(base)]))
    if kind == "uniform":
        derived = perturb_demand(base, zones, UniformAll(draw(FRACTIONS)))
    elif kind == "single_hour":
        mode = SingleHour(draw(st.sampled_from(zone_ids)),
                          draw(st.integers(0, base.horizon - 1)), draw(st.floats(0.0, 50.0)))
        derived = perturb_demand(base, zones, mode)
    elif kind == "scale_ev":
        # Each grid has a rigid and a windowed load, or only a rigid one.
        load = draw(st.sampled_from(base.flexible_loads))
        derived = perturb_demand(base, [load.zone_id], ScaleEV(draw(FRACTIONS)))
    elif kind == "pin":
        # A feasible schedule: nonnegative, and each load's requested energy.
        schedule = {}
        for load in base.flexible_loads:
            shape = np.array(draw(st.lists(st.floats(0.01, 2.0), min_size=base.horizon,
                                           max_size=base.horizon)))
            schedule[load.id] = shape * (load.effective_baseline().sum() / shape.sum())
        derived = pin_schedule(base, schedule)
        if draw(st.booleans()):   # the consequential check's scaled pinned LP
            derived = perturb_demand(derived, "all", ScaleEV(draw(FRACTIONS)))
    elif kind == "capacities":
        caps = st.floats(0.0, 100.0)
        fixed = FixedCapacities(**{table: {key: draw(caps) for key in entries}
                                   for table, entries in vars(pinned_capacities(base)).items()})
        derived = base
    elif kind == "multipliers":
        raw = raw_grid(name)
        cfg = replace(raw.config, ev_penetration_multiplier=draw(st.floats(0.5, 1.5)),
                      cost_multipliers=CostMultipliers(renewable_capex=draw(st.floats(0.5, 2.0)),
                                                       gas_price=draw(st.floats(0.5, 2.0))))
        derived = resolve_scenario(replace(raw, config=cfg))
    else:
        derived = cli._apply_flex_mode(base, draw(st.sampled_from([*cli.FLEX_MODES, "scenario"])))
    return base, derived, fixed, kind


@settings(max_examples=150, deadline=None)
@given(derived_grids())
def test_a_derived_lp_from_a_shared_structure_equals_a_fresh_build(case):
    base, derived, fixed, kind = case
    like, shared = assert_derived_equals_fresh(base, derived, fixed)
    if not isinstance(shared, tuple):   # every kind of change reaches only the vectors
        assert shared.problem.matrix is like.problem.matrix
        assert shared.index is like.index
        assert shared.emissions_coeffs is like.emissions_coeffs


# --- a capacity limit without an investment column is a bound ---------------------

TOYS = sorted(name for name in GRIDS if name not in ("tutorial", "every_feature"))


def both_modes(grid):
    """grid's expansion and operational models, the latter at pinned_capacities."""
    return build_expansion_lp(grid), build_operational_lp(grid, pinned_capacities(grid))


@pytest.mark.parametrize("name", [*sorted(GRIDS), "fleet", "expansion"])
def test_no_built_lp_has_a_singleton_le_row(name, tmp_path):
    grid = GRIDS[name]() if name in GRIDS else synth_grid(name, 1, tmp_path, hours=24)
    for model in both_modes(grid):
        lengths = np.diff(model.problem.rows_ub.indptr)
        assert (lengths != 1).all()


@pytest.mark.parametrize("name", TOYS)
def test_bounds_restated_as_rows_give_the_same_optimum(name):
    for model in both_modes(GRIDS[name]()):
        problem = model.problem
        assert np.isfinite(problem.ub).any()   # something to restate
        as_bounds, as_rows = lp.solve(problem), lp.solve(bounds_as_rows(problem))
        assert as_bounds.status is as_rows.status is lp.SolveStatus.OPTIMAL
        assert as_rows.objective_value == pytest.approx(as_bounds.objective_value, rel=1e-9)
        np.testing.assert_allclose(as_rows.x, as_bounds.x, rtol=0, atol=1e-7)


# --- which changes reach the structure --------------------------------------------

def variant_of(grid, collection: str, entity_id: str | None, changes: dict):
    """grid with one entity (or, for collection "config", the config) changed."""
    if collection == "config":
        return replace(grid, config=replace(grid.config, **changes))
    return changed(grid, collection, entity_id, **changes)


WIND_CF = every_feature().generators[3].capacity_factor_profile
A_DEMAND = every_feature().zones[0].demand

# One change of every_feature per grid field that reaches a matrix
# coefficient, a shape or the emissions coefficients (every_feature sets a
# CO2 cap): (collection, entity id, changes). A grid derived this way may not
# be built like= its base.
STRUCTURE_CHANGES = {
    "capacity_factor_profile": ("generators", "wind", {"capacity_factor_profile": WIND_CF * 0.9}),
    "charge_efficiency": ("storage_units", "bat_A", {"charge_efficiency": 0.8}),
    "discharge_efficiency": ("storage_units", "bat_A", {"discharge_efficiency": 0.9}),
    "loss_fraction": ("lines", "AB", {"loss_fraction": 0.03}),
    "min_stable_fraction": ("generators", "coal", {"min_stable_fraction": 0.3}),
    "commitment_off": ("generators", "peaker", {"startup_cost": 0.0}),
    "commitment_on": ("generators", "hydro", {"kind": "thermal", "heat_rate": 9.0,
                                              "capacity_factor_profile": None,
                                              "startup_cost": 10.0}),
    "clean_share_min": ("zones", "A", {"clean_share_min": 0.4}),
    "clean_share_added": ("zones", "B", {"clean_share_min": 0.2}),
    "is_clean": ("generators", "wind", {"is_clean": False}),   # in A, the clean-share zone
    "emissions_factor": ("generators", "ccgt", {"emissions_factor": 0.4}),
    "buildable": ("generators", "peaker", {"buildable": False}),
    "retirable": ("generators", "coal", {"retirable": False}),
    "storage_buildable": ("storage_units", "bat_A", {"buildable": False}),
    "expandable": ("lines", "AB", {"expandable": False}),
    "nse_off": ("config", None, {"nse_penalty": None}),
    "co2_cap_off": ("config", None, {"co2_cap_tons": None}),
}

# One change of every_feature per kind of grid field that reaches only the
# vectors: (collection, entity id, changes).
VECTOR_CHANGES = {
    "demand": ("zones", "A", {"demand": A_DEMAND * 1.1}),
    "fuel_price": ("generators", "coal", {"fuel_price": 2.5}),
    "existing_capacity": ("generators", "wind", {"existing_cap_mw": 20.0}),
    "storage_power": ("storage_units", "bat_B", {"existing_power_mw": 4.0}),
    "line_capacity": ("lines", "BA", {"capacity_mw": 12.0}),
    "window_hours": ("flexible_loads", "ev_A", {"max_advance_hours": 4, "max_delay_hours": 1}),
    "charge_rate": ("flexible_loads", "ev_A", {"max_charge_rate_mw": 15.0}),
    "baseline": ("flexible_loads", "ev_B", {"baseline_profile": np.full_like(A_DEMAND, 2.0)}),
    "nse_penalty": ("config", None, {"nse_penalty": 500.0}),
    "co2_cap": ("config", None, {"co2_cap_tons": 4000.0}),
}


def count_assemblies(monkeypatch) -> list[None]:
    """One entry per structure the planner assembles."""
    real, calls = planner._assemble, []
    monkeypatch.setattr(planner, "_assemble", lambda grid: calls.append(None) or real(grid))
    return calls


def structure_of(model) -> tuple:
    """The model's structure as plain values: its index, the bytes of its
    matrix arrays and of its emissions coefficients."""
    index = tuple((f.name, tuple((k, np.asarray(v).tobytes()) for k, v in value.items())
                   if isinstance(value, dict) else value)
                  for f in fields(planner.ModelIndex)
                  for value in [getattr(model.index, f.name)])
    rows = tuple(getattr(getattr(model.problem, name), part).tobytes()
                 for name in ("rows_eq", "rows_ub") for part in ("data", "indices", "indptr"))
    return index, rows, model.emissions_coeffs.tobytes()


@pytest.mark.parametrize("change", sorted(STRUCTURE_CHANGES))
def test_a_grid_that_differs_in_one_structure_field_gets_its_own_structure(change, monkeypatch):
    base = every_feature()
    variant = variant_of(base, *STRUCTURE_CHANGES[change])
    assembled = count_assemblies(monkeypatch)
    like = build_expansion_lp(base)
    own = build_operational_lp(variant, pinned_capacities(variant))
    assert len(assembled) == 2   # base's model, then the variant's own
    # like's structure would give the variant a different LP than its own.
    assert structure_of(own) != structure_of(like)


@pytest.mark.parametrize("change", sorted(VECTOR_CHANGES))
def test_a_grid_that_differs_only_in_vectors_shares_the_structure(change, monkeypatch):
    base = every_feature()
    variant = variant_of(base, *VECTOR_CHANGES[change])
    assembled = count_assemblies(monkeypatch)
    like, shared = assert_derived_equals_fresh(base, variant, pinned_capacities(base))
    assert shared.problem.matrix is like.problem.matrix
    assert len(assembled) == 2   # base's model, then the fresh build


def test_rigid_windowed_and_pinned_charging_share_one_structure(monkeypatch):
    windowed = every_feature()   # ev_A windowed, ev_B rigid
    rigid = cli._apply_flex_mode(windowed, "none")
    delayed = cli._apply_flex_mode(windowed, "delay8")
    pinned = pin_schedule(windowed, {l.id: l.effective_baseline()
                                     for l in windowed.flexible_loads})
    assembled = count_assemblies(monkeypatch)
    like = build_expansion_lp(windowed)
    models = [build_expansion_lp(g, like=like) for g in (rigid, delayed, pinned)]
    assert len(assembled) == 1
    assert all(m.problem.matrix is like.problem.matrix for m in models)
    for grid, model in zip((rigid, delayed, pinned), models):
        assert_same_model(model, build_expansion_lp(grid))


# --- checks on values still run --------------------------------------------------

def _below_zero(profile: np.ndarray) -> np.ndarray:
    """profile with hour 0 at -1e-3 MW and its energy moved to hour 1: the same
    total energy, with one hour too far below zero to be round-off."""
    out = profile.copy()
    out[1] += out[0] + 1e-3
    out[0] = -1e-3
    return out


def _negative_pin(grid):
    first = grid.flexible_loads[0]
    return pin_schedule(grid, {**{l.id: l.effective_baseline() for l in grid.flexible_loads},
                               first.id: _below_zero(first.effective_baseline())})


ERROR_CASES = {
    # name: (like's grid, failing grid, fixed capacities, error, message)
    "negative_pinned_profile": (
        lambda g: pin_schedule(g, {l.id: l.effective_baseline() for l in g.flexible_loads}),
        _negative_pin, None, ModelBuildError, "baseline_profile must be nonnegative"),
    "infeasible_window": (
        lambda g: g, lambda g: changed(g, "flexible_loads", "ev_A", max_charge_rate_mw=0.5),
        None, InfeasibleWindow, "cannot meet the cumulative floor"),
    "missing_capacity": (lambda g: g, lambda g: g,
                         replace(pinned_capacities(every_feature()), lines={}),
                         MissingCapacity, "missing lines entry for 'AB'"),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_every_build_check_still_runs_on_a_shared_structure(case, monkeypatch):
    like_grid, failing_grid, fixed, error, message = ERROR_CASES[case]
    base = like_grid(every_feature())
    failing = failing_grid(base)
    assembled = count_assemblies(monkeypatch)
    like = build_expansion_lp(base)
    with pytest.raises(error, match=message):
        build(failing, fixed, like)
    with pytest.raises(UnknownZone):
        perturb_demand(failing, ["Q"], UniformAll(0.1))
    assert len(assembled) == 1   # the failing build filled like's structure
    with pytest.raises(error, match=message):
        build(failing, fixed)


def _tight_rate_scenario(tmp_path) -> str:
    """The tutorial with its EV load on a 2 h delay window and a rate cap just
    above the least that serves the baseline, so the EV-scaled LP is infeasible."""
    grid = changed(load_scenario(TUTORIAL), "flexible_loads", "ev_b", max_delay_hours=2)
    load = grid.flexible_loads[0]
    window = FlexWindow(0, 2)
    low, high = 0.0, float(load.effective_baseline().max())
    for _ in range(60):
        mid = (low + high) / 2
        try:
            check_window_feasible(load.effective_baseline(), window, mid)
            high = mid
        except InfeasibleWindow:
            low = mid
    tight = changed(grid, "flexible_loads", "ev_b", max_charge_rate_mw=1.02 * high)
    return scenario_file(tmp_path, tight)


def _drop_line_capacity(monkeypatch):
    real = planner.DispatchResult.fixed_capacities
    monkeypatch.setattr(planner.DispatchResult, "fixed_capacities",
                        lambda self: replace(real(self), lines={}))


def _negative_cost_schedule(monkeypatch):
    real = scheduler.schedule_from_result

    def schedule(result, source):
        out = real(result, source)
        return replace(out, per_load={**out.per_load, "ev_b": _below_zero(out.per_load["ev_b"])})
    monkeypatch.setattr(scheduler, "schedule_from_result", schedule)


CLI_ERRORS = {
    # name: (argv before --out, scenario, monkeypatch setup, logged error)
    "negative_pinned_profile": (["schedule", "{}", "--signal", "cost", "--flex", "none"],
                                lambda tmp: str(TUTORIAL), _negative_cost_schedule,
                                "ModelBuildError"),
    "infeasible_window": (["metrics", "{}", "--method", "lrmer"], _tight_rate_scenario, None,
                          "InfeasibleWindow"),
    "missing_capacity": (["metrics", "{}", "--method", "srme1"],
                         lambda tmp: scenario_file(tmp, every_feature(24)), _drop_line_capacity,
                         "MissingCapacity"),
    "unknown_zone": (["metrics", "{}", "--method", "srme1", "--zone", "Q"],
                     lambda tmp: str(TUTORIAL), None, "UnknownZone"),
}


@pytest.mark.parametrize("case", sorted(CLI_ERRORS))
def test_each_build_error_still_exits_1(case, tmp_path, monkeypatch, capsys):
    argv, scenario, setup, logged = CLI_ERRORS[case]
    path = scenario(tmp_path)
    if setup is not None:
        setup(monkeypatch)
    assembled = count_assemblies(monkeypatch)
    argv = [a.format(path) for a in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"ERROR gridmarg: {logged}: " in err
    # Except where the zone is refused up front, the failing build filled the
    # structure of the one model the command assembled.
    assert len(assembled) == (0 if case == "unknown_zone" else 1)


# --- the CLI assembles each shape once -------------------------------------------

@pytest.mark.parametrize("argv, solves", [
    (["metrics", str(TUTORIAL), "--method", "srme1"], 3),
    (["schedule", str(TUTORIAL), "--signal", "srme2", "--flex", "none"], 3),
])
def test_tutorial_commands_assemble_each_lp_shape_once(argv, solves, tmp_path, monkeypatch):
    calls = spy_on_solves(monkeypatch)
    assembled = count_assemblies(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert len(assembled) == 1   # every later build fills the first model's structure
    # The solves counted before structures were handed over.
    assert len(calls) == solves
