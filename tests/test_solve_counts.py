"""How many backend solves, LP builds and structure assemblies each command
makes, recorded as exact counts.

Every answer is a chain of near-identical LP solves, and several of them
share a result: an operational LP that is the expansion LP, a rate base that
is a check's base, a schedule that was checked before. A change that solves
such a result again instead of handing it over adds solves without changing
any output, so only a count shows it; likewise a build of an LP that a
result already carries (``result.model``), and an assembly of a structure
(``planner._assemble``) that a derived build could fill from the model it
comes from. The counts were recorded on the commands as they stand; a change
that adds a solve, a build or an assembly fails here.

Every build that fills a structure handed over from another model is also
checked against a fresh assembly of its own grid: the handed-over structure
must give the same model, array for array, on every command below.
"""

import json

import pytest

from gridmarg import planner
from gridmarg.cli import main

from oracles import spy_on_solves
from test_lp_structure import assert_same_model
from test_lp import synth_scenario
from test_scenario_io import TUTORIAL

# (command line after the scenario, backend solves, builds, assemblies) on the
# tutorial.
TUTORIAL_COUNTS = [
    (["solve", "--mode", "expansion"], 1, 1, 1),
    (["solve", "--mode", "operational"], 1, 2, 1),
    (["metrics", "--method", "aer"], 1, 1, 1),
    (["metrics", "--method", "srme1"], 3, 4, 1),
    (["metrics", "--method", "srme2"], 2, 2, 1),
    (["metrics", "--method", "lrmer"], 2, 2, 1),
    (["metrics", "--method", "lrmer", "--zone", "each-separately"], 2, 3, 1),
    (["metrics", "--method", "lrmer", "--zone", "B"], 2, 2, 1),
    (["metrics", "--method", "srme1", "--zone", "each-separately"], 3, 4, 1),
    (["schedule", "--signal", "cost", "--flex", "none"], 2, 3, 1),
    (["schedule", "--signal", "cost", "--flex", "delay8"], 3, 3, 1),
    (["schedule", "--signal", "cost", "--flex", "scenario"], 2, 3, 1),
    (["schedule", "--signal", "srme1", "--flex", "none"], 3, 7, 1),
    (["schedule", "--signal", "srme1", "--flex", "delay8"], 5, 7, 1),
    (["schedule", "--signal", "srme1", "--flex", "scenario"], 3, 7, 1),
    (["schedule", "--signal", "srme2", "--flex", "none"], 3, 6, 1),
    (["schedule", "--signal", "srme2", "--flex", "delay8"], 5, 6, 1),
    (["schedule", "--signal", "srme2", "--flex", "scenario"], 3, 6, 1),
    (["schedule", "--signal", "srme1", "--flex", "window24"], 5, 7, 1),
    (["schedule", "--signal", "srme2", "--flex", "window24"], 5, 6, 1),
    (["sweep", "--parallel", "1", "--spec", "bench"], 6, 6, 1),
    (["sweep", "--parallel", "1", "--spec", "each-separately"], 4, 8, 1),
]

# The benchmark's sweep spec, and one that targets each zone on its own.
SPECS = {
    "bench": {"ev_multipliers": [0.9, 1.0, 1.1], "flexibility_modes": ["none", "scenario"]},
    "each-separately": {"ev_multipliers": [0.9, 1.0], "flexibility_modes": ["scenario"],
                        "target_zones": "each-separately"},
}


@pytest.fixture
def solves(monkeypatch):
    return spy_on_solves(monkeypatch)


@pytest.fixture
def builds(monkeypatch):
    """One entry per LP build (planner._fill) and one per structure assembled
    (planner._assemble). A build that fills a structure other than the one
    just assembled for it, one handed over from another model, is compared
    with a build of its grid from a fresh assembly."""
    real_fill, real_assemble = planner._fill, planner._assemble
    fills, assembled, unfilled = [], [], []

    def assemble(grid):
        structure = real_assemble(grid)
        assembled.append(None)
        unfilled[:] = [structure[0]]   # its index
        return structure

    def fill(index, *args):
        fills.append(None)
        handed_over = not (unfilled and unfilled.pop() is index)
        model = real_fill(index, *args)
        if handed_over:
            grid, fixed = args[-2:]
            assert_same_model(model, real_fill(*real_assemble(grid), grid, fixed))
        return model
    monkeypatch.setattr(planner, "_assemble", assemble)
    monkeypatch.setattr(planner, "_fill", fill)
    return fills, assembled


def _count(solves, builds, tmp_path, scenario, args) -> tuple[int, int, int]:
    """The backend solves, the LP builds and the assemblies of one command."""
    if "--spec" in args:
        at = args.index("--spec") + 1
        spec = tmp_path / f"{args[at]}.json"
        spec.write_text(json.dumps(SPECS[args[at]]))
        args = [*args[:at], str(spec), *args[at + 1:]]
    fills, assembled = builds
    before = len(solves), len(fills), len(assembled)
    assert main([args[0], str(scenario), *args[1:], "--out", str(tmp_path / args[0])]) == 0
    return len(solves) - before[0], len(fills) - before[1], len(assembled) - before[2]


@pytest.mark.parametrize("args,count,built,assembled", TUTORIAL_COUNTS,
                         ids=["-".join(a for a in args if not a.startswith("--"))
                              for args, *_ in TUTORIAL_COUNTS])
def test_tutorial_command_makes_its_recorded_solves(solves, builds, tmp_path, args, count,
                                                    built, assembled):
    assert _count(solves, builds, tmp_path, TUTORIAL, args) == (count, built, assembled)


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    return synth_scenario("fleet", 1, tmp_path_factory.mktemp("fleet"))


def test_shortrun_pair_makes_its_recorded_solves(solves, builds, tmp_path, fleet):
    # The benchmark's shortrun workload: SRME1 rates, then an SRME2 schedule
    # with rigid charging, on the existing fleet.
    assert _count(solves, builds, tmp_path, fleet, ["metrics", "--method", "srme1"]) == (4, 5, 1)
    assert _count(solves, builds, tmp_path, fleet,
                  ["schedule", "--signal", "srme2", "--flex", "none"]) == (3, 6, 1)


def test_fleet_delay8_srme1_schedule_makes_its_recorded_solves(solves, builds, tmp_path, fleet):
    # Its third pass repeats the first pass's schedule.
    assert _count(solves, builds, tmp_path, fleet,
                  ["schedule", "--signal", "srme1", "--flex", "delay8"]) == (19, 21, 1)


def test_rigid_schedule_on_a_grid_to_build_makes_its_recorded_solves(solves, builds, tmp_path):
    # Rigid charging leaves one schedule, the cost schedule: the signal's
    # evaluation is the cost schedule's, whose base is the expansion solve.
    scenario = synth_scenario("expansion", 1, tmp_path)
    assert _count(solves, builds, tmp_path, scenario,
                  ["schedule", "--signal", "srme2", "--flex", "none"]) == (7, 8, 2)


@pytest.mark.parametrize("which,counts", [("fleet", (3, 3, 1)), ("expansion", (5, 5, 2))])
def test_cost_schedule_makes_its_recorded_solves(solves, builds, tmp_path, fleet, which, counts):
    # The cost signal's one evaluation on each side of has_investment: with
    # nothing to build (fleet) the pinned LPs are solved cold and scaled;
    # with something to build (expansion) the base starts from the
    # expansion optimum, which itself took a crash start.
    scenario = fleet if which == "fleet" else synth_scenario("expansion", 1, tmp_path)
    assert _count(solves, builds, tmp_path, scenario,
                  ["schedule", "--signal", "cost", "--flex", "delay8"]) == counts


@pytest.mark.parametrize("which,args,counts", [
    ("fleet", ["solve", "--mode", "operational"], (1, 2, 1)),
    ("expansion", ["solve", "--mode", "operational"], (4, 4, 2)),
    ("expansion", ["metrics", "--method", "srme2"], (5, 4, 2)),
], ids=["fleet-operational", "expansion-operational", "expansion-srme2"])
def test_operational_lp_is_decoded_only_where_it_is_the_expansion_lp(solves, builds, tmp_path,
                                                                     fleet, which, args, counts):
    # With nothing to build (fleet) the operational LP is the expansion LP,
    # and its optimum is decoded (planner.solve_from); with something to
    # build it is another LP, and is solved cold after the expansion's three
    # solves (two for its crash start). SRME2's step 2 adds one more.
    scenario = fleet if which == "fleet" else synth_scenario("expansion", 1, tmp_path)
    assert _count(solves, builds, tmp_path, scenario, args) == counts


@pytest.mark.parametrize("args,count", [
    (["metrics", "--method", "lrmer", "--zone", "each-separately"], 3),
    (["sweep", "--parallel", "1", "--spec", "each-separately"], 8),
], ids=["lrmer-each-separately", "sweep-each-separately"])
def test_held_optima_are_reused_only_through_same_lp(solves, builds, tmp_path, monkeypatch,
                                                     args, count):
    # A zone without EV charging rebuilds its base's LP, and so does a sweep
    # cell whose base a cell differing only in target_zone holds. Each is
    # decoded only because planner.same_lp finds it to be the held LP: with
    # the rule refusing every match, each is solved instead.
    monkeypatch.setattr(planner, "same_lp", lambda a, b: False)
    assert _count(solves, builds, tmp_path, TUTORIAL, args)[0] == count
