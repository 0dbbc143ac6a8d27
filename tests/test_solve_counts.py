"""How many backend solves each command makes, recorded as exact counts.

Every answer is a chain of near-identical LP solves, and several of them
share a result: an operational LP that is the expansion LP, a rate base that
is a check's base, a schedule that was checked before. A change that solves
such a result again instead of handing it over adds solves without changing
any output, so only a count shows it. The counts were recorded on the
commands as they stand; a change that adds a solve fails here.
"""

import json

import pytest

from gridmarg.cli import main

from oracles import spy_on_solves
from test_lp import synth_scenario
from test_scenario_io import TUTORIAL

# (command line after the scenario, backend solves) on the tutorial.
TUTORIAL_COUNTS = [
    (["solve", "--mode", "expansion"], 1),
    (["solve", "--mode", "operational"], 1),
    (["metrics", "--method", "aer"], 1),
    (["metrics", "--method", "srme1"], 3),
    (["metrics", "--method", "srme2"], 2),
    (["metrics", "--method", "lrmer"], 2),
    (["metrics", "--method", "lrmer", "--zone", "each-separately"], 2),
    (["metrics", "--method", "lrmer", "--zone", "B"], 2),
    (["metrics", "--method", "srme1", "--zone", "each-separately"], 3),
    (["schedule", "--signal", "cost", "--flex", "none"], 2),
    (["schedule", "--signal", "cost", "--flex", "delay8"], 3),
    (["schedule", "--signal", "cost", "--flex", "scenario"], 2),
    (["schedule", "--signal", "srme1", "--flex", "none"], 3),
    (["schedule", "--signal", "srme1", "--flex", "delay8"], 5),
    (["schedule", "--signal", "srme1", "--flex", "scenario"], 3),
    (["schedule", "--signal", "srme2", "--flex", "none"], 3),
    (["schedule", "--signal", "srme2", "--flex", "delay8"], 5),
    (["schedule", "--signal", "srme2", "--flex", "scenario"], 3),
    (["schedule", "--signal", "srme1", "--flex", "window24"], 5),
    (["schedule", "--signal", "srme2", "--flex", "window24"], 5),
    (["sweep", "--parallel", "1", "--spec", "bench"], 12),
    (["sweep", "--parallel", "1", "--spec", "each-separately"], 6),
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


def _count(solves, tmp_path, scenario, args) -> int:
    """The backend solves of one command."""
    if "--spec" in args:
        at = args.index("--spec") + 1
        spec = tmp_path / f"{args[at]}.json"
        spec.write_text(json.dumps(SPECS[args[at]]))
        args = [*args[:at], str(spec), *args[at + 1:]]
    before = len(solves)
    assert main([args[0], str(scenario), *args[1:], "--out", str(tmp_path / args[0])]) == 0
    return len(solves) - before


@pytest.mark.parametrize("args,count", TUTORIAL_COUNTS,
                         ids=["-".join(a for a in args if not a.startswith("--"))
                              for args, _ in TUTORIAL_COUNTS])
def test_tutorial_command_makes_its_recorded_solves(solves, tmp_path, args, count):
    assert _count(solves, tmp_path, TUTORIAL, args) == count


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    return synth_scenario("fleet", 1, tmp_path_factory.mktemp("fleet"))


def test_shortrun_pair_makes_its_recorded_solves(solves, tmp_path, fleet):
    # The benchmark's shortrun workload: SRME1 rates, then an SRME2 schedule
    # with rigid charging, on the existing fleet.
    assert _count(solves, tmp_path, fleet, ["metrics", "--method", "srme1"]) == 4
    assert _count(solves, tmp_path, fleet,
                   ["schedule", "--signal", "srme2", "--flex", "none"]) == 3


def test_fleet_delay8_srme1_schedule_makes_its_recorded_solves(solves, tmp_path, fleet):
    # Its third pass repeats the first pass's schedule.
    assert _count(solves, tmp_path, fleet,
                   ["schedule", "--signal", "srme1", "--flex", "delay8"]) == 19


def test_rigid_schedule_on_a_grid_to_build_makes_its_recorded_solves(solves, tmp_path):
    # Rigid charging leaves one schedule, the cost schedule: the signal's
    # evaluation is the cost schedule's, whose base is the expansion solve.
    scenario = synth_scenario("expansion", 1, tmp_path)
    assert _count(solves, tmp_path, scenario,
                  ["schedule", "--signal", "srme2", "--flex", "none"]) == 7
