"""Result-file writers, and the rule that gridmarg.outputs alone writes them."""

import ast
from pathlib import Path

import numpy as np
import pytest

import gridmarg
from gridmarg.metrics import EmissionRateSeries
from gridmarg.outputs import (read_srme_csv, write_consequential_json, write_dispatch_outputs,
                              write_schedule_csv, write_srme_csv, write_trace_csv)
from gridmarg.planner import build_expansion_lp, solve_expansion, solve_model
from gridmarg.scheduler import schedule_min_srme

from test_metrics import _report_with_rate
from toys import merit_stack, storage_coupled


def test_dispatch_outputs_written(tmp_path):
    grid = merit_stack()
    result = solve_model(build_expansion_lp(grid))
    files = write_dispatch_outputs(result, tmp_path)
    for name in files:
        assert (tmp_path / name).exists()
    dispatch = (tmp_path / "dispatch.csv").read_text().splitlines()
    assert dispatch[0] == "hour,zone,unit,generation_mw"
    assert dispatch[1] == "0,Z,g1,20"
    import json
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["total_emissions_tco2"] == pytest.approx(result.total_emissions)


def test_srme_csv_round_trip_twelve_digits(tmp_path):
    rng = np.random.default_rng(11)
    rates = rng.normal(0.3, 0.4, (2, 5))  # negative entries are legitimate
    series = EmissionRateSeries(rates=rates, method="SRME2", zone_ids=("a", "b"))
    path = tmp_path / "srme.csv"
    write_srme_csv(series, path)
    back = read_srme_csv(path)
    np.testing.assert_allclose(back[("a", "SRME2")], rates[0], rtol=1e-11)
    np.testing.assert_allclose(back[("b", "SRME2")], rates[1], rtol=1e-11)


def test_consequential_json_written(tmp_path):
    import json
    report = _report_with_rate(0.25)
    path = tmp_path / "consequential.json"
    write_consequential_json(report, path)
    data = json.loads(path.read_text())
    assert data["lr_mer_tco2_per_mwh"] == pytest.approx(0.25)
    assert "capacity_deltas" in data


def test_schedule_and_trace_files(tmp_path):
    grid = storage_coupled()
    sched, trace = schedule_min_srme(solve_expansion(grid), method="SRME1")
    write_schedule_csv(sched, tmp_path / "schedule.csv")
    write_trace_csv(trace, tmp_path / "iteration_trace.csv")
    lines = (tmp_path / "schedule.csv").read_text().splitlines()
    assert lines[0] == "hour,zone,source,served_mw"
    assert len(lines) == 1 + grid.horizon
    tlines = (tmp_path / "iteration_trace.csv").read_text().splitlines()
    assert tlines[0] == "iteration,consequential_tco2,rel_change,schedule_delta_norm"
    assert len(tlines) == 1 + trace.iterations_used


# --- the boundary ----------------------------------------------------------------

SOURCES = sorted(Path(gridmarg.__file__).parent.glob("*.py"))
# scenario_io writes scenario files (write_scenario), which are inputs, not results.
MAY_WRITE = {"outputs.py", "scenario_io.py"}
FORMAT_HELPERS = {"_fmt", "atomic_write_text"}


def _is_write_mode(mode: ast.expr | None) -> bool:
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return True  # a mode computed at run time may write


def file_writes(tree: ast.AST) -> list[str]:
    """Calls that serialize JSON or write a file, as 'name:line'."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "open":
            # builtin open(path, mode) or Path.open(mode)
            at = 1 if isinstance(func, ast.Name) else 0
            mode = node.args[at] if len(node.args) > at else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if _is_write_mode(mode):
                found.append(f"open:{node.lineno}")
        elif name in ("dump", "dumps", "write_text", "write_bytes"):
            found.append(f"{name}:{node.lineno}")
    return found


def format_helpers(tree: ast.AST) -> list[str]:
    """Imports of a format helper, under any name, and module-level definitions
    of one or of fmt, as 'name:line'."""
    found = [f"{alias.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names
             if {alias.name, alias.asname} & FORMAT_HELPERS]
    return found + [f"{node.name}:{node.lineno}" for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name in FORMAT_HELPERS | {"fmt"}]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_outputs_writes_result_files(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    if path.name != "outputs.py":
        assert format_helpers(tree) == []
    if path.name not in MAY_WRITE:
        assert file_writes(tree) == []


def test_boundary_check_sees_each_kind_of_write():
    source = """
import json
from pathlib import Path
from .planner import _fmt, atomic_write_text
json.dumps({})
json.dump({}, fh)
Path("x").write_text("")
open("x", "w")
open("x", mode="a")
Path("x").open("w")
open("x")
open("x", "rb")
Path("x").read_text()
from .outputs import fmt as atomic_write_text
def fmt(v):
    return str(v)
"""
    tree = ast.parse(source)
    assert format_helpers(tree) == ["_fmt:4", "atomic_write_text:4", "fmt:14", "fmt:15"]
    assert file_writes(tree) == ["dumps:5", "dump:6", "write_text:7", "open:8", "open:9",
                                 "open:10"]
