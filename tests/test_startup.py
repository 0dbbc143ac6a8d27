"""Start-up cost: gridmarg loads scipy's HiGHS extension without scipy.optimize.

Every command runs in a fresh interpreter, so importing ``scipy.optimize``
(and with it ``scipy.linalg`` and the optimizers) would cost each one a
third of a second, and ``scipy.sparse`` another 0.15 s. No command may
import them, whether at start-up or on a solving path, where the cost would
only move from start-up into the answer. Nor may any import ``numpy.random``
(about 2 MB of resident memory); the solver's tie-break weights come from
``hashlib`` instead. These checks run in a subprocess, since the test
process itself imports them for its reference solves.
"""

import importlib.machinery
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridmarg import lp

from test_scenario_io import TUTORIAL

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "numpy.random")


def run_fresh(code: str) -> dict:
    """Run code in a fresh interpreter; return the JSON its last stdout line holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("command", [
    None,
    ["validate", str(TUTORIAL)],
    ["solve", str(TUTORIAL), "--out", "{out}"],
    *(["metrics", str(TUTORIAL), "--method", method, "--out", "{out}"]
      for method in ("srme1", "srme2", "lrmer")),
    ["schedule", str(TUTORIAL), "--signal", "srme2", "--out", "{out}"],
    ["sweep", str(TUTORIAL), "--parallel", "1", "--out", "{out}"],
], ids=["import", "validate", "solve", "metrics-srme1", "metrics-srme2", "metrics-lrmer",
        "schedule-srme2", "sweep"])
def test_commands_start_without_scipy_optimize(command, tmp_path):
    argv = None if command is None else [a.format(out=tmp_path / "out") for a in command]
    result = run_fresh(
        "import json, sys\n"
        "from gridmarg import cli\n"
        f"argv = {argv!r}\n"
        "code = None if argv is None else cli.main(argv)\n"
        f"print(json.dumps({{'code': code, 'loaded': [m for m in {HEAVY!r} if m in sys.modules]}}))\n")
    assert result["loaded"] == []
    assert result["code"] == (None if command is None else 0)
    if command is not None and command[0] == "solve":
        assert (tmp_path / "out" / "summary.json").exists()


def test_scipy_optimize_reuses_the_loaded_extension():
    result = run_fresh(
        "import json\n"
        "import gridmarg.lp\n"
        "import scipy.optimize._highspy._core as core\n"
        "import scipy.optimize\n"
        "res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],\n"
        "                             method='highs')\n"
        "print(json.dumps({'same_core': core is gridmarg.lp._highs,\n"
        "                  'same_linprog': gridmarg.lp.linprog is scipy.optimize.linprog,\n"
        "                  'status': res.status, 'x': res.x.tolist()}))\n")
    assert result == {"same_core": True, "same_linprog": True, "status": 0, "x": [1.0, 0.0]}


def test_loader_names_the_scipy_pin_when_the_extension_is_missing(tmp_path):
    before = sys.modules[lp._HIGHS_MODULE]
    with pytest.raises(ImportError, match=r"scipy>=1\.17,<1\.18"):
        lp._load_highs(tmp_path)
    assert sys.modules[lp._HIGHS_MODULE] is before is lp._highs


def test_loader_tries_every_extension_suffix(tmp_path):
    # An empty file under the last suffix the interpreter accepts: found,
    # so the load fails on the file itself rather than on a missing one.
    suffix = importlib.machinery.EXTENSION_SUFFIXES[-1]
    (tmp_path / f"_core{suffix}").write_bytes(b"")
    before = sys.modules[lp._HIGHS_MODULE]
    with pytest.raises(ImportError, match=r"scipy>=1\.17,<1\.18") as excinfo:
        lp._load_highs(tmp_path)
    assert f"_core{suffix}" in str(excinfo.value.__cause__)
    assert sys.modules[lp._HIGHS_MODULE] is before
