"""Start-up cost: a gridmarg command loads only what it uses.

Every command runs in a fresh interpreter, so importing ``scipy.optimize``
(and with it ``scipy.linalg`` and the optimizers) would cost each one a
third of a second, and ``scipy.sparse`` another 0.15 s. No command may
import them, whether at start-up or on a solving path, where the cost would
only move from start-up into the answer. Nor may any import ``numpy.random``
(about 2 MB of resident memory), the top-level ``scipy`` package, whose
``__init__`` costs 1.3 MB and 11-15 ms only to locate the HiGHS
extension (``importlib.util.find_spec`` locates it), or ``hashlib``'s
OpenSSL backend ``_hashlib`` (3.5 MB): the tie-break weights and the sweep
spec's hash come from CPython's builtin ``_sha3`` and ``_sha2``
(``_sha256`` before 3.12), whose bytes are ``hashlib``'s. Only a sweep that
starts a worker pool imports ``concurrent.futures``. These checks run in a
subprocess, since the test process itself imports these modules.
"""

import hashlib
import importlib.machinery
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridmarg import lp

from test_scenario_io import TUTORIAL

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "numpy.random", "scipy",
         "_hashlib", "concurrent.futures")
# The builtin hash modules gridmarg takes SHAKE-128 and SHA-256 from.
BUILTIN_HASHES = ("_sha3", "_sha2", "_sha256")


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


def test_loader_names_the_scipy_pin_when_the_extension_is_missing(tmp_path, monkeypatch):
    before = sys.modules[lp._HIGHS_MODULE]
    with pytest.raises(ImportError, match=r"scipy>=1\.17,<1\.18"):
        lp._load_highs(tmp_path)
    assert sys.modules[lp._HIGHS_MODULE] is before is lp._highs
    # Nor is scipy itself installed.
    monkeypatch.setattr(lp.importlib.util, "find_spec",
                        lambda name: None if name == "scipy" else pytest.fail(name))
    with pytest.raises(ImportError, match=r"scipy>=1\.17,<1\.18.*scipy is not installed"):
        lp._load_highs()
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


def hashlib_weights(seed: bytes, n: int) -> np.ndarray:
    """The tie-break stream lp documents, drawn from hashlib's SHAKE-128."""
    bits = np.frombuffer(hashlib.shake_128(seed).digest(8 * n), dtype="<u8")
    return 1.0 + (bits >> np.uint64(11)) * 2.0 ** -53


@pytest.mark.parametrize("blocked", [(), BUILTIN_HASHES], ids=["builtin", "hashlib-fallback"])
def test_hashes_are_hashlibs_with_or_without_the_builtin_modules(blocked, tmp_path):
    """The weights, for n up to 40,000, and the sweep spec's SHA-256 are
    hashlib's bytes, whether they come from the builtin modules or, on an
    interpreter built without them, from hashlib itself."""
    sizes = (0, 1, 20, 21, 22, 1000, 40_000)   # SHAKE-128 squeezes 21 weights a block
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ev_multipliers": [0.9, 1.0], "flexibility_modes": ["none"]}))
    result = run_fresh(
        "import json, sys\n"
        f"for name in {blocked!r}:\n"
        "    sys.modules[name] = None   # an interpreter built without it\n"
        "from gridmarg import cli, lp\n"
        "import hashlib\n"
        "digest = lambda w: hashlib.sha256(w.tobytes()).hexdigest()\n"
        "print(json.dumps({\n"
        "    'hashlib': [lp.shake_128 is hashlib.shake_128, cli.sha256 is hashlib.sha256],\n"
        f"    'cost': [digest(lp.tie_break_weights(n)) for n in {sizes!r}],\n"
        f"    'rhs': [digest(lp.rhs_tie_break_weights(n)) for n in {sizes!r}],\n"
        f"    'spec': cli._read_sweep_spec({str(spec)!r}, ['A'])[0]}}))\n")
    assert result["hashlib"] == [bool(blocked)] * 2
    for name, seed in (("cost", lp.TIE_BREAK_SEED), ("rhs", lp.RHS_TIE_BREAK_SEED)):
        assert result[name] == [hashlib.sha256(hashlib_weights(seed, n).tobytes()).hexdigest()
                                for n in sizes], name
    assert result["spec"] == hashlib.sha256(spec.read_bytes()).hexdigest()
