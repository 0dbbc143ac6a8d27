"""Every result file the CLI writes for the tutorial, pinned by SHA-256 digest.

Each command runs on scenarios/tutorial/scenario.json. A change to any
byte of a data file (number format, row order, JSON layout, trailing
newline) changes its digest. manifest.json is pinned without its
``scenario`` field (the input path) and the runs' ``wall_clock_s`` fields.
"""

import hashlib
import json

import pytest

from gridmarg.cli import main

from test_scenario_io import TUTORIAL

COMMANDS = {
    "solve-expansion": ["solve", "--mode", "expansion"],
    "solve-operational": ["solve", "--mode", "operational"],
    "metrics-aer": ["metrics", "--method", "aer"],
    "metrics-srme1": ["metrics", "--method", "srme1"],
    "metrics-srme2": ["metrics", "--method", "srme2"],
    "metrics-lrmer": ["metrics", "--method", "lrmer"],
    "metrics-lrmer-each": ["metrics", "--method", "lrmer", "--zone", "each-separately"],
    **{f"schedule-{signal}-{flex}": ["schedule", "--signal", signal, "--flex", flex]
       for signal in ("cost", "srme1", "srme2") for flex in ("none", "scenario")},
    "sweep": ["sweep", "--parallel", "1"],
}

PINNED = {
    "metrics-aer": {
        "aer.json": "ff8f4345eb845ff6cd4dcb3527f2cfa57a2187e376d4f64425b9bd55b0da7813",
    },
    "metrics-lrmer": {
        "consequential.json": "311b8f8a4b1042c704240ff152b6a55cd1b5dba54ff1771e537ce05f12139d5d",
    },
    "metrics-lrmer-each": {
        "consequential.json": "151fd3b060390ca7604765b85a9343cc3d65e389cb0a2e49044c37176d7d505d",
    },
    "metrics-srme1": {
        "srme.csv": "3fb3d4fcf408e97690e419abcea596f7bee1ba7eb492e63d1ef6799499bf4cb2",
    },
    "metrics-srme2": {
        "srme.csv": "4e9b5d2527b79ff04997eed96e591a432c3263a6ab2eef7832d05a5a9b39d1a9",
    },
    "schedule-cost-none": {
        "comparison.json": "8431481e60783f343ceb56a2f45653c1f127aae1083ad0b47b74c057e7ca0454",
        "schedule.csv": "3ac56b10360b77df59cff84f61e6a858c10e9479605ee00fba46060e70deedad",
    },
    "schedule-cost-scenario": {
        "comparison.json": "1545f4679876201e12aa483183997ce49c695194bb838142bf95ec25a59f051a",
        "schedule.csv": "3ac56b10360b77df59cff84f61e6a858c10e9479605ee00fba46060e70deedad",
    },
    "schedule-srme1-none": {
        "comparison.json": "772a35655ce55f0c4fdca41aa4da8e7589852e36a698e5dc24460447a589fbc7",
        "iteration_trace.csv": "95025afc56661b45f8c8387dc8c0b6cdc43a1b29f953b102e17077514abde179",
        "schedule.csv": "9257e620b0115c296c96c5086bc5475e8f545fb82c74e1a09ac5fdf464b67146",
    },
    "schedule-srme1-scenario": {
        "comparison.json": "32fab09653184fc8d004f68267f2e363b6e530fa85042b362be96674b37c76d3",
        "iteration_trace.csv": "95025afc56661b45f8c8387dc8c0b6cdc43a1b29f953b102e17077514abde179",
        "schedule.csv": "9257e620b0115c296c96c5086bc5475e8f545fb82c74e1a09ac5fdf464b67146",
    },
    "schedule-srme2-none": {
        "comparison.json": "1c32d11c8c2c952791dd26183b87cc330f792632be8f5b7d6bd336ac62b12526",
        "iteration_trace.csv": "95025afc56661b45f8c8387dc8c0b6cdc43a1b29f953b102e17077514abde179",
        "schedule.csv": "33fb840d95065e71fa54dc7c819c1486f138611a80218a490f4d10120a05ab24",
    },
    "schedule-srme2-scenario": {
        "comparison.json": "669bd6173d4e0ad9a8c79047e4189e4f0a7fa6cc7c570505f7e380c7d1d283f4",
        "iteration_trace.csv": "95025afc56661b45f8c8387dc8c0b6cdc43a1b29f953b102e17077514abde179",
        "schedule.csv": "33fb840d95065e71fa54dc7c819c1486f138611a80218a490f4d10120a05ab24",
    },
    "solve-expansion": {
        "capacity.csv": "eb3278fd1902da7d841131f78509386cfbe776d1e5c9946d47df35e19017091c",
        "dispatch.csv": "5a928672227615fa26fc5feb68b09195c46da58484df2ee38d22b43f59051bc7",
        "emissions.csv": "670b7319d5661e339afaadd7b61b259ffb6aa73d8b19784feea107acbf02f03f",
        "prices.csv": "fa3b0d8ef89c3d386def1327ba56eab83a730d1cd7543535fbfa5f328e83775e",
        "summary.json": "de91559dabac8241dbc8654ea0956959c36319be890add36c53cde8b0af0f024",
    },
    "solve-operational": {
        "capacity.csv": "eb3278fd1902da7d841131f78509386cfbe776d1e5c9946d47df35e19017091c",
        "dispatch.csv": "5a928672227615fa26fc5feb68b09195c46da58484df2ee38d22b43f59051bc7",
        "emissions.csv": "670b7319d5661e339afaadd7b61b259ffb6aa73d8b19784feea107acbf02f03f",
        "prices.csv": "fa3b0d8ef89c3d386def1327ba56eab83a730d1cd7543535fbfa5f328e83775e",
        "summary.json": "ee8a7a49c4ef898d3a48967d39d6c147a9682a99721743d7eef0cc0a34ec3009",
    },
    "sweep": {
        "manifest.json": "ad293984e9fe2853f90ff9d4d207eebc81c257cd98b3d0ba7972c5da59c90eed",
        "sweep_results.csv": "3071af6e770211cdb0ce28ab5ce28101c15bc572a17ca7e17348126ecfb31315",
    },
}


def manifest_digest(text: str) -> str:
    manifest = json.loads(text)
    del manifest["scenario"]
    for run in manifest["runs"]:
        del run["wall_clock_s"]
    return hashlib.sha256((json.dumps(manifest, indent=2) + "\n").encode()).hexdigest()


def output_digests(out) -> dict[str, str]:
    digests = {}
    for path in sorted(out.iterdir()):
        if path.name == "manifest.json":
            digests[path.name] = manifest_digest(path.read_text())
        else:
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_tutorial_outputs_match_pinned_digests(tmp_path, name):
    out = tmp_path / "out"
    argv = COMMANDS[name]
    assert main([argv[0], str(TUTORIAL), *argv[1:], "--out", str(out)]) == 0
    assert output_digests(out) == PINNED[name]
