"""Pinned machine-readable reports for the reference instances.

Any change to the JSON schema or to a computed value shows up here as a byte
difference against the committed golden files.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conitop.cli import main
from conitop.equiv import certificate_is_valid, verify_witness
from conitop.serialize import certificate_from_obj, system_from_obj, witness_from_obj

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

CASES = {
    "invariants_cp2_c1.json": ["invariants", "--base", "CP2", "--c1", "1", "--c2", "0"],
    "transition_s4_trivial.json": ["transition", "--base", "S4"],
    "transition_cp2_trivial.json": ["transition", "--base", "CP2"],
    "transition_mixed_sum.json": [
        "transition", "--base", "CP2 # 3 CP2bar # 2 S2xS2", "--c1=1,-1,0,1,2,0,1,1", "--c2", "2",
    ],
    "invariants_mixed_sum_blowup.json": [
        "invariants", "--base", "CP2 # 3 CP2bar # 2 S2xS2", "--c1=1,-1,0,1,2,0,1,1", "--c2", "2",
        "--blowups", "1",
    ],
    "verify_paper.json": ["verify-paper"],
    "compare_s4_sides.json": [
        "compare",
        "--left", str(INPUTS / "s4_z1.json"),
        "--right", str(INPUTS / "s4_z2.json"),
    ],
    "compare_local_model_1.json": [
        "compare",
        "--left", str(INPUTS / "local_model_1.json"),
        "--right", str(INPUTS / "bundle_side.json"),
        "--check-c1",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(CASES[name] + ["--format", "json"])
    assert code == 0
    assert buf.getvalue().encode() == (GOLDEN / name).read_bytes()


def test_golden_reports_are_valid_json():
    for name in CASES:
        json.loads((GOLDEN / name).read_text())


def test_golden_compare_verdicts_re_verify_from_the_report_alone():
    # the s4 sides' p = 2 certificate and the local model's witness, each
    # checked against the two systems the report embeds
    def sides(report):
        return [system_from_obj(report["inputs"][side]) for side in ("left", "right")]

    report = json.loads((GOLDEN / "compare_s4_sides.json").read_bytes())
    cert = certificate_from_obj(report["result"]["certificate"])
    assert cert.prime == 2 and certificate_is_valid(cert, *sides(report))
    report = json.loads((GOLDEN / "compare_local_model_1.json").read_bytes())
    witness = witness_from_obj(report["result"]["witness"])
    check_c1 = report["options"]["check_c1"]
    assert witness.matrix == ((1, 0), (0, -1)) and check_c1 is True
    assert verify_witness(*sides(report), witness.matrix, check_c1=check_c1)


def test_verify_paper_with_warnings_as_errors_matches_the_golden():
    # a child interpreter under -W error: a deprecation warning from any
    # module, the value types included, ends the run
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-W", "error", "-m", "conitop.cli", "verify-paper", "--format", "json"]
    run = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=path), capture_output=True)
    assert run.returncode == 0 and run.stderr == b""
    assert run.stdout == (GOLDEN / "verify_paper.json").read_bytes()
