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

from conitop import cones
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
    # an explicit unimodular transport of P(E) over CP2 # 3 CP2bar, whose one
    # block has no vertex in the given basis, against a bundle descriptor whose
    # fingerprints first differ at p = 5
    "compare_transport_p5.json": [
        "compare",
        "--left", str(INPUTS / "cp2_3cp2bar_transport.json"),
        "--right", str(INPUTS / "cp2_3cp2bar_c2_m3.json"),
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
    # the left side's one block has no vertex in its basis; p1 shows it to be a
    # flat cone at p = 5, where the fingerprints first differ
    report = json.loads((GOLDEN / "compare_transport_p5.json").read_bytes())
    left, right = sides(report)
    assert [v for v, _, _ in cones.cone_blocks(left)] == [None] and left.p1[0] % 5
    cert = certificate_from_obj(report["result"]["certificate"])
    assert cert.prime == 5 and certificate_is_valid(cert, left, right)
    report = json.loads((GOLDEN / "compare_local_model_1.json").read_bytes())
    witness = witness_from_obj(report["result"]["witness"])
    check_c1 = report["options"]["check_c1"]
    assert witness.matrix == ((1, 0), (0, -1)) and check_c1 is True
    assert verify_witness(*sides(report), witness.matrix, check_c1=check_c1)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report_from_a_fresh_interpreter_with_warnings_as_errors(name):
    # a child interpreter imports only what the command loads, so a name the
    # command uses but no longer imports fails here; under -W error a
    # deprecation warning from any module, the value types included, ends the run
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-W", "error", "-m", "conitop.cli", *CASES[name], "--format", "json"]
    run = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=path), capture_output=True)
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == (GOLDEN / name).read_bytes()
