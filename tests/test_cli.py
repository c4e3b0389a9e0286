import json

import pytest

from conitop import (
    DescriptorError,
    RankTwoBundle,
    ValidationError,
    conifold_transition,
    projectivize,
    standard,
    trivial_bundle,
)
from conitop import serialize
from conitop.cli import (
    EXIT_BUDGET,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_OK,
    main,
    parse_input,
    run,
)


def job_doc(**kwargs):
    doc = {"schema": serialize.SCHEMA}
    doc.update(kwargs)
    return json.dumps(doc)


def write_system_file(tmp_path, name, doc):
    path = tmp_path / name
    payload = {"schema": serialize.SCHEMA}
    payload.update(doc)
    path.write_text(json.dumps(payload))
    return str(path)


# -- parse_input ---------------------------------------------------------------


def test_parse_input_trivial_over_s4():
    job = parse_input(job_doc(command="invariants", base="S4", bundle={"c1": [], "c2": 0}))
    assert job.command == "invariants"
    assert job.inputs["base"].rank == 0
    assert job.inputs["bundle"].c2 == 0
    assert job.options["bound"] == 3


def test_parse_input_reference_bundle_over_cp2bar():
    job = parse_input(
        job_doc(command="invariants", base="CP2bar", bundle={"c1": [-1], "c2": -1})
    )
    assert job.inputs["bundle"].c1 == (-1,)
    assert job.inputs["bundle"].c2 == -1


def test_parse_input_sum_expression():
    job = parse_input(job_doc(command="invariants", base="CP2 # 3 CP2bar", bundle={}))
    base = job.inputs["base"]
    assert base.rank == 4
    assert base.form.diagonal() == (1, -1, -1, -1)


def test_parse_input_explicit_manifold_with_bad_w2():
    doc = job_doc(
        command="invariants",
        base={"matrix": [[1]], "w2": [0]},
        bundle={"c1": [0], "c2": 0},
    )
    with pytest.raises(ValidationError, match="characteristic"):
        parse_input(doc)


def test_parse_input_rejects_nonsymmetric_and_nonunimodular():
    with pytest.raises(ValidationError, match="symmetric"):
        parse_input(job_doc(command="invariants", base={"matrix": [[0, 1], [2, 0]], "w2": [0, 0]}, bundle={}))
    with pytest.raises(ValidationError, match="unimodular"):
        parse_input(job_doc(command="invariants", base={"matrix": [[2]], "w2": [0]}, bundle={}))


def test_parse_input_bad_json_reports_position():
    with pytest.raises(DescriptorError) as err:
        parse_input("{not json")
    assert err.value.line == 1


def test_parse_input_unknown_command_and_schema():
    with pytest.raises(DescriptorError):
        parse_input(job_doc(command="explode"))
    with pytest.raises(DescriptorError):
        parse_input(json.dumps({"schema": "conitop/99", "command": "invariants"}))


# -- run -----------------------------------------------------------------------


def test_run_invariants_report():
    job = parse_input(
        job_doc(command="invariants", base="CP2", bundle={"c1": [1], "c2": 0})
    )
    report, code = run(job)
    assert code == EXIT_OK
    system = report["result"]["system"]
    assert system["mu"] == [[0, 0, 0, 1], [0, 0, 1, -1], [0, 1, 1, 1]]
    assert system["p1"] == [4, 0]
    assert system["w2"] == [0, 0]
    assert report["result"]["euler_characteristic"] == 6


def test_run_transition_report_shows_chern_transfer():
    job = parse_input(job_doc(command="transition", base="S4", bundle={}))
    report, code = run(job)
    assert code == EXIT_OK
    e1 = report["result"]["e1"]
    assert e1["base"]["label"].endswith("CP2bar")
    assert e1["c1"] == [-1] and e1["c2"] == -1
    e2 = report["result"]["e2"]
    assert e2["c1"] == [] and e2["c2"] == -1


def test_run_compare_distinct_sides():
    job = parse_input(
        job_doc(
            command="compare",
            left={"transition": {"base": "S4"}, "side": "z1"},
            right={"transition": {"base": "S4"}, "side": "z2"},
        )
    )
    report, code = run(job)
    assert code == EXIT_OK
    assert report["result"]["verdict"] == "distinct"
    assert report["result"]["certificate"]["kind"] == "fingerprint"


def test_run_compare_isomorphic():
    job = parse_input(
        job_doc(
            command="compare",
            left={"local_model": 1},
            right={"projectivize": {"base": "CP2bar", "c1": [-1], "c2": -1}},
        )
    )
    report, code = run(job)
    assert code == EXIT_OK
    assert report["result"]["verdict"] == "isomorphic"
    assert report["result"]["witness"] is not None


def test_run_compare_inconclusive():
    plain = {"rank": 1, "mu": [[0, 0, 0, 1]], "p1": [0], "w2": [0], "b3": 0}
    shifted = dict(plain, p1=[30])
    job = parse_input(job_doc(command="compare", left={"system": plain}, right={"system": shifted}))
    report, code = run(job)
    assert code == EXIT_INCONCLUSIVE
    assert report["result"]["verdict"] == "inconclusive"


# -- main / exit codes ---------------------------------------------------------


def test_main_invariants_table(capsys):
    code = main(["invariants", "--base", "CP2", "--c1", "1", "--c2", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "(a,a,a) = 1" in out
    assert "p1 pairings: a: 4, y1: 0" in out


def test_main_transition_json_round_trip(capsys):
    code = main(["transition", "--base", "S4", "--format", "json"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    s4 = standard("S4")
    expected = conifold_transition(s4, trivial_bundle(s4))
    assert serialize.system_from_obj(report["result"]["z1"]) == expected.z1
    assert serialize.system_from_obj(report["result"]["z2"]) == expected.z2
    assert serialize.placed_bundle_from_obj(report["result"]["e1"]) == expected.e1
    assert serialize.placed_bundle_from_obj(report["result"]["e2"]) == expected.e2


def test_main_invariants_report_round_trip(capsys):
    code = main(["invariants", "--base", "CP2bar", "--c1", "-1", "--c2", "-1", "--format", "json"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    bar = standard("CP2bar")
    expected = projectivize(bar, RankTwoBundle(bar, (-1,), -1))
    assert serialize.system_from_obj(report["result"]["system"]) == expected
    assert serialize.manifold_from_obj(report["inputs"]["base"]) == bar


def test_main_compare_files(tmp_path, capsys):
    left = write_system_file(tmp_path, "left.json", {"transition": {"base": "CP2"}, "side": "z1"})
    right = write_system_file(tmp_path, "right.json", {"transition": {"base": "CP2"}, "side": "z2"})
    code = main(["compare", "--left", left, "--right", right])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "DISTINCT" in out
    assert "fingerprint" in out


def test_main_compare_missing_file(tmp_path, capsys):
    code = main(["compare", "--left", str(tmp_path / "nope.json"), "--right", str(tmp_path / "nope.json")])
    assert code == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_main_invalid_descriptor_exits_1(capsys):
    code = main(["invariants", "--base", "T4"])
    assert code == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_main_rejects_negative_blowups(tmp_path, capsys):
    code = main(["invariants", "--base", "CP2", "--blowups", "-1"])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert "blowups" in captured.err and captured.out == ""
    left = write_system_file(
        tmp_path, "l.json", {"projectivize": {"base": "CP2"}, "blowups": -2}
    )
    code = main(["compare", "--left", left, "--right", left])
    assert code == EXIT_INPUT
    assert "blowups" in capsys.readouterr().err


def test_main_budget_exceeded(tmp_path, capsys, monkeypatch):
    zero = {"rank": 4, "mu": [], "p1": [0, 0, 0, 0], "w2": [0, 0, 0, 0], "b3": 0}
    left = write_system_file(tmp_path, "l.json", {"system": zero})
    right = write_system_file(tmp_path, "r.json", {"system": zero})
    code = main(["compare", "--left", left, "--right", right, "--bound", "3"])
    assert code == EXIT_BUDGET
    assert "budget" in capsys.readouterr().err


def test_step_budget_env_override(tmp_path, capsys, monkeypatch):
    doc = {"projectivize": {"base": "CP2", "c1": [1], "c2": 0}}
    left = write_system_file(tmp_path, "l.json", doc)
    right = write_system_file(tmp_path, "r.json", doc)
    monkeypatch.setenv("CONITOP_STEP_BUDGET", "10")
    code = main(["compare", "--left", left, "--right", right])
    assert code == EXIT_BUDGET
    monkeypatch.setenv("CONITOP_STEP_BUDGET", "not-a-number")
    code = main(["compare", "--left", left, "--right", right])
    assert code == EXIT_INPUT


def test_verify_paper_passes(capsys):
    code = main(["verify-paper"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_verify_paper_failure_exit_code(monkeypatch, capsys):
    import conitop.cli as cli

    monkeypatch.setattr(
        cli,
        "verification_suite",
        lambda workers=1, step_budget=None: [
            {"name": "doomed", "passed": False, "detail": {}}
        ],
    )
    code = main(["verify-paper"])
    out = capsys.readouterr().out
    assert code == 4
    assert "FAIL" in out


def test_verify_paper_byte_identical_runs_and_parallelism(capsys):
    assert main(["verify-paper", "--format", "json"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["verify-paper", "--format", "json"]) == EXIT_OK
    second = capsys.readouterr().out
    assert main(["verify-paper", "--format", "json", "--workers", "8"]) == EXIT_OK
    third = capsys.readouterr().out
    assert first.encode() == second.encode() == third.encode()


def test_compare_byte_identical_runs(tmp_path, capsys):
    left = write_system_file(tmp_path, "l.json", {"local_model": 2})
    right = write_system_file(
        tmp_path, "r.json", {"projectivize": {"base": "S4", "c2": -1}, "blowups": 1}
    )
    outputs = []
    for workers in ("1", "1", "6"):
        code = main(["compare", "--left", left, "--right", right, "--format", "json", "--workers", workers])
        assert code == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0].encode() == outputs[1].encode() == outputs[2].encode()
    report = json.loads(outputs[0])
    assert report["result"]["verdict"] == "isomorphic"


def test_compare_report_round_trips_bit_identically(tmp_path, capsys):
    left = write_system_file(tmp_path, "l.json", {"local_model": 1})
    right = write_system_file(
        tmp_path, "r.json", {"projectivize": {"base": "CP2bar", "c1": [-1], "c2": -1}}
    )
    code = main(["compare", "--left", left, "--right", right, "--format", "json", "--check-c1"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    from conitop import local_model_system, verify_witness

    m1 = local_model_system(1)
    side = serialize.system_from_obj(report["inputs"]["right"])
    witness = serialize.witness_from_obj(report["result"]["witness"])
    assert serialize.system_from_obj(report["inputs"]["left"]) == m1
    assert witness.preserves_c1
    assert verify_witness(m1, side, witness.matrix, check_c1=True)


def test_base_name_wins_over_file_of_same_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "CP2").write_text("{}")
    code = main(["invariants", "--base", "CP2", "--format", "json"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"]["base"]["label"] == "CP2"


def test_transition_without_c1_data_omits_reference_class(capsys):
    base_obj = {"label": "X", "matrix": [[1]], "w2": [1]}
    job = parse_input(job_doc(command="transition", base=base_obj, bundle={"c1": [0]}))
    report, code = run(job)
    assert code == EXIT_OK
    assert report["result"]["z1"]["c1_class"] is None
    assert report["result"]["z2"]["c1_class"] is None


def test_main_transition_swap_flag(capsys):
    assert main(["transition", "--base", "S4", "--format", "json"]) == EXIT_OK
    plain = json.loads(capsys.readouterr().out)
    assert main(["transition", "--base", "S4", "--swap", "--format", "json"]) == EXIT_OK
    swapped = json.loads(capsys.readouterr().out)
    assert swapped["inputs"]["swap"] is True
    assert swapped["result"]["z1"] == plain["result"]["z2"]
    assert swapped["result"]["z2"] == plain["result"]["z1"]


def test_explicit_manifold_file_input(tmp_path, capsys):
    path = tmp_path / "manifold.json"
    path.write_text(
        json.dumps(
            {
                "schema": serialize.SCHEMA,
                "manifold": {
                    "label": "E",
                    "matrix": [[0, 1], [1, 0]],
                    "w2": [0, 0],
                    "c1_tangent": [2, 2],
                },
            }
        )
    )
    code = main(["invariants", "--base", str(path), "--c1", "1,0", "--format", "json"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["system"]["rank"] == 3


def test_compare_scope_without_classification_hypotheses():
    base_obj = {
        "label": "X",
        "matrix": [[1]],
        "w2": [1],
        "c1_tangent": [3],
        "simply_connected": False,
    }
    job = parse_input(
        job_doc(
            command="compare",
            left={"projectivize": {"base": base_obj, "c1": [1], "c2": 0}},
            right={"projectivize": {"base": base_obj, "c1": [1], "c2": 0}},
        )
    )
    assert not job.inputs["left"].classifiable
    report, code = run(job)
    assert code == EXIT_OK
    assert report["result"]["verdict"] == "isomorphic"
    assert report["result"]["scope"] == "invariant-systems-only"
    # the same pair built from declared-simply-connected data compares at
    # diffeomorphism-class scope
    job2 = parse_input(
        job_doc(
            command="compare",
            left={"projectivize": {"base": "CP2", "c1": [1], "c2": 0}},
            right={"projectivize": {"base": "CP2", "c1": [1], "c2": 0}},
        )
    )
    report2, _ = run(job2)
    assert report2["result"]["scope"] == "diffeomorphism-classes"


def test_classifiable_flag_round_trips_and_propagates():
    from conitop import FourManifold, IntersectionForm, blowup_point

    x = FourManifold("X", IntersectionForm(((1,),)), (1,), (3,), simply_connected=False)
    s = projectivize(x, RankTwoBundle(x, (0,), 0))
    assert not s.classifiable
    assert not blowup_point(s).classifiable
    assert serialize.system_from_obj(serialize.system_to_obj(s)) == s
    assert serialize.manifold_from_obj(serialize.manifold_to_obj(x)) == x


def test_verification_suite_detail_is_json_ready():
    from conitop.cli import verification_suite

    checks = verification_suite()
    json.dumps(checks)
    assert [c["name"] for c in checks] == [
        "projective bundle spot values",
        "local model values",
        "local model 1 matches bundle side",
        "local model 2 matches blowup side",
        "transition sides distinct over S4",
        "transition sides distinct over CP2",
        "twist invariance sample",
    ]
    assert all(c["passed"] for c in checks)
