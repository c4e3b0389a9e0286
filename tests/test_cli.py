import json
import time
from pathlib import Path

import pytest

from conitop import (
    RankTwoBundle,
    conifold_transition,
    projectivize,
    standard,
    trivial_bundle,
)
from conitop import serialize
from conitop.equiv import certificate_is_valid
from conitop.cli import (
    EXIT_BUDGET,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_OK,
    main,
)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def write_system_file(tmp_path, name, doc):
    payload = {"schema": serialize.SCHEMA}
    payload.update(doc)
    return write_json(tmp_path, name, payload)


def write_manifold_file(tmp_path, name, manifold):
    return write_json(tmp_path, name, {"schema": serialize.SCHEMA, "manifold": manifold})


def json_report(capsys, argv):
    """Run ``main`` with ``--format json``; returns (exit code, report or None, stderr)."""
    code = main(argv + ["--format", "json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if captured.out else None, captured.err


# -- descriptor parsing and validation -----------------------------------------


def test_parse_input_trivial_over_s4(tmp_path, capsys):
    code, report, _ = json_report(capsys, ["invariants", "--base", "S4", "--c2", "0"])
    assert code == EXIT_OK
    assert report["inputs"]["base"]["matrix"] == []
    assert report["inputs"]["bundle"] == {"c1": [], "c2": 0}
    # compare options not given on the command line take their defaults
    side = write_system_file(tmp_path, "s4.json", {"projectivize": {"base": "S4"}})
    code, report, _ = json_report(capsys, ["compare", "--left", side, "--right", side])
    assert code == EXIT_OK
    assert report["options"] == {"bound": 3, "check_c1": False, "primes": [2, 3, 5]}


def test_parse_input_reference_bundle_over_cp2bar(capsys):
    code, report, _ = json_report(
        capsys, ["invariants", "--base", "CP2bar", "--c1", "-1", "--c2", "-1"]
    )
    assert code == EXIT_OK
    assert report["inputs"]["bundle"] == {"c1": [-1], "c2": -1}


def test_parse_input_sum_expression(capsys):
    code, report, _ = json_report(capsys, ["invariants", "--base", "CP2 # 3 CP2bar"])
    assert code == EXIT_OK
    base = serialize.manifold_from_obj(report["inputs"]["base"])
    assert base.rank == 4
    assert tuple(row[i] for i, row in enumerate(base.form.matrix)) == (1, -1, -1, -1)


def test_parse_input_explicit_manifold_with_bad_w2(tmp_path, capsys):
    base = write_manifold_file(tmp_path, "bad_w2.json", {"matrix": [[1]], "w2": [0]})
    assert main(["invariants", "--base", base, "--c1", "0", "--c2", "0"]) == EXIT_INPUT
    assert "characteristic" in capsys.readouterr().err


def test_parse_input_rejects_nonsymmetric_and_nonunimodular(tmp_path, capsys):
    for name, matrix, w2, message in (
        ("nonsymmetric.json", [[0, 1], [2, 0]], [0, 0], "symmetric"),
        ("nonunimodular.json", [[2]], [0], "unimodular"),
    ):
        base = write_manifold_file(tmp_path, name, {"matrix": matrix, "w2": w2})
        assert main(["invariants", "--base", base]) == EXIT_INPUT
        assert message in capsys.readouterr().err


def test_parse_input_bad_json_reports_position(tmp_path, capsys):
    bad = write_json(tmp_path, "bad.json", "{not json")
    assert main(["compare", "--left", bad, "--right", bad]) == EXIT_INPUT
    assert "line 1" in capsys.readouterr().err
    assert main(["invariants", "--base", bad]) == EXIT_INPUT
    assert "line 1" in capsys.readouterr().err


def test_parse_input_unknown_command_and_schema(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["explode"])
    assert exc.value.code != EXIT_OK
    assert "invalid choice" in capsys.readouterr().err
    future = write_json(tmp_path, "future.json", {"schema": "conitop/99", "local_model": 1})
    assert main(["compare", "--left", future, "--right", future]) == EXIT_INPUT
    assert "unsupported schema" in capsys.readouterr().err


def test_main_rejects_non_integer_list_flags(tmp_path, capsys):
    for command in ("invariants", "transition"):
        assert main([command, "--base", "CP2", "--c1", "a"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "--c1" in captured.err and captured.out == ""
    side = write_system_file(tmp_path, "side.json", {"local_model": 1})
    assert main(["compare", "--left", side, "--right", side, "--primes", "2,a"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "--primes" in captured.err and captured.out == ""


def test_compare_refuses_an_unsupported_prime_above_the_fingerprint_rank(tmp_path, capsys):
    # rank 7 once skipped the fingerprints, so prime 11 went unchecked and
    # the search ended in exit 3 (budget exceeded)
    sides = [
        write_system_file(tmp_path, f"c2_{c2}.json", {"projectivize": {
            "base": "CP2 # 5 CP2bar", "c1": [0] * 6, "c2": c2}})
        for c2 in (0, 1)
    ]
    assert main(["compare", "--left", sides[0], "--right", sides[1], "--primes", "11"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "prime 11" in captured.err and captured.out == ""


def test_compare_separates_odd_w2_cubic_systems_at_an_odd_prime(tmp_path, capsys):
    # mu(w2, x, x) is odd here, which no closed 6-manifold has; odd primes once
    # were skipped for such systems and this compare was inconclusive
    def side(p1):
        doc = {"rank": 1, "mu": [[0, 0, 0, 1]], "p1": [p1], "w2": [1], "b3": 0}
        return write_system_file(tmp_path, f"p1_{p1}.json", {"system": doc})

    code, report, _ = json_report(capsys, ["compare", "--left", side(0), "--right", side(2)])
    assert code == EXIT_OK and report["result"]["verdict"] == "distinct"
    obj = report["result"]["certificate"]
    assert obj["kind"] == "fingerprint" and obj["prime"] == 3
    left, right = (serialize.system_from_obj(report["inputs"][s]) for s in ("left", "right"))
    assert certificate_is_valid(serialize.certificate_from_obj(obj), left, right)


NINES = "9" * 4300


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["invariants", "--base", "CP2", "--c2", NINES], "--c2"),
        (["transition", "--base", "CP2", "--c2", NINES], "--c2"),
        (["invariants", "--base", "CP2", "--c1", NINES], "--c1"),
        (["compare", "--left", "{side}", "--right", "{side}", "--bound", NINES], "--bound"),
    ],
)
def test_integer_flags_are_capped_in_digits(tmp_path, capsys, argv, flag):
    # each ended in a ValueError traceback when a value built from the flag,
    # with more than 4,300 digits, was printed
    side = write_system_file(tmp_path, "side.json", {"local_model": 1})
    assert main([arg.format(side=side) for arg in argv]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert flag in captured.err and "digits" in captured.err


def test_main_rejects_non_integer_mu(tmp_path, capsys):
    right = write_system_file(tmp_path, "right.json", {"local_model": 1})
    good = {"rank": 2, "p1": [0, 0], "w2": [0, 0], "b3": 0}
    for n, mu in enumerate(
        (
            [[0, 0, 0, "x"]],
            [[0, 0, 0, 1.5]],
            [[0, 0, 0, True]],
            [[0, 0, 1.0, 1]],
            5,
            [7],
        )
    ):
        left = write_system_file(tmp_path, f"left{n}.json", {"system": dict(good, mu=mu)})
        assert main(["compare", "--left", left, "--right", right]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "mu" in captured.err and captured.out == ""


def assert_input_error_naming(capsys, argv, field):
    assert main(argv) == EXIT_INPUT, (argv, field)
    captured = capsys.readouterr()
    assert field in captured.err and captured.out == "", (field, captured.err)


def test_main_rejects_coerced_system_fields(tmp_path, capsys):
    good = {"rank": 1, "mu": [[0, 0, 0, 1]], "p1": [0], "w2": [0], "b3": 0, "c1_class": [2]}
    right = write_system_file(tmp_path, "right.json", {"system": good})
    assert main(["compare", "--left", right, "--right", right]) == EXIT_OK
    capsys.readouterr()
    for n, (field, bad) in enumerate(
        (
            ("rank", "x"),
            ("rank", 1.0),
            ("rank", True),
            ("p1", [0.5]),
            ("p1", ["0"]),
            ("p1", 0),
            ("w2", [False]),
            ("w2", [0.0]),
            ("b3", True),
            ("b3", 0.0),
            ("c1_class", [2.0]),
            ("c1_class", ["2"]),
            ("classifiable", 1),
            ("basis_labels", [1]),
            ("basis_labels", "a"),
        )
    ):
        left = write_system_file(tmp_path, f"left{n}.json", {"system": dict(good, **{field: bad})})
        assert_input_error_naming(capsys, ["compare", "--left", left, "--right", right], field)


def test_main_rejects_coerced_descriptor_fields(tmp_path, capsys):
    right = write_system_file(tmp_path, "right.json", {"local_model": 1})
    cp2 = {"matrix": [[1]], "w2": [1]}
    for n, (field, doc) in enumerate(
        (
            ("c2", {"projectivize": {"base": "CP2", "c2": "q"}}),
            ("c2", {"projectivize": {"base": "CP2", "c2": 0.5}}),
            ("c2", {"transition": {"base": "CP2", "c2": True}}),
            ("c1", {"projectivize": {"base": "CP2", "c1": [1.0]}}),
            ("c1", {"projectivize": {"base": "CP2", "c1": "1"}}),
            ("c1", {"transition": {"base": "CP2", "c1": [True]}}),
            ("local_model", {"local_model": "a"}),
            ("local_model", {"local_model": 1.0}),
            ("local_model", {"local_model": True}),
            ("blowups", {"projectivize": {"base": "S4"}, "blowups": "2"}),
            ("blowups", {"projectivize": {"base": "S4"}, "blowups": 1.5}),
            ("swap", {"transition": {"base": "S4", "swap": 1}}),
            ("matrix", {"projectivize": {"base": {"matrix": [[1.5]], "w2": [1]}}}),
            ("matrix", {"projectivize": {"base": {"matrix": [["x"]], "w2": [1]}}}),
            ("matrix", {"projectivize": {"base": {"matrix": 1, "w2": [1]}}}),
            ("w2", {"projectivize": {"base": {"matrix": [[1]], "w2": [1.0]}}}),
            ("c1_tangent", {"projectivize": {"base": dict(cp2, c1_tangent=[3.0])}}),
            ("simply_connected", {"projectivize": {"base": dict(cp2, simply_connected=0)}}),
            ("label", {"projectivize": {"base": dict(cp2, label=5)}}),
        )
    ):
        left = write_system_file(tmp_path, f"left{n}.json", doc)
        assert_input_error_naming(capsys, ["compare", "--left", left, "--right", right], field)
    base = write_manifold_file(tmp_path, "base.json", {"matrix": [[1.5]], "w2": [1]})
    assert_input_error_naming(capsys, ["invariants", "--base", base], "matrix")


def test_main_caps_the_form_rank(tmp_path, capsys):
    code, report, _ = json_report(capsys, ["invariants", "--base", "CP2 # 80 CP2bar"])
    assert code == EXIT_OK and report["result"]["system"]["rank"] == 82
    assert_input_error_naming(capsys, ["invariants", "--base", "300 CP2"], "rank")
    assert_input_error_naming(capsys, ["transition", "--base", "CP2 # 300 CP2bar"], "rank")
    rows = [[int(i == j) for j in range(300)] for i in range(300)]
    base = write_manifold_file(tmp_path, "big.json", {"matrix": rows, "w2": [1] * 300})
    assert_input_error_naming(capsys, ["invariants", "--base", base], "matrix")
    left = write_system_file(tmp_path, "left.json", {"projectivize": {"base": "300 CP2bar"}})
    assert_input_error_naming(capsys, ["compare", "--left", left, "--right", left], "rank")


def test_main_rejects_removed_workers_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--workers", "2"])
    assert exc.value.code != EXIT_OK
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--help"])
    assert exc.value.code == EXIT_OK


# -- reports -------------------------------------------------------------------


def test_run_invariants_report(capsys):
    code, report, _ = json_report(
        capsys, ["invariants", "--base", "CP2", "--c1", "1", "--c2", "0"]
    )
    assert code == EXIT_OK
    system = report["result"]["system"]
    assert system["mu"] == [[0, 0, 0, 1], [0, 0, 1, -1], [0, 1, 1, 1]]
    assert system["p1"] == [4, 0]
    assert system["w2"] == [0, 0]
    assert report["result"]["euler_characteristic"] == 6


def test_run_transition_report_shows_chern_transfer(capsys):
    code, report, _ = json_report(capsys, ["transition", "--base", "S4"])
    assert code == EXIT_OK
    e1 = report["result"]["e1"]
    assert e1["base"]["label"].endswith("CP2bar")
    assert e1["c1"] == [-1] and e1["c2"] == -1
    e2 = report["result"]["e2"]
    assert e2["c1"] == [] and e2["c2"] == -1


def test_run_compare_distinct_sides(tmp_path, capsys):
    left = write_system_file(tmp_path, "l.json", {"transition": {"base": "S4"}, "side": "z1"})
    right = write_system_file(tmp_path, "r.json", {"transition": {"base": "S4"}, "side": "z2"})
    code, report, _ = json_report(capsys, ["compare", "--left", left, "--right", right])
    assert code == EXIT_OK
    assert report["result"]["verdict"] == "distinct"
    assert report["result"]["certificate"]["kind"] == "fingerprint"


def test_run_compare_isomorphic(tmp_path, capsys):
    left = write_system_file(tmp_path, "l.json", {"local_model": 1})
    right = write_system_file(
        tmp_path, "r.json", {"projectivize": {"base": "CP2bar", "c1": [-1], "c2": -1}}
    )
    code, report, _ = json_report(capsys, ["compare", "--left", left, "--right", right])
    assert code == EXIT_OK
    assert report["result"]["verdict"] == "isomorphic"
    assert report["result"]["witness"] is not None


def test_run_compare_inconclusive(tmp_path, capsys):
    plain = {"rank": 1, "mu": [[0, 0, 0, 1]], "p1": [0], "w2": [0], "b3": 0}
    shifted = dict(plain, p1=[30])
    left = write_system_file(tmp_path, "l.json", {"system": plain})
    right = write_system_file(tmp_path, "r.json", {"system": shifted})
    code, report, _ = json_report(capsys, ["compare", "--left", left, "--right", right])
    assert code == EXIT_INCONCLUSIVE
    assert report["result"]["verdict"] == "inconclusive"


def test_rank_one_compare_at_a_huge_bound_is_quick(tmp_path, capsys):
    # mu_000 = 1 and 211 agree at p = 2, 3, 5 and no t has 211 t^3 = 1; listing
    # all 2 * 10^8 + 1 entries took about 150 s.  mu = 0 with w2 = (0) and (1)
    # agree at every prime, and no t maps w2 = 0 to 1; listing all 2 * 10^6 + 1
    # entries took about 16 s.  A 1 x 1 witness is (1) or (-1), so only
    # t in {0, 1, -1} is listed
    def side(v, w2=0):
        doc = {"rank": 1, "mu": [[0, 0, 0, v]] if v else [], "p1": [0], "w2": [w2], "b3": 0}
        return write_system_file(tmp_path, f"mu_{v}_{w2}.json", {"system": doc})

    for left, right, bound in ((side(1), side(211), 10**8), (side(0), side(0, 1), 10**6)):
        start = time.perf_counter()
        code = main(["compare", "--left", left, "--right", right, "--bound", str(bound)])
        assert code == EXIT_INCONCLUSIVE and time.perf_counter() - start < 1
        assert "INCONCLUSIVE" in capsys.readouterr().out


def test_recheck_certificate_reads_the_report_alone(tmp_path, capsys):
    # the rank-6 sides agree at p = 2 and 3; the script behind the CI steps
    # accepts the p = 5 certificate, and refuses another prime or rank, an
    # altered certificate and a report without one
    import recheck_certificate

    inputs = Path(__file__).parent / "golden" / "inputs"
    code = main(["compare", "--format", "json",
                 "--left", str(inputs / "cp2_4cp2bar_c2_0.json"),
                 "--right", str(inputs / "cp2_4cp2bar_c2_6.json")])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    path = write_json(tmp_path, "report.json", report)
    assert recheck_certificate.main([path]) == 0
    assert recheck_certificate.main([path, "5", "6"]) == 0
    assert recheck_certificate.main([path, "3"]) == 1
    assert recheck_certificate.main([path, "5", "7"]) == 1
    detail = report["result"]["certificate"]["detail"]
    detail.reverse()
    assert recheck_certificate.main([write_json(tmp_path, "swapped.json", report)]) == 1
    report["result"]["certificate"] = None
    assert recheck_certificate.main([write_json(tmp_path, "none.json", report)]) == 1


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
    assert report["result"]["e1"] == serialize.placed_bundle_to_obj(expected.e1)
    assert report["result"]["e2"] == serialize.placed_bundle_to_obj(expected.e2)


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


def test_main_caps_blowups(tmp_path, capsys):
    # base rank + blowups is capped at MAX_FORM_RANK, so a blown-up
    # projectivization stops at rank 257 (a transition side reaches 258)
    cap = serialize.MAX_FORM_RANK - 1
    code, report, _ = json_report(capsys, ["invariants", "--base", "CP2", "--blowups", str(cap)])
    assert code == EXIT_OK and report["result"]["system"]["rank"] == serialize.MAX_FORM_RANK + 1
    above_argv = ["invariants", "--base", "CP2", "--blowups", str(cap + 1)]
    assert_input_error_naming(capsys, above_argv, "blowups")
    small = write_system_file(tmp_path, "small.json", {"projectivize": {"base": "CP2"}})
    at_cap = write_system_file(
        tmp_path, "at_cap.json", {"projectivize": {"base": "CP2"}, "blowups": cap}
    )
    above = write_system_file(
        tmp_path, "above.json", {"projectivize": {"base": "CP2"}, "blowups": cap + 1}
    )
    code, report, _ = json_report(capsys, ["compare", "--left", at_cap, "--right", small])
    assert code == EXIT_OK and report["result"]["certificate"]["kind"] == "rank"
    assert_input_error_naming(capsys, ["compare", "--left", above, "--right", small], "blowups")


def test_main_budget_exceeded(tmp_path, capsys, monkeypatch):
    zero = {"rank": 4, "mu": [], "p1": [0, 0, 0, 0], "w2": [0, 0, 0, 0], "b3": 0}
    left = write_system_file(tmp_path, "l.json", {"system": zero})
    right = write_system_file(tmp_path, "r.json", {"system": zero})
    code = main(["compare", "--left", left, "--right", right, "--bound", "3"])
    assert code == EXIT_BUDGET
    assert "budget" in capsys.readouterr().err


def test_rank_83_self_compare_is_refused_in_one_line(capsys):
    # the refusal printed (2 bound + 1)^(rank^2) in full, and from rank 83 str()
    # raised ValueError past its 4,300-digit limit: a traceback and exit 1
    side = str(Path(__file__).parent / "golden" / "inputs" / "cp2_80cp2bar_z1.json")
    assert main(["compare", "--left", side, "--right", side]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: search space 7^6889 exceeds step budget 1000000000\n"


def test_main_caps_explicit_system_rank(tmp_path, capsys):
    # an explicit system may have the rank of a transition side over a rank-256 base
    cap = serialize.MAX_FORM_RANK + 2
    assert cap == 258
    small = write_system_file(tmp_path, "small.json", {"projectivize": {"base": "CP2"}})

    def explicit(rank):
        zero = {"rank": rank, "mu": [], "p1": [0] * rank, "w2": [0] * rank, "b3": 0}
        return write_system_file(tmp_path, f"rank{rank}.json", {"system": zero})

    code, report, _ = json_report(capsys, ["compare", "--left", explicit(cap), "--right", small])
    assert code == EXIT_OK and report["result"]["certificate"]["detail"] == [cap, 2]
    for rank in (cap + 1, 3000):
        assert_input_error_naming(capsys, ["compare", "--left", explicit(rank), "--right", small], "rank")


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


@pytest.mark.parametrize("command", ["invariants", "transition"])
def test_step_budget_is_read_only_by_commands_that_search(capsys, monkeypatch, command):
    monkeypatch.setenv("CONITOP_STEP_BUDGET", "x")
    assert main([command, "--base", "CP2"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_negative_step_budget_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("CONITOP_STEP_BUDGET", "-5")
    assert main(["verify-paper"]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and "CONITOP_STEP_BUDGET" in err and "budget exceeded" not in err
    # 0 is a valid budget: the first search of the suite is refused
    monkeypatch.setenv("CONITOP_STEP_BUDGET", "0")
    assert main(["verify-paper"]) == EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err


def test_compare_stats_pin_the_s2xs2_sides_search(tmp_path, capsys, monkeypatch):
    # the transition sides over S2xS2 at bound 2: no witness.  Fingerprints are
    # switched off so that the search runs; it once took 1.18 M column tests
    left = write_system_file(tmp_path, "l.json", {"transition": {"base": "S2xS2"}, "side": "z1"})
    right = write_system_file(tmp_path, "r.json", {"transition": {"base": "S2xS2"}, "side": "z2"})
    monkeypatch.setenv("CONITOP_STEP_BUDGET", str(10**12))
    argv = ["compare", "--left", left, "--right", right, "--bound", "2", "--primes", ""]
    assert main(argv) == EXIT_INCONCLUSIVE
    plain = capsys.readouterr()
    assert plain.err == ""
    assert main(argv + ["--stats"]) == EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    assert captured.out == plain.out
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {
        "search": {
            "nodes": 571,
            "column_tests": 356875,
            "pruned": {"table": 322044, "mod2": 24301, "triple": 9960},
        }
    }
    # a compare that a certificate decides searches nothing
    assert main(["compare", "--left", left, "--right", right, "--stats"]) == EXIT_OK
    stats = json.loads(capsys.readouterr().err)["search"]
    assert stats["nodes"] == stats["column_tests"] == 0


def test_compare_stats_at_rank_zero_count_one_node(tmp_path, capsys):
    # the empty matrix is the one node; nothing is tested or pruned
    zero = {"rank": 0, "mu": [], "p1": [], "w2": [], "b3": 0}
    side = write_system_file(tmp_path, "zero.json", {"system": zero})
    assert main(["compare", "--left", side, "--right", side, "--stats"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "ISOMORPHIC" in captured.out
    assert json.loads(captured.err) == {
        "search": {"nodes": 1, "column_tests": 0, "pruned": {"table": 0, "mod2": 0, "triple": 0}}
    }


MALFORMED_DESCRIPTORS = {
    "not UTF-8": (b"\xff\xfe", "UTF-8"),
    "5,000-digit integer": (b'{"local_model": ' + b"1" * 5000 + b"}", "digits"),
    "100,000 nested lists": (b"[" * 100000, "nested"),
    "projectivize not an object": (b'{"projectivize": 5}', "projectivize"),
    "transition not an object": (b'{"transition": []}', "transition"),
    "4,300-digit c2": (
        b'{"projectivize": {"base": "CP2", "c1": [1], "c2": ' + b"9" * 4300 + b"}}",
        "c2",
    ),
    "2,000-digit mu value": (
        b'{"system": {"rank": 1, "mu": [[0, 0, 0, ' + b"7" * 2000 + b']], "p1": [0], "w2": [0],'
        b' "b3": 0}}',
        "mu has",
    ),
    "negative rank": (b'{"system": {"rank": -1, "mu": [], "p1": [], "w2": [], "b3": 0}}', "rank -1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DESCRIPTORS))
def test_malformed_descriptor_exits_1_in_one_line(tmp_path, capsys, case):
    payload, field = MALFORMED_DESCRIPTORS[case]
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    argv = ["compare", "--left", str(path), "--right", str(path), "--format", "json"]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert field in captured.err and "Traceback" not in captured.err


def test_base_file_that_is_not_utf8_exits_1_in_one_line(tmp_path, capsys):
    path = tmp_path / "base.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["invariants", "--base", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "UTF-8" in captured.err


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
        lambda step_budget=None: [
            {"name": "doomed", "passed": False, "detail": {}}
        ],
    )
    code = main(["verify-paper"])
    out = capsys.readouterr().out
    assert code == 4
    assert "FAIL" in out


def test_verify_paper_byte_identical_runs(capsys):
    assert main(["verify-paper", "--format", "json"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["verify-paper", "--format", "json"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first.encode() == second.encode()


def test_compare_byte_identical_runs(tmp_path, capsys):
    left = write_system_file(tmp_path, "l.json", {"local_model": 2})
    right = write_system_file(
        tmp_path, "r.json", {"projectivize": {"base": "S4", "c2": -1}, "blowups": 1}
    )
    outputs = []
    for _ in range(2):
        code = main(["compare", "--left", left, "--right", right, "--format", "json"])
        assert code == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0].encode() == outputs[1].encode()
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


def test_transition_without_c1_data_omits_reference_class(tmp_path, capsys):
    base = write_manifold_file(tmp_path, "x.json", {"label": "X", "matrix": [[1]], "w2": [1]})
    code, report, _ = json_report(capsys, ["transition", "--base", base, "--c1", "0"])
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


def test_compare_scope_without_classification_hypotheses(tmp_path, capsys):
    base_obj = {
        "label": "X",
        "matrix": [[1]],
        "w2": [1],
        "c1_tangent": [3],
        "simply_connected": False,
    }
    side = write_system_file(
        tmp_path, "x.json", {"projectivize": {"base": base_obj, "c1": [1], "c2": 0}}
    )
    code, report, _ = json_report(capsys, ["compare", "--left", side, "--right", side])
    assert code == EXIT_OK
    assert report["inputs"]["left"]["classifiable"] is False
    assert report["result"]["verdict"] == "isomorphic"
    assert report["result"]["scope"] == "invariant-systems-only"
    # the same pair built from declared-simply-connected data compares at
    # diffeomorphism-class scope
    side2 = write_system_file(
        tmp_path, "cp2.json", {"projectivize": {"base": "CP2", "c1": [1], "c2": 0}}
    )
    _, report2, _ = json_report(capsys, ["compare", "--left", side2, "--right", side2])
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
