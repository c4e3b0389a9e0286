import json
import os
import subprocess
import sys
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
    EXIT_OK,
    main,
)

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def write_system_file(tmp_path, name, doc):
    payload = {"schema": serialize.SCHEMA}
    payload.update(doc)
    return write_json(tmp_path, name, payload)


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


def test_main_caps_the_form_rank(capsys):
    code, report, _ = json_report(capsys, ["invariants", "--base", "CP2 # 80 CP2bar"])
    assert code == EXIT_OK and report["result"]["system"]["rank"] == 82


def test_main_rejects_removed_workers_flag(capsys):
    # argparse's usage errors exit 2, not 1, so they stay out of test_bad_inputs
    with pytest.raises(SystemExit) as exc:
        main(["explode"])
    assert exc.value.code != EXIT_OK
    assert "invalid choice" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--workers", "2"])
    assert exc.value.code != EXIT_OK
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--help"])
    assert exc.value.code == EXIT_OK


def test_main_rejects_removed_swap_flag(capsys):
    # a transition prints both sides, so there is nothing to swap
    with pytest.raises(SystemExit) as exc:
        main(["transition", "--base", "S4", "--swap"])
    assert exc.value.code != EXIT_OK
    assert "unrecognized arguments: --swap" in capsys.readouterr().err


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


C1_RANK_8 = [-1, 1, 1, 1, 1, 3]
# the 2-slot block mu_000 = mu_001 = mu_111 = 1, which is no cone, and 7 blowup slots
MU_RANK_9 = [[0, 0, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]] + [[i, i, i, -1] for i in range(2, 9)]


def system_descriptor(rank, mu, p1, w2):
    return {"system": {"rank": rank, "mu": mu, "p1": p1, "w2": w2, "b3": 0}}


def transition_sides(base, c1):
    transition = {"base": base, "c1": c1, "c2": 5}
    return tuple({"side": side, "transition": transition} for side in ("z1", "z2"))


# compare pairs told apart by a certificate: (left, right, prime, rank), each
# side a descriptor or the name of a file under golden/inputs
RECHECK_PAIRS = {
    "S4 transition sides": ("s4_z1.json", "s4_z2.json", 2, 2),
    # the rank-6 sides agree at p = 2 and 3; the p = 5 cone method separates them
    "CP2 and 4 CP2bar, c2 0 against 6": ("cp2_4cp2bar_c2_0.json", "cp2_4cp2bar_c2_6.json", 5, 6),
    # mu(w2, x, x) is odd, which no closed 6-manifold has; odd primes once were
    # skipped for such systems and this compare was inconclusive
    "odd w2 cubic at rank 1": (
        *(system_descriptor(1, [[0, 0, 0, 1]], [p1], [1]) for p1 in (0, 2)), 3, 1,
    ),
    # the sides agree at p = 2 and 3; before the cone method no fingerprint ran
    # above rank 6 and the search was refused (exit 3)
    "rank-8 transition sides": (*transition_sides("CP2 # 5 CP2bar", C1_RANK_8), 5, 8),
    "rank-258 transition sides": (
        *transition_sides("CP2 # 5 CP2bar # 125 S2xS2", C1_RANK_8 + [0] * 250), 5, 258,
    ),
    # the sides agree at p = 2; mod 3 their keys are linear maps with images of
    # dimension 0 and 1
    "rank-257 projectivizations": (
        *({"projectivize": {"base": "CP2 # 255 CP2bar", "c2": c2}} for c2 in (0, 2)), 3, 257,
    ),
    # p1 moved by 6 on slot 0 keeps every value mod 2 and 3; when the walk's
    # window applied to the whole system, the search was refused (exit 3)
    "rank 9 with a 2-slot block that is no cone": (
        *(system_descriptor(9, MU_RANK_9, [p1, 0] + [-4] * 7, [0] * 9) for p1 in (0, 6)), 5, 9,
    ),
}


def recheck(text, prime, rank):
    """Whether a compare report's certificate holds, read from its JSON text alone.

    Both systems and the certificate are decoded from the report; it holds
    when its prime is ``prime``, the left system has rank ``rank`` and
    ``certificate_is_valid`` accepts it.
    """
    report = json.loads(text)
    left, right = (serialize.system_from_obj(report["inputs"][side]) for side in ("left", "right"))
    obj = report["result"]["certificate"]
    if obj is None:
        return False
    cert = serialize.certificate_from_obj(obj)
    return cert.prime == prime and left.rank == rank and certificate_is_valid(cert, left, right)


@pytest.mark.parametrize("case", list(RECHECK_PAIRS))
def test_recheck_certificate_reads_the_report_alone(tmp_path, capsys, case):
    # each compare exits 0 within 30 s; the re-check accepts its certificate
    # within 30 s, and refuses another prime or rank, the certificate with its
    # sides swapped and a report without one
    *sides, prime, rank = RECHECK_PAIRS[case]
    paths = [
        str(GOLDEN_INPUTS / doc) if isinstance(doc, str) else write_json(tmp_path, f"{i}.json", doc)
        for i, doc in enumerate(sides)
    ]
    start = time.perf_counter()
    code = main(["compare", "--format", "json", "--left", paths[0], "--right", paths[1]])
    out, err = capsys.readouterr()
    assert code == EXIT_OK and err == "" and time.perf_counter() - start < 30
    start = time.perf_counter()
    assert recheck(out, prime, rank) and time.perf_counter() - start < 30
    assert not recheck(out, 3 if prime == 2 else 2, rank)
    assert not recheck(out, prime, rank + 1)
    report = json.loads(out)
    assert report["result"]["verdict"] == "distinct"
    report["result"]["certificate"]["detail"].reverse()
    assert not recheck(json.dumps(report), prime, rank)
    report["result"]["certificate"] = None
    assert not recheck(json.dumps(report), prime, rank)


def test_rank_200_invariants_within_30_s(capsys):
    # about 0.03 s with the report's parse (Python 3.11.7, 2 CPUs); a dense or
    # pairwise-fold form reduction took about a minute
    start = time.perf_counter()
    argv = ["invariants", "--base", "100 CP2 # 100 CP2bar", "--c2", "1"]
    code, report, err = json_report(capsys, argv)
    assert code == EXIT_OK and err == "" and time.perf_counter() - start < 30
    assert report["result"]["system"]["rank"] == 201


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


def test_main_caps_blowups(tmp_path, capsys):
    # base rank + blowups is capped at MAX_FORM_RANK, so a blown-up
    # projectivization stops at rank 257 (a transition side reaches 258)
    cap = serialize.MAX_FORM_RANK - 1
    code, report, _ = json_report(capsys, ["invariants", "--base", "CP2", "--blowups", str(cap)])
    assert code == EXIT_OK and report["result"]["system"]["rank"] == serialize.MAX_FORM_RANK + 1
    small = write_system_file(tmp_path, "small.json", {"projectivize": {"base": "CP2"}})
    at_cap = write_system_file(
        tmp_path, "at_cap.json", {"projectivize": {"base": "CP2"}, "blowups": cap}
    )
    code, report, _ = json_report(capsys, ["compare", "--left", at_cap, "--right", small])
    assert code == EXIT_OK and report["result"]["certificate"]["kind"] == "rank"


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
    side = str(GOLDEN_INPUTS / "cp2_80cp2bar_z1.json")
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


def test_step_budget_env_override(tmp_path, capsys, monkeypatch):
    doc = {"projectivize": {"base": "CP2", "c1": [1], "c2": 0}}
    left = write_system_file(tmp_path, "l.json", doc)
    right = write_system_file(tmp_path, "r.json", doc)
    monkeypatch.setenv("CONITOP_STEP_BUDGET", "10")
    assert main(["compare", "--left", left, "--right", right]) == EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err


def test_verify_paper_runs_under_the_default_budget_whatever_the_environment(capsys, monkeypatch):
    # a budget of 0 would refuse every search; the suite's searches never read it
    monkeypatch.setenv("CONITOP_STEP_BUDGET", "0")
    assert main(["verify-paper"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.endswith("all checks passed\n") and captured.err == ""


@pytest.mark.parametrize("command", ["invariants", "transition"])
def test_step_budget_is_read_only_by_commands_that_search(capsys, monkeypatch, command):
    monkeypatch.setenv("CONITOP_STEP_BUDGET", "x")
    assert main([command, "--base", "CP2"]) == EXIT_OK
    assert capsys.readouterr().err == ""


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


# searches too long to run in-process, each in a child process held to 30 s,
# whose --stats line must repeat these counters exactly: (step budget, the
# compare arguments, the stderr line)
STATS_PINS = {
    # P(trivial bundle over S2xS2 # S2xS2) against itself at bound 1, with the
    # raw-space gate lifted: a rank-5 search, about 5 s
    "rank-5 self-compare": (
        10**12,
        ["--bound", "1", "--format", "json", "--stats",
         "--left", "s2xs2_sum_trivial.json", "--right", "s2xs2_sum_trivial.json"],
        '{"search": {"column_tests": 4961214, "nodes": 20422, '
        '"pruned": {"mod2": 1032761, "table": 1959936, "triple": 1948096}}}',
    ),
    # P(E) over CP2 # 6 CP2bar, c1 = (1,...,1), c2 = 0, against its twist by
    # l = (1,0,1,0,0,0,1): a rank-8 search with c1 transport, the raw-space
    # gate lifted (7^64 is about 1.2e54), that must find a witness
    "rank-8 twist with --check-c1": (
        10**60,
        ["--bound", "3", "--format", "json", "--check-c1", "--stats",
         "--left", "cp2_6cp2bar_c1_ones.json", "--right", "cp2_6cp2bar_twist.json"],
        '{"search": {"column_tests": 1080859, "nodes": 9, '
        '"pruned": {"mod2": 15, "table": 1080836, "triple": 0}}}',
    ),
}


@pytest.mark.parametrize("case", list(STATS_PINS))
def test_compare_stats_pins_in_a_child_process_within_30_s(case):
    budget, argv, stats = STATS_PINS[case]
    argv = [str(GOLDEN_INPUTS / a) if a.endswith(".json") else a for a in argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(
        os.environ,
        CONITOP_STEP_BUDGET=str(budget),
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    run = subprocess.run(
        [sys.executable, "-m", "conitop.cli", "compare", *argv],
        env=env, capture_output=True, timeout=30,
    )
    assert (run.returncode, run.stderr.decode()) == (EXIT_OK, stats + "\n")
    assert json.loads(run.stdout)["result"]["verdict"] == "isomorphic"


def test_compare_stats_of_a_c1_miss_caught_up_front(tmp_path, capsys):
    # equal but for the c1 lift: mu(c1, c1, c1) = 0 on both sides, p1 . c1 is 0
    # against 4, so --check-c1 refuses before any column is tested
    system = {"rank": 2, "mu": [[0, 0, 1, 1]], "p1": [2, 0], "w2": [0, 0], "b3": 0}
    left, right = (
        write_system_file(tmp_path, f"{i}.json", {"system": {**system, "c1_class": c1}})
        for i, c1 in enumerate(([0, 0], [2, 0]))
    )
    plain_argv = ["compare", "--left", left, "--right", right, "--primes", ""]
    argv = plain_argv + ["--check-c1"]
    assert main(argv) == EXIT_INCONCLUSIVE
    plain = capsys.readouterr()
    assert plain.err == ""
    assert main(argv + ["--stats"]) == EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    assert captured.out == plain.out
    assert json.loads(captured.err) == {
        "search": {"nodes": 1, "column_tests": 0, "pruned": {"table": 0, "mod2": 0, "triple": 0}}
    }
    # without c1 transport the identity is a witness
    assert main(plain_argv) == EXIT_OK
    assert "ISOMORPHIC" in capsys.readouterr().out


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


def test_verify_paper_passes(capsys):
    code = main(["verify-paper"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_verify_paper_failure_exit_code(monkeypatch, capsys):
    import conitop.paper as paper

    monkeypatch.setattr(
        paper,
        "verification_suite",
        lambda: [{"name": "doomed", "passed": False, "detail": {}}],
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
    base = write_json(tmp_path, "x.json", {"manifold": {"label": "X", "matrix": [[1]], "w2": [1]}})
    code, report, _ = json_report(capsys, ["transition", "--base", base, "--c1", "0"])
    assert code == EXIT_OK
    assert report["result"]["z1"]["c1_class"] is None
    assert report["result"]["z2"]["c1_class"] is None


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
    from conitop.paper import verification_suite

    checks = verification_suite()
    json.dumps(checks)
    assert [c["name"] for c in checks] == [
        "projective bundle spot values",
        "local model 1 matches bundle side",
        "local model 2 matches blowup side",
        "transition sides distinct over S4",
        "transition sides distinct over CP2",
        "twist invariance sample",
    ]
    assert all(c["passed"] for c in checks)
