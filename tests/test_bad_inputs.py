"""Every input the package refuses, in two tables, each with its contract stated once.

- A CLI row, a command line and a pattern naming the field or flag at fault,
  must exit 1 with nothing on stdout and exactly one stderr line, which starts
  with ``input error: ``, matches the pattern and holds no traceback.
- A library row is a call, as source text, and the pattern of its message.
  It must raise ``ValidationError``.

One hypothesis test passes random descriptor documents to ``compare`` and
holds every exit 1 to the CLI contract.  Another passes random text to each
integer flag and to ``CONITOP_STEP_BUDGET``: only an optional ``-`` and at
most ``MAX_INT_DIGITS`` ASCII digits are read, as ``int()`` reads them.
"""

import json
import re
from pathlib import Path

import pytest

import conitop
from conitop import serialize  # noqa: F401, for the library rows
from conitop.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, main
from conitop.equiv import SUPPORTED_PRIMES
from conitop.intmat import inverse_unimodular  # noqa: F401, for the library rows
from conitop.serialize import MAX_FORM_RANK, MAX_INT_DIGITS, SCHEMA

from oracles import chain, inverse_adjugate  # noqa: F401, for the library rows

# -- the command line ----------------------------------------------------------


def compare(left, right=None, *flags):
    """``compare`` of the descriptor ``left`` against ``right``, by default ``left`` again."""
    return ("compare", "--left", left, "--right", left if right is None else right, *flags)


def system(**fields):
    """An accepted rank-1 system descriptor with ``fields`` changed."""
    good = {"rank": 1, "mu": [[0, 0, 0, 1]], "p1": [0], "w2": [0], "b3": 0, "c1_class": [2]}
    return {"system": dict(good, **fields)}


def base(matrix, w2, *flags):
    """``invariants`` over an explicit base file."""
    return ("invariants", "--base", {"manifold": {"matrix": matrix, "w2": w2}}, *flags)


def zero(rank):
    return {"system": {"rank": rank, "mu": [], "p1": [0] * rank, "w2": [0] * rank, "b3": 0}}


def over(base, **fields):
    """A projectivize descriptor over ``base`` with bundle ``fields``."""
    return {"projectivize": dict(base=base, **fields)}


CP2_OBJ = {"matrix": [[1]], "w2": [1]}
NINES = "9" * 4300
# a blown-up projectivization over CP2 reaches rank MAX_FORM_RANK + 1 at this count
BLOWUP_CAP = MAX_FORM_RANK - 1
BUDGET = "CONITOP_STEP_BUDGET"
GOOD = {"local_model": 1}
RANK_7_SIDES = [over("CP2 # 5 CP2bar", c1=[0] * 6, c2=c2) for c2 in (0, 1)]
Z2 = {"transition": {"base": "CP2", "c1": [1], "c2": 0}, "side": "z2"}
TWICE = b'{"schema": "conitop/1", "projectivize": {"base": "CP2", "c1": [1], "c2": 0, "c2": 5}}'

# (command line, pattern[, environment]); an object in the command line is a
# descriptor file, bytes a file of those bytes, None a path never written
CLI_ROWS = [
    (base([[1]], [0], "--c1", "0", "--c2", "0"), "w2 is not characteristic"),
    (base([[0, 1], [2, 0]], [0, 0]), "matrix is not symmetric"),
    (base([[2]], [0]), "form is not unimodular"),
    (base([[1.5]], [1]), "matrix"),
    (base([[int(i == j) for j in range(300)] for i in range(300)], [1] * 300), "matrix"),
    (("invariants", "--base", b"{not json"), "line 1"),
    (("invariants", "--base", b"\xff\xfe"), "UTF-8"),
    (("invariants", "--base", "T4"), "T4"),
    (("invariants", "--base", "300 CP2"), "rank"),
    (("transition", "--base", "CP2 # 300 CP2bar"), "rank"),
    (("invariants", "--base", "CP2", "--c1", "a"), "--c1"),
    (("transition", "--base", "CP2", "--c1", "a"), "--c1"),
    *(
        (("invariants", "--base", "CP2 # CP2bar", "--c1", c1), "--c1")
        for c1 in ("1,,0", "1,0,", ",1,0", "1, ,0")
    ),
    (("transition", "--base", "CP2 # CP2bar", "--c1", "1,0,"), "--c1"),
    (("invariants", "--base", "CP2", "--blowups", "-1"), "blowups"),
    (("invariants", "--base", "CP2", "--blowups", str(BLOWUP_CAP + 1)), "blowups"),
    (("invariants", "--base", "CP2", "--c1", NINES), "--c1.*digits"),
    (("invariants", "--base", "CP2", "--c2", NINES), "--c2.*digits"),
    (("transition", "--base", "CP2", "--c2", NINES), "--c2.*digits"),
    (compare({"local_model": 1}, None, "--bound", NINES), "--bound.*digits"),
    (compare({"local_model": 1}, None, "--primes", "2,a"), "--primes"),
    (compare({"local_model": 1}, None, "--primes", "2,,3"), "--primes"),
    (compare({"local_model": 1}, None, "--primes", "2,3,"), "--primes"),
    (compare(*RANK_7_SIDES, "--primes", "11"), "prime 11"),
    (compare(over("CP2", c1=[1], c2=0)), BUDGET, {BUDGET: "not-a-number"}),
    # an integer typed as text is an optional "-" and ASCII digits, nothing else
    *(
        (("invariants", "--base", "CP2", flag, value), f"^input error: {flag} ")
        for flag, value in (
            ("--c1", "1_0"),
            ("--c1", " 1"),
            ("--c2", " \u0663"),  # ARABIC-INDIC DIGIT THREE
            ("--c2", "+3"),
            ("--blowups", "1.5"),
            ("--blowups", NINES),
        )
    ),
    (compare({"local_model": 1}, None, "--bound", "x"), "^input error: --bound "),
    # a bound below 1 is refused before either descriptor is read, whether the
    # pair is told apart by a fingerprint or reaches the search
    (
        compare({"local_model": 1}, {"side": "z2", "transition": {"base": "S4"}}, "--bound", "-5"),
        "^input error: --bound must be at least 1, got -5",
    ),
    (compare({"local_model": 1}, None, "--bound", "0"), "^input error: --bound must be at least 1"),
    (compare(None, None, "--bound", "0"), "^input error: --bound must be at least 1, got 0"),
    (compare({"local_model": 1}, None, "--bound", "1_0"), "^input error: --bound "),
    (compare({"local_model": 1}, None, "--primes", "2, 3"), "^input error: --primes "),
    (("invariants", "--base", "\u0663 CP2"), "^input error: --base: summand count"),
    (("invariants", "--base", "--3 CP2"), "^input error: --base: summand count"),
    (compare(over("CP2", c1=[1], c2=0)), f"^input error: {BUDGET} ", {BUDGET: "1_000"}),
    (compare(over("CP2", c1=[1], c2=0)), f"^input error: {BUDGET} ", {BUDGET: NINES}),
    (compare(None), r"^input error: --left: cannot read '.*\.json': No such file"),
    (
        ("compare", "--left", {"local_model": 1}, "--right", None),
        r"^input error: --right: cannot read .*No such",
    ),
    (("invariants", "--base", None), r"^input error: --base: cannot read '.*\.json': No such file"),
    (compare(b"{not json"), "line 1"),
    (compare(b"\xff\xfe"), "UTF-8"),
    (compare(b'{"local_model": ' + b"1" * 5000 + b"}"), "digits"),
    (compare(b"[" * 100000), "nested"),
    (compare(over("CP2", c1=[1], c2=int(NINES))), "c2"),
    (compare(over("CP2", c2=int(NINES))), "c2"),
    (compare(system(mu=[[0, 0, 0, int("7" * 2000)]])), "mu has"),
    (compare({"schema": "conitop/99", "local_model": 1}), "unsupported schema"),
    (compare({"projectivize": 5}), "projectivize"),
    (compare({"transition": []}), "transition"),
    (compare({"system": {"rank": -1, "mu": [], "p1": [], "w2": [], "b3": 0}}), "rank -1"),
    (compare(zero(MAX_FORM_RANK + 3), over("CP2")), "rank"),
    (compare(zero(3000), over("CP2")), "rank"),
    (compare(over("300 CP2bar")), "rank"),
    (compare(over(5)), "base"),
    (compare(over(None)), "base"),
    (compare(over("K3")), "^input error: --left: base: unknown catalog manifold 'K3'"),
    (compare({"transition": {"base": "CP2 #"}}), "^input error: --left: base: empty summand"),
    (compare(over({"matrix": [[2]], "w2": [0]})), "^input error: --left: base: .*not unimodular"),
    # a descriptor error names the side it came from, once
    *(
        (compare(*sides), f"^input error: {flag}: {pattern}")
        for bad, pattern in ((b"{not json", "invalid JSON"), ({"system": {"rank": 1}}, "invariant"))
        for flag, sides in (("--left", (bad, GOOD)), ("--right", (GOOD, bad)))
    ),
    (("invariants", "--base", b"{not json"), "^input error: --base: invalid JSON"),
    (compare({"projectivize": {"base": "CP2"}, "blowups": -2}), "blowups"),
    (compare({"projectivize": {"base": "CP2"}, "blowups": BLOWUP_CAP + 1}, over("CP2")), "blowups"),
    (compare({"local_model": 3}), "local_model"),
    *(
        (compare({"system": {"rank": 2, "p1": [0, 0], "w2": [0, 0], "b3": 0, "mu": mu}}), "mu")
        for mu in ([[0, 0, 0, "x"]], [[0, 0, 0, 1.5]], [[0, 0, 0, True]], [[0, 0, 1.0, 1]], 5, [7])
    ),
    (compare(system(rank="x")), "rank"),
    (compare(system(rank=1.0)), "rank"),
    (compare(system(rank=True)), "rank"),
    (compare(system(p1=[0.5])), "p1"),
    (compare(system(p1=["0"])), "p1"),
    (compare(system(p1=0)), "p1"),
    (compare(system(w2=[False])), "w2"),
    (compare(system(w2=[0.0])), "w2"),
    (compare(system(b3=True)), "b3"),
    (compare(system(b3=0.0)), "b3"),
    (compare(system(c1_class=[2.0])), "c1_class"),
    (compare(system(c1_class=["2"])), "c1_class"),
    (compare(system(classifiable=1)), "classifiable"),
    (compare(system(basis_labels=[1])), "basis_labels"),
    (compare(system(basis_labels="a")), "basis_labels"),
    (compare(over("CP2", c2="q")), "c2"),
    (compare(over("CP2", c2=0.5)), "c2"),
    (compare({"transition": {"base": "CP2", "c2": True}}), "c2"),
    (compare(over("CP2", c1=[1.0])), "c1"),
    (compare(over("CP2", c1="1")), "c1"),
    (compare({"transition": {"base": "CP2", "c1": [True]}}), "c1"),
    (compare({"local_model": "a"}), "local_model"),
    (compare({"local_model": 1.0}), "local_model"),
    (compare({"local_model": True}), "local_model"),
    (compare({"projectivize": {"base": "S4"}, "blowups": "2"}), "blowups"),
    (compare({"projectivize": {"base": "S4"}, "blowups": 1.5}), "blowups"),
    (compare({"transition": {"base": "S4", "swap": 1}}), "^input error: --left: transition takes no field 'swap'$"),
    (compare(over({"matrix": [[1.5]], "w2": [1]})), "matrix"),
    (compare(over({"matrix": [["x"]], "w2": [1]})), "matrix"),
    (compare(over({"matrix": 1, "w2": [1]})), "matrix"),
    (compare(over({"matrix": [[1]], "w2": [1.0]})), "w2"),
    (compare(over(dict(CP2_OBJ, c1_tangent=[3.0]))), "c1_tangent"),
    (compare(over(dict(CP2_OBJ, simply_connected=0))), "simply_connected"),
    (compare(over(dict(CP2_OBJ, label=5))), "label"),
    # a key given twice, or a constant that is not JSON, is invalid JSON in any file
    (compare(TWICE), "^input error: --left: invalid JSON: key 'c2' given twice"),
    (compare(GOOD, TWICE), "^input error: --right: invalid JSON: key 'c2' given twice"),
    (
        ("invariants", "--base", b'{"manifold": "CP2", "manifold": "S4"}'),
        "^input error: --base: invalid JSON: key 'manifold' given twice",
    ),
    (compare({"local_model": 1, "note": float("nan")}), "^input error: --left: invalid JSON: NaN "),
    (compare(GOOD, b'{"local_model": 1, "x": [Infinity]}'), "^input error: --right: invalid JSON: Infinity "),
    (
        ("invariants", "--base", b'{"manifold": "CP2", "x": -Infinity}'),
        "^input error: --base: invalid JSON: -Infinity ",
    ),
    # every key is read: one a reader does not take is refused, never dropped
    (
        compare({**Z2, "blowups": 3}, Z2),
        "^input error: --left: transition descriptor takes no field 'blowups'",
    ),
    (compare(over("CP2", c1=[1], c2=0, blowups=1)), "^input error: --left: projectivize takes no field 'blowups'"),
    (
        compare(GOOD, {"local_model": 1, "projectivize": {"base": "CP2", "c1": [1], "c2": 0}}),
        "^input error: --right: system descriptor takes only one of .* got 'projectivize' and 'local_model'",
    ),
    (compare({"transition": {"base": "S4"}, "swap": True}), "transition descriptor takes no field 'swap'"),
    (compare({"local_model": 1, "side": "z1"}), "local_model descriptor takes no field 'side'"),
    (compare({**system(), "blowups": 0}), "system descriptor takes no field 'blowups'"),
    (compare(system(rank_2=2)), "invariant system takes no field 'rank_2'"),
    (compare({"transition": {"base": "S4", "side": "z2"}}), "transition takes no field 'side'"),
    (compare(over(dict(CP2_OBJ, c1=[1]))), "^input error: --left: base: explicit manifold takes no field 'c1'"),
    (("invariants", "--base", {"manifold": "CP2", "c1": [1]}), "manifold document takes no field 'c1'"),
    (
        ("invariants", "--base", {"matrix": [[1]], "w2": [1], "blowups": 2}),
        "^input error: --base: explicit manifold takes no field 'blowups'",
    ),
]


def row_id(row):
    """The command line of a row, each file shown by its content, cut at 120 characters."""
    argv, _, *env = row
    words = [a if isinstance(a, (str, bytes)) else json.dumps(a) for a in argv] + env
    return " ".join(str(word)[:120] for word in words)


def input_error(capsys, code):
    """The stderr line of a run that ended with ``code``, once the exit-1 contract holds."""
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_INPUT, ""), err
    assert err.startswith("input error: ") and err.endswith("\n") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


def write(path, payload):
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    elif payload is not None:
        path.write_text(json.dumps({"schema": SCHEMA, **payload}))
    return str(path)


@pytest.mark.parametrize("row", CLI_ROWS, ids=row_id)
def test_cli_row_exits_1_in_one_line_naming_the_field(tmp_path, capsys, monkeypatch, row):
    argv, pattern, *env = row
    for name, value in (env[0] if env else {}).items():
        monkeypatch.setenv(name, value)
    argv = [
        word if isinstance(word, str) else write(tmp_path / f"{i}.json", word)
        for i, word in enumerate(argv)
    ]
    line = input_error(capsys, main(argv))
    assert re.search(pattern, line), line


@pytest.mark.parametrize("doc", [system(), over(CP2_OBJ), {"local_model": 1}])
def test_the_documents_the_rows_change_are_accepted(tmp_path, doc):
    path = write(tmp_path / "side.json", doc)
    assert main(["compare", "--left", path, "--right", path]) == EXIT_OK


# -- the library ---------------------------------------------------------------

# the names a library row may use, besides the package's own
CP2 = conitop.standard("CP2")
S4 = conitop.standard("S4")
HYPERBOLIC = conitop.IntersectionForm(((0, 1), (1, 0)))
ONE = conitop.make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(0,))
TWO = conitop.make_system(2, {(0, 0, 1): 1}, p1=(0, 0), w2=(0, 0))
EXP = conitop.projectivize(CP2, conitop.RankTwoBundle(CP2, (1,), 0))

LIBRARY_ROWS = [
    ("IntersectionForm(((1, 0),))", "square"),
    ("IntersectionForm([[0, 1]])", "square"),
    # the first (i, j), j < i, row by row, where the matrix differs from its transpose
    ("IntersectionForm(((0, 1), (2, 0)))", r"^form matrix is not symmetric at \(1,0\)$"),
    ("IntersectionForm(((0, 1, 2), (1, 0, 3), (5, 3, 0)))", r"symmetric at \(2,0\)$"),
    ("IntersectionForm(((0, 1, 2), (9, 0, 3), (5, 4, 0)))", r"symmetric at \(1,0\)$"),
    ("IntersectionForm(((1.0,),))", "integer"),
    ("IntersectionForm(5)", "^form matrix "),
    ("IntersectionForm([5])", "^form matrix "),
    ("HYPERBOLIC.evaluate((1,), (1, 0))", "length"),
    ("HYPERBOLIC.evaluate((True, 0), (1, 0))", "is not an integer"),
    ("HYPERBOLIC.matvec((1.5, 0))", "is not an integer"),
    ("is_characteristic((1, 0), IntersectionForm([[1]]))", "length"),
    ("is_characteristic((2,), IntersectionForm([[1]]))", "0 or 1"),
    ("standard('K3')", "K3"),
    ("FourManifold('X', IntersectionForm(((2,),)), (0,))", "unimodular"),
    ("FourManifold('X', HYPERBOLIC, (1, 0))", "characteristic"),
    ("FourManifold('bad', IntersectionForm([[1]]), (0,))", "characteristic"),
    ("FourManifold('X', HYPERBOLIC, (0, 0), (2,))", "length"),
    ("FourManifold('bad', IntersectionForm([[1]]), (1,), (1, 1))", "length"),
    ("FourManifold('X', HYPERBOLIC, (0, 0), (2, 1))", "lift"),
    ("FourManifold('bad', IntersectionForm([[1]]), (1,), (2,))", "lift"),
    ("FourManifold(5, HYPERBOLIC, (0, 0))", "^label "),
    ("FourManifold('X', HYPERBOLIC, (0, 0), simply_connected=1)", "^simply_connected "),
    ("FourManifold('x', IntersectionForm(((1,),)), 5)", "^w2 "),
    ("RankTwoBundle(CP2, (1,), 0.5)", "c2"),
    ("RankTwoBundle(CP2, (1, 0), 0)", "length"),
    ("RankTwoBundle(CP2, (True,), 0)", "c1.*is not an integer"),
    ("RankTwoBundle(CP2, (1.7,), 0)", "is not an integer"),
    ("RankTwoBundle(CP2, (1,), 0.9)", "is not an integer"),
    ("RankTwoBundle(CP2, (1,), False)", "is not an integer"),
    ("RankTwoBundle(CP2, 5, 0)", "^bundle c1 "),
    ("twist(trivial_bundle(CP2), 5)", "^twist l "),
    ("twist(trivial_bundle(CP2), (1, 2))", "length"),
    ("projectivize(CP2, trivial_bundle(S4))", "base"),
    ("conifold_transition(CP2, trivial_bundle(S4))", "base"),
    ("local_model_system(3)", "local_model"),
    ("local_model_system(True)", "local_model"),
    ("InvariantSystem(2, (((0, 0, 2), 2),), (0, 0), (0, 0), 0)", "range"),
    ("InvariantSystem(2, (((0, 0, 1), 1), ((1, 0, 0), 2)), (0, 0), (0, 0), 0)", "conflicting"),
    ("InvariantSystem(2, 5, (0, 0), (0, 0), 0)", "^mu "),
    ("make_system(2, [1], (0, 0), (0, 0))", "^mu "),
    ("make_system(2, [(5, 1)], (0, 0), (0, 0))", "^mu "),
    ("make_system('x', {(0, 0, 0): 1}, p1=(0,), w2=(0,))", "^rank "),
    ("InvariantSystem(2, (((0, 0), 1),), (0, 0), (0, 0), 0)", "three integers"),
    ("InvariantSystem(2, (((0, 0, 1.0), 2),), (0, 0), (0, 0), 0)", "three integers"),
    ("InvariantSystem(2, (((0, False, 1), 2),), (0, 0), (0, 0), 0)", "three integers"),
    ("InvariantSystem(2, (((0, 0, '1'), 2),), (0, 0), (0, 0), 0)", "three integers"),
    ("InvariantSystem(2, (), (0,), (0, 0), 0)", "length"),
    ("InvariantSystem(2, (), (0, 0), (0, 2), 0)", "0 or 1"),
    ("InvariantSystem(2, (), (0, 0), (0, 0), -1)", "b3"),
    ("InvariantSystem(2, (), (0, 0), (0, 1), 0, (0, 0))", "lift"),
    ("InvariantSystem(2, (), (0.0, 0), (0, 0), 0)", "p1"),
    ("InvariantSystem(1, (), (0,), (0,), 0.5)", "^b3 .* is not an integer"),
    ("InvariantSystem(1, (), (0,), (0,), '1')", "^b3 .* is not an integer"),
    ("InvariantSystem(1, (), (0,), (0,), True)", "^b3 .* is not an integer"),
    ("InvariantSystem(True, (), (0,), (0,), 0, None, ('a',))", "^rank .* is not an integer"),
    ("InvariantSystem(1.0, (), (0,), (0,), 0, None, ('a',))", "^rank .* is not an integer"),
    ("InvariantSystem(1, (), (0,), (0,), 0, classifiable=1)", "^classifiable "),
    ("InvariantSystem(2, (), (0, 0), (0, 0), 0, None, 'ab')", "^basis_labels "),
    ("InvariantSystem(2, (), (0, 0), (0, 0), 0, None, 5)", "^basis_labels "),
    ("make_system(1, {(0, 0, 0): 1}, p1=(0, 0), w2=(0,))", "length"),
    ("make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(2,))", "0 or 1"),
    ("make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(0,), c1_class=(1,))", "lift"),
    ("make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(0,), b3=-1)", "b3"),
    ("make_system(2, {(0, 0, 5): 3, (0, 0, 0): 1}, p1=(0, 0), w2=(0, 0))", r"\(0, 0, 5\)"),
    ("make_system(2, {(0, 0, 5): 0}, p1=(0, 0), w2=(0, 0))", r"\(0, 0, 5\)"),
    ("make_system(2, {(-1, 0, 0): 0}, p1=(0, 0), w2=(0, 0))", r"\(-1, 0, 0\)"),
    ("make_system(1, {}, (0,), (0,), basis_labels=(1,))", "^basis_labels "),
    ("make_system(1, {}, (0,), (0,), classifiable='yes')", "^classifiable "),
    ("make_system(2, {}, 5, (0, 0))", "^p1 "),
    ("make_system(1, {(0, 0, 0): 1}, p1=(0.5,), w2=(1,))", "is not an integer"),
    ("make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(1.0,))", "is not an integer"),
    ("make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(True,))", "is not an integer"),
    ("make_system(1, {(0, 0, 0): 1}, p1=(False,), w2=(0,))", "is not an integer"),
    ("make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(1,), c1_class=(1.0,))", "is not an integer"),
    ("make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(1,), c1_class=(True,))", "is not an integer"),
    ("make_system(2, {(0, 0, 0): 1.5}, p1=(0, 0), w2=(0, 0))", "mu"),
    ("make_system(2, {(0, 0, 0): True}, p1=(0, 0), w2=(0, 0))", "mu"),
    ("make_system(2, {(0, 0, 0): '1'}, p1=(0, 0), w2=(0, 0))", "mu"),
    ("make_system(2, {(0, 0, 0): 0.0}, p1=(0, 0), w2=(0, 0))", "mu"),
    ("make_system(2, {(0, 0, 1.0): 1}, p1=(0, 0), w2=(0, 0))", "mu"),
    ("make_system(2, {(0, True, 1): 1}, p1=(0, 0), w2=(0, 0))", "mu"),
    ("make_system(2, {(0, '0', 1): 1}, p1=(0, 0), w2=(0, 0))", "mu"),
    ("make_system(2, [(('0', 0, 0), 1)], p1=(0, 0), w2=(0, 0))", "mu"),
    ("TWO.pull_back(((1,),))", "shape"),
    ("TWO.pull_back(((1, 0), (0, 1), (0, 0)))", "shape"),
    ("TWO.pull_back(((1, 0), (0,)))", "shape"),
    ("TWO.pull_back(((1, 0.5), (0, 1)))", "matrix"),
    ("IsomorphismWitness(((2, 0), (0, 1)))", "determinant"),
    ("IsomorphismWitness(((1, 0),))", "witness matrix.*square"),
    ("IsomorphismWitness(((1, 0), (0,)))", "witness matrix.*square"),
    ("EXP.p1_pairing((1,))", "length"),
    ("IsomorphismWitness(((1.0,),))", "witness matrix.*is not an integer"),
    ("IsomorphismWitness([[1.5]])", "is not an integer"),
    ("IsomorphismWitness([[True]])", "is not an integer"),
    ("IsomorphismWitness(5)", "^witness matrix "),
    ("verify_witness(ONE, ONE, 5)", "^witness matrix "),
    ("transport_system(ONE, 5)", "^transport matrix "),
    ("verify_witness(ONE, ONE, [[1.5]])", "is not an integer"),
    ("verify_witness(ONE, ONE, [[True]])", "is not an integer"),
    ("verify_witness(ONE, ONE, [[1.0]])", "is not an integer"),
    ("transport_system(ONE, [[1.5]])", "is not an integer"),
    ("transport_system(ONE, [[True]])", "is not an integer"),
    ("transport_system(ONE, [[1.0]])", "is not an integer"),
    ("IsomorphismWitness(HYPERBOLIC.matrix, 'no')", "preserves_c1"),
    ("IsomorphismWitness(HYPERBOLIC.matrix, 1)", "preserves_c1"),
    ("IsomorphismWitness(HYPERBOLIC.matrix, None)", "preserves_c1"),
    ("verify_witness(EXP, EXP, ((1, 0, 0), (0, 1, 0)))", "shape"),
    ("verify_witness(EXP, chain(3), ((1, 0), (0, 1)))", "rank"),
    ("verify_witness(ONE, ONE, ((1,),), check_c1=True)", "c1"),
    ("transport_system(ONE, ((2,),))", "determinant 2"),
    *(
        (f"{inverse}({matrix})", f"determinant {d},")
        for inverse in ("inverse_unimodular", "inverse_adjugate")
        for matrix, d in (
            (((1, 1), (1, 1)), 0),
            (((0, 0, 0), (0, 1, 0), (0, 0, 1)), 0),
            (((2,),), 2),
            (((1, 1), (-1, 1)), 2),
            (((1, 0, 0), (0, 2, 0), (0, 0, 1)), 2),
        )
    ),
    ("find_isomorphism(ONE, ONE, bound=1, check_c1=True)", "c1"),
    # anything but True or False, before any work: a witness with preserves_c1=1
    # could not be written and read back
    ("find_isomorphism(EXP, EXP, 1, check_c1=1)", r"^check_c1 must be a bool, got 1$"),
    ("find_isomorphism(EXP, EXP, 1, check_c1='no')", "^check_c1 "),
    ("find_isomorphism(EXP, EXP, 1, check_c1=None)", "^check_c1 "),
    ("find_isomorphism(ONE, TWO, 1, check_c1=0)", "^check_c1 "),
    ("verify_witness(EXP, EXP, ((1, 0), (0, 1)), check_c1=1)", r"^check_c1 must be a bool, got 1$"),
    ("verify_witness(EXP, EXP, ((1, 0), (0, 1)), check_c1='no')", "^check_c1 "),
    ("verify_witness(ONE, TWO, 5, check_c1=0)", "^check_c1 "),
    ("find_isomorphism(EXP, EXP, bound=0)", "bound"),
    ("find_isomorphism(ONE, ONE, bound=2.5)", "search bound"),
    ("find_isomorphism(ONE, ONE, bound=True)", "search bound"),
    ("find_isomorphism(ONE, ONE, bound='3')", "search bound"),
    ("find_isomorphism(ONE, ONE, 1, step_budget=-1)", "step budget must be None or an integer"),
    ("find_isomorphism(ONE, ONE, 1, step_budget=2.5)", "step budget must be None or an integer"),
    ("find_isomorphism(ONE, ONE, 1, step_budget=True)", "step budget must be None or an integer"),
    ("find_isomorphism(ONE, ONE, 1, step_budget='10')", "step budget must be None or an integer"),
    ("fingerprint(EXP, 4)", "prime"),
    ("fingerprint(EXP, 2.0)", "prime"),
    ("fingerprint(EXP, True)", "prime"),
    ("fingerprint(EXP, '2')", "prime"),
    ("fingerprint(EXP, None)", "prime"),
    # the walk's window is (p^n - 1)/(p - 1) <= 19,608 points for n slots
    ("fingerprint(chain(7), 7)", "limited to 19608 points"),
    ("fingerprint(chain(8), 5)", "limited to 19608 points"),
    ("DistinctnessCertificate('fingerprint', 2.0, (fingerprint(EXP, 2),) * 2)", "prime"),
    ("DistinctnessCertificate('fingerprint', True, (fingerprint(EXP, 2),) * 2)", "prime"),
    ("DistinctnessCertificate('mu', None, (1, 2))", "kind"),
    ("certify_distinct(ONE, TWO, (11,))", "11"),
    ("certify_distinct(ONE, ONE, 5)", "^primes must be a sequence of primes, got 5$"),
    ("certify_distinct(ONE, ONE, None)", "^primes must be a sequence of primes, got None$"),
    ("certify_distinct(*[make_system(7, {}, (0,) * 7, (0,) * 7)] * 2, (2.0,))", "2.0"),
    ("certify_distinct(*[make_system(1, {(0, 0, 0): 1}, (0,), (1,), 0, (1,))] * 2, [2, 9])", "9"),
    ("serialize.parse_sum_expression('')", "empty"),
    ("serialize.parse_sum_expression('CP2 # ')", "empty"),
    ("serialize.parse_sum_expression('-1 CP2')", "negative"),
    ("serialize.parse_sum_expression('K3')", "K3"),
    ("serialize.parse_sum_expression('2 CP2 CP2bar')", "cannot parse"),
    ("serialize.parse_sum_expression('0 CP2 # 0 S2xS2')", "empty"),
    # counted before any summand is repeated, so a huge count costs nothing
    ("serialize.parse_sum_expression(f'{MAX_FORM_RANK + 1} CP2')", "limit|range"),
    ("serialize.parse_sum_expression(f'{MAX_FORM_RANK} CP2 # CP2bar')", "limit|range"),
    ("serialize.parse_sum_expression('1000000000000 S4')", "limit|range"),
    ("serialize.parse_sum_expression('9' * 5000 + ' CP2')", "limit|range"),
    ("serialize.manifold_from_obj({'matrix': [[]] * (MAX_FORM_RANK + 1), 'w2': []})", "matrix"),
    ("serialize.system_from_obj(dict(zero(1)['system'], mu=[[0, 0, 1]]))", "mu"),
    ("serialize.system_from_obj(dict(zero(1)['system'], mu=[[0, 0, 1, 5]]))", "range"),
    ("serialize.system_from_obj(dict(zero(1)['system'], mu=[[0, 0, 1, 0]]))", "range"),
    ("serialize.system_from_obj({'rank': 1, 'mu': [], 'p1': [0], 'w2': [0]})", "b3"),
    (
        "serialize.system_from_obj(dict(zero(1)['system'], mu=[[0, 0, 0, 1], [0, 0, 0, 2]]))",
        "conflicting",
    ),
    ("serialize.system_from_descriptor({'transition': {'base': 'S4'}, 'side': 'z3'})", "side"),
    ("serialize.system_from_descriptor({'nonsense': 1})", "needs one of"),
    ("serialize.system_from_descriptor('just a string')", "object"),
    ("serialize.loads('[1, 2]')", "object"),
    ("serialize.loads('{\"schema\": \"other/9\"}')", "schema"),
    ("serialize.loads('{\"a\": {\"b\": 1, \"b\": 1}}')", "invalid JSON: key 'b' given twice"),
    ("serialize.loads('{\"a\": NaN}')", "invalid JSON: NaN is not a JSON number"),
    ("serialize.loads('{\"a\": [1, -Infinity]}')", "invalid JSON: -Infinity is not a JSON number"),
    ("serialize.system_from_obj(dict(serialize.system_to_obj(ONE), schema='conitop/1'))", "schema"),
    ("serialize.manifold_from_obj(dict(serialize.manifold_to_obj(CP2), rank=1))", "rank"),
    ("serialize.witness_from_obj({'matrix': [[1]], 'preserves_c1': True, 'prime': 2})", "prime"),
    ("serialize.certificate_from_obj({'kind': 'rank', 'detail': [1, 2], 'matrix': []})", "matrix"),
    ("serialize.system_from_descriptor({'local_model': 1, 'system': {}})", "only one of"),
    *(
        (f"serialize.witness_from_obj({obj!r})", field)
        for field, obj in (
            ("preserves_c1", {"matrix": [[1]], "preserves_c1": "no"}),
            ("preserves_c1", {"matrix": [[1]], "preserves_c1": 1}),
            ("preserves_c1", {"matrix": [[1]]}),
            ("matrix", {"matrix": [[1.0]], "preserves_c1": True}),
            ("matrix", {"matrix": [[True]], "preserves_c1": True}),
            ("matrix", {"matrix": [["1"]], "preserves_c1": True}),
            ("matrix", {"matrix": 1, "preserves_c1": True}),
            ("matrix", {"matrix": [[1, 0], [0]], "preserves_c1": True}),
            ("determinant", {"matrix": [[2]], "preserves_c1": True}),
            ("witness", [[1]]),
        )
    ),
    *(
        (f"serialize.certificate_from_obj({obj!r})", field)
        for field, obj in (
            ("prime", {"kind": "fingerprint", "prime": "3", "detail": [[], []]}),
            ("prime", {"kind": "fingerprint", "prime": 3.0, "detail": [[], []]}),
            ("prime", {"kind": "fingerprint", "prime": True, "detail": [[], []]}),
            ("kind", {"kind": 5, "prime": None, "detail": [1, 2]}),
            ("kind", {"kind": "mystery", "prime": None, "detail": []}),
            ("kind", {"prime": None, "detail": [1, 2]}),
            ("detail", {"kind": "rank", "prime": None, "detail": [1, "2"]}),
            ("detail", {"kind": "b3", "prime": None, "detail": 0}),
            ("detail", {"kind": "fingerprint", "prime": 2, "detail": [[[0, 1, 0.5]], []]}),
            ("detail", {"kind": "fingerprint", "prime": 2, "detail": [[0, 1, 0]]}),
            ("detail", {"kind": "rank", "prime": None}),
            ("certificate", "rank"),
        )
    ),
]


@pytest.mark.parametrize("call, pattern", LIBRARY_ROWS)
def test_library_row_raises_validation_error(call, pattern):
    with pytest.raises(conitop.ValidationError, match=pattern):
        eval(call, {n: getattr(conitop, n) for n in conitop.__all__} | globals())


# -- random descriptors --------------------------------------------------------

DESCRIPTOR_KEYS = (
    "schema", "system", "projectivize", "local_model", "transition", "side", "blowups", "base",
    "c1", "c2", "matrix", "w2", "c1_tangent", "label", "simply_connected", "rank", "mu",
    "p1", "b3", "c1_class", "basis_labels", "classifiable",
)


@pytest.fixture
def seeded_draws(monkeypatch):
    """Hypothesis draws that depend on the test alone, not on what ran before it.

    Hypothesis mixes into its draws constants mined from every loaded
    non-test module, and which modules are loaded depends on the selection:
    conitop loads ``descriptors``, ``equiv``, ``cones``, ``transitions`` and
    ``paper`` on first use, and the bench modules load only when
    ``bench/tests`` is collected.  With that pool empty, and the cache built
    from it cleared on entry and exit, ``derandomize`` draws the same
    examples in a full run, in this file alone and in one test alone.
    Versions of Hypothesis that mine no constants lack the hook, and need
    nothing.
    """
    providers = pytest.importorskip("hypothesis.internal.conjecture.providers")
    if not hasattr(providers, "_get_local_constants"):
        yield
        return
    monkeypatch.setattr(providers, "_get_local_constants", providers.Constants)
    providers.CONSTANTS_CACHE.cache.clear()
    yield
    providers.CONSTANTS_CACHE.cache.clear()


def descriptor_documents(st):
    """Descriptor documents: each field a value of its kind, or now and then any JSON value."""
    small = st.integers(-3, 3)
    junk = st.recursive(
        st.none() | st.booleans() | small | st.floats(allow_nan=False) | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
        max_leaves=6,
    )

    def fields(required=(), **kinds):
        values = {
            key: st.integers(0, 4).flatmap(lambda n, kind=kind: kind if n else junk)
            for key, kind in kinds.items()
        }
        return st.fixed_dictionaries({key: values.pop(key) for key in required}, optional=values)

    def vector(n, entries=small):
        return st.lists(entries, min_size=n, max_size=n)

    def manifold(r):
        return fields(
            ("matrix", "w2"),
            matrix=vector(r, vector(r, st.integers(-1, 1))),
            w2=vector(r, st.integers(0, 1)),
            c1_tangent=vector(r),
        )

    def system(r):
        return fields(
            ("rank", "mu", "p1", "w2", "b3"),
            rank=st.just(r),
            mu=st.lists(st.tuples(*[st.integers(0, r)] * 3, small).map(list), max_size=4),
            p1=vector(r),
            w2=vector(r, st.integers(0, 1)),
            b3=st.integers(0, 2),
            c1_class=vector(r),
        )

    ranks = st.integers(0, 3)
    names = st.sampled_from(("S4", "CP2", "CP2bar # S2xS2", "2 CP2", "K3", ""))
    bundle = fields(
        ("base",), base=names | ranks.flatmap(manifold), c1=st.lists(small, max_size=3), c2=small
    )
    schema = st.sampled_from(("conitop/1", "conitop/9"))
    return (
        fields(("system",), system=ranks.flatmap(system), schema=schema)
        | fields(("projectivize",), projectivize=bundle, blowups=st.integers(-1, 2), schema=schema)
        | fields(("local_model",), local_model=st.integers(0, 3), schema=schema)
        | fields(("transition",), transition=bundle, side=st.sampled_from(("z1", "z2", "z3")))
        | st.dictionaries(st.sampled_from(DESCRIPTOR_KEYS), junk, max_size=3)
    )


def test_random_descriptors_exit_0_to_3_and_meet_the_exit_1_contract(
    tmp_path, capsys, monkeypatch, seeded_draws
):
    hypothesis = pytest.importorskip("hypothesis")
    # a search whose space exceeds this budget is refused with exit 3
    monkeypatch.setenv("CONITOP_STEP_BUDGET", "100")
    path = tmp_path / "side.json"

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hypothesis.given(descriptor_documents(hypothesis.strategies))
    def run(doc):
        path.write_text(json.dumps(doc))
        code = main(["compare", "--left", str(path), "--right", str(path)])
        if code == EXIT_INPUT:
            # the field at fault is a descriptor key, or the constant that
            # is not JSON (the junk floats take the values +-Infinity)
            line = input_error(capsys, code)
            assert re.search("|".join(DESCRIPTOR_KEYS + ("Infinity",)), line), line
        else:
            assert code in (0, 2, 3)
            capsys.readouterr()

    run()


# -- random integers typed as text ---------------------------------------------

INTEGER = re.compile(f"-?[0-9]{{1,{MAX_INT_DIGITS}}}")
INPUTS = Path(__file__).parent / "golden" / "inputs"
# told apart by every supported prime, so that no search reads the bound
RANK_PAIR = ["compare", "--left", str(INPUTS / "local_model_1.json"),
             "--right", str(INPUTS / "s4_z2.json")]
# decided by a search over 7^4 = 2401 candidates at the default bound
SEARCH_PAIR = ["compare", "--left", str(INPUTS / "local_model_1.json"),
               "--right", str(INPUTS / "bundle_side.json"), "--check-c1"]
# flag -> (command line, the value as the json report echoes it)
INTEGER_FLAGS = {
    "--c1": (["invariants", "--base", "CP2"], lambda r: r["inputs"]["bundle"]["c1"]),
    "--c2": (["invariants", "--base", "CP2"], lambda r: [r["inputs"]["bundle"]["c2"]]),
    "--blowups": (["invariants", "--base", "S4"], lambda r: [r["inputs"]["blowups"]]),
    "--bound": (RANK_PAIR, lambda r: [r["options"]["bound"]]),
    "--primes": (RANK_PAIR, lambda r: r["options"]["primes"]),
}


def integer_texts(st):
    """Integers as text, from one digit to past the digit cap, their near misses, and any text."""
    digits = st.text("0123456789", min_size=1, max_size=4) | st.integers(
        MAX_INT_DIGITS - 1, MAX_INT_DIGITS + 1
    ).map(lambda n: "9" * n)
    near = st.tuples(
        st.sampled_from(("", "-", "+", " ", "--", "\u0663")),
        digits,
        st.sampled_from(("", "_0", " ", "\n", ".5", "e3", "\u0663", "\u00b9")),
    ).map("".join)
    return near | st.text("-+_ .0123456789\u0663", max_size=6) | st.text(max_size=6)


@pytest.mark.parametrize("flag", [*INTEGER_FLAGS, BUDGET])
def test_random_integer_text_is_read_as_int_or_exits_1_naming_the_flag(
    capsys, monkeypatch, seeded_draws, flag
):
    hypothesis = pytest.importorskip("hypothesis")
    texts = integer_texts(hypothesis.strategies)
    if flag in ("--c1", "--primes"):
        # the items of a list flag; an empty value is the empty list
        texts = texts.filter(lambda text: text and "," not in text)
    if flag == BUDGET:
        texts = texts.filter(lambda text: "\0" not in text)

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hypothesis.given(texts)
    def run(text):
        if flag == BUDGET:
            monkeypatch.setenv(BUDGET, text)
            code = main(SEARCH_PAIR)
        else:
            argv, echo = INTEGER_FLAGS[flag]
            code = main([*argv, f"{flag}={text}", "--format", "json"])
        if not INTEGER.fullmatch(text):
            line = input_error(capsys, code)
            assert line.startswith(f"input error: {flag} "), line
            return
        n = int(text)
        if flag == BUDGET:
            # a budget below the 2401 candidates refuses the search, naming the budget
            expected = EXIT_INPUT if n < 0 else EXIT_BUDGET if n < 7**4 else EXIT_OK
        elif flag == "--blowups":
            expected = EXIT_OK if 0 <= n <= MAX_FORM_RANK else EXIT_INPUT
        elif flag == "--primes":
            expected = EXIT_OK if n in SUPPORTED_PRIMES else EXIT_INPUT
        elif flag == "--bound":
            expected = EXIT_OK if n >= 1 else EXIT_INPUT
        else:
            expected = EXIT_OK
        assert code == expected, text
        if code == EXIT_OK:
            out = capsys.readouterr().out
            assert flag == BUDGET or echo(json.loads(out)) == [n], text
        elif code == EXIT_BUDGET:
            assert capsys.readouterr().err.endswith(f" exceeds step budget {n}\n")
        else:
            # an integer that the command refuses, with the reason
            line = input_error(capsys, code)
            refusals = (
                f"{BUDGET} must not be negative, got {n}",
                f"blowups must be between 0 and {MAX_FORM_RANK}",
                f"fingerprint prime {n} is not one of",
                f"--bound must be at least 1, got {n}",
            )
            assert any(line.startswith(f"input error: {r}") for r in refusals), line

    run()
