"""Every input the package refuses, in two tables, each with its contract stated once.

- A CLI row, a command line and a pattern naming the field or flag at fault,
  must exit 1 with nothing on stdout and exactly one stderr line, which starts
  with ``input error: ``, matches the pattern and holds no traceback.
- A library row is a call, as source text, and the pattern of its message.
  It must raise ``ValidationError``; a ``DescriptorError`` is one.

A hypothesis test passes random descriptor documents to ``compare`` and holds
every exit 1 to the CLI contract.
"""

import json
import re

import pytest

import conitop
from conitop import serialize  # noqa: F401, for the library rows
from conitop.cli import EXIT_INPUT, EXIT_OK, main
from conitop.intmat import inverse_unimodular  # noqa: F401, for the library rows
from conitop.serialize import MAX_FORM_RANK, SCHEMA

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
RANK_7_SIDES = [over("CP2 # 5 CP2bar", c1=[0] * 6, c2=c2) for c2 in (0, 1)]

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
    (("invariants", "--base", "CP2", "--blowups", "-1"), "blowups"),
    (("invariants", "--base", "CP2", "--blowups", str(BLOWUP_CAP + 1)), "blowups"),
    (("invariants", "--base", "CP2", "--c1", NINES), "--c1.*digits"),
    (("invariants", "--base", "CP2", "--c2", NINES), "--c2.*digits"),
    (("transition", "--base", "CP2", "--c2", NINES), "--c2.*digits"),
    (compare({"local_model": 1}, None, "--bound", NINES), "--bound.*digits"),
    (compare({"local_model": 1}, None, "--primes", "2,a"), "--primes"),
    (compare(*RANK_7_SIDES, "--primes", "11"), "prime 11"),
    (compare(over("CP2", c1=[1], c2=0)), BUDGET, {BUDGET: "not-a-number"}),
    (("verify-paper",), BUDGET, {BUDGET: "-5"}),
    (compare(None), r"No such file.*\.json"),
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
    (compare({"transition": {"base": "S4", "swap": 1}}), "swap"),
    (compare(over({"matrix": [[1.5]], "w2": [1]})), "matrix"),
    (compare(over({"matrix": [["x"]], "w2": [1]})), "matrix"),
    (compare(over({"matrix": 1, "w2": [1]})), "matrix"),
    (compare(over({"matrix": [[1]], "w2": [1.0]})), "w2"),
    (compare(over(dict(CP2_OBJ, c1_tangent=[3.0]))), "c1_tangent"),
    (compare(over(dict(CP2_OBJ, simply_connected=0))), "simply_connected"),
    (compare(over(dict(CP2_OBJ, label=5))), "label"),
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
SIDES = conitop.conifold_transition(S4, conitop.trivial_bundle(S4))
TRANSITION_ARGS = (SIDES.z1, SIDES.z2, SIDES.e1, SIDES.e2, S4, SIDES.bundle)

LIBRARY_ROWS = [
    ("IntersectionForm(((1, 0),))", "square"),
    ("IntersectionForm([[0, 1]])", "square"),
    ("IntersectionForm(((0, 1), (2, 0)))", "symmetric"),
    ("IntersectionForm(((1.0,),))", "integer"),
    ("HYPERBOLIC.evaluate((1,), (1, 0))", "length"),
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
    ("RankTwoBundle(CP2, (1,), 0.5)", "c2"),
    ("RankTwoBundle(CP2, (1, 0), 0)", "length"),
    ("RankTwoBundle(CP2, (True,), 0)", "c1.*is not an integer"),
    ("RankTwoBundle(CP2, (1.7,), 0)", "is not an integer"),
    ("RankTwoBundle(CP2, (1,), 0.9)", "is not an integer"),
    ("RankTwoBundle(CP2, (1,), False)", "is not an integer"),
    ("twist(trivial_bundle(CP2), (1, 2))", "length"),
    ("projectivize(CP2, trivial_bundle(S4))", "base"),
    ("conifold_transition(CP2, trivial_bundle(S4))", "base"),
    ("conifold_transition(S4, trivial_bundle(S4), swap=1)", "^swapped "),
    ("TransitionResult(*TRANSITION_ARGS, swapped='no')", "^swapped "),
    ("local_model_system(3)", "local_model"),
    ("InvariantSystem(2, (((0, 1, 0), 1),), (0, 0), (0, 0), 0)", "sorted"),
    ("InvariantSystem(2, (((0, 0, 1), 1), ((0, 0, 1), 1)), (0, 0), (0, 0), 0)", "duplicated"),
    ("InvariantSystem(2, (((1, 1, 1), 3), ((0, 0, 1), 2)), (0, 0), (0, 0), 0)", "out of order"),
    ("InvariantSystem(2, (((0, 0, 2), 2),), (0, 0), (0, 0), 0)", "range"),
    ("InvariantSystem(2, (((0, 0, 1), 0),), (0, 0), (0, 0), 0)", "nonzero"),
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
    ("make_system(1, {(0, 0, 0): 1}, p1=(0, 0), w2=(0,))", "length"),
    ("make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(2,))", "0 or 1"),
    ("make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(0,), c1_class=(1,))", "lift"),
    ("make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(0,), b3=-1)", "b3"),
    ("make_system(2, {(0, 0, 5): 3, (0, 0, 0): 1}, p1=(0, 0), w2=(0, 0))", r"\(0, 0, 5\)"),
    ("make_system(1, {}, (0,), (0,), basis_labels=(1,))", "^basis_labels "),
    ("make_system(1, {}, (0,), (0,), classifiable='yes')", "^classifiable "),
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
    ("IsomorphismWitness(((1.0,),))", "witness matrix.*is not an integer"),
    ("IsomorphismWitness([[1.5]])", "is not an integer"),
    ("IsomorphismWitness([[True]])", "is not an integer"),
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
        eval(call, vars(conitop) | globals())


# -- random descriptors --------------------------------------------------------

DESCRIPTOR_KEYS = (
    "schema", "system", "projectivize", "local_model", "transition", "side", "blowups", "base",
    "c1", "c2", "swap", "matrix", "w2", "c1_tangent", "label", "simply_connected", "rank", "mu",
    "p1", "b3", "c1_class", "basis_labels", "classifiable",
)


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


def test_random_descriptors_exit_0_to_3_and_meet_the_exit_1_contract(tmp_path, capsys, monkeypatch):
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
            # the field at fault is a descriptor key, or the manifold or form a base describes
            line = input_error(capsys, code)
            assert re.search("|".join(DESCRIPTOR_KEYS + ("manifold", "form")), line), line
        else:
            assert code in (0, 2, 3)
            capsys.readouterr()

    run()
