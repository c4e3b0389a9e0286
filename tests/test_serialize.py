import json
import random
from functools import reduce

import pytest

from conitop import (
    DistinctnessCertificate,
    RankTwoBundle,
    ValidationError,
    certify_distinct,
    conifold_transition,
    find_isomorphism,
    local_model_system,
    make_system,
    projectivize,
    standard,
    trivial_bundle,
)
from conitop import serialize

from oracles import CATALOG, connected_sum_pair_reference, manifold_fields


def test_manifold_round_trip_catalog_and_explicit():
    for name in ("S4", "CP2", "CP2bar", "S2xS2"):
        n = standard(name)
        assert serialize.manifold_from_obj(serialize.manifold_to_obj(n)) == n


def test_sum_expression_examples():
    n = serialize.parse_sum_expression("CP2 # 3 CP2bar")
    assert n.rank == 4
    assert n.label == "CP2 # CP2bar # CP2bar # CP2bar"
    assert serialize.parse_sum_expression("S4").rank == 0
    assert serialize.parse_sum_expression("2 S2xS2").rank == 4


def test_system_round_trip_all_constructors():
    s4 = standard("S4")
    t = conifold_transition(s4, trivial_bundle(s4))
    cp2 = standard("CP2")
    samples = [
        local_model_system(1),
        local_model_system(2),
        t.z1,
        t.z2,
        projectivize(cp2, RankTwoBundle(cp2, (1,), 0)),
        make_system(0, {}, p1=(), w2=()),
    ]
    for s in samples:
        assert serialize.system_from_obj(serialize.system_to_obj(s)) == s


def test_witness_round_trip():
    m1 = local_model_system(1)
    bar = standard("CP2bar")
    side = projectivize(bar, RankTwoBundle(bar, (-1,), -1))
    w = find_isomorphism(m1, side, bound=3, check_c1=True)
    assert serialize.witness_from_obj(serialize.witness_to_obj(w)) == w
    assert serialize.witness_from_obj({"matrix": [[1]], "preserves_c1": True}).preserves_c1 is True


def test_certificate_round_trip_all_kinds():
    s4 = standard("S4")
    t = conifold_transition(s4, trivial_bundle(s4))
    fp = certify_distinct(t.z1, t.z2)
    assert serialize.certificate_from_obj(serialize.certificate_to_obj(fp)) == fp
    rank_cert = DistinctnessCertificate("rank", None, (1, 2))
    assert serialize.certificate_from_obj(serialize.certificate_to_obj(rank_cert)) == rank_cert
    b3_cert = DistinctnessCertificate("b3", None, (0, 2))
    assert serialize.certificate_from_obj(serialize.certificate_to_obj(b3_cert)) == b3_cert
    with pytest.raises(Exception):
        serialize.certificate_from_obj({"kind": "mystery", "prime": None, "detail": []})


def test_parse_sum_expression_equals_pairwise_fold():
    rng = random.Random(1018)
    texts = ["S4 # CP2", "CP2 # S4 # CP2bar", "CP2 # S4", "0 CP2 # S4", "2 S4 # 0 CP2 # S2xS2"]
    for _ in range(200):
        terms = [(rng.choice(CATALOG), rng.choice(("", "0 ", "1 ", "2 ", "3 "))) for _ in range(4)]
        texts.append(" # ".join(count + name for name, count in terms[: rng.randint(1, 4)]))
    for text in texts:
        pieces = []
        for term in text.split("#"):
            *count, name = term.split()
            pieces += [standard(name)] * (int(count[0]) if count else 1)
        if not pieces:
            with pytest.raises(ValidationError):
                serialize.parse_sum_expression(text)
            continue
        expected = reduce(connected_sum_pair_reference, pieces)
        parsed = serialize.parse_sum_expression(text)
        assert manifold_fields(parsed) == manifold_fields(expected), text


def test_form_rank_cap():
    cap = serialize.MAX_FORM_RANK
    assert serialize.parse_sum_expression(f"{cap // 2} S2xS2").rank == cap


def test_system_descriptor_shapes():
    z2 = serialize.system_from_descriptor({"transition": {"base": "S4"}, "side": "z2"})
    s4 = standard("S4")
    assert z2 == conifold_transition(s4, trivial_bundle(s4)).z2
    m = serialize.system_from_descriptor({"local_model": 2})
    assert m == local_model_system(2)
    p = serialize.system_from_descriptor(
        {"projectivize": {"base": "S4", "c2": -1}, "blowups": 1}
    )
    assert p.rank == 2 and p.basis_labels == ("a", "z'")


def test_swapped_transition_descriptor():
    doc = {"transition": {"base": "S4", "swap": True}, "side": "z1"}
    s4 = standard("S4")
    plain = conifold_transition(s4, trivial_bundle(s4))
    assert serialize.system_from_descriptor(doc) == plain.z2



def _json_documents(st):
    """Nested documents of every type ``json_canonical`` takes, int rows among them."""
    big = 10**1000 - 1
    ints = st.integers(-3, 3) | st.integers() | st.integers(-big, big)
    odd = ("", "\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600", '"\\/')
    strings = st.text() | st.sampled_from(odd)
    scalars = st.none() | st.booleans() | ints | strings
    rows = st.lists(st.lists(ints, max_size=5) | st.tuples(ints, ints), max_size=5)

    def one_length(n):  # rows of n ints, which take the row template, or with [] mixed in
        row = st.lists(ints, min_size=n, max_size=n) | st.tuples(*[ints] * n)
        return st.lists(row, min_size=1, max_size=5) | st.lists(row | st.just([]), max_size=5)

    rows |= st.integers(1, 5).flatmap(one_length)
    return st.recursive(
        scalars | rows,
        lambda inner: (
            st.lists(inner, max_size=5)
            | st.lists(inner, max_size=5).map(tuple)
            | st.dictionaries(strings, inner, max_size=5)
        ),
        max_leaves=30,
    )


def test_json_canonical_is_json_dumps_byte_for_byte():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @hypothesis.given(_json_documents(hypothesis.strategies))
    def run(doc):
        assert serialize.json_canonical(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    run()


@pytest.mark.parametrize(
    "doc", [1.5, [1, 2.0], [[1], [2.0]], {"a": {1, 2}}, {1: 2}, {"a": 1, 2: 3}, {"a": [{(1,): 0}]}]
)
def test_json_canonical_refuses_what_it_does_not_render(doc):
    with pytest.raises(TypeError):
        serialize.json_canonical(doc)


BIG = 10**1000 - 1  # the largest descriptor integer, 1,000 digits


@pytest.mark.parametrize(
    "doc",
    [
        [[BIG, -BIG, 0, 1]] * 3,
        {"mu": [[0, 0, 1, -BIG], [0, 1, 1, BIG]], "rows": [(BIG,), (-BIG,)]},
        [[BIG, 1], [], [2, -BIG]],
        [[BIG**4], [-(BIG**4)]],
    ],
)
def test_json_canonical_renders_rows_of_long_ints_as_json_dumps(doc):
    assert serialize.json_canonical(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_json_canonical_refuses_a_row_int_past_the_digit_limit_as_json_dumps():
    doc = {"rows": [[1, 2], [3, 10**4300]]}  # 4,301 digits
    with pytest.raises(ValueError) as expected:
        json.dumps(doc, sort_keys=True, indent=2)
    with pytest.raises(ValueError) as raised:
        serialize.json_canonical(doc)
    assert str(raised.value) == str(expected.value)
