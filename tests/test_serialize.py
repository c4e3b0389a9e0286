import random
from functools import reduce

import pytest

from conitop import (
    DescriptorError,
    DistinctnessCertificate,
    RankTwoBundle,
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


def test_sum_expression_errors():
    with pytest.raises(DescriptorError):
        serialize.parse_sum_expression("")
    with pytest.raises(DescriptorError):
        serialize.parse_sum_expression("CP2 # ")
    with pytest.raises(DescriptorError):
        serialize.parse_sum_expression("-1 CP2")
    with pytest.raises(DescriptorError):
        serialize.parse_sum_expression("K3")
    with pytest.raises(DescriptorError):
        serialize.parse_sum_expression("2 CP2 CP2bar")


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


def test_system_obj_rejects_bad_entries():
    with pytest.raises(DescriptorError):
        serialize.system_from_obj({"rank": 1, "mu": [[0, 0, 1]], "p1": [0], "w2": [0], "b3": 0})
    with pytest.raises(DescriptorError):
        serialize.system_from_obj({"rank": 1, "mu": [[0, 0, 1, 5]], "p1": [0], "w2": [0], "b3": 0})
    with pytest.raises(DescriptorError):
        serialize.system_from_obj({"rank": 1, "mu": [], "p1": [0], "w2": [0]})
    with pytest.raises(DescriptorError):
        serialize.system_from_obj(
            {"rank": 1, "mu": [[0, 0, 0, 1], [0, 0, 0, 2]], "p1": [0], "w2": [0], "b3": 0}
        )


def test_witness_round_trip():
    m1 = local_model_system(1)
    bar = standard("CP2bar")
    side = projectivize(bar, RankTwoBundle(bar, (-1,), -1))
    w = find_isomorphism(m1, side, bound=3, check_c1=True)
    assert serialize.witness_from_obj(serialize.witness_to_obj(w)) == w


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
            with pytest.raises(DescriptorError):
                serialize.parse_sum_expression(text)
            continue
        expected = reduce(connected_sum_pair_reference, pieces)
        parsed = serialize.parse_sum_expression(text)
        assert manifold_fields(parsed) == manifold_fields(expected), text


def test_form_rank_cap():
    cap = serialize.MAX_FORM_RANK
    assert serialize.parse_sum_expression(f"{cap // 2} S2xS2").rank == cap
    # counted before any summand is repeated, so a huge count costs nothing
    for text in (f"{cap + 1} CP2", f"{cap} CP2 # CP2bar", "1000000000000 S4", "9" * 5000 + " CP2"):
        with pytest.raises(DescriptorError, match="limit|range"):
            serialize.parse_sum_expression(text)
    with pytest.raises(DescriptorError, match="matrix"):
        serialize.manifold_from_obj({"matrix": [[]] * (cap + 1), "w2": []})


def test_witness_and_certificate_decoding_is_strict():
    ok = {"matrix": [[1]], "preserves_c1": True}
    assert serialize.witness_from_obj(ok).preserves_c1 is True
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
    ):
        with pytest.raises(DescriptorError, match=field):
            serialize.witness_from_obj(obj)
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
    ):
        with pytest.raises(DescriptorError, match=field):
            serialize.certificate_from_obj(obj)


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
    with pytest.raises(DescriptorError):
        serialize.system_from_descriptor({"transition": {"base": "S4"}, "side": "z3"})
    with pytest.raises(DescriptorError):
        serialize.system_from_descriptor({"nonsense": 1})
    with pytest.raises(DescriptorError):
        serialize.system_from_descriptor("just a string")


def test_swapped_transition_descriptor():
    doc = {"transition": {"base": "S4", "swap": True}, "side": "z1"}
    s4 = standard("S4")
    plain = conifold_transition(s4, trivial_bundle(s4))
    assert serialize.system_from_descriptor(doc) == plain.z2


def test_loads_rejects_non_object_and_unknown_schema():
    with pytest.raises(DescriptorError):
        serialize.loads("[1, 2]")
    with pytest.raises(DescriptorError):
        serialize.loads('{"schema": "other/9"}')
