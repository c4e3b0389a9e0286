import random

import pytest

from conitop import (
    RankTwoBundle,
    blowup_point,
    conifold_transition,
    find_isomorphism,
    local_model_system,
    projectivize,
    standard,
    trivial_bundle,
    verify_witness,
)
from conitop.intmat import matvec
from conitop.serialize import manifold_to_obj, parse_sum_expression

from oracles import mu_list, nonzero_entries_reference, random_bundle, random_catalog_sum


def test_local_model_values():
    m1 = local_model_system(1)
    # (xxx), (xxz), (xzz), (zzz)
    assert mu_list(m1) == [0, 1, -1, 0]
    assert m1.p1 == (0, 0)
    assert m1.w2 == (0, 0)
    assert m1.b3 == 0
    assert m1.c1_class == (2, 0)
    m2 = local_model_system(2)
    assert mu_list(m2) == [0, 1, -1, 1]
    assert m2.p1 == (0, 4)
    assert m2.w2 == (0, 0)
    assert m2.c1_class == (2, 0)


def test_transition_trivial_over_cp2():
    cp2 = standard("CP2")
    t = conifold_transition(cp2, trivial_bundle(cp2))
    assert t.e1.base.label == "CP2 # CP2bar"
    assert t.e1.c1 == (0, -1)
    assert t.e1.c2 == -1
    assert t.e2.base == cp2
    assert t.e2.c1 == (0,)
    assert t.e2.c2 == -1


def test_transition_trivial_over_s4_recovers_reference_bundle():
    s4 = standard("S4")
    t = conifold_transition(s4, trivial_bundle(s4))
    assert t.e1.base.form.matrix == ((-1,),)
    assert t.e1.c1 == (-1,)
    assert t.e1.c2 == -1
    # blowup side values in basis (a, z')
    assert mu_list(t.z2) == [1, 0, 0, -1]
    assert t.z2.p1 == (4, -4)


def test_transition_rank_bookkeeping():
    rng = random.Random(77)
    for _ in range(20):
        base = random_catalog_sum(rng)
        e = random_bundle(rng, base)
        t = conifold_transition(base, e)
        assert t.z1.rank == base.rank + 2
        assert t.z2.rank == base.rank + 2
        assert t.e1.c2 == t.e2.c2 == e.c2 - 1
        assert t.e2.base == base


def test_transition_result_is_its_two_sides():
    s4 = standard("S4")
    t = conifold_transition(s4, trivial_bundle(s4))
    assert t.fields == ("z1", "z2", "e1", "e2")
    assert not hasattr(t, "base") and not hasattr(t, "bundle")
    with pytest.raises(TypeError):
        conifold_transition(s4, trivial_bundle(s4), swap=True)


def test_local_model_1_matches_bundle_side():
    m1 = local_model_system(1)
    bar = standard("CP2bar")
    side = projectivize(bar, RankTwoBundle(bar, (-1,), -1))
    assert find_isomorphism(m1, side, bound=3) is not None
    named = ((1, 0), (0, -1))  # x -> a, z -> -y
    assert verify_witness(m1, side, named)
    assert verify_witness(m1, side, named, check_c1=True)


def test_local_model_2_matches_blowup_side():
    m2 = local_model_system(2)
    s4 = standard("S4")
    side = blowup_point(projectivize(s4, RankTwoBundle(s4, (), -1)))
    assert find_isomorphism(m2, side, bound=3) is not None
    named = ((1, 0), (1, -1))  # x -> a + z', z -> -z'
    assert verify_witness(m2, side, named)
    assert verify_witness(m2, side, named, check_c1=True)


def test_named_witness_pullbacks_send_fiber_class_correctly():
    """The inverse witnesses pull the fiber class a back to x (side 1) and
    to x + z (side 2), matching how the identification restricts to the
    trivialized chart."""
    from conitop.intmat import inverse_unimodular, transpose

    named1 = ((1, 0), (0, -1))
    named2 = ((1, 0), (1, -1))
    cols1 = transpose(inverse_unimodular(named1))
    cols2 = transpose(inverse_unimodular(named2))
    assert cols1[0] == (1, 0)  # a pulls back to x
    assert cols2[0] == (1, 1)  # a pulls back to x + z


def test_named_witnesses_transport_c1_explicitly():
    m1, m2 = local_model_system(1), local_model_system(2)
    bar, s4 = standard("CP2bar"), standard("S4")
    side1 = projectivize(bar, RankTwoBundle(bar, (-1,), -1))
    side2 = blowup_point(projectivize(s4, RankTwoBundle(s4, (), -1)))
    assert matvec(((1, 0), (0, -1)), m1.c1_class) == side1.c1_class
    assert matvec(((1, 0), (1, -1)), m2.c1_class) == side2.c1_class


def test_transition_matches_local_models_through_s4_case():
    """The two sides of the trivial transition over S4 are exactly the
    local models, up to the found isomorphisms."""
    s4 = standard("S4")
    t = conifold_transition(s4, trivial_bundle(s4))
    w1 = find_isomorphism(local_model_system(1), t.z1, bound=3, check_c1=True)
    w2 = find_isomorphism(local_model_system(2), t.z2, bound=3, check_c1=True)
    assert w1 is not None and w1.preserves_c1
    assert w2 is not None and w2.preserves_c1


def test_sum_forms_build_their_dense_matrix_only_for_a_report():
    base = parse_sum_expression("CP2 # 5 CP2bar # 125 S2xS2")
    c1 = tuple(range(-128, 128))
    t = conifold_transition(base, RankTwoBundle(base, c1, 3))
    sides = (base, t.e1.base)  # the base and base # CP2bar
    assert [n.rank for n in sides] == [256, 257]
    for n in sides:
        # the dense matrix, cell by cell: CP2, five CP2bar, 125 hyperbolic planes
        # and, on base # CP2bar, one more CP2bar
        rows = [[0] * n.rank for _ in range(n.rank)]
        for i, v in enumerate([1] + [-1] * 5 + [0] * 250 + [-1] * (n.rank - 256)):
            rows[i][i] = v
        for i in range(6, 256, 2):
            rows[i][i + 1] = rows[i + 1][i] = 1
        form = n.form
        assert "matrix" not in vars(form), n.label
        assert form.entries == nonzero_entries_reference(rows)
        assert manifold_to_obj(n)["matrix"] == rows
        assert "matrix" in vars(form) and form.matrix == tuple(map(tuple, rows))
    # z1 holds the entries of base # CP2bar as mu(a, y_i, y_j)
    assert {(i - 1, j - 1, v) for (_, i, j), v in t.z1.mu if i} == set(t.e1.base.form.entries)
