import random
from functools import reduce
from itertools import permutations

import pytest

from conitop import (
    FourManifold,
    IntersectionForm,
    ValidationError,
    connected_sum,
    direct_sum,
    p1_number,
    signature,
    standard,
)

from oracles import (
    connected_sum_pair_reference,
    manifold_fields,
    nonzero_entries_reference,
    random_catalog_sum,
    random_symmetric_rows,
)


def test_catalog_s4():
    s4 = standard("S4")
    assert s4.rank == 0
    assert signature(s4.form) == 0
    assert s4.w2 == () and s4.c1_tangent == ()


def test_catalog_cp2():
    cp2 = standard("CP2")
    assert cp2.form.matrix == ((1,),)
    # total Chern class (1+g)^3 = 1 + 3g + 3g^2: c1 = 3g, and w2 is its mod-2
    # reduction
    expected_c1 = 3
    assert cp2.c1_tangent == (expected_c1,)
    assert cp2.w2 == (expected_c1 % 2,)
    assert signature(cp2.form) == 1


def test_catalog_cp2bar():
    bar = standard("CP2bar")
    assert bar.form.matrix == ((-1,),)
    assert signature(bar.form) == -1
    assert bar.w2 == (1,)
    # blowup bookkeeping slot: the exceptional divisor class e has e.e = -1
    # and evaluates to -1 on the preferred generator, so a blowup's first
    # Chern class extends by -e = +1 times the generator on this summand
    assert bar.c1_tangent == (1,)


def test_catalog_s2xs2():
    m = standard("S2xS2")
    assert m.form.matrix == ((0, 1), (1, 0))
    assert m.w2 == (0, 0)
    assert m.c1_tangent == (2, 2)


def test_connected_sum_with_s4_is_identity():
    cp2 = standard("CP2")
    n = connected_sum(cp2, standard("S4"))
    assert n.form.matrix == cp2.form.matrix
    assert n.w2 == cp2.w2
    assert n.c1_tangent == cp2.c1_tangent
    assert n.label == "CP2"


def test_connected_sum_block_assembly():
    n = connected_sum(standard("CP2"), standard("CP2bar"))
    assert n.form.matrix == ((1, 0), (0, -1))
    assert n.w2 == (1, 1)
    assert n.c1_tangent == (3, 1)
    assert signature(n.form) == 0


def test_signature_additive_under_sum():
    bar = standard("CP2bar")
    assert signature(connected_sum(bar, bar).form) == -2


def test_p1_number_examples():
    assert p1_number(standard("S4")) == 0
    assert p1_number(standard("CP2")) == 3
    bar = standard("CP2bar")
    assert p1_number(connected_sum(bar, bar)) == -6


def test_p1_number_additive_random():
    rng = random.Random(11)
    for _ in range(25):
        n1 = random_catalog_sum(rng)
        n2 = random_catalog_sum(rng)
        assert p1_number(connected_sum(n1, n2)) == p1_number(n1) + p1_number(n2)


def _form_permuted(matrix, perm):
    return tuple(
        tuple(matrix[perm[i]][perm[j]] for j in range(len(perm))) for i in range(len(perm))
    )


def _equal_up_to_permutation(n1, n2):
    r = n1.rank
    if n2.rank != r:
        return False
    for perm in permutations(range(r)):
        if (
            _form_permuted(n1.form.matrix, perm) == n2.form.matrix
            and tuple(n1.w2[perm[i]] for i in range(r)) == n2.w2
        ):
            return True
    return False


def test_connected_sum_commutative_associative_up_to_permutation():
    a, b, c = standard("CP2"), standard("CP2bar"), standard("S2xS2")
    assert _equal_up_to_permutation(connected_sum(a, b), connected_sum(b, a))
    assert _equal_up_to_permutation(
        connected_sum(connected_sum(a, b), c), connected_sum(a, connected_sum(b, c))
    )


def test_n_ary_connected_sum_equals_pairwise_fold():
    # summands without a c1 lift, and not simply connected, beside the catalog
    no_c1 = FourManifold("E", IntersectionForm([[1]]), (1,))
    hyperbolic = IntersectionForm([[0, 1], [1, 0]])
    not_sc = FourManifold("X", hyperbolic, (0, 0), (2, 2), simply_connected=False)
    pool = [standard(name) for name in ("S4", "CP2", "CP2bar", "S2xS2")] + [no_c1, not_sc]
    s4, cp2, bar = standard("S4"), standard("CP2"), standard("CP2bar")
    cases = [[s4], [cp2], [s4, cp2, bar], [cp2, s4, bar], [cp2, bar, s4], [s4, s4, s4]]
    rng = random.Random(2026)
    for _ in range(300):
        pieces = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        pieces.insert(rng.randint(0, len(pieces)), s4)
        cases.append(pieces)
    seen_none = False
    for pieces in cases:
        expected = reduce(connected_sum_pair_reference, pieces)
        labels = [n.label for n in pieces]
        assert manifold_fields(connected_sum(*pieces)) == manifold_fields(expected), labels
        seen_none |= expected.c1_tangent is None
    assert seen_none


def test_sums_equal_their_rebuild_through_the_constructors():
    # direct_sum and connected_sum store block sums of checked summands without
    # a second check; the public constructors must give the same values
    no_c1 = FourManifold("E", IntersectionForm([[1]]), (1,))
    not_sc = FourManifold("X", IntersectionForm([[0, 1], [1, 0]]), (0, 0), (2, 2), False)
    pool = [standard(name) for name in ("S4", "CP2", "CP2bar", "S2xS2")] + [no_c1, not_sc]
    rng = random.Random(2210)
    ranks = set()
    for _ in range(100):
        total = connected_sum(*(rng.choice(pool) for _ in range(rng.randint(1, 30))))
        form = IntersectionForm(total.form.matrix)
        rebuilt = FourManifold(total.label, form, total.w2, total.c1_tangent, total.simply_connected)
        assert rebuilt == total and hash(rebuilt) == hash(total), total.label
        assert signature(form) == signature(total.form)
        ranks.add(total.rank)
        # forms that are no manifold's: degenerate and not unimodular ones too
        blocks = [IntersectionForm(random_symmetric_rows(rng, rng.randint(0, 4))) for _ in range(3)]
        summed = direct_sum(*blocks)
        fresh = IntersectionForm(summed.matrix)
        assert fresh == summed and hash(fresh) == hash(summed)
        for built in (total.form, summed):
            assert built.entries == nonzero_entries_reference(built.matrix), total.label
    assert max(ranks) > 30


def test_every_catalog_manifold_validates():
    for name in ("S4", "CP2", "CP2bar", "S2xS2"):
        n = standard(name)
        assert n.c1_tangent is not None
        assert tuple(v % 2 for v in n.c1_tangent) == n.w2


def test_catalog_manifolds_are_built_once():
    for name in ("S4", "CP2", "CP2bar", "S2xS2"):
        assert standard(name) is standard(name)
    for _ in range(2):  # an unknown name raises every time
        with pytest.raises(ValidationError, match="unknown catalog manifold 'K3'"):
            standard("K3")
