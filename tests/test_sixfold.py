import random

from conitop import (
    InvariantSystem,
    RankTwoBundle,
    blowup_point,
    cp3bar_system,
    euler_characteristic,
    make_system,
    projectivize,
    standard,
    transport_system,
    trivial_bundle,
    twist,
    twist_witness,
    verify_witness,
)
from conitop.sixfold import triple_indices

from oracles import (
    mu_eval_dense,
    mu_list,
    pull_back_dense,
    random_bundle,
    random_catalog_sum,
    random_system,
    random_unimodular,
    ring_oracle_system,
)


def assert_matches_ring_oracle(base, e):
    s = projectivize(base, e)
    mu, p1, w2, c1 = ring_oracle_system(base, e)
    for ijk, value in s.mu_items():
        assert value == mu[ijk], (ijk, base.label)
    assert s.p1 == p1
    assert s.w2 == w2
    assert s.c1_class == c1


def test_projectivize_over_s4():
    s4 = standard("S4")
    s = projectivize(s4, trivial_bundle(s4))
    assert s.rank == 1 and s.b3 == 0
    assert mu_list(s) == [0]
    assert s.p1 == (0,) and s.w2 == (0,)
    assert s.basis_labels == ("a",)


def test_projectivize_spot_values_over_cp2():
    cp2 = standard("CP2")
    s = projectivize(cp2, RankTwoBundle(cp2, (1,), 0))
    # triples in order (aaa), (aay), (ayy), (yyy)
    assert mu_list(s) == [1, -1, 1, 0]
    assert s.p1 == (4, 0)
    assert s.w2 == (0, 0)
    assert s.b3 == 0


def test_projectivize_bundle_side_over_cp2bar():
    bar = standard("CP2bar")
    s = projectivize(bar, RankTwoBundle(bar, (-1,), -1))
    assert mu_list(s) == [0, -1, -1, 0]
    assert s.p1 == (0, 0)
    assert s.w2 == (0, 0)
    assert_matches_ring_oracle(bar, RankTwoBundle(bar, (-1,), -1))


def test_projectivize_matches_ring_oracle_random():
    rng = random.Random(31337)
    for _ in range(40):
        base = random_catalog_sum(rng)
        e = random_bundle(rng, base)
        assert_matches_ring_oracle(base, e)


def test_projectivize_base_slots_vanish():
    rng = random.Random(5)
    for _ in range(20):
        base = random_catalog_sum(rng)
        e = random_bundle(rng, base)
        s = projectivize(base, e)
        r = s.rank
        for i in range(1, r):
            assert s.p1[i] == 0
            for j in range(i, r):
                for k in range(j, r):
                    assert s.mu_value(i, j, k) == 0
        assert s.w2[0] == 0


def test_mu_accessor_fully_symmetric():
    cp2 = standard("CP2")
    s = projectivize(cp2, RankTwoBundle(cp2, (1,), 0))
    for i, j, k in triple_indices(s.rank):
        value = s.mu_value(i, j, k)
        assert value == s.mu_value(k, j, i) == s.mu_value(j, k, i)


def test_labeled_classes():
    cp2 = standard("CP2")
    s = projectivize(cp2, RankTwoBundle(cp2, (1,), 0))
    assert s.basis_labels == ("a", "y1")
    a, y = (1, 0), (0, 1)
    assert s.cubic(a) == 1
    assert s.mu_eval(a, a, y) == -1
    assert s.p1_pairing(a) == 4
    assert s.c1_class == (2, 4)
    stripped = make_system(1, {(0, 0, 0): 0}, p1=(0,), w2=(0,))
    assert stripped.c1_class is None


def test_euler_characteristic():
    s4, cp2 = standard("S4"), standard("CP2")
    assert euler_characteristic(projectivize(s4, trivial_bundle(s4))) == 4
    assert euler_characteristic(projectivize(cp2, trivial_bundle(cp2))) == 6
    s = projectivize(cp2, trivial_bundle(cp2))
    assert euler_characteristic(blowup_point(s)) == euler_characteristic(s) + 2


def test_euler_characteristic_of_projectivizations_random():
    rng = random.Random(6)
    for _ in range(25):
        base = random_catalog_sum(rng)
        e = random_bundle(rng, base)
        assert euler_characteristic(projectivize(base, e)) == 2 * (2 + base.rank)


def cp3bar_oracle():
    """Constants of reversed projective 3-space from (1+g)^4 and a sign flip.

    c = (1+g)^4 gives c1 = 4g, c2 = 6g^2, c3 = 4g^3, so p1 = c1^2 - 2c2
    pairs to 16 - 12 = 4 against g^3 = 1.  Reversing the orientation negates
    all top pairings.  In the normalization where the generator z' cubes to
    -1 (that is z' = g), the p1 pairing becomes -4 and w2 = 4g mod 2 = 0.
    The exceptional divisor class of a point blowup cubes to +1, hence is
    -z', and the blowup's first Chern class restricts to -2 times it: +2 z'.
    """
    binom4 = [1, 4, 6, 4, 1]
    c1, c2 = binom4[1], binom4[2]
    p1_pairing = (c1 * c1 - 2 * c2) * 1
    return {
        "mu": -1,
        "p1": -p1_pairing,
        "w2": c1 % 2,
        "c1_slot": +2,
    }


def test_cp3bar_frozen_constants_match_oracle():
    oracle = cp3bar_oracle()
    s = cp3bar_system()
    assert s.rank == 1 and s.b3 == 0
    assert s.mu_value(0, 0, 0) == oracle["mu"]
    assert s.p1 == (oracle["p1"],)
    assert s.w2 == (oracle["w2"],)
    assert s.c1_class == (oracle["c1_slot"],)
    assert s.basis_labels == ("z'",)


def test_blowup_point_block_structure():
    s4 = standard("S4")
    s = projectivize(s4, RankTwoBundle(s4, (), -1))
    b = blowup_point(s)
    assert b.rank == s.rank + 1
    assert b.basis_labels == ("a", "z'")
    assert b.mu_value(0, 0, 0) == 1
    assert b.mu_value(1, 1, 1) == -1
    assert b.mu_value(0, 0, 1) == 0 and b.mu_value(0, 1, 1) == 0
    assert b.p1 == (4, -4)
    assert b.w2 == (0, 0)
    assert b.c1_class == (2, 2)
    assert b.b3 == 0


def test_blowup_mixed_terms_vanish():
    cp2 = standard("CP2")
    s = projectivize(cp2, RankTwoBundle(cp2, (1,), 0))
    b = blowup_point(s)
    new = b.rank - 1
    for i in range(new):
        for j in range(i, new):
            assert b.mu_value(i, j, new) == 0
    assert b.p1[:2] == s.p1 and b.w2[:2] == s.w2


def test_blowup_label_uniquified():
    s4 = standard("S4")
    b = blowup_point(blowup_point(projectivize(s4, trivial_bundle(s4))))
    assert b.basis_labels == ("a", "z'", "z'2")


def test_blowup_without_c1_class_propagates_absence():
    n = standard("CP2")
    stripped = type(n)(n.label, n.form, n.w2, None)
    s = projectivize(stripped, trivial_bundle(stripped))
    assert s.c1_class is None
    assert blowup_point(s).c1_class is None


def test_make_system_stores_canonical_nonzero_entries():
    s = make_system(3, {(2, 0, 1): 4, (1, 1, 1): 0, (0, 0, 0): -1}, p1=(0,) * 3, w2=(0,) * 3)
    assert s.mu == (((0, 0, 0), -1), ((0, 1, 2), 4))
    same = make_system(3, [((0, 0, 0), -1), ((1, 2, 0), 4)], p1=(0,) * 3, w2=(0,) * 3)
    assert same == s and hash(same) == hash(s)
    assert s.mu_items()[0] == ((0, 0, 0), -1) and len(s.mu_items()) == 10
    b = blowup_point(s)
    assert b.mu == s.mu + (((3, 3, 3), -1),)
    assert make_system(2, {(1, 0, 0): 2}, p1=(0, 0), w2=(0, 0)).mu == (((0, 0, 1), 2),)
    s = make_system(1, {(0, 0, 0): 1}, p1=(4,), w2=(1,), c1_class=(3,))
    assert (s.p1, s.w2, s.c1_class) == ((4,), (1,), (3,))
    s = InvariantSystem(2, (((0, 0, 1), 2), ((1, 1, 1), 3)), (0, 0), (0, 0), 0)
    assert s.mu_value(1, 0, 0) == 2


def test_mu_eval_and_contraction_match_dense_reference():
    rng = random.Random(41)
    for rank in range(7):
        for _ in range(6):
            s = random_system(rng, rank)
            moved = transport_system(s, random_unimodular(rng, rank))
            for t in (s, moved):
                for _ in range(4):
                    x, y, z = (
                        tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(3)
                    )
                    assert t.mu_eval(x, y, z) == mu_eval_dense(t, x, y, z)


def test_pull_back_matches_dense_triple_loop():
    s = make_system(2, {(0, 0, 1): 1}, p1=(0, 0), w2=(0, 0))
    assert s.pull_back(((1, 0), (0, 1))) == s.mu
    rng = random.Random(43)
    for rank in range(7):
        for _ in range(12):
            s = random_system(rng, rank, fill=rng.choice((0.1, 0.4, 1.0)))
            unimodular = random_unimodular(rng, rank, max_entry=rng.choice((1, 2, 3)))
            arbitrary = tuple(
                tuple(rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(rank)) for _ in range(rank)
            )
            for rows in (unimodular, arbitrary):
                pulled = s.pull_back(rows)
                assert pulled == pull_back_dense(s, rows), (s, rows)
                # the canonical form of mu, so it builds a system as it stands
                assert make_system(rank, pulled, s.p1, s.w2).mu == pulled


def test_twist_sign_determined_once():
    """Fix the sign in the twist substitution a -> a + sign * sum(l_i y_i).

    Exactly one sign candidate transports the cup form on the reference
    instance (trivial bundle over the projective plane, l = (1)); it is +1,
    and the packaged witness uses it.
    """
    cp2 = standard("CP2")
    e = trivial_bundle(cp2)
    l = (1,)
    s = projectivize(cp2, e)
    s_twist = projectivize(cp2, twist(e, l))
    candidates = {
        +1: ((1, 0), (1, 1)),
        -1: ((1, 0), (-1, 1)),
    }
    verdicts = {
        sign: verify_witness(s, s_twist, matrix)
        for sign, matrix in candidates.items()
    }
    assert verdicts == {+1: True, -1: False}
    assert twist_witness(cp2, e, l) == candidates[+1]


def test_twist_witness_transports_everything_random():
    rng = random.Random(12)
    for _ in range(30):
        base = random_catalog_sum(rng, max_pieces=2)
        e = random_bundle(rng, base)
        l = tuple(rng.randint(-2, 2) for _ in range(base.rank))
        w = twist_witness(base, e, l)
        s = projectivize(base, e)
        s_twist = projectivize(base, twist(e, l))
        assert verify_witness(s, s_twist, w, check_c1=s.c1_class is not None)
