import random

import pytest

from conitop import (
    DistinctnessCertificate,
    IsomorphismWitness,
    RankTwoBundle,
    SearchBudgetError,
    ValidationError,
    blowup_point,
    certificate_is_valid,
    certify_distinct,
    conifold_transition,
    find_isomorphism,
    fingerprint,
    has_even_w2_cubic,
    local_model_system,
    make_system,
    projectivize,
    standard,
    transport_system,
    trivial_bundle,
    verify_witness,
)
from conitop.equiv import spiral_entries

from oracles import (
    has_even_w2_cubic_exhaustive,
    random_bundle,
    random_catalog_sum,
    random_system,
    random_unimodular,
)


def exp_system():
    cp2 = standard("CP2")
    return projectivize(cp2, RankTwoBundle(cp2, (1,), 0))


def bundle_side_system():
    bar = standard("CP2bar")
    return projectivize(bar, RankTwoBundle(bar, (-1,), -1))


def s4_transition():
    s4 = standard("S4")
    return conifold_transition(s4, trivial_bundle(s4))


def test_spiral_entry_order():
    assert spiral_entries(3) == (0, 1, -1, 2, -2, 3, -3)


def test_verify_witness_identity():
    s = exp_system()
    identity = ((1, 0), (0, 1))
    assert verify_witness(s, s, identity)
    assert verify_witness(s, s, identity, check_c1=True)


def test_verify_witness_detects_single_mu_change():
    s = exp_system()
    perturbed = make_system(
        2,
        {(0, 0, 0): s.mu_value(0, 0, 0) + 1,
         (0, 0, 1): s.mu_value(0, 0, 1),
         (0, 1, 1): s.mu_value(0, 1, 1)},
        p1=s.p1,
        w2=s.w2,
    )
    assert not verify_witness(s, perturbed, ((1, 0), (0, 1)))


def test_verify_witness_rejects_non_unimodular_and_bad_shape():
    s = exp_system()
    assert not verify_witness(s, s, ((2, 0), (0, 1)))
    with pytest.raises(ValidationError):
        verify_witness(s, s, ((1, 0, 0), (0, 1, 0)))
    s2 = standard("S2xS2")
    rank3 = projectivize(s2, trivial_bundle(s2))
    with pytest.raises(ValidationError):
        verify_witness(s, rank3, ((1, 0), (0, 1)))


def test_witness_type_requires_unimodular_matrix():
    with pytest.raises(ValidationError):
        IsomorphismWitness(((2, 0), (0, 1)))


def test_find_isomorphism_self_is_identity_for_rigid_system():
    s = exp_system()
    w = find_isomorphism(s, s, bound=1)
    assert w is not None
    assert w.matrix == ((1, 0), (0, 1))
    assert w.preserves_c1


def test_find_isomorphism_rank_mismatch_returns_none():
    cp2 = standard("CP2")
    s = projectivize(cp2, trivial_bundle(cp2))
    assert find_isomorphism(s, local_model_system(1), bound=3) is None


def test_find_isomorphism_b3_mismatch_returns_none():
    a = make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(0,), b3=0)
    b = make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(0,), b3=2)
    assert find_isomorphism(a, b, bound=2) is None


def test_find_isomorphism_rank_zero():
    a = make_system(0, {}, p1=(), w2=())
    b = make_system(0, {}, p1=(), w2=())
    w = find_isomorphism(a, b, bound=1)
    assert w is not None and w.matrix == ()


def test_find_isomorphism_bundle_side():
    m1 = local_model_system(1)
    side = bundle_side_system()
    w = find_isomorphism(m1, side, bound=3)
    assert w is not None
    assert verify_witness(m1, side, w.matrix)
    named = ((1, 0), (0, -1))
    assert verify_witness(m1, side, named)


def test_find_isomorphism_with_c1_check():
    m1 = local_model_system(1)
    side = bundle_side_system()
    w = find_isomorphism(m1, side, bound=3, check_c1=True)
    assert w is not None and w.preserves_c1
    assert verify_witness(m1, side, w.matrix, check_c1=True)


def test_check_c1_requires_c1_data():
    a = make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(0,))
    with pytest.raises(ValidationError):
        find_isomorphism(a, a, bound=1, check_c1=True)
    with pytest.raises(ValidationError):
        verify_witness(a, a, ((1,),), check_c1=True)


def test_find_isomorphism_deterministic_and_parallel_consistent():
    m1 = local_model_system(1)
    side = bundle_side_system()
    first = find_isomorphism(m1, side, bound=3)
    again = find_isomorphism(m1, side, bound=3)
    assert first == again
    for workers in (2, 4, 8):
        assert find_isomorphism(m1, side, bound=3, workers=workers) == first
    t = s4_transition()
    seq = find_isomorphism(local_model_system(2), t.z2, bound=3)
    for workers in (2, 4, 8):
        assert find_isomorphism(local_model_system(2), t.z2, bound=3, workers=workers) == seq
    # self-compare has many witnesses scattered over first columns, which
    # stresses the earliest-in-order reduction
    self_seq = find_isomorphism(m1, m1, bound=2)
    for workers in (3, 7):
        assert find_isomorphism(m1, m1, bound=2, workers=workers) == self_seq


def test_search_budget_guard():
    zero4 = make_system(4, {}, p1=(0,) * 4, w2=(0,) * 4)
    with pytest.raises(SearchBudgetError):
        find_isomorphism(zero4, zero4, bound=3)
    # explicit generous budget lets small searches run
    assert find_isomorphism(exp_system(), exp_system(), bound=1, step_budget=10**6)


def test_bad_bound():
    with pytest.raises(ValidationError):
        find_isomorphism(exp_system(), exp_system(), bound=0)


def test_fingerprint_rank_zero():
    s = make_system(0, {}, p1=(), w2=())
    assert fingerprint(s, 5) == ((0, 0, 0),)


def test_fingerprint_guards():
    s = exp_system()
    with pytest.raises(ValidationError):
        fingerprint(s, 4)
    big = make_system(7, {}, p1=(0,) * 7, w2=(0,) * 7)
    with pytest.raises(ValidationError):
        fingerprint(big, 2)


def test_fingerprint_equal_for_isomorphic_pair():
    m1 = local_model_system(1)
    side = bundle_side_system()
    for p in (2, 3, 5):
        assert fingerprint(m1, p) == fingerprint(side, p)


def test_fingerprint_separates_transition_sides():
    t = s4_transition()
    assert any(fingerprint(t.z1, p) != fingerprint(t.z2, p) for p in (2, 3, 5))


def test_fingerprint_invariant_under_transport():
    rng = random.Random(2024)
    for _ in range(30):
        base = random_catalog_sum(rng, max_pieces=2)
        e = random_bundle(rng, base)
        s = projectivize(base, e)
        if rng.random() < 0.3:
            s = blowup_point(s)
        a = random_unimodular(rng, s.rank)
        moved = transport_system(s, a)
        assert verify_witness(s, moved, a, check_c1=s.c1_class is not None)
        for p in (2, 3, 5):
            assert fingerprint(s, p) == fingerprint(moved, p)


def test_transported_system_admits_the_witness():
    rng = random.Random(99)
    for _ in range(20):
        base = random_catalog_sum(rng, max_pieces=2)
        s = projectivize(base, random_bundle(rng, base))
        a = random_unimodular(rng, s.rank)
        assert verify_witness(s, transport_system(s, a), a)


def test_even_w2_cubic_on_constructed_systems():
    rng = random.Random(3)
    for _ in range(20):
        base = random_catalog_sum(rng)
        s = projectivize(base, random_bundle(rng, base))
        assert has_even_w2_cubic(s)
    assert has_even_w2_cubic(local_model_system(1))
    assert has_even_w2_cubic(blowup_point(exp_system()))


def test_even_w2_cubic_matches_exhaustive_oracle():
    rng = random.Random(12)
    outcomes = set()
    for rank in range(7):
        for _ in range(15):
            s = random_system(rng, rank)
            for t in (s, transport_system(s, random_unimodular(rng, rank))):
                expected = has_even_w2_cubic_exhaustive(t)
                assert has_even_w2_cubic(t) == expected
                outcomes.add(expected)
    assert outcomes == {True, False}


def test_certificate_rejects_odd_prime_without_even_w2_cubic():
    # mu(w, a, a) = 1 is odd, so an odd-p fingerprint is no invariant here
    s = make_system(2, {(0, 0, 0): 1, (0, 0, 1): 1, (1, 1, 1): 2}, (0, 1), (1, 0))
    a = ((1, 1), (0, 1))
    t = transport_system(s, a)
    assert verify_witness(s, t, a)
    assert not has_even_w2_cubic(s)
    f_s, f_t = fingerprint(s, 3), fingerprint(t, 3)
    assert f_s != f_t
    cert = DistinctnessCertificate("fingerprint", 3, (f_s, f_t))
    assert not certificate_is_valid(cert, s, t)


def test_certify_distinct_self_is_none():
    s = exp_system()
    assert certify_distinct(s, s) is None


def test_certify_distinct_rank_and_b3():
    a = make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(0,))
    b = make_system(2, {}, p1=(0, 0), w2=(0, 0))
    cert = certify_distinct(a, b)
    assert cert.kind == "rank" and cert.detail == (1, 2)
    assert certificate_is_valid(cert, a, b)
    c = make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(0,), b3=4)
    cert = certify_distinct(a, c)
    assert cert.kind == "b3"
    assert certificate_is_valid(cert, a, c)


def test_certify_skips_fingerprints_above_rank_limit():
    a = make_system(7, {}, p1=(0,) * 7, w2=(0,) * 7)
    b = make_system(7, {(0, 0, 0): 1}, p1=(0,) * 7, w2=(0,) * 7)
    # mu differs, but rank 7 exceeds the fingerprint window: inconclusive
    assert certify_distinct(a, b) is None


def test_certify_distinct_transition_sides():
    t = s4_transition()
    cert = certify_distinct(t.z1, t.z2)
    assert cert is not None and cert.kind == "fingerprint"
    assert cert.prime in (2, 3, 5)
    assert certificate_is_valid(cert, t.z1, t.z2)
    cp2 = standard("CP2")
    t2 = conifold_transition(cp2, trivial_bundle(cp2))
    cert2 = certify_distinct(t2.z1, t2.z2)
    assert cert2 is not None and cert2.kind == "fingerprint"
    assert certificate_is_valid(cert2, t2.z1, t2.z2)


def test_certify_skips_odd_primes_without_even_w2_cubic():
    # artificial non-geometric data: mu(w,x,x) odd for some x
    weird1 = make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(1,), c1_class=(1,))
    weird2 = transport_system(weird1, ((-1,),))
    assert not has_even_w2_cubic(weird1)
    cert = certify_distinct(weird1, weird2, primes=(3, 5))
    assert cert is None  # odd primes skipped: soundness over separation
    assert certify_distinct(weird1, weird2, primes=(2,)) is None


def brute_force_rank2_witnesses(s1, s2, span=3, require_c1=False):
    """Independent oracle: every GL(2,Z) matrix with entries in [-span, span]
    that transports (mu, p1, w2) from s1 to s2, checked with its own loops."""
    from itertools import product as iproduct

    found = []
    for a, b, c, d in iproduct(range(-span, span + 1), repeat=4):
        if a * d - b * c not in (1, -1):
            continue
        cols = ((a, c), (b, d))  # images of the two basis vectors
        ok = True
        for i in range(2):
            for j in range(i, 2):
                for k in range(j, 2):
                    value = 0
                    for p in range(2):
                        for q in range(2):
                            for t in range(2):
                                value += (
                                    cols[i][p]
                                    * cols[j][q]
                                    * cols[k][t]
                                    * s2.mu_value(p, q, t)
                                )
                    if value != s1.mu_value(i, j, k):
                        ok = False
        for i in range(2):
            if sum(s2.p1[p] * cols[i][p] for p in range(2)) != s1.p1[i]:
                ok = False
        for p in range(2):
            image = sum(cols[i][p] * s1.w2[i] for i in range(2))
            if image % 2 != s2.w2[p]:
                ok = False
        if ok and require_c1 and s1.c1_class is not None and s2.c1_class is not None:
            for p in range(2):
                if sum(cols[i][p] * s1.c1_class[i] for i in range(2)) != s2.c1_class[p]:
                    ok = False
        if ok:
            found.append(((a, b), (c, d)))
    return found


def test_brute_force_oracle_agrees_on_lemma_pairs():
    m1 = local_model_system(1)
    side1 = bundle_side_system()
    witnesses1 = brute_force_rank2_witnesses(m1, side1)
    assert ((1, 0), (0, -1)) in witnesses1  # x -> a, z -> -y
    for rows in witnesses1:
        assert verify_witness(m1, side1, rows)
    found = find_isomorphism(m1, side1, bound=3)
    assert found.matrix in witnesses1

    m2 = local_model_system(2)
    s4 = standard("S4")
    side2 = blowup_point(projectivize(s4, RankTwoBundle(s4, (), -1)))
    witnesses2 = brute_force_rank2_witnesses(m2, side2)
    assert ((1, 0), (1, -1)) in witnesses2  # x -> a + z', z -> -z'
    for rows in witnesses2:
        assert verify_witness(m2, side2, rows)
    assert find_isomorphism(m2, side2, bound=3).matrix in witnesses2

    c1_preserving = brute_force_rank2_witnesses(m2, side2, require_c1=True)
    assert ((1, 0), (1, -1)) in c1_preserving


def test_brute_force_oracle_finds_nothing_across_distinct_pair():
    t = s4_transition()
    assert brute_force_rank2_witnesses(t.z1, t.z2) == []


def test_find_isomorphism_recovers_random_transports():
    rng = random.Random(1717)
    for _ in range(10):
        base = random_catalog_sum(rng, max_pieces=2)
        if base.rank > 2:
            base = standard("CP2")
        s = projectivize(base, random_bundle(rng, base))
        a = random_unimodular(rng, s.rank)
        moved = transport_system(s, a)
        w = find_isomorphism(s, moved, bound=2)
        assert w is not None
        assert verify_witness(s, moved, w.matrix)


def test_fingerprint_supports_prime_seven():
    m1 = local_model_system(1)
    side = bundle_side_system()
    assert fingerprint(m1, 7) == fingerprint(side, 7)
    rng = random.Random(71)
    s = projectivize(standard("CP2"), RankTwoBundle(standard("CP2"), (1,), 0))
    a = random_unimodular(rng, s.rank)
    assert fingerprint(s, 7) == fingerprint(transport_system(s, a), 7)


def test_verify_witness_rejects_w2_and_p1_mismatch():
    base = make_system(1, {(0, 0, 0): 0}, p1=(0,), w2=(0,))
    w2_flipped = make_system(1, {(0, 0, 0): 0}, p1=(0,), w2=(1,))
    p1_shifted = make_system(1, {(0, 0, 0): 0}, p1=(2,), w2=(0,))
    identity = ((1,),)
    assert not verify_witness(base, w2_flipped, identity)
    assert not verify_witness(base, p1_shifted, identity)


def test_local_model_self_witness_follows_enumeration_order():
    # the first verified matrix under the fixed entry order 0, 1, -1, ...
    # is x -> z, z -> -x-z here, not the identity; pinning it guards the
    # enumeration-order contract
    m1 = local_model_system(1)
    w = find_isomorphism(m1, m1, bound=1)
    assert w.matrix == ((0, -1), (1, -1))
    assert verify_witness(m1, m1, w.matrix)


def test_mutual_exclusion_window():
    pairs = []
    t = s4_transition()
    pairs.append((t.z1, t.z2))
    pairs.append((local_model_system(1), bundle_side_system()))
    pairs.append((local_model_system(1), local_model_system(2)))
    for s1, s2 in pairs:
        cert = certify_distinct(s1, s2)
        witness = find_isomorphism(s1, s2, bound=2)
        assert not (cert is not None and witness is not None)
