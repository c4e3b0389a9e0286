import random
import time
import tracemalloc
from itertools import combinations_with_replacement, product

import pytest

from conitop import (
    DistinctnessCertificate,
    IsomorphismWitness,
    RankTwoBundle,
    SearchBudgetError,
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
    twist,
    twist_witness,
    verify_witness,
)
from conitop import cones, equiv
from conitop.equiv import SUPPORTED_PRIMES, SearchStats, spiral_entries
from conitop.intmat import inverse_unimodular, matvec
from conitop.serialize import certificate_to_obj, json_canonical, parse_sum_expression
from conitop.sixfold import triple_indices

from oracles import (
    chain,
    cone_blocks_reference,
    cone_convolution_reference,
    find_isomorphism_reference,
    fingerprint_reference,
    has_even_w2_cubic_exhaustive,
    mu_eval_dense,
    random_bundle,
    random_catalog_sum,
    random_system,
    random_unimodular,
)


# one block, and no slot lies in every one of its triples
NON_CONE_MU = {(0, 0, 0): 1, (0, 0, 1): 1, (1, 1, 1): 1}


def vertices(s):
    """The vertex of each block of s, None for a block that is no cone."""
    return [v for v, _, _ in cones.cone_blocks(s)]


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
    assert not verify_witness(s, s, ((2, 0), (0, 1)))
    assert verify_witness(s, s, [[1, 0], [0, 1]])
    assert IsomorphismWitness([[-1]]).matrix == ((-1,),)


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


def test_find_isomorphism_deterministic():
    m1 = local_model_system(1)
    side = bundle_side_system()
    first = find_isomorphism(m1, side, bound=3)
    again = find_isomorphism(m1, side, bound=3)
    assert first == again
    t = s4_transition()
    seq = find_isomorphism(local_model_system(2), t.z2, bound=3)
    assert find_isomorphism(local_model_system(2), t.z2, bound=3) == seq
    # self-compare has many witnesses scattered over first columns; the
    # earliest in enumeration order wins every time
    self_seq = find_isomorphism(m1, m1, bound=2)
    assert find_isomorphism(m1, m1, bound=2) == self_seq


def test_search_budget_guard():
    zero4 = make_system(4, {}, p1=(0,) * 4, w2=(0,) * 4)
    with pytest.raises(SearchBudgetError):
        find_isomorphism(zero4, zero4, bound=3)
    # explicit generous budget lets small searches run
    assert find_isomorphism(exp_system(), exp_system(), bound=1, step_budget=10**6)
    one = make_system(1, {(0, 0, 0): 1}, (0,), (0,))
    assert find_isomorphism(one, one, bound=1, step_budget=3)


def test_search_budget_message_names_the_space_as_a_power():
    # (2 bound + 1)^(rank^2) was built as an int and printed: from rank 83 it has
    # more than the 4,300 digits str() allows, so the refusal raised ValueError
    for rank, bound, text in ((4, 3, "7^16"), (83, 3, "7^6889"), (258, 1, "3^66564")):
        zero = make_system(rank, {}, p1=(0,) * rank, w2=(0,) * rank)
        with pytest.raises(SearchBudgetError) as exc:
            find_isomorphism(zero, zero, bound=bound)
        assert str(exc.value) == f"search space {text} exceeds step budget {10**9}"
    # the refusal is decided as before: 3^(2^2) = 81 fits a budget of 81 and not of 80
    assert find_isomorphism(exp_system(), exp_system(), bound=1, step_budget=81)
    with pytest.raises(SearchBudgetError, match="3\\^4 exceeds step budget 80"):
        find_isomorphism(exp_system(), exp_system(), bound=1, step_budget=80)


@pytest.mark.parametrize("rank, bound", [(0, 10**12), (1, 10**8)])
def test_search_memory_does_not_grow_with_the_bound(rank, bound):
    # the raw-space gate lets ranks 0 and 1 through at such bounds; the search
    # once listed 2 bound + 1 entries, 842 MB at rank 1 and bound 3 * 10^6
    s = make_system(rank, {(0, 0, 0): 1} if rank else {}, (0,) * rank, (1,) * rank)
    stats = SearchStats()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        found = find_isomorphism(s, s, bound, stats=stats)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 1 and peak < 10 * 2**20, (seconds, peak)
    assert found == IsomorphismWitness(((1,),) if rank else ())
    # at rank 1 the witness (1) is the second raw column, after (0)
    assert stats.to_obj() == {
        "nodes": 1 + rank,
        "column_tests": 2 * rank,
        "pruned": {"table": rank, "mod2": 0, "triple": 0},
    }


def test_fingerprint_rank_zero():
    s = make_system(0, {}, p1=(), w2=())
    assert fingerprint(s, 5) == ((0, 0, 0, 1),)


def test_fingerprint_is_a_sorted_histogram():
    rng = random.Random(31)
    for rank in range(7):
        s = random_system(rng, rank)
        for p in SUPPORTED_PRIMES:
            rows = fingerprint(s, p)
            keys = [row[:3] for row in rows]
            assert all(len(row) == 4 and row[3] > 0 for row in rows)
            assert sum(row[3] for row in rows) == p**rank
            assert keys == sorted(set(keys))
            assert len(rows) <= 2 * p * p


def test_rank_six_certificate_is_a_few_rows():
    # told apart at p = 5, where a side has at most 2 p^2 = 50 rows, not 5^6
    base = parse_sum_expression("CP2 # 4 CP2bar")
    s1 = projectivize(base, RankTwoBundle(base, (0,) * 5, 0))
    s2 = projectivize(base, RankTwoBundle(base, (0,) * 5, 6))
    cert = certify_distinct(s1, s2)
    assert cert.kind == "fingerprint" and cert.prime == 5
    assert all(len(side) <= 50 for side in cert.detail)
    assert len(json_canonical(certificate_to_obj(cert))) < 4096
    assert certificate_is_valid(cert, s1, s2)


def test_fingerprint_guards():
    # only the walk has a window, (p^n - 1)/(p - 1) <= 19,608 points for n
    # slots: a 7-slot block that is no cone has a fingerprint at p = 5
    seven, eight = chain(7), chain(8)
    assert vertices(seven) == vertices(eight) == [None]
    assert sum(row[3] for row in fingerprint(seven, 5)) == 5**7
    for p in (2, 3):
        assert sum(row[3] for row in fingerprint(seven, p)) == p**7


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


def invariants(s):
    return s.mu, s.p1, s.w2, s.c1_class, s.b3


def assert_twist_round_trip(base, c1, l):
    """The twist witness verifies with c1, and transports there and back, within 30 s."""
    start = time.perf_counter()
    e = RankTwoBundle(base, c1, 3)
    s, twisted = projectivize(base, e), projectivize(base, twist(e, l))
    w = twist_witness(base, e, l)
    assert verify_witness(s, twisted, w, check_c1=True)
    moved = transport_system(s, w)
    assert invariants(moved) == invariants(twisted)
    assert invariants(transport_system(moved, inverse_unimodular(w))) == invariants(s)
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("k", (20, 80, 255))
def test_twist_witness_round_trip_at_high_rank(k):
    # ranks 22, 82 and 257; at rank 257 an inverse from r^2 minors ran over 5 minutes
    base = parse_sum_expression(f"CP2 # {k} CP2bar")
    rng = random.Random(k)
    c1 = tuple(rng.randint(-2, 2) for _ in range(base.rank))
    assert_twist_round_trip(base, c1, tuple(rng.randint(-2, 2) for _ in range(base.rank)))


def test_twist_witness_round_trip_at_rank_257_with_cyclic_data():
    # c1 and l cycle through -1..1 and -2..2, so every entry value occurs
    base = parse_sum_expression("CP2 # 255 CP2bar")
    assert base.rank + 1 == 257
    c1 = tuple(i % 3 - 1 for i in range(base.rank))
    assert_twist_round_trip(base, c1, tuple(i % 5 - 2 for i in range(base.rank)))


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


def test_odd_prime_fingerprints_agree_without_even_w2_cubic():
    # mu(w, a, a) = 1 is odd; its parity on a representative once entered the
    # odd-p key, and then these isomorphic systems had different fingerprints
    s = make_system(2, {(0, 0, 0): 1, (0, 0, 1): 1, (1, 1, 1): 2}, (0, 1), (1, 0))
    a = ((1, 1), (0, 1))
    t = transport_system(s, a)
    assert verify_witness(s, t, a)
    assert not has_even_w2_cubic(s)
    f_s, f_t = fingerprint(s, 3), fingerprint(t, 3)
    assert f_s == f_t
    cert = DistinctnessCertificate("fingerprint", 3, (f_s, f_t))
    assert not certificate_is_valid(cert, s, t)


def test_fingerprint_matches_mu_eval_reference():
    rng = random.Random(21)
    odd_diagonal = 0
    for rank in range(6):
        for _ in range(3):
            s = random_system(rng, rank)
            odd_diagonal += not has_even_w2_cubic(s)
            for p in (2, 3, 5):
                assert fingerprint(s, p) == fingerprint_reference(s, p)
    # dense mu with large entries, and unimodular transports, which fill mu
    # in: ranks up to 4 at every supported prime, ranks 5 and 6 at p = 2, 3, 5.
    # A transported system has the fingerprint of its source at every prime
    for rank in range(1, 7):
        primes = SUPPORTED_PRIMES if rank <= 4 else (2, 3, 5)
        s = random_system(rng, rank, span=9, fill=0.9)
        moved = transport_system(s, random_unimodular(rng, rank))
        for t in (s, moved):
            odd_diagonal += not has_even_w2_cubic(t)
            for p in primes:
                assert fingerprint(t, p) == fingerprint_reference(t, p), (rank, p)
        for p in SUPPORTED_PRIMES:
            assert fingerprint(moved, p) == fingerprint(s, p), (rank, p)
    assert odd_diagonal > 0


def oracle_systems(rng, rank):
    """Sparse, dense-mu and transported systems at one rank, each also with w2 = 0."""
    sparse = random_system(rng, rank)
    dense = random_system(rng, rank, span=9, fill=0.9)
    moved = transport_system(dense, random_unimodular(rng, rank))
    for s in (sparse, dense, moved):
        yield s
        yield make_system(rank, dict(s.mu), s.p1, (0,) * rank)


def test_fingerprint_closed_forms_match_reference():
    # both closed forms, p = 2 and p = 3, against a reference evaluation at every point
    rng = random.Random(41)
    parities = set()
    for rank in range(7):
        for s in oracle_systems(rng, rank):
            parities.add(has_even_w2_cubic(s))
            for p in (2, 3):
                assert fingerprint(s, p) == fingerprint_reference(s, p), (rank, p, s)
    assert parities == {True, False}


def test_mod3_fingerprint_is_uniform_on_the_image_of_a_linear_map():
    # mod 3 the key is linear in x, so the rows are the 3^d points of its
    # image, each counted 3^(rank - d) times
    rng = random.Random(44)
    systems = [random_system(rng, rank, fill=0.2) for rank in range(9)]
    # every generator (mu_iii, p1_i) is 0 mod 3, though mu and p1 are not 0
    zero = {(0, 0, 0): 3, (0, 1, 2): 1, (1, 1, 3): 2, (3, 3, 3): -6}
    systems.append(make_system(4, zero, (3, 0, -6, 0), (1, 0, 0, 1)))
    # the generators (1, 2) and (2, 1) span one line
    line = {(0, 0, 0): 1, (0, 1, 2): 1, (1, 1, 1): 2}
    systems.append(make_system(3, line, (2, 1, 0), (1, 0, 1)))
    dims = []
    for s in systems:
        rows = fingerprint(s, 3)
        assert rows == fingerprint_reference(s, 3), s
        d = {1: 0, 3: 1, 9: 2}[len(rows)]
        assert {row[3] for row in rows} == {3 ** (s.rank - d)}
        dims.append(d)
    assert set(dims) == {0, 1, 2}
    assert dims[-2:] == [0, 1]


def test_mod2_fingerprint_with_p1_zero_equal_to_the_w2_form_or_independent():
    # the p1 form P and the w2 form D give the sums S(a, b, g); P = 0 or P = D
    # makes some of the forms bP + gD coincide, so more a = 0 sums are 2^r
    rng = random.Random(45)
    assert fingerprint(make_system(0, {}, (), ()), 2) == ((0, 0, 0, 1),)
    kinds = set()
    for rank in range(1, 7):
        for _ in range(6):
            s = random_system(rng, rank)
            d = equiv._w2_square_parities(s)
            other = tuple(rng.randint(0, 1) for _ in range(rank))
            for form in ((0,) * rank, d, other):
                p1 = tuple(v + 2 * rng.randint(-2, 2) for v in form)
                t = make_system(rank, dict(s.mu), p1, s.w2)
                assert fingerprint(t, 2) == fingerprint_reference(t, 2), (rank, t)
                if not any(form):
                    kinds.add("zero")
                elif any(d):
                    kinds.add("d" if form == d else "independent")
    assert kinds == {"zero", "d", "independent"}


def test_mod2_fingerprint_with_an_odd_w2_cubic_takes_four_sign_sums():
    # the w2 form D = mu(W, x, x) mod 2 is nonzero on each of these, which no
    # built system has (the Wu relation), so the g = 1 sums are sign sums of
    # their own: with p1 = 0, p1 = D and p1 = D + e_last mod 2
    explicit = [
        (1, {(0, 0, 0): 1}, (1,)),
        (2, {(0, 0, 1): 1}, (0, 1)),
        (2, {(0, 0, 0): 2, (0, 1, 1): 3}, (1, 0)),
        (3, {(0, 0, 1): 1, (0, 1, 2): 1, (1, 2, 2): -1, (2, 2, 2): 1}, (1, 1, 1)),
        (4, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 1, 2): 5, (2, 3, 3): 1, (0, 2, 3): 2}, (0, 1, 1, 1)),
    ]
    for rank, mu, w2 in explicit:
        d = equiv._w2_square_parities(make_system(rank, mu, (0,) * rank, w2))
        assert any(d), (rank, mu, w2)
        other = tuple(int(i == rank - 1) for i in range(rank))
        for p1 in ((0,) * rank, tuple(3 * x for x in d), tuple(x - y for x, y in zip(d, other))):
            s = make_system(rank, mu, p1, w2)
            assert fingerprint(s, 2) == fingerprint_reference(s, 2), s
            assert {row[2] for row in fingerprint(s, 2)} == {0, 1}


def test_systems_hold_only_their_fields_after_every_reader():
    # every reader of mu takes the canonical entries and leaves nothing on
    # the system: no cache of orderings, blocks or histograms
    cp2 = standard("CP2")
    e = RankTwoBundle(cp2, (1,), 0)
    t = conifold_transition(cp2, e)
    pe = projectivize(cp2, e)
    a = ((1, 0, 0), (1, 1, 0), (0, 0, -1))
    moved = transport_system(t.z2, a)
    assert verify_witness(t.z2, moved, a, True)
    systems = [pe, t.z1, t.z2, moved, local_model_system(1), local_model_system(2)]
    for s in systems:
        for p in SUPPORTED_PRIMES:
            fingerprint(s, p)
        for other in systems:
            certify_distinct(s, other, SUPPORTED_PRIMES)
        for check_c1 in (False, True):
            found = find_isomorphism(s, s, 1, check_c1)
            assert verify_witness(s, s, found.matrix, check_c1)
        transport_system(s, found.matrix)
        s.mu_value(0, 0, 0)
        s.mu_items()
    for s in systems:
        assert tuple(vars(s)) == type(s).fields, s


def test_fingerprint_walk_matches_reference_on_odd_and_even_systems():
    # the walk visits the points with first nonzero coordinate 1 and scales
    # their keys, whether or not the w2 cubic is even
    rng = random.Random(42)
    parities = {5: set(), 7: set()}
    for p, top in ((5, 5), (7, 4)):
        for rank in range(top + 1):
            for s in oracle_systems(rng, rank):
                parities[p].add(has_even_w2_cubic(s))
                assert fingerprint(s, p) == fingerprint_reference(s, p), (rank, p, s)
    assert parities == {5: {True, False}, 7: {True, False}}


def signed_permutation(rng, rank):
    perm = list(range(rank))
    rng.shuffle(perm)
    return tuple(
        tuple(rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(rank))
        for i in range(rank)
    )


def cone_cases(rng):
    """Block sums of cones of rank 1 to 6, as (name, system) pairs."""
    cases = [("model 1", local_model_system(1)), ("model 2", local_model_system(2))]
    for expr in ("S4", "CP2", "S2xS2", "CP2 # CP2bar", "2 S2xS2", "CP2 # 3 CP2bar"):
        base = parse_sum_expression(expr)
        for _ in range(2):
            e = random_bundle(rng, base)
            s = projectivize(base, e)
            t = conifold_transition(base, e)
            cases += [(expr, s), (expr + " blowup", blowup_point(s))]
            cases += [(expr + " z1", t.z1), (expr + " z2", t.z2)]
            moved = transport_system(s, signed_permutation(rng, s.rank))
            cases.append((expr + " permuted", moved))
    # two cones in one system, vertices 1 and 5; then Q = 0 mod 5 and 7 with
    # p1 = 0 mod 5 and 7 on the block; then a hyperbolic Q with zero diagonal
    # and p1 off the vertex
    two = {(1, 1, 1): 2, (0, 1, 1): 1, (0, 0, 1): -1, (1, 1, 2): 3, (0, 1, 2): 1,
           (3, 5, 5): 1, (4, 5, 5): 2, (3, 3, 5): -1, (3, 4, 5): 1, (5, 5, 5): 1}
    cases.append(("two cones", make_system(6, two, (1, 0, 2, 0, 1, 3), (0,) * 6)))
    flat = {(0, 0, 0): 3, (0, 0, 1): 1, (0, 0, 2): 2, (0, 1, 1): 35, (0, 1, 2): -70}
    cases.append(("Q = 0 mod p", make_system(4, flat, (35, 70, 0, 1), (0,) * 4)))
    hyper = {(0, 0, 0): 1, (0, 0, 1): 2, (0, 1, 2): 1, (0, 3, 4): 1, (0, 3, 3): 5}
    cases.append(("hyperbolic", make_system(5, hyper, (2, 1, 0, 3, 1), (0,) * 5)))
    # a diagonal Q whose entries 5, 7 and 35 are 0 mod 5 or 7, and a Q that is
    # diagonal on some slots next to a dense and a hyperbolic part: slots that
    # meet no other are taken before any Lagrange step; flat p1, then not
    diagonal = {(0, 0, 0): 2, (0, 0, 1): 1, (0, 0, 3): 3,
                (0, 1, 1): 1, (0, 2, 2): 5, (0, 3, 3): 7, (0, 4, 4): 35}
    mixed = {(0, 0, 0): 1, (0, 0, 2): 4, (0, 1, 1): 2, (0, 1, 2): 1, (0, 2, 2): 3,
             (0, 3, 3): 10, (0, 4, 5): 1, (0, 0, 5): 1}
    for name, mu, rank in (("diagonal", diagonal, 5), ("partly diagonal", mixed, 6)):
        for p1 in ((3,) + (0,) * (rank - 1), (3, 1, 0, 2) + (0,) * (rank - 4)):
            cases.append((name, make_system(rank, mu, p1, (0,) * rank)))
    for rank in range(1, 7):
        s = random_system(rng, rank)
        vertex = rng.randrange(rank)
        mu = {ijk: v for ijk, v in s.mu if vertex in ijk}
        cases.append(("random cone", make_system(rank, mu, s.p1, s.w2)))
    return cases


def test_cone_method_matches_the_walk_and_the_reference():
    # fingerprint takes every block of these to the cone method; the walk
    # over the whole system and a reference evaluation at every point must give
    # the same rows
    rng = random.Random(57)
    seen, ranks = set(), set()
    for name, s in cone_cases(rng):
        blocks = cones.cone_blocks(s)
        assert None not in vertices(s), name
        seen.update(v for v, slots, _ in blocks if len(slots) > 1)
        ranks.add(s.rank)
        for p in (5, 7):
            rows = fingerprint(s, p)
            walk = cones._walk(s, range(s.rank), s.mu, p)
            assert rows == tuple(key + (0, n) for key, n in sorted(walk.items())), (name, p)
            if p**s.rank <= 625:
                assert rows == fingerprint_reference(s, p), (name, p)
    assert ranks == set(range(1, 7)) and len(seen) >= 4
    assert cones.cone_blocks(local_model_system(2))[0][0] == 1


def flat_cone_blocks(s, p):
    """The blocks of s, each checked to be a cone with p1 = 0 mod p off its vertex."""
    blocks = cones.cone_blocks(s)
    assert None not in (v for v, _, _ in blocks)
    assert not any(s.p1[i] % p for v, slots, _ in blocks for i in slots if i != v)
    return blocks


def test_quadric_counts_equal_the_convolution_on_flat_cones_up_to_rank_258():
    # P(E), both transition sides and a double blowup, some with the vertex
    # moved, each block counted in closed form against one convolution per
    # coordinate
    rng = random.Random(61)
    systems = []
    for expr in ("CP2", "S2xS2 # CP2bar", "CP2 # 5 CP2bar", "3 S2xS2 # 2 CP2",
                 "CP2 # 40 CP2bar", "CP2 # 5 CP2bar # 125 S2xS2"):
        base = parse_sum_expression(expr)
        e = random_bundle(rng, base)
        s, t = projectivize(base, e), conifold_transition(base, e)
        systems += [s, t.z1, t.z2]
        if base.rank < 10:
            systems.append(blowup_point(blowup_point(s)))
            systems.append(transport_system(t.z1, signed_permutation(rng, t.z1.rank)))
    assert max(s.rank for s in systems) == 258
    for s in systems:
        for p in (5, 7):
            for v0, slots, entries in flat_cone_blocks(s, p):
                got = cones._cone(s, v0, slots, entries, p)
                assert got == cone_convolution_reference(s, v0, slots, entries, p), (s.rank, p)


def quadric_branches(terms, n, p):
    """The branches of ``cones._quadric_slice`` that its terms take."""
    if any(d == 0 and b for d, b, _ in terms):
        return {"uniform"}
    out = {"rank 1"} if n == 0 else set()
    if any(d == b == 0 for d, b, _ in terms):
        out.add("zero terms")
    k = sum(count for (d, _, _), count in terms.items() if d)
    if k:
        delta = 1
        for (d, _, _), count in terms.items():
            delta *= (3 * d) ** count if d else 1
        # every value c is taken, so u = c - s0 = 0 is met on each of these
        square = pow(delta, (p - 1) // 2, p) == 1
        out.add(("k odd" if k % 2 else "k even", "square" if square else "non-square"))
    return out


def test_quadric_counts_match_every_point_on_each_branch(monkeypatch):
    # flat cones on slots 0..n, vertex 0: mu_000 = m, mu_00i = b_i, mu_0ii = d_i
    # and a few mu_0ij; p1 is 35 (0 mod 5 and 7) on every other slot, so the
    # blocks stay flat though p1 is not 0 there; 35 in mu makes a term 0 mod p
    # without disconnecting its slot
    seen = {5: set(), 7: set()}
    quadric_slice = cones._quadric_slice

    def recorded(m, terms, n, p):
        seen[p].update(quadric_branches(terms, n, p))
        return quadric_slice(m, terms, n, p)

    monkeypatch.setattr(cones, "_quadric_slice", recorded)
    rng = random.Random(63)
    systems = [make_system(1, {(0, 0, 0): 3}, (2,), (0,)), make_system(1, {}, (1,), (1,))]
    for _ in range(40):
        n = rng.randint(1, 3)
        mu = {(0, 0, 0): rng.randint(-3, 3)}
        for i in range(1, n + 1):
            d, b = rng.choice(((0, 1), (35, 0), (35, 35), (1, 0), (2, 0), (3, 1), (-1, 2), (6, 4)))
            mu[(0, i, i)], mu[(0, 0, i)] = d, b
        if n > 1 and rng.random() < 0.3:
            mu[(0, 1, 2)] = rng.randint(1, 4)
        p1 = (rng.randint(-4, 4),) + (35,) * n
        systems.append(make_system(n + 1, mu, p1, (0,) * (n + 1)))
    cp2 = standard("CP2")
    twice = blowup_point(blowup_point(projectivize(cp2, RankTwoBundle(cp2, (1,), 2))))
    assert len(cones.cone_blocks(twice)) == 3
    systems.append(twice)
    for s in systems:
        for p in (5, 7):
            flat_cone_blocks(s, p)
            assert fingerprint(s, p) == fingerprint_reference(s, p), (s, p)
    branches = {"uniform", "zero terms", "rank 1"} | {
        (k, sq) for k in ("k odd", "k even") for sq in ("square", "non-square")
    }
    assert seen == {5: branches, 7: branches}


def pair_branches(s, p):
    """The branches of the in-place 2x2 step that slots 1 and 2, about vertex 0, take mod p."""
    pairs = ((1, 1), (1, 2), (2, 2), (0, 1), (0, 2))
    a, c, e, bi, bj = (s.mu_value(0, i, j) % p for i, j in pairs)
    if not c:
        return {"split"}
    if a:
        out, det, rest = {"pivot i"}, e - c * c * pow(a, -1, p), bj - bi * c * pow(a, -1, p)
    elif e:
        out, det, rest = {"pivot j"}, a - c * c * pow(e, -1, p), bi - bj * c * pow(e, -1, p)
    else:
        out, det = {"pair step"}, 1
    if det % p == 0:
        # the second term has d = 0: its beta makes the t = 1 slice uniform, or it is zero
        out.add(("det 0", "uniform" if rest % p else "zero"))
    out |= {f"g on {x}" for x, i in (("i", 1), ("j", 2)) if s.p1[i] % p}
    return out


def test_pair_step_matches_every_point_on_each_branch(monkeypatch):
    # cones on vertex 0 whose Q is one pair on slots 1 and 2, (a, c, e) =
    # (Q_11, Q_12, Q_22) and b = (mu_001, mu_002), then two 3-slot components
    # that go to _diagonal_terms; 35 is 0 mod 5 and 7 but keeps its slot in
    # the block, and p1 = 35 keeps a slot flat
    seen = {5: set(), 7: set()}
    sizes = []
    diagonal_terms = cones._diagonal_terms

    def recorded(rows, lin, p):
        sizes.append(len(rows))
        return diagonal_terms(rows, lin, p)

    monkeypatch.setattr(cones, "_diagonal_terms", recorded)

    def pair(a, c, e, b=(1, 2), g=(35, 35), m=2):
        mu = {(0, 0, 0): m, (0, 1, 1): a, (0, 1, 2): c, (0, 2, 2): e, (0, 0, 1): b[0],
              (0, 0, 2): b[1]}
        return make_system(3, {t: v for t, v in mu.items() if v}, (1, *g), (0,) * 3)

    systems = [
        pair(1, 1, 3),  # pivot on Q_11
        pair(35, 1, 2),  # Q_11 = 0 mod p: pivot on Q_22
        pair(0, 3, 35), pair(0, 2, 0, b=(0, 1)),  # the pair step
        pair(1, 2, 4), pair(1, 2, 4, b=(1, 3)), pair(35, 2, 4, b=(3, 1)),  # determinant 0
        pair(1, 1, 3, g=(1, 0)), pair(0, 1, 0, g=(0, 2)),  # not flat: convolved
        pair(1, 35, 2),  # Q_12 = 0 mod p: two coordinates alone
        make_system(4, {(0, 0, 0): 1, (0, 1, 2): 1, (0, 2, 3): 2, (0, 3, 3): 1, (0, 0, 1): 3},
                    (2, 35, 35, 35), (0,) * 4),
        make_system(4, {(0, 1, 2): 1, (0, 2, 3): 1, (0, 1, 3): 1, (0, 0, 3): 1},
                    (1, 1, 0, 0), (0,) * 4),
    ]
    rng = random.Random(67)
    values = (0, 35, 1, 2, -1, 3)
    for _ in range(40):
        a, e, b0, b1 = (rng.choice(values) for _ in range(4))
        c = rng.choice(values[1:])  # mu_012 != 0 keeps both slots in the cone
        g = (rng.choice((35, 35, 1)), rng.choice((35, 35, -2)))
        systems.append(pair(a, c, e, b=(b0, b1), g=g, m=rng.randint(-3, 3)))
    for s in systems:
        assert [v for v, _, _ in cones.cone_blocks(s)] == [0]
        for p in (5, 7):
            if s.rank == 3:
                seen[p] |= pair_branches(s, p)
            assert cones.histogram(s, p) == cones._walk(s, range(s.rank), s.mu, p), (s, p)
            assert fingerprint(s, p) == fingerprint_reference(s, p), (s, p)
    branches = {"pivot i", "pivot j", "pair step", ("det 0", "uniform"), ("det 0", "zero"),
                "g on i", "g on j", "split"}
    assert seen == {5: branches, 7: branches}
    # only the two 3-slot components reach _diagonal_terms, at each prime in
    # histogram and in fingerprint
    assert sizes == [3] * 8


def test_flat_cones_never_convolve_per_coordinate(monkeypatch):
    calls = []
    convolve = cones._convolve_coordinates

    def counted(t1, terms, p):
        calls.append(p)
        return convolve(t1, terms, p)

    monkeypatch.setattr(cones, "_convolve_coordinates", counted)
    base = parse_sum_expression("CP2 # 5 CP2bar")
    e = RankTwoBundle(base, (-1, 1, 1, 1, 1, 3), 5)
    t = conifold_transition(base, e)
    for s in (projectivize(base, e), t.z1, t.z2):
        for p in (5, 7):
            flat_cone_blocks(s, p)
            fingerprint(s, p)
    assert calls == []
    # a random cone on 4 slots, vertex 0, with p1 = 1 on slot 1: not flat
    rng = random.Random(64)
    mu = {ijk: rng.choice((-3, -2, -1, 1, 2, 3)) for ijk in triple_indices(4) if 0 in ijk}
    s = make_system(4, mu, (rng.randint(-3, 3), 1, rng.randint(-3, 3), 0), (0,) * 4)
    assert [v for v, _, _ in cones.cone_blocks(s)] == [0]
    for p in (5, 7):
        assert fingerprint(s, p) == fingerprint_reference(s, p)
    assert calls == [5, 7]


def test_walk_still_serves_systems_that_are_no_cone_sum():
    # a blown-up P(E) moved until its blocks merge into one with no vertex:
    # its cubic t G + e^3 does not vanish where p1 does, so the p1 route
    # refuses the block at both primes and the walk counts it
    rng = random.Random(58)
    seen = 0
    for rank in (3, 4, 5):
        base = parse_sum_expression(f"CP2 # {rank - 3} CP2bar")
        s = blowup_point(projectivize(base, random_bundle(rng, base)))
        moved = transport_system(s, random_unimodular(rng, rank))
        if vertices(moved) == [None]:
            seen += 1
            ((_, slots, entries),) = cones.cone_blocks(moved)
            for p in (5, 7):
                assert cones._p1_cone(moved, slots, entries, p) is None
                assert fingerprint(moved, p) == fingerprint(s, p)
                if p**rank <= 625:
                    assert fingerprint(moved, p) == fingerprint_reference(moved, p)
    assert seen >= 2


def p1_flat_cone_reference(s, slots, p):
    """Whether p1 is not 0 mod p on the block and mu vanishes mod p where p1 does.

    Each f_j = e_j - (p1_j / p1_i) e_i, for i the last slot where p1 is not 0
    mod p and every other slot j, has p1.f_j = 0 mod p, and these span the
    block's hyperplane p1 = 0; mu is evaluated densely on every triple of them.
    """
    pivots = [i for i in slots if s.p1[i] % p]
    if not pivots:
        return False
    i = pivots[-1]
    inv = pow(s.p1[i], -1, p)
    basis = []
    for j in slots:
        if j != i:
            f = [0] * s.rank
            f[j], f[i] = 1, -s.p1[j] * inv
            basis.append(f)
    return all(mu_eval_dense(s, *fs) % p == 0 for fs in combinations_with_replacement(basis, 3))


def moved_until_a_block_has_no_vertex(rng, s):
    """A random unimodular transport of s with a block that is no cone, if one is found."""
    for _ in range(30):
        moved = transport_system(s, random_unimodular(rng, s.rank))
        if None in vertices(moved):
            break
    return moved


def p1_route_cases(rng):
    """(kind, system) pairs at ranks 1 to 7, most with a block that is no cone.

    Random unimodular transports of P(E), of transition sides z1 and of
    blown-up P(E)s, then chains, the local models and a P(E) whose p1 is 0
    mod 5 and 7.
    """
    bases = ("S4", "CP2", "S2xS2", "CP2 # 2 CP2bar", "2 S2xS2", "CP2 # 4 CP2bar", "CP2 # 5 CP2bar")
    cases = []
    for rank in range(1, 8):
        for kind in ("P(E)", "z1", "blown up"):
            if kind != "P(E)" and rank == 1:
                continue
            base = parse_sum_expression(bases[rank - 1 if kind == "P(E)" else rank - 2])
            for _ in range(2 if rank < 6 else 1):
                e = random_bundle(rng, base)
                if kind == "P(E)":
                    s = projectivize(base, e)
                elif kind == "z1":
                    s = conifold_transition(base, e).z1
                else:
                    s = blowup_point(projectivize(base, e))
                cases.append((kind, moved_until_a_block_has_no_vertex(rng, s)))
    for n in range(2, 8):
        cases += [("chain", chain(n, 6)), ("chain", chain(n))]
    for k in (1, 2):
        cases.append(("local model", moved_until_a_block_has_no_vertex(rng, local_model_system(k))))
    s2xs2 = standard("S2xS2")
    zero = projectivize(s2xs2, RankTwoBundle(s2xs2, (0, 0), 35))  # p1 = (-140, 0, 0)
    cases.append(("P(E)", moved_until_a_block_has_no_vertex(rng, zero)))
    return cases


def test_p1_route_matches_the_walk_and_the_reference(monkeypatch):
    # every block that is no cone either takes the p1 route or is walked, and
    # it is walked exactly when its p1 is 0 mod p or its cubic does not vanish
    # where p1 does; either way the histogram is the walk's over the system
    walk = cones._walk
    walked = []

    def counted(s, slots, entries, p):
        walked.append(tuple(slots))
        return walk(s, slots, entries, p)

    monkeypatch.setattr(cones, "_walk", counted)
    rng = random.Random(65)
    seen = set()
    for kind, s in p1_route_cases(rng):
        for p in (5, 7) if s.rank <= 6 else (5,):
            walked.clear()
            assert cones.histogram(s, p) == walk(s, range(s.rank), s.mu, p), (kind, s, p)
            expected = []
            for v0, slots, _ in cones.cone_blocks(s):
                if v0 is None:
                    if not any(s.p1[i] % p for i in slots):
                        reason = "p1 = 0"
                    elif p1_flat_cone_reference(s, slots, p):
                        reason = "p1 route"
                    else:
                        reason = "no cone"
                    seen.add((kind, reason))
                    expected += [tuple(slots)] if reason != "p1 route" else []
            assert walked == expected, (kind, s, p)
            if p**s.rank <= 5**6:
                assert fingerprint(s, p) == fingerprint_reference(s, p), (kind, s, p)
    assert seen == {
        ("P(E)", "p1 route"), ("P(E)", "p1 = 0"), ("z1", "p1 route"), ("z1", "p1 = 0"),
        ("blown up", "no cone"), ("blown up", "p1 route"), ("chain", "no cone"),
        ("chain", "p1 = 0"), ("local model", "p1 = 0"), ("local model", "p1 route"),
    }


def test_cone_blocks_match_the_components_of_the_triple_graph():
    # systems found as one cone in one pass, and systems whose blocks are
    # joined entry by entry, each against the components of the triple graph;
    # a system is kept by the kind of its blocks that have entries
    rng = random.Random(68)
    empty = make_system(3, {}, (1, 0, 2), (0,) * 3)
    late = make_system(5, {(2, 2, 2): 1, (2, 2, 3): 2, (2, 3, 3): -1}, (0,) * 5, (0,) * 5)
    # in mu's order: blocks {0, 3} and {1, 2, 4}, joined by (2, 3, 3), then
    # slot 5 through slot 3, which the join relabelled
    joined = make_system(6, {(0, 0, 3): 1, (1, 1, 2): 1, (1, 2, 4): 2, (2, 3, 3): -1,
                             (3, 5, 5): 1}, (0,) * 6, (0,) * 6)
    cp2 = standard("CP2")
    s = projectivize(cp2, RankTwoBundle(cp2, (1,), 2))
    base = parse_sum_expression("CP2 # 2 S2xS2 # CP2bar")
    z2 = conifold_transition(base, RankTwoBundle(base, (1, 0, 1, 2, 0, 1), 3)).z2
    cases = [("empty", empty), ("late", late), ("joined", joined), ("P(E)", s),
             ("blowup", blowup_point(s)), ("z2", z2), ("rank 0", make_system(0, {}, (), ()))]
    cases += cone_cases(rng) + p1_route_cases(rng)
    kinds = set()
    for name, s in cases:
        blocks = cones.cone_blocks(s)
        assert blocks == cone_blocks_reference(s), name
        met = [v for v, _, entries in blocks if entries]
        kinds.add((name, "empty" if not met else "no vertex" if None in met
                   else "one cone" if len(met) == 1 else "several cones"))
    assert cones.cone_blocks(empty) == [(0, [0], []), (1, [1], []), (2, [2], [])]
    assert cones.cone_blocks(make_system(0, {}, (), ())) == []
    assert cones.cone_blocks(late) == [
        (0, [0], []), (1, [1], []), (2, [2, 3], list(late.mu)), (4, [4], [])
    ]
    assert cones.cone_blocks(joined) == [(None, list(range(6)), list(joined.mu))]
    assert {("empty", "empty"), ("rank 0", "empty"), ("late", "one cone"), ("P(E)", "one cone"),
            ("joined", "no vertex"), ("blowup", "several cones"), ("z2", "several cones"),
            ("model 2", "one cone"), ("two cones", "several cones"),
            ("CP2 permuted", "one cone"), ("P(E)", "no vertex"), ("z1", "no vertex")} <= kinds


def test_transition_sides_are_told_apart_up_to_rank_42():
    # sides over CP2 # k CP2bar, k = 1..40; the cone method at p = 5 and 7
    # also gives equal rows after a signed permutation moves the vertex
    rng = random.Random(40)
    for k in range(1, 41):
        base = parse_sum_expression(f"CP2 # {k} CP2bar")
        c1 = tuple(rng.randint(-3, 3) for _ in range(base.rank))
        t = conifold_transition(base, RankTwoBundle(base, c1, rng.randint(-5, 5)))
        cert = certify_distinct(t.z1, t.z2, SUPPORTED_PRIMES)
        assert cert.kind == "fingerprint" and certificate_is_valid(cert, t.z1, t.z2)
        if k % 10 == 0:
            moved = transport_system(t.z1, signed_permutation(rng, t.z1.rank))
            for p in (5, 7):
                assert fingerprint(moved, p) == fingerprint(t.z1, p)


@pytest.mark.parametrize(
    "expr, c1, c2",
    [("CP2 # 5 CP2bar", (-1, 1, 1, 1, 1, 3), 5), ("3 S2xS2", (0, 0, 0, 0, 2, 0), -1)],
)
def test_rank_eight_sides_differ_only_at_five_and_seven(expr, c1, c2):
    base = parse_sum_expression(expr)
    t = conifold_transition(base, RankTwoBundle(base, c1, c2))
    assert t.z1.rank == t.z2.rank == 8
    same = [fingerprint(t.z1, p) == fingerprint(t.z2, p) for p in SUPPORTED_PRIMES]
    assert same == [True, True, False, False]
    cert = certify_distinct(t.z1, t.z2)
    assert cert.prime == 5 and certificate_is_valid(cert, t.z1, t.z2)


def test_rank_258_sides_fingerprint_within_a_second():
    base = parse_sum_expression("CP2 # 255 CP2bar")
    c1 = tuple(i % 3 - 1 for i in range(base.rank))
    t = conifold_transition(base, RankTwoBundle(base, c1, 3))
    for s in (t.z1, t.z2):
        assert s.rank == 258
        for p in (5, 7):
            start = time.perf_counter()
            rows = fingerprint(s, p)
            assert time.perf_counter() - start < 1
            assert sum(row[3] for row in rows) == p**258


def test_even_fingerprint_is_invariant_under_scaling():
    # at odd p, on any system, x -> lambda x maps the key (c, pi, 0) to
    # (lambda^3 c, lambda pi, 0), so those two keys have equal counts
    rng = random.Random(43)
    base = parse_sum_expression("CP2 # 2 CP2bar")
    systems = [projectivize(base, random_bundle(rng, base)) for _ in range(3)]
    systems += list(oracle_systems(rng, 4))
    assert {has_even_w2_cubic(s) for s in systems} == {True, False}
    for s in systems:
        for p in (3, 5, 7):
            counts = {row[:3]: row[3] for row in fingerprint(s, p)}
            assert all(w == 0 for _, _, w in counts)
            for (c, pi, _), n in counts.items():
                for lam in range(1, p):
                    assert counts.get((lam**3 * c % p, lam * pi % p, 0)) == n


def test_certify_distinct_checks_primes_before_its_shortcuts():
    # checking the primes first must not use up a one-pass iterable
    t = s4_transition()
    assert certify_distinct(t.z1, t.z2, iter((2, 3, 5))) == certify_distinct(t.z1, t.z2)


def test_certify_distinct_same_certificate_with_reference_fingerprint(monkeypatch):
    rng = random.Random(22)
    t = s4_transition()
    pairs = [(t.z1, t.z2), (exp_system(), bundle_side_system())]
    for rank in (2, 3, 4):
        base = random_catalog_sum(rng, rank - 1)
        while base.rank != rank - 1:
            base = random_catalog_sum(rng, rank - 1)
        e = random_bundle(rng, base)
        s = projectivize(base, e)
        moved = RankTwoBundle(base, e.c1, e.c2 + rng.choice((1, 2, 6)))
        pairs.append((s, transport_system(s, random_unimodular(rng, rank))))
        pairs.append((s, projectivize(base, moved)))
        pairs.append((s, random_system(rng, rank)))
    expected = [certify_distinct(s1, s2, primes=SUPPORTED_PRIMES) for s1, s2 in pairs]
    # certify compares each prime's histograms; the reference's rows become
    # the histogram the formatter turns back into them
    def reference(s, p):
        return {row[:3] if p < 5 else row[:2]: row[3] for row in fingerprint_reference(s, p)}

    monkeypatch.setattr(equiv, "_histogram", reference)
    assert [certify_distinct(s1, s2, primes=SUPPORTED_PRIMES) for s1, s2 in pairs] == expected
    primes = {None if cert is None else cert.prime for cert in expected}
    assert None in primes and 2 in primes and primes & {3, 5, 7}


def test_certificate_outside_fingerprint_window_is_invalid():
    t = s4_transition()
    cert = certify_distinct(t.z1, t.z2)
    # a prime the fingerprint does not support is no valid certificate
    foreign = DistinctnessCertificate("fingerprint", 11, cert.detail)
    assert certificate_is_valid(foreign, t.z1, t.z2) is False
    # nor one at p = 5 for systems with an 8-slot block that is no cone, even
    # with the walk's true rows
    a, b = chain(8), chain(8, 6)
    walks = (cones._walk(s, range(8), s.mu, 5) for s in (a, b))
    detail = tuple(tuple(key + (0, n) for key, n in sorted(w.items())) for w in walks)
    too_big = DistinctnessCertificate("fingerprint", 5, detail)
    assert detail[0] != detail[1] and certificate_is_valid(too_big, a, b) is False


def test_certificate_is_valid_refuses_altered_certificates():
    t = s4_transition()
    cert = certify_distinct(t.z1, t.z2)
    f1, f2 = cert.detail
    assert certificate_is_valid(cert, t.z1, t.z2)
    recounted = ((f1[0][:3] + (f1[0][3] + 1,),) + f1[1:], f2)
    assert not certificate_is_valid(
        DistinctnessCertificate("fingerprint", cert.prime, recounted), t.z1, t.z2
    )
    swapped = DistinctnessCertificate("fingerprint", cert.prime, (f2, f1))
    assert not certificate_is_valid(swapped, t.z1, t.z2)
    assert certificate_is_valid(swapped, t.z2, t.z1)
    for p in SUPPORTED_PRIMES:
        if p != cert.prime:
            other = DistinctnessCertificate("fingerprint", p, cert.detail)
            assert not certificate_is_valid(other, t.z1, t.z2)
    # the ranks differ, so certify_distinct issues a rank certificate, never
    # this one, although the b3 values differ too
    a = make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(0,))
    b = make_system(2, {}, p1=(0, 0), w2=(0, 0), b3=4)
    assert not certificate_is_valid(DistinctnessCertificate("b3", None, (0, 4)), a, b)
    # likewise a fingerprint certificate on systems whose b3 differs
    c = make_system(1, {}, p1=(0,), w2=(0,), b3=2)
    fp = DistinctnessCertificate("fingerprint", 2, (fingerprint(a, 2), fingerprint(c, 2)))
    assert fp.detail[0] != fp.detail[1]
    assert not certificate_is_valid(fp, a, c)
    assert certify_distinct(a, c) == DistinctnessCertificate("b3", None, (0, 2))


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
    # p1 moved by 6 keeps every value mod 2 and 3, so only p = 5 and 7 can
    # tell these apart.  They run unless a block that is no cone takes a walk
    # of more than 19,608 points: the 2-slot NON_CONE_MU block and the 7-slot
    # chain run at p = 5 (19,531 points), the 8-slot chain does not
    def pair(rank, mu):
        return [make_system(rank, mu, (x,) + (0,) * (rank - 1), (0,) * rank) for x in (0, 6)]

    cone_mu = {(0, 0, 0): 1, (0, 0, 1): 1, (0, 1, 1): 1}
    for sides in (pair(7, NON_CONE_MU), pair(7, cone_mu), [chain(7), chain(7, 6)]):
        cert = certify_distinct(*sides, SUPPORTED_PRIMES)
        assert certify_distinct(*sides, (2, 3)) is None
        assert cert.prime == 5 and certificate_is_valid(cert, *sides)
    for mu in (NON_CONE_MU, cone_mu):
        assert certify_distinct(*pair(6, mu), SUPPORTED_PRIMES).prime == 5
    # the 8-slot chain's p = 5 walk, run outside the window, tells its pair
    # apart, but certify_distinct skips p = 5 and 7
    a, b = chain(8), chain(8, 6)
    assert certify_distinct(a, b, SUPPORTED_PRIMES) is None
    assert cones._walk(a, range(8), a.mu, 5) != cones._walk(b, range(8), b.mu, 5)
    # a prime is skipped when one side alone is outside the window: a rank-7
    # P(E) and a transport of it that is one 7-slot block with no cone, which
    # agree at p = 5; the transport has no p = 7 rows
    rng = random.Random(60)
    base = parse_sum_expression("CP2 # 5 CP2bar")
    s = projectivize(base, random_bundle(rng, base))
    moved = s
    while vertices(moved) != [None]:
        moved = transport_system(s, random_unimodular(rng, 7))
    assert certify_distinct(s, moved, SUPPORTED_PRIMES) is None
    # p = 2 and 3 run at every rank: mu differs, and p = 2 sees it
    a = make_system(7, {}, p1=(0,) * 7, w2=(0,) * 7)
    b = make_system(7, {(0, 0, 0): 1}, p1=(0,) * 7, w2=(0,) * 7)
    assert certify_distinct(a, b).prime == 2


def test_a_small_block_that_is_no_cone_fingerprints_at_any_rank():
    # NON_CONE_MU's block has 2 slots: at rank 7 its p = 5 rows equal a
    # reference evaluation at every point, and with 7 blowup slots (rank 9) p = 5
    # tells p1 moved by 6 apart, where the search space 7^81 is refused
    s = make_system(7, NON_CONE_MU, (1, 2) + (0,) * 5, (0,) * 7)
    assert fingerprint(s, 5) == fingerprint_reference(s, 5)
    a, b = (make_system(2, NON_CONE_MU, (x, 0), (0, 0)) for x in (0, 6))
    for _ in range(7):
        a, b = blowup_point(a), blowup_point(b)
    cert = certify_distinct(a, b)
    assert a.rank == 9 and cert.prime == 5 and certificate_is_valid(cert, a, b)


def test_transports_with_blowups_match_the_reference_at_rank_seven():
    # a P(E) transported until a block is no cone, then blown up: the blowup
    # slots are cones of one slot each, so at rank 7 only the blocks that are
    # no cone count toward the walk's window
    rng = random.Random(59)
    for expr, blowups in (("CP2 # 2 CP2bar", 3), ("CP2 # 4 CP2bar", 1)):
        base = parse_sum_expression(expr)
        s = projectivize(base, random_bundle(rng, base))
        moved = s
        while None not in vertices(moved):
            moved = transport_system(s, random_unimodular(rng, s.rank))
        for _ in range(blowups):
            moved = blowup_point(moved)
        assert moved.rank == 7
        assert fingerprint(moved, 5) == fingerprint_reference(moved, 5), expr


def test_certify_finds_the_blocks_once_per_system_and_prime(monkeypatch):
    calls = []
    cone_blocks = cones.cone_blocks

    def counted(s):
        calls.append(s)
        return cone_blocks(s)

    monkeypatch.setattr(cones, "cone_blocks", counted)
    base = parse_sum_expression("CP2 # 5 CP2bar")
    t = conifold_transition(base, RankTwoBundle(base, (-1, 1, 1, 1, 1, 3), 5))
    seven = chain(7)
    # z1 and z2 agree at p = 2 and 3 and differ at p = 5, so p = 7 does not run;
    # the other pairs run both p = 5 and 7, each finding each system's blocks
    for (s1, s2), runs in (((t.z1, t.z2), 1), ((t.z1, t.z1), 2), ((seven, seven), 2)):
        calls.clear()
        certify_distinct(s1, s2, SUPPORTED_PRIMES)
        assert [id(s) for s in calls] == [id(s1), id(s2)] * runs
    calls.clear()
    certify_distinct(t.z1, t.z1, (2, 3))
    assert calls == []


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


def test_certify_runs_odd_primes_without_even_w2_cubic():
    # artificial non-geometric data: mu(w,x,x) odd for some x.  Odd primes
    # run, and they cannot separate isomorphic systems
    weird1 = make_system(1, {(0, 0, 0): 1}, p1=(0,), w2=(1,), c1_class=(1,))
    weird2 = transport_system(weird1, ((-1,),))
    assert not has_even_w2_cubic(weird1)
    assert certify_distinct(weird1, weird2, primes=(3, 5)) is None
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


def test_found_witnesses_equal_their_rebuild_through_the_constructor():
    # the search stores a witness that verify_witness has passed without a
    # second check; the public constructor must give the same value, with and
    # without c1 transport, and with a c1 lift on one side only
    rng = random.Random(1718)
    found = []
    for expr in ("CP2", "CP2bar", "CP2 # CP2bar", "S2xS2"):
        base = parse_sum_expression(expr)
        for _ in range(6):
            s = projectivize(base, random_bundle(rng, base))
            moved = transport_system(s, random_unimodular(rng, s.rank))
            bare = make_system(moved.rank, dict(moved.mu_items()), moved.p1, moved.w2)
            for other, check_c1 in ((moved, True), (moved, False), (bare, False)):
                w = find_isomorphism(s, other, bound=2, check_c1=check_c1)
                assert w is not None and verify_witness(s, other, w.matrix, check_c1)
                kept = other.c1_class is not None and matvec(w.matrix, s.c1_class) == other.c1_class
                assert w.preserves_c1 is kept
                found.append(w)
    assert {w.preserves_c1 for w in found} == {True, False}
    for w in found:
        rebuilt = IsomorphismWitness(w.matrix, w.preserves_c1)
        assert rebuilt == w and hash(rebuilt) == hash(w) and repr(rebuilt) == repr(w)


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


def _search_source(rng, rank):
    """A system with a c1 lift: a sphere bundle, or a blowup of one, of the given rank."""
    if rank == 1:
        cubic, p1, c1 = rng.choice((-2, -1, 1, 2)), rng.randint(-4, 4), 2 * rng.randint(-1, 1)
        return make_system(1, {(0, 0, 0): cubic}, (p1,), (0,), 0, (c1,))
    while True:
        base = random_catalog_sum(rng, max_pieces=rank - 1)
        if base.rank == rank - 1:
            return projectivize(base, random_bundle(rng, base))
        if base.rank == rank - 2:
            return blowup_point(projectivize(base, random_bundle(rng, base)))


def _moved_c1(rng, s):
    """``s`` with its c1 lift moved so that no witness with c1 transport exists."""
    while True:
        c1 = tuple(a + 2 * rng.randint(-1, 1) for a in s.c1_class)
        t = make_system(s.rank, dict(s.mu), s.p1, s.w2, s.b3, c1)
        if t.cubic(c1) != s.cubic(s.c1_class) or t.p1_pairing(c1) != s.p1_pairing(s.c1_class):
            return t


def _kept_c1(rng, s):
    """``s`` with its c1 lift moved so that mu(c1, c1, c1) and p1 . c1 stay, or None."""
    moves = [d for d in product((-1, 0, 1), repeat=s.rank) if any(d)]
    rng.shuffle(moves)
    for d in moves:
        c1 = tuple(a + 2 * x for a, x in zip(s.c1_class, d))
        t = make_system(s.rank, dict(s.mu), s.p1, s.w2, s.b3, c1)
        if t.cubic(c1) == s.cubic(s.c1_class) and t.p1_pairing(c1) == s.p1_pairing(s.c1_class):
            return t
    return None


def test_find_isomorphism_matches_reference_search():
    # the pruned search returns what testing every raw column returned:
    # hits made by a transport, misses made by a moved c1 lift, self-compares
    rng = random.Random(4711)
    outcomes = set()
    for rank, bounds in {1: (1, 2, 3), 2: (1, 2, 3), 3: (1, 2), 4: (1,)}.items():
        for bound in bounds:
            for _ in range(6):
                s = _search_source(rng, rank)
                t = transport_system(s, random_unimodular(rng, rank, max_entry=bound))
                for other in (s, t, _moved_c1(rng, t)):
                    for check_c1 in (False, True):
                        expected = find_isomorphism_reference(s, other, bound, check_c1)
                        assert find_isomorphism(s, other, bound, check_c1) == expected
                        outcomes.add((check_c1, expected is None))
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_c1_column_conditions_match_reference_search():
    # moved c1 lifts that keep mu(c1, c1, c1) and p1 . c1 get past the up-front
    # check, so the c1 conditions on each column decide them: misses with a
    # witness that ignores c1, and hits by another witness
    rng = random.Random(2211)
    outcomes = set()
    for rank, bounds in {2: (1, 2, 3), 3: (1, 2), 4: (1,)}.items():
        for bound in bounds:
            for _ in range(12):
                s = _search_source(rng, rank)
                kept = _kept_c1(rng, transport_system(s, random_unimodular(rng, rank, bound)))
                if kept is None:
                    continue
                expected = find_isomorphism_reference(s, kept, bound, True)
                assert find_isomorphism(s, kept, bound, True) == expected
                plain = find_isomorphism(s, kept, bound)
                assert plain == find_isomorphism_reference(s, kept, bound)
                outcomes.add((rank, plain is not None, expected is not None))
    assert {(r, True, False) for r in (2, 3, 4)} <= outcomes
    assert {(r, True, True) for r in (2, 3)} <= outcomes


def test_find_isomorphism_matches_reference_on_s2xs2_sides():
    base = standard("S2xS2")
    t = conifold_transition(base, trivial_bundle(base))
    assert find_isomorphism_reference(t.z1, t.z2, 2) is None
    assert find_isomorphism(t.z1, t.z2, 2, step_budget=10**12) is None


def test_search_stats_account_for_every_raw_column():
    # each raw column at a node is pruned for one reason or becomes a node,
    # on hits (which stop at the witness's place) and misses alike
    m1 = local_model_system(1)
    side = bundle_side_system()
    t = s4_transition()
    # at rank 0 the empty matrix is the one node, and no column is tested
    z0 = make_system(0, {}, (), ())
    # c1 misses: p1 . c1 is 0 against 4 (mu(c1, c1, c1) is 0 on both), or
    # mu(c1, c1, c1) moves (p1 is 0), so the up-front check counts one node,
    # as at rank 0; a lift that keeps both values gets past it and is searched
    lifted = make_system(2, {(0, 0, 1): 1}, (2, 0), (0, 0), 0, (0, 0))
    moved = make_system(2, {(0, 0, 1): 1}, (2, 0), (0, 0), 0, (2, 0))
    cubic_moved, kept = (
        make_system(2, dict(side.mu), side.p1, side.w2, 0, c1) for c1 in ((2, 2), (-4, 0))
    )
    cases = [
        (m1, side, 3, True, None),
        (m1, m1, 2, False, None),
        (t.z1, t.z2, 3, False, None),
        (z0, z0, 1, False, None),
        (lifted, moved, 3, True, (1, 0, 0, 0, 0)),
        (m1, cubic_moved, 3, True, (1, 0, 0, 0, 0)),
        (m1, kept, 3, True, (5, 245, 238, 3, 0)),
    ]
    total = SearchStats()
    for s1, s2, bound, check_c1, counters in cases:
        stats = SearchStats()
        found = find_isomorphism(s1, s2, bound, check_c1, stats=stats)
        assert found == find_isomorphism(s1, s2, bound, check_c1)
        find_isomorphism(s1, s2, bound, check_c1, stats=total)
        pruned = (stats.pruned_table, stats.pruned_mod2, stats.pruned_triple)
        assert stats.column_tests == sum(pruned) + stats.nodes - 1
        if counters is not None:  # a c1 miss, with a witness that ignores c1
            assert found is None and find_isomorphism(s1, s2, bound) is not None
            assert (stats.nodes, stats.column_tests) + pruned == counters
    assert total.column_tests == (
        total.pruned_table + total.pruned_mod2 + total.pruned_triple + total.nodes - len(cases)
    )
    assert total.pruned_table and total.pruned_mod2 and total.pruned_triple


@pytest.mark.parametrize(
    "mu1, mu2, witness, counters",
    [
        # (nodes, column_tests, table, mod2, triple); a 1 x 1 witness is (1) or
        # (-1), so with p1 = 0 the rank-1 survivors are the t in {0, 1, -1} with
        # mu2 t^3 = mu1
        (1, 1, ((1,),), (2, 2, 1, 0, 0)),
        (-1, 1, ((-1,),), (2, 3, 2, 0, 0)),
        (8, 1, None, (1, 7, 7, 0, 0)),
        (-27, 1, None, (1, 7, 7, 0, 0)),
        (54, 2, None, (1, 7, 7, 0, 0)),
        (2, 1, None, (1, 7, 7, 0, 0)),
        (3, 2, None, (1, 7, 7, 0, 0)),
        (0, 1, None, (1, 7, 6, 1, 0)),
        (0, 0, ((1,),), (2, 2, 0, 1, 0)),
        (1, 0, None, (1, 7, 7, 0, 0)),
    ],
)
def test_rank_one_search_solves_the_cubic(mu1, mu2, witness, counters):
    s1, s2 = (make_system(1, {(0, 0, 0): v}, (0,), (0,)) for v in (mu1, mu2))
    stats = SearchStats()
    found = find_isomorphism(s1, s2, 3, stats=stats)
    assert (None if found is None else found.matrix) == witness
    assert found == find_isomorphism_reference(s1, s2, 3)
    pruned = (stats.pruned_table, stats.pruned_mod2, stats.pruned_triple)
    assert (stats.nodes, stats.column_tests) + pruned == counters


def test_columns_with_equal_keys_share_one_lazy_table(monkeypatch):
    # one survivors generator per (p1, cubic) key, read only as far as needed
    calls, read, exhausted = [], [], []
    survivors = equiv._WitnessSearch.survivors

    def counted(self, p1, cubic):
        calls.append((p1, cubic))
        for item in survivors(self, p1, cubic):
            read.append(item)
            yield item
        exhausted.append((p1, cubic))

    monkeypatch.setattr(equiv._WitnessSearch, "survivors", counted)
    zero = make_system(3, {}, (0, 0, 0), (0, 0, 0))
    # every one of the 27 raw columns passes the table test of the zero system
    found = find_isomorphism(zero, zero, 1)
    assert found == find_isomorphism_reference(zero, zero, 1)
    assert calls == [(0, 0)] and exhausted == [] and len(read) < 27
    calls.clear()
    shifted = make_system(3, {}, (0, 0, 2), (0, 0, 0))
    found = find_isomorphism(shifted, shifted, 1)
    assert found == find_isomorphism_reference(shifted, shifted, 1)
    assert calls == [(0, 0), (2, 0)] and exhausted == []
