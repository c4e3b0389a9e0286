import random

from conitop import (
    RankTwoBundle,
    c1_squared,
    standard,
    trivial_bundle,
    twist,
)
from conitop.intmat import vec_mod2

from oracles import random_bundle, random_catalog_sum


def twist_oracle(e, l):
    """Chern data of the tensor by a line bundle, via Chern roots.

    If the rank-two bundle has roots r1, r2 then the tensor has roots
    r1 + l, r2 + l, so c1 = (r1 + l) + (r2 + l) and
    c2 = (r1 + l)(r2 + l) = r1 r2 + (r1 + r2) l + l^2, every product paired
    through the base form.
    """
    q = e.base.form
    c1 = tuple(a + 2 * b for a, b in zip(e.c1, l))
    c2 = e.c2 + q.evaluate(e.c1, l) + q.evaluate(l, l)
    return c1, c2


def test_twist_identity():
    cp2 = standard("CP2")
    e = RankTwoBundle(cp2, (0,), 0)
    assert twist(e, (0,)) == e


def test_twist_over_cp2():
    cp2 = standard("CP2")
    e = RankTwoBundle(cp2, (0,), 0)
    t = twist(e, (1,))
    assert t.c1 == (2,)
    assert t.c2 == 1


def test_twist_over_cp2bar():
    bar = standard("CP2bar")
    e = RankTwoBundle(bar, (-1,), -1)
    t = twist(e, (1,))
    assert t.c1 == (1,)
    # oracle: c2 + c1.l + l.l = -1 + (+1) + (-1) = -1 against the (-1) form
    assert twist_oracle(e, (1,)) == ((1,), -1)
    assert t.c2 == -1


def test_twist_matches_root_oracle_random():
    rng = random.Random(7)
    for _ in range(60):
        base = random_catalog_sum(rng)
        e = random_bundle(rng, base)
        l = tuple(rng.randint(-2, 2) for _ in range(base.rank))
        t = twist(e, l)
        assert (t.c1, t.c2) == twist_oracle(e, l)


def test_twist_invertible_and_w2_stable():
    rng = random.Random(8)
    for _ in range(60):
        base = random_catalog_sum(rng)
        e = random_bundle(rng, base)
        l = tuple(rng.randint(-2, 2) for _ in range(base.rank))
        t = twist(e, l)
        assert twist(t, tuple(-v for v in l)) == e
        assert vec_mod2(t.c1) == vec_mod2(e.c1)


def test_p1_combination_twist_invariant():
    rng = random.Random(9)
    for _ in range(60):
        base = random_catalog_sum(rng)
        e = random_bundle(rng, base)
        l = tuple(rng.randint(-2, 2) for _ in range(base.rank))
        t = twist(e, l)
        assert c1_squared(t) - 4 * t.c2 == c1_squared(e) - 4 * e.c2


def test_c1_squared_examples():
    cp2 = standard("CP2")
    assert c1_squared(RankTwoBundle(cp2, (0,), 0)) == 0
    assert c1_squared(RankTwoBundle(cp2, (3,), 0)) == 9
    bar = standard("CP2bar")
    assert c1_squared(RankTwoBundle(bar, (-1,), 0)) == -1


def test_trivial_bundle():
    s4 = standard("S4")
    e = trivial_bundle(s4)
    assert e.c1 == () and e.c2 == 0
    assert RankTwoBundle(standard("CP2"), [1], -2).c1 == (1,)
