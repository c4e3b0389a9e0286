"""Pinned outputs of the witness path on seeded pairs shaped like ``compare``'s.

Each pair is a sphere bundle P(E) of rank 2, 3 or 4 with p1 and a^3 nonzero,
against a transport of it by a unimodular matrix with entries in {-1, 0, 1}
(a hit), or against such a transport whose c1 lift was moved so that no
witness with c1 transport exists (a miss).  Each runs with and without
``check_c1`` at the bound ``compare`` benchmarks use for its rank.  The
witness matrix, ``preserves_c1`` and the search counters were recorded once
and must not move: a faster search, pull-back or check finds the same
witness after the same work.
"""

import random

import pytest

from conitop import (
    RankTwoBundle,
    find_isomorphism,
    make_system,
    projectivize,
    standard,
    transport_system,
)
from conitop.equiv import SearchStats
from conitop.intmat import determinant

from oracles import random_bundle, random_catalog_sum

BOUND = {2: 3, 3: 2, 4: 1}


def _source(rng, rank, kind):
    """A P(E) of this rank whose p1 and a^3 are nonzero.

    The last rank-3 miss is P(S2xS2) with c1 = 0 and c2 != 0 instead, whose
    degenerate cup form leaves the search, not the fingerprints, to decide.
    """
    if (rank, kind) == (3, "s2xs2"):
        base = standard("S2xS2")
        return projectivize(base, RankTwoBundle(base, (0, 0), rng.choice((-2, -1, 1, 2))))
    while True:
        base = random_catalog_sum(rng, max_pieces=rank - 1)
        if base.rank != rank - 1:
            continue
        s = projectivize(base, random_bundle(rng, base, span=3))
        if s.p1[0] and s.mu_value(0, 0, 0):
            return s


def _unimodular(rng, rank):
    """A matrix with entries in {-1, 0, 1} and determinant +-1, by rejection."""
    while True:
        m = tuple(tuple(rng.randint(-1, 1) for _ in range(rank)) for _ in range(rank))
        if determinant(m) in (1, -1):
            return m


def _moved_c1(rng, s):
    """``s`` with its c1 lift moved so that mu(c1, c1, c1) or p1 . c1 changes."""
    while True:
        c1 = tuple(a + 2 * rng.randint(-1, 1) for a in s.c1_class)
        t = make_system(s.rank, dict(s.mu), s.p1, s.w2, s.b3, c1)
        if t.cubic(c1) != s.cubic(s.c1_class) or t.p1_pairing(c1) != s.p1_pairing(s.c1_class):
            return t


def pairs():
    """The 42 seeded cases (rank, kind, check_c1, s1, s2) in a fixed order."""
    rng = random.Random("witness-pins")
    out = []
    for rank, hits, misses, s2xs2 in ((2, 5, 3, 0), (3, 5, 2, 2), (4, 3, 1, 0)):
        for kind, count in (("hit", hits), ("miss", misses), ("s2xs2", s2xs2)):
            for _ in range(count):
                s1 = _source(rng, rank, kind)
                s2 = transport_system(s1, _unimodular(rng, rank))
                if kind != "hit":
                    s2 = _moved_c1(rng, s2)
                for check_c1 in (False, True):
                    out.append((rank, kind, check_c1, s1, s2))
    return out


def outcome(s1, s2, bound, check_c1):
    stats = SearchStats()
    found = find_isomorphism(s1, s2, bound, check_c1, stats=stats)
    if found is None:
        return None, None, stats.to_obj()
    return found.matrix, found.preserves_c1, stats.to_obj()


# (witness matrix, preserves_c1, (nodes, column_tests, table, mod2, triple)), the
# last five the counters of SearchStats.to_obj(); None, None for a miss
PINS = [
    # r2 hit check_c1=False
    (((0, -1), (1, 0)), True, (3, 17, 13, 1, 1)),
    # r2 hit check_c1=True
    (((0, -1), (1, 0)), True, (3, 17, 15, 0, 0)),
    # r2 hit check_c1=False
    (((-1, 1), (1, 0)), True, (3, 24, 21, 1, 0)),
    # r2 hit check_c1=True
    (((-1, 1), (1, 0)), True, (3, 24, 22, 0, 0)),
    # r2 hit check_c1=False
    (((0, 1), (1, 1)), False, (3, 11, 8, 1, 0)),
    # r2 hit check_c1=True
    (((0, -1), (1, -1)), True, (3, 19, 17, 0, 0)),
    # r2 hit check_c1=False
    (((1, -1), (-1, 0)), False, (3, 25, 21, 1, 1)),
    # r2 hit check_c1=True
    (((-1, 1), (-1, 0)), True, (3, 25, 23, 0, 0)),
    # r2 hit check_c1=False
    (((0, 1), (1, 0)), True, (3, 10, 7, 1, 0)),
    # r2 hit check_c1=True
    (((0, 1), (1, 0)), True, (3, 10, 8, 0, 0)),
    # r2 miss check_c1=False
    (((-1, -1), (-1, 0)), False, (3, 32, 28, 1, 1)),
    # r2 miss check_c1=True
    (None, None, (1, 0, 0, 0, 0)),
    # r2 miss check_c1=False
    (((-1, 0), (-1, 1)), False, (3, 19, 16, 1, 0)),
    # r2 miss check_c1=True
    (None, None, (1, 0, 0, 0, 0)),
    # r2 miss check_c1=False
    (((-1, 0), (-1, 1)), False, (3, 19, 16, 1, 0)),
    # r2 miss check_c1=True
    (None, None, (1, 0, 0, 0, 0)),
    # r3 hit check_c1=False
    (((0, -1, 1), (-1, 0, 0), (1, -1, 0)), False, (4, 91, 71, 6, 11)),
    # r3 hit check_c1=True
    (((-1, 1, 1), (-1, 0, 0), (0, 1, 0)), True, (4, 114, 110, 0, 1)),
    # r3 hit check_c1=False
    (((0, 0, 1), (-1, -1, -1), (0, 1, -1)), True, (4, 61, 50, 6, 2)),
    # r3 hit check_c1=True
    (((0, 0, 1), (-1, -1, -1), (0, 1, -1)), True, (4, 61, 57, 1, 0)),
    # r3 hit check_c1=False
    (((0, -1, 1), (-1, 0, -1), (-1, 1, -1)), True, (4, 103, 83, 7, 10)),
    # r3 hit check_c1=True
    (((0, -1, 1), (-1, 0, -1), (-1, 1, -1)), True, (4, 103, 99, 0, 1)),
    # r3 hit check_c1=False
    (((-1, 1, -1), (0, 1, 0), (2, 1, 1)), False, (4, 138, 126, 3, 6)),
    # r3 hit check_c1=True
    (((-1, 1, -1), (-1, 0, -1), (0, -1, -1)), True, (4, 152, 148, 1, 0)),
    # r3 hit check_c1=False
    (((1, 1, -1), (1, 0, 1), (0, 1, -1)), True, (4, 116, 97, 10, 6)),
    # r3 hit check_c1=True
    (((1, 1, -1), (1, 0, 1), (0, 1, -1)), True, (4, 116, 112, 1, 0)),
    # r3 miss check_c1=False
    (((1, 1, 1), (-1, 0, 1), (1, 0, 0)), False, (4, 94, 80, 7, 4)),
    # r3 miss check_c1=True
    (None, None, (1, 0, 0, 0, 0)),
    # r3 miss check_c1=False
    (((-1, 1, 1), (1, 0, 0), (-1, -1, 0)), False, (5, 237, 196, 15, 22)),
    # r3 miss check_c1=True
    (None, None, (1, 0, 0, 0, 0)),
    # r3 s2xs2 check_c1=False
    (((-1, 0, -1), (0, 1, 1), (-1, -1, -1)), False, (10, 869, 702, 76, 82)),
    # r3 s2xs2 check_c1=True
    (None, None, (1, 0, 0, 0, 0)),
    # r3 s2xs2 check_c1=False
    (((1, 0, 1), (0, 0, -1), (1, 1, 0)), False, (10, 815, 654, 84, 68)),
    # r3 s2xs2 check_c1=True
    (None, None, (1, 0, 0, 0, 0)),
    # r4 hit check_c1=False
    (((0, 1, -1, 0), (0, -1, 1, 1), (1, 0, 1, 1), (-1, -1, -1, -1)), True, (5, 138, 112, 6, 16)),
    # r4 hit check_c1=True
    (((0, 1, -1, 0), (0, -1, 1, 1), (1, 0, 1, 1), (-1, -1, -1, -1)), True, (5, 138, 133, 0, 1)),
    # r4 hit check_c1=False
    (((0, 1, 1, -1), (-1, -1, 0, 1), (1, 1, -1, -1), (0, 0, 1, 1)), True, (5, 177, 150, 9, 14)),
    # r4 hit check_c1=True
    (((0, 1, 1, -1), (-1, -1, 0, 1), (1, 1, -1, -1), (0, 0, 1, 1)), True, (5, 177, 172, 1, 0)),
    # r4 hit check_c1=False
    (((0, 0, -1, 1), (1, 1, 0, 0), (-1, 1, -1, 0), (0, -1, 1, -1)), True, (7, 285, 208, 17, 54)),
    # r4 hit check_c1=True
    (((0, 0, -1, 1), (1, 1, 0, 0), (-1, 1, -1, 0), (0, -1, 1, -1)), True, (5, 123, 118, 1, 0)),
    # r4 miss check_c1=False
    (((1, 0, 0, 1), (0, 0, -1, 1), (0, -1, 0, 1), (0, 1, -1, 1)), False, (5, 98, 78, 11, 5)),
    # r4 miss check_c1=True
    (None, None, (1, 0, 0, 0, 0)),
]


def test_forty_two_cases_of_the_compare_shape():
    assert len(pairs()) == len(PINS) == 42


@pytest.mark.parametrize("case", range(42))
def test_witness_path_is_pinned(case):
    rank, _, check_c1, s1, s2 = pairs()[case]
    matrix, preserves_c1, (nodes, tests, *pruned) = PINS[case]
    pruned = dict(zip(("table", "mod2", "triple"), pruned))
    stats = {"nodes": nodes, "column_tests": tests, "pruned": pruned}
    assert outcome(s1, s2, BOUND[rank], check_c1) == (matrix, preserves_c1, stats)
