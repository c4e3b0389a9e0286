"""The one fraction-free elimination behind ``determinant`` and ``inverse_unimodular``."""

import random

from conitop.intmat import determinant, inverse_unimodular

from oracles import determinant_laplace, inverse_adjugate, matmul, random_unimodular


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_determinant_matches_laplace_expansion():
    rng = random.Random(5)
    for rank in range(6):
        for _ in range(30):
            span = rng.choice((1, 2, 4))
            m = tuple(tuple(rng.randint(-span, span) for _ in range(rank)) for _ in range(rank))
            assert determinant(m) == determinant_laplace(m), m


def test_inverse_matches_adjugate():
    rng = random.Random(17)
    for rank in range(8):
        for _ in range(25):
            m = random_unimodular(rng, rank, max_entry=rng.choice((1, 2, 3)), steps=12)
            inv = inverse_unimodular(m)
            assert inv == inverse_adjugate(m), m
            assert matmul(m, inv) == identity(rank) == matmul(inv, m)


def test_inverse_needs_row_swaps_and_negative_pivots():
    m = ((0, 1, 0), (0, 0, -1), (1, 0, 0))
    assert inverse_unimodular(m) == inverse_adjugate(m) == ((0, 0, 1), (1, 0, 0), (0, -1, 0))
    m = ((2, 1), (1, 1))
    assert inverse_unimodular(m) == inverse_adjugate(m) == ((1, -1), (-1, 2))

