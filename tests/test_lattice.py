import random
from fractions import Fraction

from conitop import (
    IntersectionForm,
    direct_sum,
    is_characteristic,
    is_unimodular,
    signature,
)
from conitop import intmat
from conitop.lattice import _quotient, _reduce, determinant

from oracles import (
    block_diagonal_reference,
    is_characteristic_exhaustive,
    matmul,
    nonzero_entries_reference,
    random_symmetric_rows,
    random_unimodular,
    signature_oracle_small,
    signature_reference,
)

HYPERBOLIC = IntersectionForm([[0, 1], [1, 0]])


def test_signature_examples():
    assert signature(IntersectionForm([[1]])) == 1
    assert signature(IntersectionForm([[-1]])) == -1
    # hyperbolic plane: eigenvalues +-1, so the sign count is 0
    assert signature_oracle_small([[0, 1], [1, 0]]) == 0
    assert signature(HYPERBOLIC) == 0
    assert signature(IntersectionForm(())) == 0


def test_signature_matches_eigen_oracle_exhaustively():
    span = range(-3, 4)
    for a in span:
        assert signature(IntersectionForm([[a]])) == signature_oracle_small([[a]])
    for a in span:
        for b in span:
            for c in span:
                rows = [[a, b], [b, c]]
                assert signature(IntersectionForm(rows)) == signature_oracle_small(rows)


def test_inexact_quotient_takes_the_fraction_branch():
    # the pivot 2 leaves 2 - 1*1/2 = 3/2 in the other row; Fraction is imported there
    q = IntersectionForm([[2, 1], [1, 2]])
    assert signature(q) == 2 and determinant(q) == 3 and not is_unimodular(q)
    assert _quotient(2, 1, 2) == Fraction(3, 2)
    assert type(_quotient(2, 4, 2)) is int and _quotient(2, 4, 2) == 0
    assert signature(IntersectionForm([[-2, 1], [1, -2]])) == -2
    assert determinant(IntersectionForm([[3, 1, 1], [1, 3, 1], [1, 1, 3]])) == 20


E8_ROWS = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)


def test_e8_form_known_values():
    # the even positive-definite rank-8 unimodular form: det 1, signature 8
    q = IntersectionForm(E8_ROWS)
    assert determinant(q) == 1
    assert signature(q) == 8
    assert is_characteristic((0,) * 8, q)
    neg = IntersectionForm([[-v for v in row] for row in E8_ROWS])
    assert signature(neg) == -8
    assert signature(direct_sum(q, neg)) == 0


def _shuffled(rng, rows):
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return tuple(tuple(rows[i][j] for j in perm) for i in perm)


def _zero_diagonal(rng, rank):
    rows = [list(row) for row in random_symmetric_rows(rng, rank)]
    for i in range(rank):
        rows[i][i] = 0
    return rows


def _low_rank(rng, rank):
    # M^T D M with M of k < rank rows, so the form is singular
    k = rng.randrange(rank)
    m = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(k)]
    d = [rng.choice((-2, -1, 1, 2)) for _ in range(k)]
    return [
        [sum(m[t][i] * d[t] * m[t][j] for t in range(k)) for j in range(rank)]
        for i in range(rank)
    ]


def _hyperbolic_only(rng, rank):
    # planes [[0, b], [b, 0]], plus a zero row at odd rank, on a shuffled basis
    rows = [[0] * rank for _ in range(rank)]
    for i in range(0, rank - 1, 2):
        rows[i][i + 1] = rows[i + 1][i] = rng.choice((1, -1, 2, -3))
    return _shuffled(rng, rows)


def _block_sum(rng, rank):
    blocks, left = [], rank
    while left:
        size = rng.randint(1, left)
        make = rng.choice((random_symmetric_rows, _zero_diagonal, _hyperbolic_only))
        blocks.append(IntersectionForm(make(rng, size)))
        left -= size
    return _shuffled(rng, direct_sum(*blocks).matrix)


def _congruent(rng, rank):
    # A^T Q A with det A = +-1: large entries, same signature and determinant
    a = random_unimodular(rng, rank, max_entry=3, steps=12)
    q = random_symmetric_rows(rng, rank)
    return matmul(intmat.transpose(a), matmul(q, a))


FORM_FAMILIES = (
    random_symmetric_rows,
    _zero_diagonal,
    _low_rank,
    _hyperbolic_only,
    _block_sum,
    _congruent,
)


def _assert_matches_oracles(rows):
    q = IntersectionForm(rows)
    det = intmat.determinant(q.matrix)
    assert signature(q) == signature_reference(q.matrix), q.matrix
    assert determinant(q) == det, q.matrix
    assert is_unimodular(q) == (det in (1, -1))
    return det


def test_reduction_matches_dense_and_bareiss_oracles():
    rng = random.Random(20261018)
    dets = {name.__name__: set() for name in FORM_FAMILIES}
    for rank in range(11):
        for family in FORM_FAMILIES:
            for _ in range(6):
                if rank == 0 and family is _low_rank:
                    continue
                dets[family.__name__].add(_assert_matches_oracles(family(rng, rank)))
    # every family reaches both singular and nonsingular forms
    assert 0 in dets["_low_rank"] and 0 in dets["_hyperbolic_only"]
    assert all(dets[name] - {0} for name in dets if name != "_low_rank")


def test_reduction_matches_oracles_on_e8():
    e8 = IntersectionForm(E8_ROWS)
    neg = IntersectionForm([[-v for v in row] for row in E8_ROWS])
    rng = random.Random(8)
    for rows, det in (
        (e8.matrix, 1),
        (neg.matrix, 1),
        (_shuffled(rng, direct_sum(e8, neg).matrix), 1),
        (_shuffled(rng, direct_sum(neg, HYPERBOLIC, e8, e8).matrix), -1),
    ):
        assert _assert_matches_oracles(rows) == det


def test_direct_sum_composes_the_reduction_of_its_blocks():
    # degenerate, non-unimodular and hyperbolic blocks included; _reduce reads
    # only the entries, so it re-derives what direct_sum composed from the blocks
    rng = random.Random(20261019)
    families = (random_symmetric_rows, _zero_diagonal, _low_rank, _hyperbolic_only)
    dets = set()
    for _ in range(300):
        dense = [rng.choice(families)(rng, rng.randint(1, 5)) for _ in range(rng.randint(0, 4))]
        total = direct_sum(*map(IntersectionForm, dense))
        assert total._inertia == _reduce(total), total.matrix
        # the entries composed from the blocks are those of the block-diagonal matrix
        expected = block_diagonal_reference(dense)
        assert total.entries == nonzero_entries_reference(expected), expected
        assert total == IntersectionForm(expected) and total.matrix == tuple(map(tuple, expected))
        dets.add(total._inertia[2])
    assert 0 in dets and {1, -1} <= dets and len(dets) > 10


def test_matvec_and_evaluate_from_the_entries_equal_dense_products():
    rng = random.Random(20261020)
    families = (random_symmetric_rows, _zero_diagonal, _low_rank, _hyperbolic_only)
    for _ in range(300):
        rows = rng.choice(families)(rng, rng.randint(1, 6))
        q = IntersectionForm(rows)
        assert q.entries == nonzero_entries_reference(rows)
        x, y = ([rng.randint(-5, 5) for _ in rows] for _ in range(2))
        assert q.matvec(x) == intmat.matvec(q.matrix, tuple(x))
        assert q.evaluate(x, y) == intmat.dot(x, intmat.matvec(q.matrix, tuple(y)))
    assert IntersectionForm(()).matvec(()) == () and IntersectionForm(()).evaluate((), ()) == 0


def test_cached_reduction_leaves_equality_hash_and_repr_alone():
    summed = direct_sum(HYPERBOLIC, IntersectionForm([[2]]))
    fresh = IntersectionForm(summed.matrix)
    assert "_inertia" in summed.__dict__ and "_inertia" not in fresh.__dict__
    assert summed == fresh and hash(summed) == hash(fresh) and repr(summed) == repr(fresh)
    assert determinant(fresh) == determinant(summed) == -2


def test_signature_even_form_with_zero_diagonal():
    # forces the hyperbolic-split pivot path at rank 4
    rows = [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 2],
        [0, 0, 2, 0],
    ]
    assert signature(IntersectionForm(rows)) == 0


def test_unimodular_examples():
    assert is_unimodular(IntersectionForm([[1]]))
    assert not is_unimodular(IntersectionForm([[2]]))
    # cofactor expansion of the hyperbolic form gives determinant -1
    assert determinant(HYPERBOLIC) == -1
    assert is_unimodular(HYPERBOLIC)
    assert is_unimodular(IntersectionForm(()))


def test_direct_sum_examples():
    plus = IntersectionForm([[1]])
    minus = IntersectionForm([[-1]])
    assert direct_sum(plus, minus).matrix == ((1, 0), (0, -1))
    q = HYPERBOLIC
    assert direct_sum(q, IntersectionForm(())).matrix == q.matrix
    assert direct_sum(IntersectionForm(()), q).matrix == q.matrix
    two_minus = direct_sum(minus, minus)
    assert two_minus.matrix == ((-1, 0), (0, -1))
    assert signature(two_minus) == -2


def test_characteristic_examples():
    plus = IntersectionForm([[1]])
    assert is_characteristic((1,), plus)
    assert not is_characteristic((0,), plus)
    assert is_characteristic_exhaustive((0, 0), HYPERBOLIC)
    assert is_characteristic((0, 0), HYPERBOLIC)
    assert is_characteristic((), IntersectionForm(()))


def test_characteristic_closed_form_agrees_with_exhaustive():
    rng = random.Random(404)
    for _ in range(120):
        rank = rng.randint(0, 6)
        q = IntersectionForm(random_symmetric_rows(rng, rank))
        w = tuple(rng.randint(0, 1) for _ in range(rank))
        assert is_characteristic(w, q) == is_characteristic_exhaustive(w, q)
    # block sums carry entries composed from their blocks; the oracle runs on
    # the checked form of the same dense matrix, whose entries are derived
    seen = set()
    for _ in range(120):
        dense = [random_symmetric_rows(rng, rng.randint(0, 3)) for _ in range(rng.randint(0, 3))]
        total = direct_sum(*map(IntersectionForm, dense))
        w = tuple(rng.randint(0, 1) for _ in range(total.rank))
        verdict = is_characteristic(w, total)
        assert verdict == is_characteristic_exhaustive(w, IntersectionForm(block_diagonal_reference(dense)))
        seen.add(verdict)
    assert seen == {True, False}


def test_evaluate_and_matvec():
    q = HYPERBOLIC
    assert q.matvec((1, 2)) == (2, 1)
    assert q.evaluate((1, 2), (3, 4)) == 1 * 4 + 2 * 3
