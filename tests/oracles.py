"""Independent oracles and random-instance builders for the test suite.

The symbolic cohomology oracle here recomputes sphere-bundle invariants from
the ring presentation (base ring extended by the fiber class subject to its
quadratic relation, integrated against the fundamental class) rather than
from the closed-form tables in the package, so the two paths check each
other.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product

from conitop import (
    FourManifold,
    IntersectionForm,
    IsomorphismWitness,
    RankTwoBundle,
    ValidationError,
    connected_sum,
    make_system,
    signature,
    standard,
    verify_witness,
)
from conitop.cones import _diagonal_terms
from conitop.equiv import spiral_entries
from conitop.intmat import determinant, dot, matvec, transpose
from conitop.sixfold import triple_indices

CATALOG = ("S4", "CP2", "CP2bar", "S2xS2")


# -- exact eigenvalue-sign oracle for tiny symmetric matrices ----------------


def signature_oracle_small(rows) -> int:
    """Sign count of eigenvalues for 1x1 and 2x2 symmetric integer matrices.

    Uses the characteristic polynomial: for 2x2, the eigenvalue signs are
    determined exactly by the determinant and trace.
    """
    n = len(rows)
    if n == 0:
        return 0
    if n == 1:
        a = rows[0][0]
        return (a > 0) - (a < 0)
    if n == 2:
        a, b = rows[0][0], rows[0][1]
        c = rows[1][1]
        det = a * c - b * b
        tr = a + c
        if det > 0:
            return 2 if tr > 0 else -2
        if det < 0:
            return 0
        return (tr > 0) - (tr < 0)
    raise ValueError("oracle only handles ranks 0..2")


def signature_reference(rows) -> int:
    """Dense Lagrange reduction over ``Fraction``, the pre-sparse ``signature``.

    Rebuilds the whole (n-1)x(n-1) Schur complement at every pivot, with the
    same pivot rule: the first nonzero diagonal entry, else the hyperbolic
    plane on the first off-diagonal nonzero entry.
    """
    m = [[Fraction(v) for v in row] for row in rows]
    pos = neg = 0
    while m:
        n = len(m)
        k = next((i for i in range(n) if m[i][i] != 0), None)
        if k is not None:
            a = m[k][k]
            if a > 0:
                pos += 1
            else:
                neg += 1
            rest = [i for i in range(n) if i != k]
            m = [[m[i][j] - m[i][k] * m[k][j] / a for j in rest] for i in rest]
            continue
        hyp = next(
            ((i, j) for i in range(n) for j in range(i + 1, n) if m[i][j] != 0),
            None,
        )
        if hyp is None:
            break
        k, l = hyp
        b = m[k][l]
        pos += 1
        neg += 1
        rest = [i for i in range(n) if i not in (k, l)]
        m = [
            [m[i][j] - (m[i][k] * m[j][l] + m[i][l] * m[j][k]) / b for j in rest]
            for i in rest
        ]
    return pos - neg


def connected_sum_pair_reference(n1: FourManifold, n2: FourManifold) -> FourManifold:
    """The pairwise connected sum, as it was before ``connected_sum`` took n summands."""
    c1 = None
    if n1.c1_tangent is not None and n2.c1_tangent is not None:
        c1 = n1.c1_tangent + n2.c1_tangent
    label = n1.label if n2.rank == 0 and n2.label == "S4" else f"{n1.label} # {n2.label}"
    r1, r2 = n1.rank, n2.rank
    rows = [list(row) + [0] * r2 for row in n1.form.matrix]
    rows += [[0] * r1 + list(row) for row in n2.form.matrix]
    return FourManifold(
        label,
        IntersectionForm(rows),
        n1.w2 + n2.w2,
        c1,
        n1.simply_connected and n2.simply_connected,
    )


def matmul(a, b):
    """Product of two integer matrices given as row tuples."""
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


MAX_EXHAUSTIVE_RANK = 20


def is_characteristic_exhaustive(w, q: IntersectionForm) -> bool:
    """Wu condition checked by running over all 2^rank mod-2 vectors.

    Independent of ``is_characteristic``'s closed form; refuses ranks above
    MAX_EXHAUSTIVE_RANK.
    """
    if q.rank > MAX_EXHAUSTIVE_RANK:
        raise ValidationError(
            f"exhaustive characteristic check limited to rank {MAX_EXHAUSTIVE_RANK}"
        )
    for x in mod2_vectors(q.rank):
        if (q.evaluate(x, x) - q.evaluate(w, x)) % 2 != 0:
            return False
    return True


def manifold_fields(n: FourManifold) -> tuple:
    return (n.label, n.form.matrix, n.w2, n.c1_tangent, n.simply_connected)


# -- symbolic cohomology of the base ----------------------------------------

# A class in H*(N) for simply-connected N is (deg0, deg2 vector, deg4 int),
# the deg4 part measured against the dual of the fundamental class.


def base_zero(rank):
    return (0, (0,) * rank, 0)


def base_scalar(c, rank):
    return (c, (0,) * rank, 0)


def base_deg2(vec, rank):
    return (0, tuple(vec), 0)


def base_deg4(c, rank):
    return (0, (0,) * rank, c)


def base_add(u, v):
    return (u[0] + v[0], tuple(a + b for a, b in zip(u[1], v[1])), u[2] + v[2])


def base_neg(u):
    return (-u[0], tuple(-a for a in u[1]), -u[2])


def base_mul(u, v, form):
    deg2 = tuple(u[0] * b + v[0] * a for a, b in zip(u[1], v[1]))
    deg4 = u[0] * v[2] + v[0] * u[2] + form.evaluate(u[1], v[1])
    return (u[0] * v[0], deg2, deg4)


# An element of the bundle's cohomology is p + a.q with p, q base classes and
# a the fiber class, reduced via  a^2 = -c1(E).a - c2(E)  (pulled back).


def pelt(p, q):
    return (p, q)


def pelt_mul(x, y, form, c1_vec, c2_val, rank):
    qq = base_mul(x[1], y[1], form)
    c1_cls = base_deg2(c1_vec, rank)
    c2_cls = base_deg4(c2_val, rank)
    p = base_add(base_mul(x[0], y[0], form), base_neg(base_mul(c2_cls, qq, form)))
    q = base_add(
        base_add(base_mul(x[0], y[1], form), base_mul(x[1], y[0], form)),
        base_neg(base_mul(c1_cls, qq, form)),
    )
    return (p, q)


def pelt_integrate(x):
    """Pairing of a top-degree element with the fundamental class."""
    return x[1][2]


def ring_oracle_system(base: FourManifold, e: RankTwoBundle):
    """Recompute (mu, p1, w2, c1) of the sphere bundle from the ring relation."""
    rank = base.rank
    form = base.form

    def basis_elt(i):
        if i == 0:
            return pelt(base_zero(rank), base_scalar(1, rank))
        vec = tuple(1 if j == i - 1 else 0 for j in range(rank))
        return pelt(base_deg2(vec, rank), base_zero(rank))

    def mul(x, y):
        return pelt_mul(x, y, form, e.c1, e.c2, rank)

    r = rank + 1
    mu = {}
    for i in range(r):
        for j in range(i, r):
            for k in range(j, r):
                prod3 = mul(mul(basis_elt(i), basis_elt(j)), basis_elt(k))
                mu[(i, j, k)] = pelt_integrate(prod3)

    p1_val = 3 * signature(form) + form.evaluate(e.c1, e.c1) - 4 * e.c2
    p1_cls = pelt(base_deg4(p1_val, rank), base_zero(rank))
    p1 = tuple(pelt_integrate(mul(p1_cls, basis_elt(i))) for i in range(r))

    w2 = (0,) + tuple((a + b) % 2 for a, b in zip(base.w2, e.c1))
    c1_class = None
    if base.c1_tangent is not None:
        c1_class = (2,) + tuple(a + b for a, b in zip(base.c1_tangent, e.c1))
    return mu, p1, w2, c1_class


# -- random instances ---------------------------------------------------------


def nonzero_entries_reference(rows) -> tuple:
    """The nonzero (i, j, Q_ij), i <= j, of a dense matrix, read cell by cell in row order."""
    n = len(rows)
    return tuple((i, j, rows[i][j]) for i in range(n) for j in range(i, n) if rows[i][j] != 0)


def block_diagonal_reference(blocks):
    """The dense block-diagonal matrix of the given dense blocks, cell by cell."""
    n = sum(map(len, blocks))
    rows, offset = [[0] * n for _ in range(n)], 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[offset + i][offset : offset + len(row)] = row
        offset += len(block)
    return rows


def random_symmetric_rows(rng: random.Random, rank: int, span: int = 3):
    rows = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            v = rng.randint(-span, span)
            rows[i][j] = rows[j][i] = v
    return tuple(tuple(row) for row in rows)


def random_catalog_sum(rng: random.Random, max_pieces: int = 3) -> FourManifold:
    pieces = [rng.choice(CATALOG) for _ in range(rng.randint(1, max_pieces))]
    out = standard(pieces[0])
    for name in pieces[1:]:
        out = connected_sum(out, standard(name))
    return out


def random_bundle(rng: random.Random, base: FourManifold, span: int = 2) -> RankTwoBundle:
    c1 = tuple(rng.randint(-span, span) for _ in range(base.rank))
    return RankTwoBundle(base, c1, rng.randint(-span, span))


def random_unimodular(rng: random.Random, rank: int, max_entry: int = 2, steps: int = 6):
    """Random determinant +-1 matrix with bounded entries.

    Built from signed permutations and unit shears, rejecting any step that
    would push an entry beyond ``max_entry``.
    """
    if rank == 0:
        return ()
    rows = [[rng.choice((1, -1)) if i == j else 0 for j in range(rank)] for i in range(rank)]
    perm = list(range(rank))
    rng.shuffle(perm)
    rows = [rows[p] for p in perm]
    for _ in range(steps):
        i, j = rng.randrange(rank), rng.randrange(rank)
        if i == j:
            continue
        sign = rng.choice((1, -1))
        candidate = [list(row) for row in rows]
        for col in range(rank):
            candidate[i][col] += sign * candidate[j][col]
        if all(abs(v) <= max_entry for row in candidate for v in row):
            rows = candidate
    return tuple(tuple(row) for row in rows)


def mod2_vectors(rank: int):
    return product(range(2), repeat=rank)


def random_system(rng: random.Random, rank: int, span: int = 3, fill: float = 0.4):
    """A system with random mu entries, any triple allowed, about ``fill`` nonzero."""
    entries = {
        ijk: rng.randint(-span, span)
        for ijk in triple_indices(rank)
        if rng.random() < fill
    }
    p1 = tuple(rng.randint(-span, span) for _ in range(rank))
    w2 = tuple(rng.randint(0, 1) for _ in range(rank))
    return make_system(rank, entries, p1, w2)


def chain(n, p1_0=0):
    """One n-slot block that is no cone, a chain of triples with no common slot."""
    mu = {(i, i, i + 1): 1 for i in range(n - 1)}
    return make_system(n, mu, (p1_0,) + (0,) * (n - 1), (0,) * n)


def mu_list(s):
    return [v for _, v in s.mu_items()]


# -- dense references for the sparse mu evaluation ----------------------------


def mu_eval_dense(s, x, y, z) -> int:
    """mu(x, y, z) as the full r^3 sum over ``mu_value``."""
    r = s.rank
    return sum(
        s.mu_value(i, j, k) * x[i] * y[j] * z[k]
        for i in range(r)
        for j in range(r)
        for k in range(r)
    )


def mu_contract_dense(s, v):
    """M[p][q] = sum_k mu(p, q, k) v[k], one r-term sum per entry."""
    r = s.rank
    return [
        [sum(s.mu_value(p, q, k) * v[k] for k in range(r)) for q in range(r)]
        for p in range(r)
    ]


def pull_back_dense(s, rows):
    """mu(A e_i, A e_j, A e_k) on every triple i <= j <= k, zeros dropped.

    The dense loop ``verify_witness`` and ``transport_system`` ran before
    ``InvariantSystem.pull_back``: one :func:`mu_eval_dense` per triple of columns.
    """
    cols = transpose(rows)
    values = ((ijk, mu_eval_dense(s, *(cols[i] for i in ijk))) for ijk in triple_indices(s.rank))
    return tuple((ijk, v) for ijk, v in values if v)


def determinant_laplace(m) -> int:
    """The determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * v * determinant_laplace(_minor(m, 0, j)) for j, v in enumerate(m[0]))


def _minor(m, row, col):
    return tuple(
        tuple(v for j, v in enumerate(r) if j != col) for i, r in enumerate(m) if i != row
    )


def inverse_adjugate(m):
    """The inverse of a determinant +-1 matrix as its adjugate, built from n^2 minors.

    ``inverse_unimodular`` before the elimination: inv[i][j] is
    d (-1)^(i+j) det(minor(j, i)); raises ``ValidationError`` otherwise.
    """
    d = determinant(m)
    if d not in (1, -1):
        raise ValidationError(f"matrix has determinant {d}, expected +-1")
    n = len(m)
    return tuple(
        tuple(d * (-1) ** (i + j) * determinant(_minor(m, j, i)) for j in range(n))
        for i in range(n)
    )


def has_even_w2_cubic_exhaustive(s) -> bool:
    """mu(w2 lift, x, x) even for all x, checked on all 2^rank residues mod 2."""
    return all(
        mu_eval_dense(s, s.w2, x, x) % 2 == 0 for x in mod2_vectors(s.rank)
    )


def fingerprint_reference(s, p: int):
    """The fingerprint histogram rows, each key evaluated at every point.

    The w2 key is mu(w2, x, x) mod 2 at p = 2, read from the contraction
    :func:`mu_contract_dense` by w2, and 0 at odd p.
    """
    w = mu_contract_dense(s, s.w2)

    def w2_key(x):
        return sum(m * a * b for row, a in zip(w, x) for m, b in zip(row, x)) % 2

    hist = Counter(
        (s.cubic(x) % p, s.p1_pairing(x) % p, w2_key(x) if p == 2 else 0)
        for x in product(range(p), repeat=s.rank)
    )
    return tuple(key + (n,) for key, n in sorted(hist.items()))


def cone_blocks_reference(s):
    """``cones.cone_blocks(s)`` from the components of the triple graph.

    Slots are joined by union-find, each triple joining its slots; the blocks
    are listed by their least slot, each with its slots in order and its
    entries in ``s.mu`` order, and its vertex is the least slot common to all
    its triples (a slot that no triple meets is its own vertex), or None.
    """
    parent = list(range(s.rank))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for t, _ in s.mu:
        for i in t:
            parent[root(i)] = root(t[0])
    blocks = {}
    for i in range(s.rank):
        blocks.setdefault(root(i), []).append(i)
    out = []
    for slots in blocks.values():
        entries = [(t, v) for t, v in s.mu if root(t[0]) == root(slots[0])]
        common = [i for i in slots if all(i in t for t, _ in entries)]
        out.append((common[0] if common else None, slots, entries))
    return out


def cone_convolution_reference(s, v0, slots, entries, p: int) -> dict:
    """A cone block's (cubic, p1) histogram over F_p^slots, one convolution per coordinate.

    ``cones._cone`` as it was before the closed form for flat blocks.  With
    x = t e_v0 + y, after ``cones._diagonal_terms`` the t = 1 key is
    (mu_sss, p1_s) plus a term (3 beta z + 3 d z^2, gamma z) per coordinate,
    and each coordinate's table of p values is convolved in.  t = lambda != 0
    takes the keys (lambda^3 c, lambda pi), and t = 0 the keys (0, g.y).
    """
    m, rows = 0, {i: {} for i in slots if i != v0}
    lin = {i: [0, s.p1[i] % p] for i in rows}
    for ijk, v in entries:
        pair = list(ijk)
        pair.remove(v0)
        i, j = pair
        if i == j == v0:
            m = v
        elif v0 in pair:
            lin[i + j - v0][0] = v % p
        elif v % p:
            rows[i][j] = rows[j][i] = v % p
    t1 = Counter({(m % p, s.p1[v0] % p): 1})
    for (d, b, g), n in _diagonal_terms(rows, lin, p).items():
        table = Counter(((3 * b * z + 3 * d * z * z) % p, g * z % p) for z in range(p))
        for _ in range(n):
            out = Counter()
            for (c, q), x in t1.items():
                for (u, w), y in table.items():
                    out[(c + u) % p, (q + w) % p] += x * y
            t1 = out
    # t = 0: y runs over F_p^n, and g.y is 0 or uniform over F_p
    n = len(slots) - 1
    if any(s.p1[i] % p for i in slots if i != v0):
        block = Counter({(0, q): p ** (n - 1) for q in range(p)})
    else:
        block = Counter({(0, 0): p**n})
    for (c, q), x in t1.items():
        for lam in range(1, p):
            block[c * lam**3 % p, q * lam % p] += x
    return dict(block)


# -- the witness search before per-column candidate tables --------------------


def find_isomorphism_reference(s1, s2, bound: int, check_c1: bool = False):
    """``find_isomorphism`` as it was before candidate tables, without its budget.

    Tests every raw column in the same enumeration order: the p1 pairing,
    then every triple (i, j, c) it completes, each rebuilt from
    :func:`mu_contract_dense`; a full matrix must pass ``verify_witness``.
    """
    if s1.rank != s2.rank or s1.b3 != s2.b3:
        return None
    r = s1.rank
    both_c1 = s1.c1_class is not None and s2.c1_class is not None
    if r == 0:
        return IsomorphismWitness((), preserves_c1=both_c1)
    entries = spiral_entries(bound)
    contractions = {}

    def column_ok(c, v, cols):
        if dot(s2.p1, v) != s1.p1[c]:
            return False
        if v not in contractions:
            contractions[v] = mu_contract_dense(s2, v)
        m = contractions[v]
        stack = cols + [v]
        for i in range(c + 1):
            ci = stack[i]
            for j in range(i, c + 1):
                cj = stack[j]
                val = 0
                for p, cip in enumerate(ci):
                    if cip:
                        row = m[p]
                        val += cip * sum(cj[q] * row[q] for q in range(r) if cj[q])
                if val != s1.mu_value(i, j, c):
                    return False
        return True

    def complete_from(cols):
        c = len(cols)
        if c == r:
            rows = transpose(tuple(cols))
            if not verify_witness(s1, s2, rows, check_c1):
                return None
            return IsomorphismWitness(
                rows, both_c1 and matvec(rows, s1.c1_class) == s2.c1_class
            )
        for v in product(entries, repeat=r):
            if column_ok(c, v, cols):
                found = complete_from(cols + [v])
                if found is not None:
                    return found
        return None

    return complete_from([])
