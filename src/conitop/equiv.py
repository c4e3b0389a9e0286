"""Decide equivalence of invariant systems.

Two tools, by design incomplete but sound:

* a bounded exhaustive search over integer matrices for an explicit
  determinant +-1 witness transporting the whole invariant system (a proof
  of isomorphism), and
* invariant fingerprints over small prime fields whose mismatch certifies
  distinctness (a proof of non-isomorphism).

Verdicts are therefore three-valued: isomorphic (witness), distinct
(certificate), or inconclusive.

Witness convention: the matrix ``A`` maps coordinates in the first system's
basis to coordinates in the second's, column ``i`` being the image of the
``i``-th basis vector.  Transport conditions:

  mu2(A ei, A ej, A ek) = mu1(ei, ej, ek)     for all triples,
  A^T p1_2 = p1_1,   A w2_1 = w2_2 (mod 2),   A c1_1 = c1_2 (optional).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, product, repeat

from .errors import SearchBudgetError, ValidationError
from .intmat import (
    Mat,
    Vec,
    determinant,
    dot,
    inverse_unimodular,
    matvec,
    transpose,
    vec_mod2,
)
from .sixfold import InvariantSystem, make_system, triple_indices

DEFAULT_BOUND = 3
DEFAULT_PRIMES = (2, 3, 5)
SUPPORTED_PRIMES = (2, 3, 5, 7)
MAX_FINGERPRINT_RANK = 6
DEFAULT_STEP_BUDGET = 10**9


@dataclass(frozen=True)
class IsomorphismWitness:
    """A verified basis change; constitutes a proof of isomorphism."""

    matrix: Mat
    preserves_c1: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "matrix", tuple(tuple(int(v) for v in row) for row in self.matrix)
        )
        if determinant(self.matrix) not in (1, -1):
            raise ValidationError("witness matrix must have determinant +-1")


@dataclass(frozen=True)
class DistinctnessCertificate:
    """A re-checkable reason two systems cannot be isomorphic."""

    kind: str  # "rank" | "b3" | "fingerprint"
    prime: int | None
    detail: tuple


def spiral_entries(bound: int) -> tuple[int, ...]:
    """Candidate entry values in search order: 0, 1, -1, 2, -2, ..."""
    out = [0]
    for k in range(1, bound + 1):
        out.extend((k, -k))
    return tuple(out)


def verify_witness(
    s1: InvariantSystem, s2: InvariantSystem, matrix, check_c1: bool = False
) -> bool:
    """Exact transport check; b3, det, p1, w2 and c1 come before the C(r+2, 3) mu triples."""
    if s1.rank != s2.rank:
        raise ValidationError("systems have different ranks")
    rows = tuple(tuple(int(v) for v in row) for row in matrix)
    r = s1.rank
    if len(rows) != r or any(len(row) != r for row in rows):
        raise ValidationError("witness matrix shape does not match rank")
    if check_c1 and (s1.c1_class is None or s2.c1_class is None):
        raise ValidationError("c1 transport requested but a system lacks c1_class")
    if s1.b3 != s2.b3:
        return False
    if determinant(rows) not in (1, -1):
        return False
    cols = transpose(rows)
    if any(dot(s2.p1, cols[i]) != s1.p1[i] for i in range(r)):
        return False
    if vec_mod2(matvec(rows, s1.w2)) != s2.w2:
        return False
    if check_c1 and matvec(rows, s1.c1_class) != s2.c1_class:
        return False
    return all(
        s2.mu_eval(cols[i], cols[j], cols[k]) == s1.mu_value(i, j, k)
        for i, j, k in triple_indices(r)
    )


def _c1_transported(s1: InvariantSystem, s2: InvariantSystem, rows: Mat) -> bool:
    if s1.c1_class is None or s2.c1_class is None:
        return False
    return matvec(rows, s1.c1_class) == s2.c1_class


class _WitnessSearch:
    """Column-by-column enumeration with pruning.

    Columns are chosen left to right; within a column, entries range over
    :func:`spiral_entries` with row 0 most significant.  The first fully
    verified matrix in this order wins, which makes the result reproducible.
    """

    def __init__(self, s1: InvariantSystem, s2: InvariantSystem, bound: int, check_c1: bool):
        self.s1 = s1
        self.s2 = s2
        self.r = s1.rank
        self.check_c1 = check_c1
        self.entries = spiral_entries(bound)

    def column_ok(self, c: int, v: Vec, cols: list[Vec]) -> bool:
        """Prune: cubic/p1 of the new column and every mu triple it completes."""
        if dot(self.s2.p1, v) != self.s1.p1[c]:
            return False
        m = self.s2.mu_contract(v)
        stack = cols + [v]
        for i in range(c + 1):
            ci = stack[i]
            for j in range(i, c + 1):
                cj = stack[j]
                val = 0
                for p, cip in enumerate(ci):
                    if cip:
                        row = m[p]
                        val += cip * sum(cj[q] * row[q] for q in range(self.r) if cj[q])
                if val != self.s1.mu_value(i, j, c):
                    return False
        return True

    def finish(self, cols: list[Vec]) -> IsomorphismWitness | None:
        rows = transpose(tuple(cols))
        if not verify_witness(self.s1, self.s2, rows, self.check_c1):
            return None
        return IsomorphismWitness(rows, _c1_transported(self.s1, self.s2, rows))

    def complete_from(self, cols: list[Vec]) -> IsomorphismWitness | None:
        """Depth-first completion of a partial column assignment."""
        c = len(cols)
        if c == self.r:
            return self.finish(cols)
        for v in product(self.entries, repeat=self.r):
            if self.column_ok(c, v, cols):
                found = self.complete_from(cols + [v])
                if found is not None:
                    return found
        return None


def find_isomorphism(
    s1: InvariantSystem,
    s2: InvariantSystem,
    bound: int = DEFAULT_BOUND,
    check_c1: bool = False,
    step_budget: int | None = None,
) -> IsomorphismWitness | None:
    """Exhaustive bounded search for a witness; None is NOT a distinctness proof.

    Returns the first verified witness in the fixed enumeration order, or
    None when the bounded space holds no witness (or the ranks / third Betti
    numbers already disagree).  Refuses to start when the raw candidate count
    (2 bound + 1)^(rank^2) exceeds the step budget.
    """
    if bound < 1:
        raise ValidationError("search bound must be at least 1")
    if s1.rank != s2.rank or s1.b3 != s2.b3:
        return None
    if check_c1 and (s1.c1_class is None or s2.c1_class is None):
        raise ValidationError("c1 transport requested but a system lacks c1_class")
    r = s1.rank
    if r == 0:
        return IsomorphismWitness(
            (), preserves_c1=s1.c1_class is not None and s2.c1_class is not None
        )
    budget = DEFAULT_STEP_BUDGET if step_budget is None else step_budget
    space = (2 * bound + 1) ** (r * r)
    if space > budget:
        raise SearchBudgetError(
            f"search space {space} exceeds step budget {budget}"
        )
    return _WitnessSearch(s1, s2, bound, check_c1).complete_from([])


def _w2_square_parities(s: InvariantSystem) -> tuple[int, ...]:
    """The diagonal values mu(W, e_i, e_i) mod 2, W the 0/1 lift of w2.

    Mod 2, mu(W, x, x) = sum_i x_i mu(W, e_i, e_i): the off-diagonal terms
    come in equal pairs and x_i^2 = x_i.  So these rank-many parities give
    mu(W, x, x) mod 2 as a linear form in x.
    """
    m = s.mu_contract(s.w2)
    return tuple(m[i][i] % 2 for i in range(s.rank))


def has_even_w2_cubic(s: InvariantSystem) -> bool:
    """Whether mu(w2 lift, x, x) is even for every integral x.

    True for every system arising from a closed oriented 6-manifold (a Wu
    formula consequence) and for everything this package constructs.  By
    :func:`_w2_square_parities` the rank-many diagonal values decide it.
    """
    return not any(_w2_square_parities(s))


def fingerprint(s: InvariantSystem, p: int) -> tuple[tuple[int, int, int], ...]:
    """Sorted multiset of (cubic, p1 pairing, w2 pairing mod 2) over F_p points.

    Ranges over the canonical representatives x in {0..p-1}^rank and collects
    (mu(x,x,x) mod p, p1.x mod p, mu(w,x,x) mod 2) with w the 0/1 lift of w2;
    the last component only depends on x mod 2, so it is lift-independent,
    and it is computed as a linear form (see :func:`_w2_square_parities`).

    The points are visited by a depth-first walk that fixes x_0, x_1, ... in
    turn.  With the prefix x fixed and the coordinates j, j' >= k still free,
    a node carries mu(x,x,x), the contractions L[j] = mu(x,x,e_j) and
    Q[j][j'] = mu(x,e_j,e_j'), and the running p1 and w2 sums; fixing
    x_k = t updates them from the slice mu(e_k,.,.) (see
    :meth:`InvariantSystem.mu_contract`) in O(r^2).  With one coordinate e
    left free, the cubic is a + 3 L t + 3 Q t^2 + mu(e,e,e) t^3 in x_e = t,
    so a leaf is the state (a, L, Q, p1 sum, w2 sum) reduced mod p and
    mod 2.  Equal leaves are counted once, and each distinct leaf adds its p
    points to a histogram of triples, which is expanded back into the sorted
    tuple.  The cost is p^(r-1) leaves and O(r^2) work per interior node,
    where evaluating the cubic directly costs O(nonzeros of mu) at each of
    the p^r points.

    Any witness maps this multiset onto the other system's.  For odd p that
    argument additionally needs the mod-2 component to vanish identically
    (see :func:`has_even_w2_cubic`), which holds for all genuinely geometric
    systems; :func:`certify_distinct` only trusts odd-p mismatches after
    checking it.
    """
    if p not in SUPPORTED_PRIMES:
        raise ValidationError(f"fingerprint prime must be one of {SUPPORTED_PRIMES}")
    if s.rank > MAX_FINGERPRINT_RANK:
        raise ValidationError(
            f"fingerprint enumeration limited to rank {MAX_FINGERPRINT_RANK}"
        )
    r = s.rank
    if r == 0:
        return ((0, 0, 0),)
    d = _w2_square_parities(s)
    # slices[k][i][j] = mu(e_i, e_j, e_k) mod p
    slices = [
        [[v % p for v in row] for row in s.mu_contract(tuple(int(i == k) for i in range(r)))]
        for k in range(r)
    ]
    last = r - 1
    leaves = []

    def walk(k, cubic, lin, quad, p1, w2):
        # lin and the upper triangle quad (row by row) start at coordinate k:
        # quad[:n] is row k, quad[n:] the rows after it
        n = r - k
        m = slices[k]
        diag, cross = m[k][k], m[k][k + 1:]
        tri = [m[i][j] for i in range(k + 1, r) for j in range(i, r)]
        l0, lin, q0, row, quad = lin[0], lin[1:], quad[0], quad[1:n], quad[n:]
        for t in range(p):
            c = cubic + 3 * t * l0 + 3 * t * t * q0 + t * t * t * diag
            lin2 = [a + 2 * t * b + t * t * e for a, b, e in zip(lin, row, cross)]
            quad2 = [a + t * e for a, e in zip(quad, tri)]
            q = p1 + s.p1[k] * t
            w = w2 + d[k] * t
            if k + 1 < last:
                walk(k + 1, c, lin2, quad2, q, w)
            else:
                leaves.append((c % p, lin2[0] % p, quad2[0] % p, q % p, w % 2))

    if r == 1:
        leaves.append((0, 0, 0, 0, 0))
    else:
        walk(0, 0, [0] * r, [0] * (r * (r + 1) // 2), 0, 0)
    diag, p1_last, w2_last = slices[last][last][last], s.p1[last], d[last]
    hist = Counter()
    for (cubic, l0, q0, p1, w2), n in Counter(leaves).items():
        for t in range(p):
            c = cubic + 3 * t * l0 + 3 * t * t * q0 + t * t * t * diag
            hist[c % p, (p1 + p1_last * t) % p, (w2 + w2_last * t) % 2] += n
    return tuple(chain.from_iterable(repeat(key, n) for key, n in sorted(hist.items())))


def certify_distinct(
    s1: InvariantSystem, s2: InvariantSystem, primes=DEFAULT_PRIMES
) -> DistinctnessCertificate | None:
    """Certified non-isomorphism via rank, b3, or a fingerprint mismatch.

    None means inconclusive, never "isomorphic".  Fingerprints are skipped
    entirely above rank 6, and odd primes are skipped for systems without
    the even w2-cubic property (where the odd-p multiset is not a sound
    invariant).
    """
    if s1.rank != s2.rank:
        return DistinctnessCertificate("rank", None, (s1.rank, s2.rank))
    if s1.b3 != s2.b3:
        return DistinctnessCertificate("b3", None, (s1.b3, s2.b3))
    if s1.rank > MAX_FINGERPRINT_RANK:
        return None
    even = has_even_w2_cubic(s1) and has_even_w2_cubic(s2)
    for p in primes:
        if p != 2 and not even:
            continue
        f1 = fingerprint(s1, p)
        f2 = fingerprint(s2, p)
        if f1 != f2:
            return DistinctnessCertificate("fingerprint", p, (f1, f2))
    return None


def certificate_is_valid(
    cert: DistinctnessCertificate, s1: InvariantSystem, s2: InvariantSystem
) -> bool:
    """Recompute the invariant named by a certificate and confirm it differs."""
    if cert.kind == "rank":
        return (s1.rank, s2.rank) == cert.detail and s1.rank != s2.rank
    if cert.kind == "b3":
        return (s1.b3, s2.b3) == cert.detail and s1.b3 != s2.b3
    if cert.kind == "fingerprint":
        # a prime or rank fingerprint cannot handle is no verdict either way
        if cert.prime not in SUPPORTED_PRIMES or max(s1.rank, s2.rank) > MAX_FINGERPRINT_RANK:
            return False
        # an odd-p mismatch is only an invariant under the even w2 property,
        # the same precondition certify_distinct checks
        if cert.prime != 2 and not (has_even_w2_cubic(s1) and has_even_w2_cubic(s2)):
            return False
        f1 = fingerprint(s1, cert.prime)
        f2 = fingerprint(s2, cert.prime)
        return (f1, f2) == cert.detail and f1 != f2
    return False


def transport_system(s: InvariantSystem, matrix) -> InvariantSystem:
    """Push an invariant system through a determinant +-1 basis change.

    Produces the unique system for which ``matrix`` is a witness from ``s``;
    the workhorse behind fingerprint-invariance and soundness tests.
    """
    rows = tuple(tuple(int(v) for v in row) for row in matrix)
    r = s.rank
    if len(rows) != r or any(len(row) != r for row in rows):
        raise ValidationError("transport matrix shape does not match rank")
    inv_cols = transpose(inverse_unimodular(rows))
    entries = {
        (i, j, k): s.mu_eval(inv_cols[i], inv_cols[j], inv_cols[k])
        for i, j, k in triple_indices(r)
    }
    p1 = tuple(dot(s.p1, inv_cols[i]) for i in range(r))
    w2 = vec_mod2(matvec(rows, s.w2))
    c1 = matvec(rows, s.c1_class) if s.c1_class is not None else None
    return make_system(r, entries, p1, w2, s.b3, c1, classifiable=s.classifiable)
