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

from itertools import product, tee
from operator import mul

from .errors import SearchBudgetError, ValidationError, Value
from .intmat import (
    Mat,
    Vec,
    as_matrix,
    determinant,
    dot,
    inverse_unimodular,
    matvec,
    transpose,
    vec_mod2,
)
from .sixfold import InvariantSystem, _default_labels, _pull_back

DEFAULT_BOUND = 3
DEFAULT_PRIMES = (2, 3, 5)
SUPPORTED_PRIMES = (2, 3, 5, 7)
MAX_FINGERPRINT_RANK = 6
# the points a walk may visit at p = 5, 7: those of MAX_FINGERPRINT_RANK slots
# at p = 7, so 7 slots at p = 5 (19,531 points) are walked and 8 are not
MAX_WALK_POINTS = (7**MAX_FINGERPRINT_RANK - 1) // 6
DEFAULT_STEP_BUDGET = 10**9


class IsomorphismWitness(Value):
    """A verified basis change; constitutes a proof of isomorphism."""

    fields = ("matrix", "preserves_c1")

    def __init__(self, matrix: Mat, preserves_c1: bool = False):
        matrix = as_matrix(matrix, "witness matrix")
        if type(preserves_c1) is not bool:
            raise ValidationError(f"preserves_c1 must be a bool, got {preserves_c1!r}")
        if determinant(matrix) not in (1, -1):
            raise ValidationError("witness matrix must have determinant +-1")
        vars(self).update(zip(self.fields, (matrix, preserves_c1)))


class DistinctnessCertificate(Value):
    """A re-checkable reason two systems cannot be isomorphic."""

    fields = ("kind", "prime", "detail")

    def __init__(self, kind: str, prime: int | None, detail: tuple):
        if kind not in ("rank", "b3", "fingerprint"):
            raise ValidationError(f"unknown certificate kind {kind!r}")
        if prime is not None and type(prime) is not int:
            raise ValidationError(f"certificate prime {prime!r} is not an integer")
        vars(self).update(zip(self.fields, (kind, prime, detail)))


def spiral_entries(bound: int) -> tuple[int, ...]:
    """Candidate entry values in search order: 0, 1, -1, 2, -2, ..."""
    out = [0]
    for k in range(1, bound + 1):
        out.extend((k, -k))
    return tuple(out)


def verify_witness(
    s1: InvariantSystem, s2: InvariantSystem, matrix, check_c1: bool = False
) -> bool:
    """Exact transport check: b3, det, p1, w2 and c1, then mu2 pulled back through the rows.

    ``check_c1`` must be ``True`` or ``False``.
    """
    if type(check_c1) is not bool:
        raise ValidationError(f"check_c1 must be a bool, got {check_c1!r}")
    if s1.rank != s2.rank:
        raise ValidationError("systems have different ranks")
    rows = as_matrix(matrix, "witness matrix", s1.rank)
    if check_c1 and (s1.c1_class is None or s2.c1_class is None):
        raise ValidationError("c1 transport requested but a system lacks c1_class")
    if s1.b3 != s2.b3:
        return False
    if determinant(rows) not in (1, -1):
        return False
    if matvec(transpose(rows), s2.p1) != s1.p1:
        return False
    if vec_mod2(matvec(rows, s1.w2)) != s2.w2:
        return False
    if check_c1 and matvec(rows, s1.c1_class) != s2.c1_class:
        return False
    return _pull_back(s2.mu, rows) == dict(s1.mu)


class SearchStats(Value):
    """Work counters of the witness searches it is passed to, summed.

    ``nodes`` counts the partial column sets visited, the empty one and full
    matrices included.  ``column_tests`` counts raw candidate columns,
    (2 bound + 1)^rank at each node short of a full matrix.  Each raw
    candidate is pruned for the first reason it fails, in the order the
    search checks them (``table``, ``mod2``, ``triple``; see
    :class:`_WitnessSearch`), or becomes a node, so that
    column_tests = table + mod2 + triple + nodes - searches.  This holds at
    rank 0 too, where the empty matrix is the one node and nothing is
    tested, and so it does for a c1 transport search refused before any
    column (see :func:`find_isomorphism`).  The c1 conditions on a column
    count as ``table`` or ``triple`` prunes.  Unlike the other value types
    it is mutable, and so not hashable.
    """

    fields = ("nodes", "column_tests", "pruned_table", "pruned_mod2", "pruned_triple")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        nodes: int = 0,
        column_tests: int = 0,
        pruned_table: int = 0,
        pruned_mod2: int = 0,
        pruned_triple: int = 0,
    ):
        self.nodes = nodes
        self.column_tests = column_tests
        self.pruned_table = pruned_table
        self.pruned_mod2 = pruned_mod2
        self.pruned_triple = pruned_triple

    def to_obj(self) -> dict:
        pruned = dict(table=self.pruned_table, mod2=self.pruned_mod2, triple=self.pruned_triple)
        return {"nodes": self.nodes, "column_tests": self.column_tests, "pruned": pruned}


class _WitnessSearch:
    """Column-by-column depth-first enumeration over per-column candidate tables.

    Columns are chosen left to right; within a column, candidates come in
    product order over :func:`spiral_entries` with row 0 most significant.
    The first fully verified matrix in this order wins, which makes the
    result reproducible.  A candidate v for column c must pass, in order:

    * table: p1_2 . v = p1_1[c] and mu2(v, v, v) = mu1(c, c, c).  Both depend
      on c alone, so each column's survivors are listed once, and only as
      far as the search reads them (columns with equal keys share one list,
      see :meth:`table`), each with w_v = mu2(v, v, .) and its mod-2 bitmask;
    * mod2: v is independent mod 2 of the columns already chosen, checked
      against an XOR basis of them;
    * triple: w_v . col_i = mu1(i, c, c) for i < c, and
      u_ij . v = mu1(i, j, c) for i <= j < c, with u_ij = mu2(col_i, col_j, .)
      computed once, when column j is chosen.

    With ``check_c1``, a witness also has A a = b for a = c1_1 and b = c1_2,
    so mu2(A x, A y, b) = mu1(x, y, a) and mu2(A x, b, b) = mu1(x, a, a).
    This adds three conditions on column c, counted by the prune that tests
    them: mu2(v, b, b) = mu1(c, a, a), tested before w_v is built, and
    w_v . b = mu1(c, c, a), after the cubic (both table, and part of the
    table key); and u_i . v = mu1(i, c, a) for i < c, with
    u_i = mu2(col_i, b, .) computed once, when column i is chosen (triple).

    The table and triple tests are the conditions mu2(col_i, col_j, col_c) =
    mu1(i, j, c) for i <= j <= c and the p1 condition of column c (and with
    ``check_c1`` the c1 conditions above), all of which a witness meets.  A
    determinant +-1 matrix is invertible over F_2, so its columns are
    independent mod 2.  No prune removes a witness, and the first witness
    found is the first in the enumeration order; :meth:`finish` still checks
    every full matrix with :func:`verify_witness`.
    """

    def __init__(
        self,
        s1: InvariantSystem,
        s2: InvariantSystem,
        bound: int,
        check_c1: bool,
        stats: SearchStats,
    ):
        self.s1 = s1
        self.s2 = s2
        r = self.r = s1.rank
        self.check_c1 = check_c1
        self.bound = bound
        self.raw = (2 * bound + 1) ** r
        self.stats = stats
        self.tables = {}
        # mu2(e_p, e_q, .) as (k, value) pairs for each nonzero (p, q): each entry
        # under its distinct orderings (p, q, k), 1, 3 or 6 by its equal slots
        slices = [{} for _ in range(r)]
        for (i, j, k), v in s2.mu:
            si, sj, sk = slices[i], slices[j], slices[k]
            if i == k:
                si.setdefault(i, []).append((i, v))
            elif i == j:  # (i, i, k), (i, k, i), (k, i, i)
                si.setdefault(i, []).append((k, v))
                si.setdefault(k, []).append((i, v))
                sk.setdefault(i, []).append((i, v))
            elif j == k:  # (i, j, j), (j, i, j), (j, j, i)
                si.setdefault(j, []).append((j, v))
                sj.setdefault(i, []).append((j, v))
                sj.setdefault(j, []).append((i, v))
            else:
                for row, q, t in ((si, j, k), (si, k, j), (sj, i, k),
                                  (sj, k, i), (sk, i, j), (sk, j, i)):
                    row.setdefault(q, []).append((t, v))
        self.slices = [tuple(row.items()) for row in slices]
        # mu1(e_i, e_j, .) as a list over the last index, for each (i, j)
        rows = [[[0] * r for _ in range(r)] for _ in range(r)]
        for (i, j, k), v in s1.mu:
            rows[i][j][k] = rows[i][k][j] = rows[j][i][k] = v
            rows[j][k][i] = rows[k][i][j] = rows[k][j][i] = v
        self.rows1 = rows
        if check_c1:
            a = s1.c1_class
            self.c1 = s2.c1_class
            self.c1_square = self.contract(self.c1, self.c1)  # mu2(b, b, .)
            self.c1_rows1 = [[dot(a, t) for t in zip(*row)] for row in rows]  # mu1(e_i, a, .)

    def contract(self, x: Vec, y: Vec) -> list[int]:
        """The vector u with u[k] = mu2(x, y, e_k)."""
        u = [0] * self.r
        for xp, row in zip(x, self.slices):
            if xp:
                for q, terms in row:
                    if y[q]:
                        f = xp * y[q]
                        for k, v in terms:
                            u[k] += f * v
        return u

    def table(self, c: int):
        """Column c's survivors in raw order, as (raw place, v, w_v, v mod 2 as a bitmask).

        The key is (p1_1[c], mu1(c, c, c)), and with ``check_c1`` also
        (mu1(c, a, a), mu1(c, c, a)).  Columns with equal keys share one
        :func:`itertools.tee` of one :meth:`survivors` generator, kept unread;
        each call returns a copy of it.  So the generator runs only as far as
        the furthest copy has read, and a witness found early in a column pays
        for little of it.
        """
        key = (self.s1.p1[c], self.rows1[c][c][c])
        if self.check_c1:
            t = self.c1_rows1[c]
            key += (dot(self.s1.c1_class, t), t[c])
        if key not in self.tables:
            self.tables[key] = tee(self.survivors(*key), 1)[0]
        return self.tables[key].__copy__()

    def survivors(self, p1: int, cubic: int, *c1: int):
        # the last entry t is the least significant: given the others, the p1 test
        # leaves the t with last_p1 t = rest (all t if both are 0), at spiral place
        # 2t - 1 (t > 0) or -2t (t <= 0); only head entries are listed, none at rank 1.
        # A 1 x 1 witness is (1) or (-1), so at rank 1 only |t| <= 1 is listed.
        # c1 is () or the targets of mu2(v, b, b) and w_v . b
        *head_p1, last_p1 = self.s2.p1
        n = 2 * self.bound + 1
        bound = self.bound if self.r > 1 else 1
        for h, head in enumerate(product(spiral_entries(bound), repeat=self.r - 1)):
            rest = p1 - dot(head_p1, head)
            t = rest // last_p1 if last_p1 else 0
            if last_p1 * t != rest or abs(t) > bound:
                continue
            for place in (2 * t - 1 if t > 0 else -2 * t,) if last_p1 else range(2 * bound + 1):
                v = head + ((place + 1) // 2 if place & 1 else -(place // 2),)
                if c1 and dot(self.c1_square, v) != c1[0]:
                    continue
                w = self.contract(v, v)
                if dot(w, v) == cubic and (not c1 or dot(w, self.c1) == c1[1]):
                    yield h * n + place, v, w, sum(1 << i for i, x in enumerate(v) if x & 1)

    def finish(self, cols: list[Vec]) -> IsomorphismWitness | None:
        s1, s2, rows = self.s1, self.s2, transpose(tuple(cols))
        if not verify_witness(s1, s2, rows, self.check_c1):
            return None
        # verify_witness has checked the rows, their determinant included, and
        # with check_c1 that they take c1_1 to c1_2
        both = s1.c1_class is not None and s2.c1_class is not None
        preserves_c1 = self.check_c1 or both and matvec(rows, s1.c1_class) == s2.c1_class
        return IsomorphismWitness._unchecked(rows, preserves_c1)

    def complete_from(
        self, cols: list[Vec], pairs: list, basis: list
    ) -> IsomorphismWitness | None:
        """Depth-first completion of a partial column assignment.

        ``pairs`` holds (u_ij, mu1(i, j, .)) for i <= j < len(cols), and with
        ``check_c1`` (u_i, mu1(i, a, .)) for i < len(cols): a column v must
        have u . v equal to the target list's entry at its place.  ``basis``
        holds the chosen columns mod 2 as (pivot bit, bitmask) pairs, each
        bitmask clear at the pivots before it.
        """
        stats = self.stats
        stats.nodes += 1
        c = len(cols)
        if c == self.r:
            return self.finish(cols)
        rows1 = self.rows1
        quad = list(zip(cols, rows1[c][c]))
        lin = [(u, t[c]) for u, t in pairs]
        tested = self.raw
        mod2 = triple = children = 0
        found = None
        for place, v, w, m in self.table(c):
            for pivot, b in basis:
                if m & pivot:
                    m ^= b
            if not m:
                mod2 += 1
                continue
            if any(sum(map(mul, u, v)) != t for u, t in lin) or any(
                sum(map(mul, w, col)) != t for col, t in quad
            ):
                triple += 1
                continue
            children += 1
            new = [(self.contract(col, v), rows1[i][c]) for i, col in enumerate(cols)]
            new.append((w, rows1[c][c]))
            if self.check_c1:
                new.append((self.contract(v, self.c1), self.c1_rows1[c]))
            found = self.complete_from(cols + [v], pairs + new, basis + [(m & -m, m)])
            if found is not None:
                tested = place + 1
                break
        stats.column_tests += tested
        stats.pruned_table += tested - mod2 - triple - children
        stats.pruned_mod2 += mod2
        stats.pruned_triple += triple
        return found


def find_isomorphism(
    s1: InvariantSystem,
    s2: InvariantSystem,
    bound: int = DEFAULT_BOUND,
    check_c1: bool = False,
    step_budget: int | None = None,
    stats: SearchStats | None = None,
) -> IsomorphismWitness | None:
    """Exhaustive bounded search for a witness; None is NOT a distinctness proof.

    Returns the first verified witness in the fixed enumeration order, or
    None when the bounded space holds no witness (or the ranks / third Betti
    numbers already disagree).  Refuses to start when the raw candidate count
    (2 bound + 1)^(rank^2) exceeds the step budget.  The search (see
    :class:`_WitnessSearch`) prunes only matrices that are no witness, so
    the result is that of testing every matrix in order.  With
    ``check_c1``, a witness has A c1_1 = c1_2, so it needs
    mu1(c1_1, c1_1, c1_1) = mu2(c1_2, c1_2, c1_2) and p1_1 . c1_1 =
    p1_2 . c1_2; when either fails, None is returned after the raw-space
    gate, counting one node and no column tests.  When ``stats`` is
    given, the search adds its counters to it.  ``bound`` must be an ``int``
    of at least 1, ``check_c1`` ``True`` or ``False``, and ``step_budget``
    None or an ``int`` of at least 0; a ``bool`` is no ``int`` here.
    """
    if type(bound) is not int:
        raise ValidationError(f"search bound {bound!r} is not an integer")
    if bound < 1:
        raise ValidationError("search bound must be at least 1")
    if type(check_c1) is not bool:
        raise ValidationError(f"check_c1 must be a bool, got {check_c1!r}")
    if step_budget is not None and (type(step_budget) is not int or step_budget < 0):
        raise ValidationError(f"step budget must be None or an integer >= 0, got {step_budget!r}")
    if s1.rank != s2.rank or s1.b3 != s2.b3:
        return None
    if check_c1 and (s1.c1_class is None or s2.c1_class is None):
        raise ValidationError("c1 transport requested but a system lacks c1_class")
    r = s1.rank
    budget = DEFAULT_STEP_BUDGET if step_budget is None else step_budget
    # (2 bound + 1)^(r^2) is never built past the budget: at rank 83 it has
    # more digits than str() will print
    base, space = 2 * bound + 1, 1
    for _ in range(r * r):
        space *= base
        if space > budget:
            raise SearchBudgetError(
                f"search space {base}^{r * r} exceeds step budget {budget}"
            )
    stats = SearchStats() if stats is None else stats
    if check_c1:
        a, b = s1.c1_class, s2.c1_class
        if s1.cubic(a) != s2.cubic(b) or s1.p1_pairing(a) != s2.p1_pairing(b):
            stats.nodes += 1  # the empty matrix, as at rank 0; no column is tested
            return None
    return _WitnessSearch(s1, s2, bound, check_c1, stats).complete_from([], [], [])


def _mod2_forms(s: InvariantSystem) -> tuple[list[int], int, int]:
    """mu(x,x,x) and mu(W,x,x) mod 2 as bitmasks, W the 0/1 lift of w2, in one pass over mu.

    Mod 2, x_i^2 = x_i and the terms of distinct slots come in pairs, so
    mu(x,x,x) = sum_i mu_iii x_i + sum_{i<j} (mu_iij + mu_ijj) x_i x_j and
    mu(W,x,x) = d . x, d_i = mu(W,e_i,e_i): only odd entries with a repeated
    slot count.  Returns the quadratic part's rows (bit j of row i for
    x_i x_j), its linear part and d.
    """
    w2, rows, lin, d = s.w2, [0] * s.rank, 0, 0
    for (i, j, k), v in s.mu:
        if v & 1 and (i == j or j == k):
            if i == k:
                lin ^= 1 << i
                d ^= w2[i] << i
            else:
                rows[i] ^= 1 << k
                rows[k] ^= 1 << i
                d ^= w2[k] << i if i == j else w2[i] << k
    return rows, lin, d


def _w2_square_parities(s: InvariantSystem) -> tuple[int, ...]:
    """The values mu(W, e_i, e_i) mod 2, which give mu(W, x, x) mod 2 (see :func:`_mod2_forms`)."""
    return tuple(_mod2_forms(s)[2] >> i & 1 for i in range(s.rank))


def has_even_w2_cubic(s: InvariantSystem) -> bool:
    """Whether mu(w2 lift, x, x) is even for every integral x.

    True for every system arising from a closed oriented 6-manifold (a Wu
    formula consequence) and for everything this package constructs.  By
    :func:`_w2_square_parities` the rank-many diagonal values decide it.  No
    verdict depends on it: :func:`fingerprint` keeps a w2 key only at p = 2.
    """
    return not any(_w2_square_parities(s))


def _check_prime(p) -> None:
    if type(p) is not int or p not in SUPPORTED_PRIMES:
        raise ValidationError(f"fingerprint prime {p!r} is not one of {SUPPORTED_PRIMES}")


def fingerprint(s: InvariantSystem, p: int) -> tuple[tuple[int, int, int, int], ...]:
    """Histogram of (cubic, p1 pairing, w2 key) over F_p points.

    Counts, over the canonical representatives x in {0..p-1}^rank, the keys
    (mu(x,x,x) mod p, p1.x mod p, w).  At p = 2, w = mu(W,x,x) mod 2 with W
    the 0/1 lift of w2: the linear form d.x, d = :func:`_w2_square_parities`.
    At odd p, w = 0, since that parity on a representative is no invariant.
    Returns the sorted rows (cubic, p1, w, count) of :func:`_format`: at
    most 2 p^2, counts summing to p^rank.  Each prime has its own method,
    all giving these rows (the README's fingerprint notes derive them):
    :func:`_fingerprint_mod2`, character sums in O(r^2) work;
    :func:`_fingerprint_mod3`, the image of a linear map, O(r); and at p = 5
    and 7 :func:`conitop.cones.histogram`, block by block, which counts a
    block with no vertex only up to MAX_WALK_POINTS = 19,608 points,
    (p^n - 1)/(p - 1) for n slots: a larger one raises ValidationError.

    Each key depends only on x mod p (and w2), and a witness maps F_p^rank
    bijectively to points with equal keys, so isomorphic systems have equal
    histograms at every prime, whatever :func:`has_even_w2_cubic` says.
    """
    _check_prime(p)
    hist = _histogram(s, p)
    if hist is None:
        limit = f"limited to {MAX_WALK_POINTS} points, (p^n - 1)/(p - 1) for n slots"
        raise ValidationError(f"fingerprint walk of a block that is no cone at p = {p} {limit}")
    return _format(hist, p)


_cones = None  # conitop.cones, after the first fingerprint at p = 5 or 7


def _cones_module():
    global _cones
    if _cones is None:
        # imported once, on first use: start-up does not compile it, and
        # later calls do not go through the import machinery again
        from . import cones as _cones
    return _cones


def _histogram(s: InvariantSystem, p: int) -> dict | None:
    """The histogram of :func:`fingerprint` at a supported p, or None outside the window.

    Keys are (cubic, p1, w) at p = 2 and 3 and (cubic, p1) at p = 5 and 7.
    The window is the one rule on which systems have fingerprints: at
    p = 5 and 7, a block with no vertex (:func:`conitop.cones.cone_blocks`)
    of n slots must have (p^n - 1)/(p - 1) <= MAX_WALK_POINTS.
    """
    if p == 2:
        return _fingerprint_mod2(s)
    if p == 3:
        return _fingerprint_mod3(s)
    return _cones_module().histogram(s, p)


def _format(hist: dict, p: int) -> tuple[tuple[int, int, int, int], ...]:
    """A histogram's sorted rows (cubic, p1, w, count); w = 0 at p = 5 and 7."""
    if p > 3:
        return tuple((c, q, 0, n) for (c, q), n in sorted(hist.items()))
    return tuple(key + (n,) for key, n in sorted(hist.items()))


def _sign_sum(rows: list[int], lin: int) -> int:
    """The sum of (-1)^q(x) over F_2^r, q(x) = sum_{i<j} a_ij x_i x_j + lin . x.

    ``rows[i]`` and ``lin`` are bitmasks, a_ij the bit j of ``rows[i]``
    (symmetric, no diagonal).  Variables are summed out in order.  One that
    meets no other gives 2, or 0 if it is in ``lin``.  One that meets some
    x_j is summed out with it: if U and V are the affine forms x_i and x_j
    meet, then sum_{a,b} (-1)^(ab + aU + bV) = 2 (-1)^(UV), and UV joins q.
    """
    rows = list(rows)
    gone = sign = 0
    total = 1
    for i in range(len(rows)):
        if gone >> i & 1:
            continue
        gone |= 1 << i
        u = rows[i] & ~gone
        if u:
            j = (u & -u).bit_length() - 1
            gone |= 1 << j
            u &= ~gone
            v = rows[j] & ~gone
            bi, bj = lin >> i & 1, lin >> j & 1
            sign ^= bi & bj
            lin ^= (u & v) ^ (u if bj else 0) ^ (v if bi else 0)
            for k in range(i + 1, len(rows)):
                rows[k] ^= (v if u >> k & 1 else 0) ^ (u if v >> k & 1 else 0)
        elif lin >> i & 1:
            return 0
        total *= 2
    return -total if sign else total


# the Walsh-Hadamard butterfly on 8 values: three rounds of four (sum, difference) pairs
_BUTTERFLY = tuple((k - h, k) for h in (4, 2, 1) for k in range(8) if k & h)


def _fingerprint_mod2(s: InvariantSystem) -> dict:
    """p = 2: the cubic is a quadratic function q on F_2^r (:func:`_mod2_forms`).

    With the linear forms P = p1 . x and D = d . x, the count of (c, pi, w) is
    1/8 of the sum over a, b, g in F_2 of (-1)^(ac + b pi + gw) S(a, b, g),
    S(a, b, g) the sum of (-1)^(a q + b P + g D) over F_2^r: 2^r or 0 when
    a = 0, :func:`_sign_sum` when a = 1.  When D = 0 (an even w2 cubic) the
    g = 1 sums repeat the g = 0 ones: two sign sums serve, not four.  Listed
    at 4a + 2b + g, the 8 sums go through an in-place Walsh-Hadamard
    butterfly, which leaves 8 times the count of (c, pi, w) at 4c + 2 pi + w.
    """
    rows, lin, d = _mod2_forms(s)
    p1 = sum((v & 1) << i for i, v in enumerate(s.p1))
    full, plain = 1 << s.rank, _sign_sum(rows, lin)
    paired = _sign_sum(rows, lin ^ p1) if p1 else plain
    w, pw = (_sign_sum(rows, lin ^ d), _sign_sum(rows, lin ^ p1 ^ d)) if d else (plain, paired)
    sums = [full, 0 if d else full, 0 if p1 else full, 0 if p1 ^ d else full, plain, w, paired, pw]
    for i, j in _BUTTERFLY:  # sums[k] becomes 8 times the count of k
        sums[i], sums[j] = sums[i] + sums[j], sums[i] - sums[j]
    return {(k >> 2, k >> 1 & 1, k & 1): n >> 3 for k, n in enumerate(sums) if n}


def _fingerprint_mod3(s: InvariantSystem) -> dict:
    """p = 3: mu(x,x,x) = sum_i mu_iii x_i (mod 3), since the cross terms carry 3 or 6.

    So the key x -> (sum_i mu_iii x_i, p1 . x) is a linear map F_3^r -> F_3^2
    with generators (mu_iii, p1_i), and the histogram is uniform on its
    image: 3^(r - d) points over each of the 3^d image points, d its dimension.
    """
    cubic = {i: v for (i, _, k), v in s.mu if i == k}
    basis = []
    for i, b in enumerate(s.p1):
        a, b = cubic.get(i, 0) % 3, b % 3
        if (a or b) and (not basis or (basis[0][0] * b - basis[0][1] * a) % 3):
            basis.append((a, b))
            if len(basis) == 2:
                break
    points = [(0, 0)]
    for x, y in basis:
        points = [((c + t * x) % 3, (q + t * y) % 3) for c, q in points for t in range(3)]
    n = 3 ** (s.rank - len(basis))
    return {(c, q, 0): n for c, q in points}


def certify_distinct(
    s1: InvariantSystem, s2: InvariantSystem, primes=DEFAULT_PRIMES
) -> DistinctnessCertificate | None:
    """Certified non-isomorphism via rank, b3, or a fingerprint mismatch.

    None means inconclusive, never "isomorphic".  ``primes``, an iterable,
    must hold supported primes only; all are checked first.  Each then runs
    in turn, at every rank, except p = 5 or 7 outside the window of
    :func:`_histogram`, whether or not p1 would show a block to be a cone
    (7 slots with no vertex count at p = 5, not at p = 7).  The histograms
    of a prime are compared as counted; only the certificate's are formatted
    into rows.
    """
    if not hasattr(primes, "__iter__"):
        raise ValidationError(f"primes must be a sequence of primes, got {primes!r}")
    primes = tuple(primes)
    for p in primes:
        _check_prime(p)
    if s1.rank != s2.rank:
        return DistinctnessCertificate("rank", None, (s1.rank, s2.rank))
    if s1.b3 != s2.b3:
        return DistinctnessCertificate("b3", None, (s1.b3, s2.b3))
    for p in primes:
        h1, h2 = _histogram(s1, p), _histogram(s2, p)
        if h1 is not None and h2 is not None and h1 != h2:
            return DistinctnessCertificate("fingerprint", p, (_format(h1, p), _format(h2, p)))
    return None


def certificate_is_valid(
    cert: DistinctnessCertificate, s1: InvariantSystem, s2: InvariantSystem
) -> bool:
    """Whether :func:`certify_distinct` at the certificate's prime alone returns it.

    Its prime and rank rules thus decide validity too, kept in one place.
    """
    primes = (cert.prime,) if cert.prime in SUPPORTED_PRIMES else ()
    return certify_distinct(s1, s2, primes) == cert


def transport_system(s: InvariantSystem, matrix) -> InvariantSystem:
    """Push an invariant system through a determinant +-1 basis change.

    Produces the unique system for which ``matrix`` is a witness from ``s``:
    mu and p1 are pulled back through the inverse, w2 and c1 pushed forward.
    The pulled-back entries are already canonical and c1 stays a lift of w2,
    so the result is stored without a second check.
    """
    rows = as_matrix(matrix, "transport matrix", s.rank)
    inv = inverse_unimodular(rows)
    p1 = matvec(transpose(inv), s.p1)
    w2 = vec_mod2(matvec(rows, s.w2))
    c1 = matvec(rows, s.c1_class) if s.c1_class is not None else None
    return InvariantSystem._unchecked(
        s.rank, s.pull_back(inv), p1, w2, s.b3, c1, _default_labels(s.rank), s.classifiable
    )
