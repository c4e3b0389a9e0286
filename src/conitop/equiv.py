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
from itertools import count, product
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
from .sixfold import InvariantSystem, make_system, triple_indices

DEFAULT_BOUND = 3
DEFAULT_PRIMES = (2, 3, 5)
SUPPORTED_PRIMES = (2, 3, 5, 7)
MAX_FINGERPRINT_RANK = 6
DEFAULT_STEP_BUDGET = 10**9


class IsomorphismWitness(Value):
    """A verified basis change; constitutes a proof of isomorphism."""

    fields = ("matrix", "preserves_c1")

    def __init__(self, matrix: Mat, preserves_c1: bool = False):
        object.__setattr__(self, "matrix", as_matrix(matrix, "witness matrix"))
        object.__setattr__(self, "preserves_c1", preserves_c1)
        if type(preserves_c1) is not bool:
            raise ValidationError(f"preserves_c1 must be a bool, got {preserves_c1!r}")
        if determinant(self.matrix) not in (1, -1):
            raise ValidationError("witness matrix must have determinant +-1")


class DistinctnessCertificate(Value):
    """A re-checkable reason two systems cannot be isomorphic."""

    fields = ("kind", "prime", "detail")

    def __init__(self, kind: str, prime: int | None, detail: tuple):
        if kind not in ("rank", "b3", "fingerprint"):
            raise ValidationError(f"unknown certificate kind {kind!r}")
        if prime is not None and type(prime) is not int:
            raise ValidationError(f"certificate prime {prime!r} is not an integer")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "detail", detail)


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
    rows = as_matrix(matrix, "witness matrix")
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


class SearchStats(Value):
    """Work counters of the witness searches it is passed to, summed.

    ``nodes`` counts the partial column sets visited, the empty one and full
    matrices included.  ``column_tests`` counts raw candidate columns,
    (2 bound + 1)^rank at each node short of a full matrix.  Each raw
    candidate is pruned for the first reason it fails, in the order the
    search checks them (``table``, ``mod2``, ``triple``; see
    :class:`_WitnessSearch`), or becomes a node, so that
    column_tests = table + mod2 + triple + nodes - searches.  Unlike the
    other value types it is mutable, and so not hashable.
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
      far as the search reads them (columns with equal p1 and cubic values
      share a list), each with w_v = mu2(v, v, .) and its mod-2 bitmask;
    * mod2: v is independent mod 2 of the columns already chosen, checked
      against an XOR basis of them;
    * triple: w_v . col_i = mu1(i, c, c) for i < c, and
      u_ij . v = mu1(i, j, c) for i <= j < c, with u_ij = mu2(col_i, col_j, .)
      computed once, when column j is chosen.

    The table and triple tests are the conditions mu2(col_i, col_j, col_c) =
    mu1(i, j, c) for i <= j <= c and the p1 condition of column c, all of
    which a witness meets.  A determinant +-1 matrix is invertible over F_2,
    so its columns are independent mod 2.  No prune removes a witness, and
    the first witness found is the first in the enumeration order;
    :meth:`finish` still checks every full matrix with :func:`verify_witness`.
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
        self.r = s1.rank
        self.check_c1 = check_c1
        self.entries = spiral_entries(bound)
        self.raw = len(self.entries) ** self.r
        self.stats = stats
        self.tables = {}
        # mu2(e_p, e_q, .) as (k, value) pairs for each nonzero (p, q)
        slices = {}
        for (p, q, k), v in s2.mu_terms.items():
            slices.setdefault(p, {}).setdefault(q, []).append((k, v))
        self.slices = tuple(tuple(slices.get(p, {}).items()) for p in range(self.r))

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

        Columns with equal p1 and cubic values share one list.  It is filled
        only as far as the search has read it, so a witness found early in a
        column pays for little of it.
        """
        key = (self.s1.p1[c], self.s1.mu_value(c, c, c))
        if key not in self.tables:
            self.tables[key] = ([], self.survivors(*key))
        done, source = self.tables[key]
        return done if source is None else self.reading(key)

    def reading(self, key):
        """Iterate a shared list, filling it from its source as needed."""
        done, source = self.tables[key]
        for i in count():
            if i == len(done):
                item = next(source, None)
                if item is None:
                    self.tables[key] = (done, None)
                    return
                done.append(item)
            yield done[i]

    def survivors(self, p1: int, cubic: int):
        # the last entry is the least significant: given the others, the p1
        # test leaves only the entries whose p1 term makes up the rest
        *head_p1, last_p1 = self.s2.p1
        n = len(self.entries)
        lasts = {}
        for place, t in enumerate(self.entries):
            lasts.setdefault(last_p1 * t, []).append((place, t))
        for h, head in enumerate(product(self.entries, repeat=self.r - 1)):
            for place, t in lasts.get(p1 - dot(head_p1, head), ()):
                v = head + (t,)
                w = self.contract(v, v)
                if dot(w, v) == cubic:
                    yield h * n + place, v, w, sum(1 << i for i, x in enumerate(v) if x & 1)

    def finish(self, cols: list[Vec]) -> IsomorphismWitness | None:
        rows = transpose(tuple(cols))
        if not verify_witness(self.s1, self.s2, rows, self.check_c1):
            return None
        return IsomorphismWitness(rows, _c1_transported(self.s1, self.s2, rows))

    def complete_from(
        self, cols: list[Vec], pairs: list, basis: list
    ) -> IsomorphismWitness | None:
        """Depth-first completion of a partial column assignment.

        ``pairs`` holds (i, j, u_ij) for i <= j < len(cols), and ``basis`` the
        chosen columns mod 2 as (pivot bit, bitmask) pairs, each bitmask clear
        at the pivots before it.
        """
        stats = self.stats
        stats.nodes += 1
        c = len(cols)
        if c == self.r:
            return self.finish(cols)
        mu1 = self.s1.mu_value
        quad = [(col, mu1(i, c, c)) for i, col in enumerate(cols)]
        lin = [(u, mu1(i, j, c)) for i, j, u in pairs]
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
            new = [(i, c, self.contract(col, v)) for i, col in enumerate(cols)]
            found = self.complete_from(
                cols + [v], pairs + new + [(c, c, w)], basis + [(m & -m, m)]
            )
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
    the result is that of testing every matrix in order.  When ``stats`` is
    given, the search adds its counters to it.
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
    search = _WitnessSearch(s1, s2, bound, check_c1, SearchStats() if stats is None else stats)
    return search.complete_from([], [], [])


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


def _check_prime(p) -> None:
    if type(p) is not int or p not in SUPPORTED_PRIMES:
        raise ValidationError(f"fingerprint prime {p!r} is not one of {SUPPORTED_PRIMES}")


def fingerprint(s: InvariantSystem, p: int) -> tuple[tuple[int, int, int, int], ...]:
    """Histogram of (cubic, p1 pairing, w2 pairing mod 2) over F_p points.

    Counts, over the canonical representatives x in {0..p-1}^rank, the keys
    (mu(x,x,x) mod p, p1.x mod p, mu(w,x,x) mod 2) with w the 0/1 lift of
    w2; the last only depends on x mod 2, so it is lift-independent, and it
    is the linear form d.x with d = :func:`_w2_square_parities`.  Returns the
    sorted rows (cubic, p1, w2, count): at most 2 p^2, counts summing to
    p^rank.  Each prime has its own method, all giving these same rows:

    * p = 2 (:func:`_fingerprint_mod2`): the cubic is a quadratic function on
      F_2^r, and the 8 counts follow from 8 character sums, O(r^2) work;
    * p = 3 (:func:`_fingerprint_mod3`): the cubic is the linear form
      sum_i mu_iii x_i, so the histogram is a convolution of r tables, O(r);
    * p = 5, 7 (:func:`_fingerprint_walk`): a depth-first walk over the points,
      O(r^2) work per node.  When d = 0 it visits only the points whose first
      nonzero coordinate is 1, (p^r - 1)/(p - 1) of them, and scales their
      keys: lambda x has the key (lambda^3 c, lambda pi, 0).  When some d_i
      is 1, the parity of the representative of lambda x_i is not that of
      x_i, so the w2 key does not scale, and the walk visits every point.

    Any witness maps points to points with equal keys, so isomorphic systems
    have equal histograms.  For odd p that argument additionally needs the
    mod-2 component to vanish identically (see :func:`has_even_w2_cubic`),
    which holds for all genuinely geometric systems; :func:`certify_distinct`
    only trusts odd-p mismatches after checking it.
    """
    _check_prime(p)
    if s.rank > MAX_FINGERPRINT_RANK:
        raise ValidationError(
            f"fingerprint enumeration limited to rank {MAX_FINGERPRINT_RANK}"
        )
    if s.rank == 0:
        return ((0, 0, 0, 1),)
    d = _w2_square_parities(s)
    if p == 2:
        hist = _fingerprint_mod2(s, d)
    elif p == 3:
        hist = _fingerprint_mod3(s, d)
    else:
        hist = _fingerprint_walk(s, p, d)
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


def _fingerprint_mod2(s: InvariantSystem, d: tuple[int, ...]) -> Counter:
    """p = 2: mu(x,x,x) = sum_i mu_iii x_i + sum_{i<j} (mu_iij + mu_ijj) x_i x_j.

    That is a quadratic function q on F_2^r; P = p1 . x and D = d . x are
    linear.  The count of (c, pi, w) is 1/8 of the sum over a, b, g in F_2
    of (-1)^(ac + b pi + gw) S(a, b, g), where S(a, b, g) is the sum of
    (-1)^(a q + b P + g D) over F_2^r: 2^r or 0 when a = 0, and
    :func:`_sign_sum` when a = 1.
    """
    r = s.rank
    rows, lin = [0] * r, 0
    for (i, j, k), v in s.mu:
        if v & 1 and (i == j or j == k):
            if i == k:
                lin ^= 1 << i
            else:
                rows[i] ^= 1 << k
                rows[k] ^= 1 << i
    p1 = sum((v & 1) << i for i, v in enumerate(s.p1))
    w2 = sum(v << i for i, v in enumerate(d))
    hist = Counter()
    for b, g in product((0, 1), repeat=2):
        form = (p1 if b else 0) ^ (w2 if g else 0)
        flat, signed = 0 if form else 1 << r, _sign_sum(rows, lin ^ form)
        for c, pi, w in product((0, 1), repeat=3):
            hist[c, pi, w] += (-1) ** (b * pi + g * w) * (flat - signed if c else flat + signed)
    for key in hist:
        hist[key] >>= 3
    return +hist


def _fingerprint_mod3(s: InvariantSystem, d: tuple[int, ...]) -> Counter:
    """p = 3: mu(x,x,x) = sum_i mu_iii x_i (mod 3), since the cross terms carry 3 or 6.

    With t^3 = t mod 3, coordinate i adds (mu_iii t, p1_i t, d_i t) to the
    key, so the histogram is a convolution of r tables.
    """
    hist = Counter({(0, 0, 0): 1})
    for i in range(s.rank):
        a, b = s.mu_value(i, i, i), s.p1[i]
        step = Counter()
        for (c, q, w), n in hist.items():
            for t in range(3):
                step[(c + a * t) % 3, (q + b * t) % 3, (w + d[i] * t) % 2] += n
        hist = step
    return hist


def _fingerprint_walk(s: InvariantSystem, p: int, d: tuple[int, ...]) -> Counter:
    """p = 5, 7: a depth-first walk that fixes x_0, x_1, ... in turn.

    With the prefix x fixed and the coordinates j, j' >= k still free, a node
    carries mu(x,x,x), the contractions L[j] = mu(x,x,e_j) and Q[j][j'] =
    mu(x,e_j,e_j'), and the running p1 and w2 sums; fixing x_k = t updates
    them from the slice mu(e_k,.,.) in O(r^2).  With one coordinate e left
    free, the cubic is a + 3 L t + 3 Q t^2 + mu(e,e,e) t^3 in x_e = t, so a
    leaf is the state (a, L, Q, p1 sum, w2 sum) reduced mod p and mod 2.
    Equal leaves are counted once, and each distinct leaf adds its p points.

    The nonzero points are walked by their first nonzero coordinate, which
    takes the values ``starts`` while later coordinates take every value,
    and each key is counted once per lambda in ``scales`` (see
    :func:`fingerprint`): (1,) and F_p^* when d = 0, else 1..p-1 and (1,).
    """
    r = s.rank
    # slices[k][i][j] = mu(e_i, e_j, e_k) mod p
    slices = [[[0] * r for _ in range(r)] for _ in range(r)]
    for (i, j, k), v in s.mu_terms.items():
        slices[k][i][j] = v % p
    # for each k: mu(e_k,e_k,e_k), mu(e_k,e_k,e_j) for j > k, mu(e_k,e_i,e_j) for k < i <= j
    parts = [
        (m[k][k], m[k][k + 1:], [m[i][j] for i in range(k + 1, r) for j in range(i, r)])
        for k, m in enumerate(slices)
    ]
    starts, scales = (range(1, p), (1,)) if any(d) else ((1,), range(1, p))
    last = r - 1
    leaves = []

    def walk(k, ts, cubic, lin, quad, p1, w2):
        # lin and the upper triangle quad (row by row) start at coordinate k:
        # quad[:n] is row k, quad[n:] the rows after it
        n = r - k
        diag, cross, tri = parts[k]
        l0, lin, q0, row, quad = lin[0], lin[1:], quad[0], quad[1:n], quad[n:]
        for t in ts:
            c = cubic + 3 * t * l0 + 3 * t * t * q0 + t * t * t * diag
            lin2 = [a + 2 * t * b + t * t * e for a, b, e in zip(lin, row, cross)]
            quad2 = [a + t * e for a, e in zip(quad, tri)]
            q = p1 + s.p1[k] * t
            w = w2 + d[k] * t
            if k + 1 < last:
                walk(k + 1, range(p), c, lin2, quad2, q, w)
            else:
                leaves.append((c % p, lin2[0] % p, quad2[0] % p, q % p, w % 2))

    for k in range(last):
        n = r - k
        walk(k, starts, 0, [0] * n, [0] * (n * (n + 1) // 2), 0, 0)
    diag, p1_last, w2_last = parts[last][0], s.p1[last], d[last]
    hist = Counter()
    for (cubic, l0, q0, p1, w2), n in Counter(leaves).items():
        for t in range(p):
            c = cubic + 3 * t * l0 + 3 * t * t * q0 + t * t * t * diag
            hist[c % p, (p1 + p1_last * t) % p, (w2 + w2_last * t) % 2] += n
    for t in starts:  # the points whose first nonzero coordinate is the last one
        hist[diag * t**3 % p, p1_last * t % p, w2_last * t % 2] += 1
    out = Counter({(0, 0, 0): 1})
    for (c, q, w), n in hist.items():
        for lam in scales:
            out[c * lam**3 % p, q * lam % p, w] += n
    return out


def certify_distinct(
    s1: InvariantSystem, s2: InvariantSystem, primes=DEFAULT_PRIMES
) -> DistinctnessCertificate | None:
    """Certified non-isomorphism via rank, b3, or a fingerprint mismatch.

    None means inconclusive, never "isomorphic".  Fingerprints are skipped
    entirely above rank 6, and odd primes are skipped for systems without
    the even w2-cubic property (where the odd-p histogram is not a sound
    invariant).  Every prime is checked to be a supported one first.
    """
    primes = tuple(primes)
    for p in primes:
        _check_prime(p)
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
    """Whether :func:`certify_distinct` at the certificate's prime alone returns it.

    Its prime, rank and even-w2 rules thus decide validity too, kept in one place.
    """
    primes = (cert.prime,) if cert.prime in SUPPORTED_PRIMES else ()
    return certify_distinct(s1, s2, primes) == cert


def transport_system(s: InvariantSystem, matrix) -> InvariantSystem:
    """Push an invariant system through a determinant +-1 basis change.

    Produces the unique system for which ``matrix`` is a witness from ``s``;
    the workhorse behind fingerprint-invariance and soundness tests.
    """
    rows = as_matrix(matrix, "transport matrix")
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
