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

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

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
    """Exact transport check for a candidate witness matrix."""
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
    for i, j, k in triple_indices(r):
        if s2.mu_eval(cols[i], cols[j], cols[k]) != s1.mu_value(i, j, k):
            return False
    for i in range(r):
        if dot(s2.p1, cols[i]) != s1.p1[i]:
            return False
    if vec_mod2(matvec(rows, s1.w2)) != s2.w2:
        return False
    if check_c1 and matvec(rows, s1.c1_class) != s2.c1_class:
        return False
    return True


def _c1_transported(s1: InvariantSystem, s2: InvariantSystem, rows: Mat) -> bool:
    if s1.c1_class is None or s2.c1_class is None:
        return False
    return matvec(rows, s1.c1_class) == s2.c1_class


class _WitnessSearch:
    """Column-by-column enumeration with pruning.

    Columns are chosen left to right; within a column, entries range over
    :func:`spiral_entries` with row 0 most significant.  The first fully
    verified matrix in this order wins, which makes the result reproducible
    and independent of how the first column is partitioned across workers.
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
        if determinant(rows) not in (1, -1):
            return None
        if vec_mod2(matvec(rows, self.s1.w2)) != self.s2.w2:
            return None
        c1_ok = _c1_transported(self.s1, self.s2, rows)
        if self.check_c1 and not c1_ok:
            return None
        if not verify_witness(self.s1, self.s2, rows, self.check_c1):
            return None
        return IsomorphismWitness(rows, c1_ok)

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

    def first_columns(self) -> list[Vec]:
        return [
            v
            for v in product(self.entries, repeat=self.r)
            if self.column_ok(0, v, [])
        ]


def find_isomorphism(
    s1: InvariantSystem,
    s2: InvariantSystem,
    bound: int = DEFAULT_BOUND,
    check_c1: bool = False,
    workers: int = 1,
    step_budget: int | None = None,
) -> IsomorphismWitness | None:
    """Exhaustive bounded search for a witness; None is NOT a distinctness proof.

    Returns the first verified witness in the fixed enumeration order, or
    None when the bounded space holds no witness (or the ranks / third Betti
    numbers already disagree).  Refuses to start when the raw candidate count
    (2 bound + 1)^(rank^2) exceeds the step budget.

    With ``workers > 1`` the first-column candidates are partitioned across
    threads; each reports the first witness in its share and the earliest
    one in global enumeration order is returned, so the result is identical
    to the sequential one.
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
    search = _WitnessSearch(s1, s2, bound, check_c1)
    cands0 = search.first_columns()
    if workers <= 1 or len(cands0) <= 1:
        for v0 in cands0:
            found = search.complete_from([v0])
            if found is not None:
                return found
        return None
    return _parallel_search(search, cands0, workers)


def _parallel_search(
    search: _WitnessSearch, cands0: list[Vec], workers: int
) -> IsomorphismWitness | None:
    best: dict = {"pos": None, "witness": None}
    lock = threading.Lock()

    def run(share: list[tuple[int, Vec]]):
        for pos, v0 in share:
            with lock:
                if best["pos"] is not None and best["pos"] < pos:
                    return
            found = search.complete_from([v0])
            if found is not None:
                with lock:
                    if best["pos"] is None or pos < best["pos"]:
                        best["pos"] = pos
                        best["witness"] = found
                return

    indexed = list(enumerate(cands0))
    shares = [indexed[w::workers] for w in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(run, share) for share in shares if share]:
            future.result()
    return best["witness"]


def has_even_w2_cubic(s: InvariantSystem) -> bool:
    """Whether mu(w2 lift, x, x) is even for every integral x.

    True for every system arising from a closed oriented 6-manifold (a Wu
    formula consequence) and for everything this package constructs.  Mod 2,
    mu(W, x, x) = sum_i x_i mu(W, e_i, e_i): the off-diagonal terms come in
    equal pairs and x_i^2 = x_i.  So the rank-many diagonal values decide it.
    """
    m = s.mu_contract(s.w2)
    return all(m[i][i] % 2 == 0 for i in range(s.rank))


def fingerprint(s: InvariantSystem, p: int) -> tuple[tuple[int, int, int], ...]:
    """Sorted multiset of (cubic, p1 pairing, w2 pairing mod 2) over F_p points.

    Enumerates the canonical representatives x in {0..p-1}^rank and collects
    (mu(x,x,x) mod p, p1.x mod p, mu(w,x,x) mod 2) with w the 0/1 lift of w2;
    the last component only depends on x mod 2, so it is lift-independent.

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
    lift = s.w2
    triples = [
        (s.cubic(x) % p, s.p1_pairing(x) % p, s.mu_eval(lift, x, x) % 2)
        for x in product(range(p), repeat=s.rank)
    ]
    return tuple(sorted(triples))


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
    for p in primes:
        if p != 2 and not (has_even_w2_cubic(s1) and has_even_w2_cubic(s2)):
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
