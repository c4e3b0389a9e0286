"""Invariant systems of simply-connected 6-manifolds with torsion-free homology.

The classifying data for such a manifold is the tuple carried by
:class:`InvariantSystem`: the rank of H^2, the symmetric trilinear
cup-product tensor on H^2, the linear functional given by pairing against the
first Pontryagin class, the second Stiefel-Whitney class as a mod-2 vector,
the third Betti number, and (when meaningful) a reference first Chern class
for almost-complex comparisons.

Basis convention for sphere-bundle systems built by :func:`projectivize`:
slot 0 is always the fiberwise class ``a`` (the first Chern class of the dual
of the tautological line bundle), followed by the pullbacks of the base
classes in base order.  Every formula below is stated in this basis.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations_with_replacement

from .bundle import RankTwoBundle
from .errors import ValidationError, Value
from .fourfold import FourManifold, p1_number
from .intmat import Mat, Vec, as_matrix, as_vector, dot, vec_mod2


def triple_indices(rank: int) -> tuple[tuple[int, int, int], ...]:
    """All index triples i <= j <= k, in lexicographic order."""
    return tuple(combinations_with_replacement(range(rank), 3))


MuEntries = tuple[tuple[tuple[int, int, int], int], ...]


def _default_labels(rank: int) -> tuple[str, ...]:
    return tuple(f"e{i + 1}" for i in range(rank))


def _canonical_mu(rank: int, entries) -> MuEntries:
    """The one mu rule: {triple: value} or (triple, value) pairs as ``InvariantSystem.mu``.

    Triples may come in any index order; zeros are dropped, after the range
    check.  Indices and values must be ``int``, nothing is converted.  Any
    other entry, and two values for one triple, raise a ``ValidationError``.
    """
    try:
        pairs = entries.items() if isinstance(entries, dict) else iter(entries)
    except TypeError:
        raise ValidationError(f"mu must be a dict or a sequence, got {entries!r}") from None
    table: dict[tuple[int, int, int], int] = {}
    for entry in pairs:
        try:
            ijk, v = entry
            ijk = tuple(ijk)
        except (TypeError, ValueError):
            raise ValidationError(f"mu entry {entry!r} is not a (triple, value) pair") from None
        if len(ijk) != 3 or any(type(i) is not int for i in ijk):
            raise ValidationError(f"mu triple {ijk!r} is not three integers")
        key = tuple(sorted(ijk))
        if key[0] < 0 or key[2] >= rank:
            raise ValidationError(f"mu triple {ijk} out of range for rank {rank}")
        if type(v) is not int:
            raise ValidationError(f"mu value {v!r} at {ijk} is not an integer")
        if table.get(key, v) != v:
            raise ValidationError(f"conflicting mu values for triple {key}")
        table[key] = v
    return tuple(sorted((ijk, v) for ijk, v in table.items() if v))


class InvariantSystem(Value):
    # classifiable records whether the classification hypotheses (simple
    # connectivity, torsion-free homology) were declared for everything this
    # system was built from; when False, equivalence verdicts are statements
    # about invariant systems only, not about diffeomorphism classes.
    #
    # mu holds the nonzero entries ((i, j, k), value) of the cup-product
    # form, with i <= j <= k, sorted by triple; absent triples are zero.  Kept
    # in this one canonical form so that equality and hashing are structural.
    # The constructor checks every field; projectivize, blowup_point and
    # transport_system derive fields from checked ones and store them with
    # _unchecked, and a test rebuilds their results through the constructor.
    fields = ("rank", "mu", "p1", "w2", "b3", "c1_class", "basis_labels", "classifiable")

    def __init__(
        self,
        rank: int,
        mu: MuEntries | dict,
        p1: Vec,
        w2: Vec,
        b3: int = 0,
        c1_class: Vec | None = None,
        basis_labels: tuple[str, ...] = (),
        classifiable: bool = True,
    ):
        for name, value in (("rank", rank), ("b3", b3)):
            if type(value) is not int:
                raise ValidationError(f"{name} {value!r} is not an integer")
        if type(classifiable) is not bool:
            raise ValidationError(f"classifiable must be a bool, got {classifiable!r}")
        if isinstance(basis_labels, str) or not hasattr(basis_labels, "__iter__"):
            raise ValidationError(f"basis_labels must be a sequence of strings: {basis_labels!r}")
        labels = tuple(basis_labels)
        for label in labels:
            if type(label) is not str:
                raise ValidationError(f"basis_labels entry {label!r} is not a string")
        mu = _canonical_mu(rank, mu)
        p1 = as_vector(p1, "p1", rank)
        w2 = as_vector(w2, "w2", rank)
        if c1_class is not None:
            c1_class = as_vector(c1_class, "c1_class", rank)
        labels = labels or _default_labels(rank)
        if len(labels) != rank:
            n = len(labels)
            raise ValidationError(f"basis_labels length {n} does not match rank {rank}")
        if any(v not in (0, 1) for v in w2):
            raise ValidationError("w2 entries must be 0 or 1")
        if b3 < 0:
            raise ValidationError("b3 must be nonnegative")
        if c1_class is not None and vec_mod2(c1_class) != w2:
            raise ValidationError("c1_class is not an integral lift of w2")
        vars(self).update(zip(self.fields, (rank, mu, p1, w2, b3, c1_class, labels, classifiable)))

    # -- trilinear form access ----------------------------------------------

    def mu_value(self, i: int, j: int, k: int) -> int:
        """Fully symmetric accessor: indices may come in any order; a bisection of ``mu``."""
        t, mu = tuple(sorted((i, j, k))), self.mu
        n = bisect_left(mu, (t,))  # (t,) sorts just before the entry (t, value)
        return mu[n][1] if n < len(mu) and mu[n][0] == t else 0

    def mu_items(self) -> MuEntries:
        """Every triple in :func:`triple_indices` order, zeros included."""
        terms = dict(self.mu)
        return tuple((ijk, terms.get(ijk, 0)) for ijk in triple_indices(self.rank))

    def pull_back(self, matrix) -> MuEntries:
        """mu(A e_i, A e_j, A e_k), A given by its rows, as ``mu`` holds it (:func:`_pull_back`)."""
        return tuple(sorted(_pull_back(self.mu, as_matrix(matrix, "matrix", self.rank)).items()))

    def cubic(self, x) -> int:
        """mu(x, x, x): each entry once, times the number of its orderings (1, 3 or 6)."""
        x = as_vector(x, "x", self.rank)
        total = 0
        for (i, j, k), v in self.mu:
            total += (1 if i == k else 3 if i == j or j == k else 6) * v * x[i] * x[j] * x[k]
        return total

    def p1_pairing(self, x) -> int:
        return dot(self.p1, as_vector(x, "x", self.rank))


make_system = InvariantSystem  # one constructor, under both public names


def _pull_back(mu, rows) -> dict:
    """mu pulled back through A, whose rows are checked: {(i, j, k): value}, i <= j <= k, nonzero.

    With x = A y, mu(x,x,x) sums n v (A_a.y)(A_b.y)(A_c.y) over the canonical
    entries (a, b, c), n = 1, 3 or 6 their orderings.  So each entry is taken
    once: rows b and c multiply, through their nonzero entries, into the
    quadratic form q_a of slot a, and each q_a is then multiplied by row a.
    The coefficient of y_i y_j y_k is the entry (i, j, k) times its own n.
    """
    support = [[(i, x) for i, x in enumerate(row) if x] for row in rows]
    quads = {}
    for (a, b, c), v in mu:
        q = quads.setdefault(a, {})
        v *= 1 if a == c else 3 if a == b or b == c else 6
        for j, y in support[b]:
            y *= v
            for k, z in support[c]:
                key = (j, k) if j <= k else (k, j)
                q[key] = q.get(key, 0) + y * z
    out = {}
    for a, q in quads.items():
        row = support[a]
        for (j, k), yz in q.items():
            if yz:
                for i, x in row:
                    key = (i, j, k) if i <= j else (j, i, k) if i <= k else (j, k, i)
                    out[key] = out.get(key, 0) + x * yz
    return {(i, j, k): x // (1 if i == k else 3 if i == j or j == k else 6)
            for (i, j, k), x in out.items() if x}


def projectivize(base: FourManifold, e: RankTwoBundle) -> InvariantSystem:
    """Invariant system of the 2-sphere bundle of lines in a rank-two bundle.

    The cohomology ring is generated over the base by the fiberwise class
    ``a`` subject to a^2 = -c1(E).a - c2(E) (pulled back coefficients), which
    gives, in the basis (a, y_1, ..., y_r):

      mu(a,a,a)     = c1(E).c1(E) - c2(E)
      mu(a,a,y_i)   = -(Q c1(E))_i
      mu(a,y_i,y_j) = Q_ij
      mu(y_i,y_j,y_k) = 0

    The tangent bundle splits off the pulled-back base tangent bundle, and
    the fiberwise summand is (dual tautological) tensor (pullback of E) minus
    a trivial line, whence

      w2 = (0, base w2 + c1(E) mod 2)
      p1 pairing = (3 sig(base) + c1(E).c1(E) - 4 c2(E), 0, ..., 0)
      reference c1 = 2a + pullback(base c1 lift + c1(E))   [when the base
                     carries a c1 lift; absent otherwise]
    """
    if e.base != base:
        raise ValidationError("bundle base does not match the given manifold")
    q = base.form
    r = base.rank
    qc1 = q.matvec(e.c1)
    c1c1 = dot(e.c1, qc1)
    # emitted in canonical order: (0,0,0), then every (0,0,i), then (0,i,j), i <= j,
    # the last from the form's nonzero entries, which come in row order
    mu = [((0, 0, 0), c1c1 - e.c2)]
    mu += [((0, 0, i + 1), -v) for i, v in enumerate(qc1)]
    mu += [((0, i + 1, j + 1), v) for i, j, v in q.entries]
    p1 = (p1_number(base) + c1c1 - 4 * e.c2,) + (0,) * r
    w2 = (0,) + tuple((a + b) % 2 for a, b in zip(base.w2, e.c1))
    c1_class = None
    if base.c1_tangent is not None:
        c1_class = (2,) + tuple(a + b for a, b in zip(base.c1_tangent, e.c1))
    labels = ("a",) + tuple(f"y{i + 1}" for i in range(r))
    mu = tuple(entry for entry in mu if entry[1])
    return InvariantSystem._unchecked(r + 1, mu, p1, w2, 0, c1_class, labels, base.simply_connected)


def euler_characteristic(s: InvariantSystem) -> int:
    """2 + 2 b2 - b3 for a simply-connected 6-manifold with torsion-free homology."""
    return 2 + 2 * s.rank - s.b3


@lru_cache(maxsize=None)
def cp3bar_system() -> InvariantSystem:
    """Frozen invariants of orientation-reversed complex projective 3-space.

    Derivation, recorded once as the audited source of these constants: the
    total Chern class of complex projective 3-space is (1+g)^4 for the
    hyperplane class g, so c1 = 4g, c2 = 6g^2, p1 = c1^2 - 2c2 = 4g^2, and
    g^3 evaluates to 1.  Reversing the orientation negates the fundamental
    class.  Writing z' for the degree-two generator normalized so that the
    cube of z' evaluates to -1 (the convention used throughout this package),
    the p1 pairing against z' is -4 and w2 = 0 since 4g is even.

    A point blowup of a complex 3-fold is differentiably a connected sum with
    this manifold, and its first Chern class restricts to -2 times the
    exceptional divisor class on the new summand.  The exceptional divisor
    class cubes to +1, hence equals -z' in this normalization, so the
    restriction is +2.z'; the reference c1 stored here is therefore (2,).

    Built and validated once per process; every call returns the same value.
    """
    return InvariantSystem(
        1,
        {(0, 0, 0): -1},
        p1=(-4,),
        w2=(0,),
        b3=0,
        c1_class=(2,),
        basis_labels=("z'",),
    )


def _fresh_label(existing: tuple[str, ...], stem: str) -> str:
    if stem not in existing:
        return stem
    n = 2
    while f"{stem}{n}" in existing:
        n += 1
    return f"{stem}{n}"


def blowup_point(s: InvariantSystem) -> InvariantSystem:
    """Blow up a point: block sum with :func:`cp3bar_system`.

    The new class has no mixed cup products with the old ones; p1 and w2
    extend by the frozen constants; the reference c1, when present, extends
    by +2 on the new slot (see the derivation in :func:`cp3bar_system`).
    """
    extra = cp3bar_system()
    r = s.rank
    ((_, cube),) = extra.mu
    # the new triple (r, r, r) sorts after every existing one
    mu = s.mu + (((r, r, r), cube),)
    c1_class = None
    if s.c1_class is not None:
        c1_class = s.c1_class + extra.c1_class
    labels = s.basis_labels + (_fresh_label(s.basis_labels, "z'"),)
    return InvariantSystem._unchecked(
        r + 1, mu, s.p1 + extra.p1, s.w2 + extra.w2, s.b3, c1_class, labels, s.classifiable
    )


def twist_witness(base: FourManifold, e: RankTwoBundle, l) -> Mat:
    """Basis change relating the systems of a bundle and its twist.

    The projectivization does not change under tensoring by a line bundle;
    on systems the identification fixes the base slots and maps the fiber
    class by  a |-> a + sum_i l_i y_i.  The sign of the l-term was fixed once
    by checking both candidates on a single instance (the complex projective
    plane with the trivial bundle, l = (1)); the tests re-derive it.

    Returns the matrix (rows, acting on coordinate columns) of the witness
    from projectivize(base, e) to projectivize(base, twist(e, l)).
    """
    l = as_vector(l, "twist l", base.rank)
    r = base.rank + 1
    rows = [[0] * r for _ in range(r)]
    rows[0][0] = 1
    for i, li in enumerate(l):
        rows[i + 1][0] = li
        rows[i + 1][i + 1] = 1
    return tuple(tuple(row) for row in rows)
