"""Exact integer symmetric bilinear form algebra.

An :class:`IntersectionForm` models the cup-product pairing on the degree-two
cohomology of a closed oriented 4-manifold in a chosen basis: a symmetric
integer matrix ``Q`` with ``Q[i][j]`` the evaluation of the product of the
``i``-th and ``j``-th basis classes on the fundamental class.  Basis order is
part of the data; nothing here canonicalizes it.

A form is stored one way: its rank and its nonzero upper-triangle entries
(i, j, Q_ij), i <= j, in row order.  The constructor takes and checks a dense
matrix; a block sum built by :func:`direct_sum` concatenates its blocks'
entries, each shifted by the block's offset, so it never builds its r^2
cells.  The dense matrix is a view, rebuilt from the entries only where a
report prints it.  Products with the form (:meth:`IntersectionForm.matvec`,
:meth:`IntersectionForm.evaluate`), :func:`is_characteristic` and
``sixfold.projectivize`` read the entries, so over a catalog sum their work
is O(r), not O(r^2).  Descriptors are capped at rank
``serialize.MAX_FORM_RANK`` before a form is built.

All arithmetic is exact.  :func:`signature` and :func:`determinant` (hence
:func:`is_unimodular`) read the inertia and determinant of a form, cached on
the form: a form reduces once, by the sparse Lagrange reduction
:func:`_reduce`, and a block sum takes them from its blocks without any
reduction.  The reduction's entries are Python ints until a quotient needs a
``fractions.Fraction`` (imported only then, so start-up does not pay for
it); mod-2 work stays in integers.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ValidationError, Value
from .intmat import Mat, Vec, as_matrix, as_vector, dot


class IntersectionForm(Value):
    """Symmetric integer bilinear form; rank 0 is allowed.

    Built from a dense matrix and stored as its rank and canonical entries,
    so two forms are equal exactly when their matrices are.
    """

    fields = ("rank", "entries")

    def __init__(self, matrix: Mat):
        rows = as_matrix(matrix, "form matrix")
        if rows != tuple(zip(*rows)):
            n = len(rows)
            i, j = next((i, j) for i in range(n) for j in range(i) if rows[i][j] != rows[j][i])
            raise ValidationError(f"form matrix is not symmetric at ({i},{j})")
        entries = tuple(
            (i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row[i:], i) if v
        )
        vars(self).update(rank=len(rows), entries=entries)

    @cached_property
    def matrix(self) -> Mat:
        """The dense rows, rebuilt from the entries for reports; not a field."""
        rows = [[0] * self.rank for _ in range(self.rank)]
        for i, j, v in self.entries:
            rows[i][j] = rows[j][i] = v
        return tuple(map(tuple, rows))

    @cached_property
    def _inertia(self) -> tuple[int, int, int]:
        """(positive squares, negative squares, det), reduced at most once per form.

        Not a field: equality and hashing see the rank and the entries only.
        """
        return _reduce(self)

    def matvec(self, x: Vec) -> Vec:
        return self._apply(as_vector(x, "x", self.rank))

    def evaluate(self, x: Vec, y: Vec) -> int:
        """Pairing x^T Q y."""
        x, y = as_vector(x, "x", self.rank), as_vector(y, "y", self.rank)
        return dot(x, self._apply(y))

    def _apply(self, x: Vec) -> Vec:
        """Q x for a checked vector, from the entries alone."""
        out = [0] * len(x)
        for i, j, v in self.entries:
            out[i] += v * x[j]
            if i != j:
                out[j] += v * x[i]
        return tuple(out)


def _quotient(x, num, den):
    """x - num/den, kept an int while the division is exact."""
    q, r = divmod(num, den)
    if r == 0:
        return x - q
    from fractions import Fraction

    return x - Fraction(num) / den


def _reduce(q: IntersectionForm) -> tuple[int, int, int]:
    """Exact Lagrange reduction: (positive squares, negative squares, det).

    Pivot rule, fixed so the computation is deterministic: take the first
    nonzero diagonal entry a, which contributes one square of the sign of a
    and the factor a to the determinant; if the whole diagonal vanishes but
    the form does not, split off the hyperbolic plane on the first
    off-diagonal nonzero entry b, which contributes one positive and one
    negative square and the factor -b^2.  A nonzero zero block left over has
    determinant 0.

    Each row is a dict of its nonzero entries over the live indices, and a
    pivot updates only the rows that meet it, so a block sum costs the sum
    of its blocks.  Entries stay ints until a quotient is not exact.
    """
    rows = {i: {} for i in range(q.rank)}
    for i, j, v in q.entries:
        rows[i][j] = rows[j][i] = v
    pos = neg = 0
    det = 1
    while rows:
        k = next((i for i in rows if rows[i].get(i)), None)
        if k is not None:
            col = rows.pop(k)
            a = col.pop(k)
            if a > 0:
                pos += 1
            else:
                neg += 1
            det *= a
            for i in col:
                del rows[i][k]
            pairs = [(i, j, u * v) for i, u in col.items() for j, v in col.items()]
            den = a
        else:
            k = next((i for i in rows if rows[i]), None)
            if k is None:
                return pos, neg, 0
            l = min(rows[k])
            ck, cl = rows.pop(k), rows.pop(l)
            b = ck.pop(l)
            del cl[k]
            pos += 1
            neg += 1
            det *= -b * b
            for i in ck:
                del rows[i][k]
            for i in cl:
                del rows[i][l]
            meet = {**ck, **cl}
            pairs = [
                (i, j, ck.get(i, 0) * cl.get(j, 0) + cl.get(i, 0) * ck.get(j, 0))
                for i in meet
                for j in meet
            ]
            den = b
        for i, j, num in pairs:
            if not num:
                continue
            row = rows[i]
            v = _quotient(row.get(j, 0), num, den)
            if v:
                row[j] = v
            else:
                row.pop(j, None)
    return pos, neg, int(det)


def signature(q: IntersectionForm) -> int:
    """Positive minus negative inertia index, exact, from the form's cached reduction."""
    pos, neg, _ = q._inertia
    return pos - neg


def determinant(q: IntersectionForm) -> int:
    """Determinant of the form, from the same reduction as :func:`signature`."""
    return q._inertia[2]


def is_unimodular(q: IntersectionForm) -> bool:
    return determinant(q) in (1, -1)


def direct_sum(*forms: IntersectionForm) -> IntersectionForm:
    """Block sum, in order; models the intersection form of a connected sum.

    The sum's nonzero entries are its blocks' entries, shifted by each
    block's offset.  Its inertia and determinant are composed from its
    blocks' (each reduced at most once): the squares add and the
    determinants multiply, exactly, by Sylvester's law of inertia.  A block
    sum of symmetric matrices is symmetric, so the sum is stored without a
    second check and never reduced again.
    """
    entries, offset = [], 0
    pos = neg = 0
    det = 1
    for f in forms:
        entries += [(i + offset, j + offset, v) for i, j, v in f.entries]
        offset += f.rank
        p, m, d = f._inertia
        pos, neg, det = pos + p, neg + m, det * d
    total = IntersectionForm._unchecked(offset, tuple(entries))
    vars(total)["_inertia"] = (pos, neg, det)
    return total


def is_characteristic(w, q: IntersectionForm) -> bool:
    """Wu condition: x.Q.x = w.Q.x (mod 2) for all x.

    Uses the closed form diag(Q) = Q.w (mod 2), which is equivalent because
    x.Q.x = sum_i Q[i][i] x_i (mod 2).
    """
    w = as_vector(w, "w2", q.rank)
    if any(v not in (0, 1) for v in w):
        raise ValidationError("w2 entries must be 0 or 1")
    gap = list(q.matvec(w))
    for i, j, v in q.entries:
        if i == j:
            gap[i] -= v
    return all(v % 2 == 0 for v in gap)
