"""Exact integer symmetric bilinear form algebra.

An :class:`IntersectionForm` models the cup-product pairing on the degree-two
cohomology of a closed oriented 4-manifold in a chosen basis: a symmetric
integer matrix ``Q`` with ``Q[i][j]`` the evaluation of the product of the
``i``-th and ``j``-th basis classes on the fundamental class.  Basis order is
part of the data; nothing here canonicalizes it.

All arithmetic is exact.  :func:`signature` and :func:`determinant` (hence
:func:`is_unimodular`) read one sparse Lagrange reduction, :func:`_reduce`,
whose entries are Python ints until a quotient needs a
``fractions.Fraction`` (imported only then, so start-up does not pay for
it); mod-2 work stays in integers.  Descriptors are capped at rank
``serialize.MAX_FORM_RANK`` before a form is built.
"""

from __future__ import annotations

from .errors import ValidationError, Value
from .intmat import Mat, Vec, as_matrix, as_vector, dot, matvec


class IntersectionForm(Value):
    """Symmetric integer bilinear form; rank 0 is allowed."""

    fields = ("matrix",)

    def __init__(self, matrix: Mat):
        object.__setattr__(self, "matrix", as_matrix(matrix))
        n = len(self.matrix)
        for row in self.matrix:
            if len(row) != n:
                raise ValidationError("form matrix is not square")
        for i in range(n):
            for j in range(i):
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise ValidationError(
                        f"form matrix is not symmetric at ({i},{j})"
                    )

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def matvec(self, x: Vec) -> Vec:
        if len(x) != self.rank:
            raise ValidationError("vector length does not match form rank")
        return matvec(self.matrix, x)

    def evaluate(self, x: Vec, y: Vec) -> int:
        """Pairing x^T Q y."""
        if len(x) != self.rank or len(y) != self.rank:
            raise ValidationError("vector length does not match form rank")
        return dot(x, matvec(self.matrix, y))


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
    rows = {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(q.matrix)}
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
    """Positive minus negative inertia index, computed exactly by :func:`_reduce`."""
    pos, neg, _ = _reduce(q)
    return pos - neg


def determinant(q: IntersectionForm) -> int:
    """Determinant of the form, from the same reduction as :func:`signature`."""
    return _reduce(q)[2]


def is_unimodular(q: IntersectionForm) -> bool:
    return determinant(q) in (1, -1)


def direct_sum(*forms: IntersectionForm) -> IntersectionForm:
    """Block sum, in order; models the intersection form of a connected sum."""
    n = sum(f.rank for f in forms)
    rows, offset = [], 0
    for f in forms:
        for row in f.matrix:
            rows.append((0,) * offset + row + (0,) * (n - offset - f.rank))
        offset += f.rank
    return IntersectionForm(tuple(rows))


def is_characteristic(w, q: IntersectionForm) -> bool:
    """Wu condition: x.Q.x = w.Q.x (mod 2) for all x.

    Uses the closed form diag(Q) = Q.w (mod 2), which is equivalent because
    x.Q.x = sum_i Q[i][i] x_i (mod 2).
    """
    w = as_vector(w)
    if len(w) != q.rank:
        raise ValidationError("w2 length does not match form rank")
    if any(v not in (0, 1) for v in w):
        raise ValidationError("w2 entries must be 0 or 1")
    qw = q.matvec(w)
    return all((q.matrix[i][i] - qw[i]) % 2 == 0 for i in range(q.rank))
