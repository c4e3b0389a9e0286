"""Small exact integer matrix/vector helpers.

Everything here works on tuples of Python ints (arbitrary precision), so no
overflow is possible and no floating point ever enters an invariant
computation.  Matrices are tuples of row tuples.
"""

from __future__ import annotations

from operator import mul

from .errors import ValidationError

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]


def as_vector(values, field: str = "vector") -> Vec:
    """``values`` as a tuple; an entry that is not an ``int`` (a bool, a float) is refused."""
    out = tuple(values)
    if not set(map(type, out)) <= {int}:
        bad = next(v for v in out if type(v) is not int)
        raise ValidationError(f"{field} entry {bad!r} is not an integer")
    return out


def as_matrix(rows, field: str = "matrix") -> Mat:
    return tuple(as_vector(row, field) for row in rows)


def transpose(m: Mat) -> Mat:
    if not m:
        return ()
    return tuple(zip(*m))


def matvec(m: Mat, v: Vec) -> Vec:
    return tuple(sum(map(mul, row, v)) for row in m)


def dot(u: Vec, v: Vec) -> int:
    return sum(map(mul, u, v))


def vec_mod2(v: Vec) -> Vec:
    return tuple(x % 2 for x in v)


def determinant(m: Mat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    The empty matrix has determinant 1.
    """
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _minor(m: Mat, row: int, col: int) -> Mat:
    return tuple(
        tuple(v for j, v in enumerate(r) if j != col)
        for i, r in enumerate(m)
        if i != row
    )


def inverse_unimodular(m: Mat) -> Mat:
    """Inverse of an integer matrix with determinant +-1 (stays integral)."""
    d = determinant(m)
    if d not in (1, -1):
        raise ValidationError(f"matrix has determinant {d}, expected +-1")
    n = len(m)
    if n == 0:
        return ()
    # adjugate transposed: inv[i][j] = d * (-1)^(i+j) * det(minor(j, i))
    return tuple(
        tuple(d * (-1) ** (i + j) * determinant(_minor(m, j, i)) for j in range(n))
        for i in range(n)
    )
