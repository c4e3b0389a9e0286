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


def _items(values, field: str) -> tuple:
    try:
        return tuple(values)
    except TypeError:
        raise ValidationError(f"{field} must be a sequence, got {values!r}") from None


def as_vector(values, field: str = "vector", size: int | None = None) -> Vec:
    """``values`` as a tuple of ``int``, checked; every error names ``field``.

    A value that is not iterable, or an entry that is not an ``int`` (a
    bool, a float), is refused, never converted.  With ``size``, so is any
    other length: the vector is a class in a basis of H^2, and ``size`` is
    the rank.
    """
    out = _items(values, field)
    if not set(map(type, out)) <= {int}:
        bad = next(v for v in out if type(v) is not int)
        raise ValidationError(f"{field} entry {bad!r} is not an integer")
    if size is not None and len(out) != size:
        raise ValidationError(f"{field} length {len(out)} does not match rank {size}")
    return out


def as_matrix(rows, field: str = "matrix", size: int | None = None) -> Mat:
    """``rows`` as a square tuple of :func:`as_vector` rows; every error names ``field``.

    Every matrix in the package is square: a form or a basis change on H^2.
    With ``size`` it must be ``size`` x ``size``, ``size`` being the rank.
    """
    out = tuple(as_vector(row, field) for row in _items(rows, field))
    n = len(out) if size is None else size
    if len(out) != n or not set(map(len, out)) <= {n}:
        if size is None:
            raise ValidationError(f"{field} is not square")
        raise ValidationError(f"{field} shape does not match rank {size}")
    return out


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


def _eliminate(a: list[list[int]], n: int) -> int:
    """Fraction-free (Bareiss) elimination, in place, of the first n columns of ``a``.

    Rows may run on past column n, as in [A | I]; every entry stays a minor, so
    each division is exact.  Returns the determinant of the leading block (1 when
    empty); unless it is 0, that block is left upper triangular.
    """
    sign = prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        top, akk = a[k], a[k][k]
        for i in range(k + 1, n):
            f = a[i][k]
            if f or akk != prev:
                a[i] = [(x * akk - f * y) // prev for x, y in zip(a[i], top)]
        prev = akk
    return sign * a[n - 1][n - 1] if n else 1


def determinant(m: Mat) -> int:
    """Exact determinant by :func:`_eliminate`."""
    return _eliminate([list(row) for row in m], len(m))


def inverse_unimodular(m: Mat) -> Mat:
    """Inverse of an integer matrix with determinant +-1, raising ValidationError otherwise.

    [A | I] is eliminated to [U | B].  A^-1 solves U X = B and is integral, so
    back substitution, which skips the zeros of U, divides exactly.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    d = _eliminate(a, n)
    if d not in (1, -1):
        raise ValidationError(f"matrix has determinant {d}, expected +-1")
    inv = [()] * n
    for i in reversed(range(n)):
        row, rest = a[i], a[i][n:]
        for j in range(i + 1, n):
            if row[j]:
                rest = [x - row[j] * y for x, y in zip(rest, inv[j])]
        inv[i] = tuple(x // row[i] for x in rest)
    return tuple(inv)
