"""Fingerprints at p = 5 and 7, block by block.

:func:`conitop.equiv.fingerprint` imports this module the first time it
fingerprints at p = 5 or 7, so commands that never do (``invariants``,
``transition``) do not compile it at start-up.  See :func:`histogram`.
"""

from __future__ import annotations

from collections import Counter

from .equiv import MAX_WALK_POINTS
from .sixfold import InvariantSystem


def cone_blocks(s: InvariantSystem):
    """The blocks of s as (vertex, slots, entries), the vertex None if it is no cone.

    The blocks are the connected components of the support of mu, joined in
    one pass over ``s.mu``; a slot that no entry meets is a block of its own.
    A block is a cone when one slot, its vertex, lies in every nonzero triple
    of the block (the least such slot is taken).  P(E) is a cone with vertex
    0, since mu(y_i, y_j, y_k) = 0, and a blowup slot is a block of its own.
    """
    root = list(range(s.rank))

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for (i, j, k), _ in s.mu:
        root[find(j)] = root[find(k)] = find(i)
    parts = {}
    for i in range(s.rank):
        parts.setdefault(find(i), ([], []))[0].append(i)
    for entry in s.mu:
        parts[find(entry[0][0])][1].append(entry)
    out = []
    for slots, entries in parts.values():
        common = set(slots)
        for ijk, _ in entries:
            common &= set(ijk)
        out.append((min(common) if common else None, slots, entries))
    return out


def _convolve(a: dict, b: dict, p: int) -> dict:
    """The histogram of the sums of keys, one from ``a`` and one from ``b``, mod p."""
    out = {}
    for (c, q), n in a.items():
        for (u, v), m in b.items():
            key = (c + u) % p, (q + v) % p
            out[key] = out.get(key, 0) + n * m
    return out


def _diagonal_terms(rows: dict, lin: dict, p: int) -> dict:
    """Congruence-diagonalize a quadratic form mod p, carrying two linear forms.

    ``rows`` holds the form's nonzero entries mod p, row by row, and
    ``lin[i]`` the two linear forms' coefficients [b_i, g_i]; both are used
    up.  Sparse Lagrange steps, as in ``lattice._reduce``: pivot on a nonzero
    diagonal entry Q_kk, or, when the whole diagonal is 0 mod p, first replace
    e_k by e_k + e_l for some Q_kl != 0 (the pair step), which makes
    Q_kk = 2 Q_kl.  Each step is a change of basis over F_p, and the linear
    forms follow it.  Returns the new coordinates' terms (d, beta, gamma),
    the form being sum d z^2 and the linear forms sum beta z and sum gamma z,
    with the number of coordinates that have each.
    """
    terms = {}
    while True:
        k = next((i for i in rows if rows[i].get(i)), None)
        if k is None:
            k = next((i for i in rows if rows[i]), None)
            if k is None:
                break
            rk = rows[k]
            rl = rows[l := next(iter(rk))]
            new = {j: (rk.get(j, 0) + rl.get(j, 0)) % p for j in {**rk, **rl}}
            new[k] = 2 * rk[l] % p
            rows[k] = {j: x for j, x in new.items() if x}
            for j, x in new.items():
                if j != k:
                    rows[j].pop(k, None)
                    if x:
                        rows[j][k] = x
            lin[k] = [(x + y) % p for x, y in zip(lin[k], lin[l])]
        rk = rows.pop(k)
        a = rk.pop(k)
        _, bk, gk = key = (a, *lin.pop(k))
        terms[key] = terms.get(key, 0) + 1
        inv = pow(a, -1, p)
        for i, u in rk.items():
            c = u * inv % p
            row, li = rows[i], lin[i]
            del row[k]
            li[0], li[1] = (li[0] - bk * c) % p, (li[1] - gk * c) % p
            for j, x in rk.items():
                x = (row.get(j, 0) - c * x) % p
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
    for i in rows:
        key = (0, *lin[i])
        terms[key] = terms.get(key, 0) + 1
    return terms


def _scaled(t1: dict, p: int, out: dict) -> dict:
    """Add to ``out`` the keys (lambda^3 c, lambda pi) of lambda x, each lambda in F_p^*."""
    for (c, q), n in t1.items():
        for lam in range(1, p):
            key = c * lam**3 % p, q * lam % p
            out[key] = out.get(key, 0) + n
    return out


def _cone(s: InvariantSystem, v0: int, slots, entries, p: int) -> dict:
    """A cone block's histogram over F_p^slots, in closed form.

    Write x = t e_s + y with s the vertex (``v0``) and y on the other slots.
    Every nonzero triple holds s, so
    mu(x,x,x) = m t^3 + 3 t^2 (b.y) + 3 t y^T Q y with m = mu_sss,
    b_i = mu_ssi, Q_ij = mu_sij, and p1.x = p1_s t + g.y.
    After :func:`_diagonal_terms` the t = 1 key is (m, p1_s) plus a sum of
    per-coordinate terms (3 beta z + 3 d z^2, gamma z), so its histogram is a
    convolution of tables of p values.  t = lambda != 0 scales that key (see
    :func:`_scaled`), and t = 0 gives the keys (0, g.y).
    """
    m = 0
    rows = {i: {} for i in slots if i != v0}
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
    flat = not any(g for _, g in lin.values())  # then g.y = 0 at every t = 0 point
    t1 = {(m % p, s.p1[v0] % p): 1}
    for (d, b, g), n in _diagonal_terms(rows, lin, p).items():
        table = {}
        for z in range(p):
            key = (3 * b * z + 3 * d * z * z) % p, g * z % p
            table[key] = table.get(key, 0) + 1
        for _ in range(n):
            t1 = _convolve(t1, table, p)
    n = len(slots) - 1
    block = {(0, q): p ** (n if flat else n - 1) for q in range(1 if flat else p)}
    return _scaled(t1, p, block)


def _walk(s: InvariantSystem, slots, p: int) -> dict:
    """Any block's histogram over F_p^slots, by a depth-first walk.

    The walk fixes x_0, x_1, ... in turn, x_k the coordinate of ``slots[k]``.
    With the prefix x fixed and the coordinates j, j' >= k still free, a node
    carries mu(x,x,x), the contractions L[j] = mu(x,x,e_j) and Q[j][j'] =
    mu(x,e_j,e_j'), and the running p1 sum; fixing x_k = t updates them from
    the slice mu(e_k,.,.) in O(r^2).  With one coordinate e left free, the
    cubic is a + 3 L t + 3 Q t^2 + mu(e,e,e) t^3 in x_e = t, so a leaf is the
    state (a, L, Q, p1 sum) reduced mod p.  Equal leaves are counted once,
    and each distinct leaf adds its p points.  Only the points whose first
    nonzero coordinate is 1 are walked; :func:`_scaled` gives the others.
    """
    r, mu = len(slots), s.mu_value
    # for each k: mu(e_k,e_k,e_k), mu(e_k,e_k,e_j) for j > k, mu(e_k,e_i,e_j) for
    # k < i <= j, and p1_k
    parts = []
    for k, a in enumerate(slots):
        rest = slots[k + 1:]
        tri = [mu(a, b, c) % p for i, b in enumerate(rest) for c in rest[i:]]
        parts.append((mu(a, a, a) % p, [mu(a, a, b) % p for b in rest], tri, s.p1[a]))
    last = r - 1
    leaves = []

    def walk(k, ts, cubic, lin, quad, p1):
        # lin and the upper triangle quad (row by row) start at coordinate k:
        # quad[:n] is row k, quad[n:] the rows after it
        n = r - k
        diag, cross, tri, p1_k = parts[k]
        l0, lin, q0, row, quad = lin[0], lin[1:], quad[0], quad[1:n], quad[n:]
        for t in ts:
            c = cubic + 3 * t * l0 + 3 * t * t * q0 + t * t * t * diag
            lin2 = [a + 2 * t * b + t * t * e for a, b, e in zip(lin, row, cross)]
            quad2 = [a + t * e for a, e in zip(quad, tri)]
            q = p1 + p1_k * t
            if k + 1 < last:
                walk(k + 1, range(p), c, lin2, quad2, q)
            else:
                leaves.append((c % p, lin2[0] % p, quad2[0] % p, q % p))

    for k in range(last):
        n = r - k
        walk(k, (1,), 0, [0] * n, [0] * (n * (n + 1) // 2), 0)
    diag, _, _, p1_last = parts[last]
    t1 = {(diag, p1_last % p): 1}  # e_last, the point led by the last coordinate
    for (cubic, l0, q0, p1), n in Counter(leaves).items():
        for t in range(p):
            c = cubic + 3 * t * l0 + 3 * t * t * q0 + t * t * t * diag
            key = c % p, (p1 + p1_last * t) % p
            t1[key] = t1.get(key, 0) + n
    return _scaled(t1, p, {(0, 0): 1})


def histogram(s: InvariantSystem, p: int) -> dict | None:
    """p = 5, 7: the blocks' histograms, convolved; None outside the walk's window.

    Each block of :func:`cone_blocks` is a sum of its own coordinates, so
    the histogram over F_p^rank convolves the blocks' histograms over their
    slots.  A cone block takes :func:`_cone`, any other block :func:`_walk`,
    which walks (p^n - 1)/(p - 1) points for n slots and serves a block only
    when that is at most MAX_WALK_POINTS; a block that is no cone and has
    more points gives None.  Both count the same keys over the same points:
    a change of basis over F_p permutes F_p^slots.
    """
    hist = None
    for v0, slots, entries in cone_blocks(s):
        if v0 is not None:
            block = _cone(s, v0, slots, entries, p)
        elif (p ** len(slots) - 1) // (p - 1) <= MAX_WALK_POINTS:
            block = _walk(s, slots, p)
        else:
            return None
        hist = block if hist is None else _convolve(hist, block, p)
    return {key + (0,): n for key, n in (hist or {(0, 0): 1}).items()}  # rank 0: one point
