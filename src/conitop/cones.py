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
    of the block (the least such slot is taken): it is found by counting,
    for each slot, the entries it lies in.  P(E) is a cone with vertex 0,
    since mu(y_i, y_j, y_k) = 0, and a blowup slot is a block of its own.
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
        # the vertex meets every entry: count the distinct slots of each triple
        meets = dict.fromkeys(slots, 0)
        for (i, j, k), _ in entries:
            meets[i] += 1
            if j != i:
                meets[j] += 1
            if k != j:
                meets[k] += 1
        n = len(entries)
        out.append((next((i for i in slots if meets[i] == n), None), slots, entries))
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


# (lambda^3, lambda) mod p for each lambda in F_p^*
_SCALES = {p: tuple((lam**3 % p, lam) for lam in range(1, p)) for p in (5, 7)}


def _scaled(t1: dict, p: int, out: dict) -> dict:
    """Add to ``out`` the keys (lambda^3 c, lambda pi) of lambda x, each lambda in F_p^*."""
    scales = _SCALES[p]
    for (c, q), n in t1.items():
        for cube, lam in scales:
            key = c * cube % p, q * lam % p
            out[key] = out.get(key, 0) + n
    return out


# _ETA[p][a]: the Legendre symbol of a mod p, one of 0, 1 and -1
_ETA = {p: tuple((pow(a, (p - 1) // 2, p) + 1) % p - 1 for a in range(p)) for p in (5, 7)}


def _quadric_slice(m: int, terms: dict, n: int, p: int) -> list:
    """The number of y in F_p^n with m + sum(3 d z^2 + 3 beta z) = c, for each c in F_p.

    ``terms`` are :func:`_diagonal_terms`' (d, beta, 0) with their counts,
    over n coordinates.  A term with d = 0 and beta != 0 makes every value
    take p^(n-1) points.  Otherwise each d != 0 term completes its square,
    3 d z^2 + 3 beta z = 3 d w^2 - 3 beta^2/(4d), so with s0 = m - sum
    3 beta^2/(4d), the k terms' product Delta of the 3d, the Legendre symbol
    eta and z = n - k free coordinates, value c takes p^z N_k(c - s0)
    points, the count of a diagonal quadric (Lidl and Niederreiter, Finite
    Fields, Theorems 6.26 and 6.27): N_0(u) = [u = 0],
    N_k(u) = p^(k-1) + p^((k-1)/2) eta((-1)^((k-1)/2) u Delta) for odd k and
    N_k(u) = p^(k-1) + nu(u) p^((k-2)/2) eta((-1)^(k/2) Delta) for even k,
    nu(0) = p - 1 and nu(u) = -1 otherwise.
    """
    s0, delta, k = m, 1, 0
    for (d, b, _), count in terms.items():
        if d:
            s0 -= 3 * b * b * pow(4 * d, -1, p) * count
            delta = delta * pow(3 * d, count, p) % p
            k += count
        elif b:
            return [p ** (n - 1)] * p
    eta, free = _ETA[p], p ** (n - k)
    if k == 0:
        counts = [free] + [0] * (p - 1)
    elif k % 2:
        base, step = p ** (k - 1) * free, p ** (k // 2) * free
        sign = delta if k % 4 == 1 else -delta
        counts = [base + step * eta[u * sign % p] for u in range(p)]
    else:
        base = p ** (k - 1) * free
        step = p ** (k // 2 - 1) * free * eta[(delta if k % 4 == 0 else -delta) % p]
        counts = [base + (p - 1) * step] + [base - step] * (p - 1)
    s0 %= p
    return counts[-s0:] + counts[:-s0] if s0 else counts  # counts[u] at c = u + s0


def _convolve_coordinates(t1: dict, terms: dict, p: int) -> dict:
    """Convolve ``t1`` with the table of p values of each term (3 beta z + 3 d z^2, gamma z)."""
    for (d, b, g), n in terms.items():
        table = {}
        for z in range(p):
            key = (3 * b * z + 3 * d * z * z) % p, g * z % p
            table[key] = table.get(key, 0) + 1
        for _ in range(n):
            t1 = _convolve(t1, table, p)
    return t1


def _cone(s: InvariantSystem, v0: int, slots, entries, p: int) -> dict:
    """A cone block's histogram over F_p^slots, in closed form.

    Write x = t e_s + y with s the vertex (``v0``) and y on the other slots.
    Every nonzero triple holds s, so
    mu(x,x,x) = m t^3 + 3 t^2 (b.y) + 3 t y^T Q y with m = mu_sss,
    b_i = mu_ssi, Q_ij = mu_sij, and p1.x = p1_s t + g.y.
    After :func:`_diagonal_terms` the t = 1 key is (m, p1_s) plus a sum of
    per-coordinate terms (3 beta z + 3 d z^2, gamma z).  When g = 0 mod p
    (the block is flat: P(E), a transition side or a blowup slot) p1.x is
    p1_s at every t = 1 point, and the cubic's values are counted as a
    diagonal quadric's (:func:`_quadric_slice`); otherwise the per-term
    tables of p values are convolved (:func:`_convolve_coordinates`).
    t = lambda != 0 scales the t = 1 keys (see :func:`_scaled`), and t = 0
    gives the keys (0, g.y).
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
    terms = _diagonal_terms(rows, lin, p)
    n, q = len(slots) - 1, s.p1[v0] % p
    if flat:
        counts = _quadric_slice(m, terms, n, p)
        return _scaled({(c, q): x for c, x in enumerate(counts) if x}, p, {(0, 0): p**n})
    t1 = _convolve_coordinates({(m % p, q): 1}, terms, p)
    return _scaled(t1, p, {(0, g): p ** (n - 1) for g in range(p)})


def _walk(s: InvariantSystem, slots, p: int) -> dict:
    """Any block's histogram over F_p^slots, by a depth-first walk.

    The walk fixes x_0, x_1, ... in turn, x_k the coordinate of ``slots[k]``.
    With the prefix x fixed and the coordinates j, j' >= k still free, a node
    carries mu(x,x,x), the contractions L[j] = mu(x,x,e_j) and Q[j][j'] =
    mu(x,e_j,e_j'), and the running p1 sum; fixing x_k = t updates them from
    the slice mu(e_k,.,.) in O(r^2).  With one coordinate e left free, the
    cubic is a + 3 L t + 3 Q t^2 + mu(e,e,e) t^3 in x_e = t, so a leaf is the
    state (a, L, Q, p1 sum) reduced mod p, its L and Q single numbers.
    Equal leaves are counted once, and each distinct leaf adds its p points,
    stepped by offsets computed once per distinct (L, Q).  Only the points
    whose first nonzero coordinate is 1 are walked; :func:`_scaled` gives the
    others.
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
        if k + 1 < last:
            for t in ts:
                c = cubic + 3 * t * l0 + 3 * t * t * q0 + t * t * t * diag
                lin2 = [a + 2 * t * b + t * t * e for a, b, e in zip(lin, row, cross)]
                quad2 = [a + t * e for a, e in zip(quad, tri)]
                walk(k + 1, range(p), c, lin2, quad2, p1 + p1_k * t)
            return
        # the last coordinate is the one left free: L and Q have one entry each
        (l1,), (r1,), (e1,), (q1,), (f1,) = lin, row, cross, quad, tri
        for t in ts:
            c = cubic + 3 * t * l0 + 3 * t * t * q0 + t * t * t * diag
            l, q = l1 + 2 * t * r1 + t * t * e1, q1 + t * f1
            leaves.append((c % p, l % p, q % p, (p1 + p1_k * t) % p))

    for k in range(last):
        n = r - k
        walk(k, (1,), 0, [0] * n, [0] * (n * (n + 1) // 2), 0)
    diag, _, _, p1_last = parts[last]
    t1 = {(diag, p1_last % p): 1}  # e_last, the point led by the last coordinate
    offsets = {}  # (L, Q) -> the p steps (3 L t + 3 Q t^2 + diag t^3, p1_last t)
    for (cubic, l0, q0, p1), n in Counter(leaves).items():
        steps = offsets.get((l0, q0))
        if steps is None:
            steps = offsets[l0, q0] = [
                (3 * t * l0 + 3 * t * t * q0 + t * t * t * diag, p1_last * t) for t in range(p)
            ]
        for dc, dq in steps:
            key = (cubic + dc) % p, (p1 + dq) % p
            t1[key] = t1.get(key, 0) + n
    return _scaled(t1, p, {(0, 0): 1})


def histogram(s: InvariantSystem, p: int, blocks=None) -> dict | None:
    """p = 5, 7: the blocks' histograms, convolved; None outside the walk's window.

    Keys are (mu(x,x,x) mod p, p1.x mod p); :func:`conitop.equiv.fingerprint`
    adds the w2 key 0 as it builds its rows.  Each block of
    :func:`cone_blocks` is a sum of its own coordinates, so the histogram over
    F_p^rank convolves the blocks' histograms over their slots.  A cone
    block takes :func:`_cone`, any other block :func:`_walk`, which walks
    (p^n - 1)/(p - 1) points for n slots and serves a block only when that
    is at most MAX_WALK_POINTS; a block that is no cone and has more points
    gives None.  Both count the same keys over the same points:
    a change of basis over F_p permutes F_p^slots.  ``blocks``, when given,
    is ``cone_blocks(s)``, found once for every prime a caller runs.
    """
    hist = None
    for v0, slots, entries in cone_blocks(s) if blocks is None else blocks:
        if v0 is not None:
            block = _cone(s, v0, slots, entries, p)
        elif (p ** len(slots) - 1) // (p - 1) <= MAX_WALK_POINTS:
            block = _walk(s, slots, p)
        else:
            return None
        hist = block if hist is None else _convolve(hist, block, p)
    return {(0, 0): 1} if hist is None else hist  # rank 0: one point
