"""Fingerprints at p = 5 and 7, block by block.

A block is counted in closed form when it is a cone in the given basis
(:func:`_cone`) or, failing that, when p1 shows it to be a flat cone in a
basis over F_p (:func:`_p1_cone`); any other block is walked point by point
(:func:`_walk`).  :func:`conitop.equiv.fingerprint` imports this module the
first time it fingerprints at p = 5 or 7, so ``compare`` and
``verify-paper`` compile it only then; ``invariants`` and ``transition``
load neither it nor :mod:`conitop.equiv`.  See :func:`histogram`.
"""

from __future__ import annotations

from collections import Counter

from .equiv import MAX_WALK_POINTS
from .sixfold import InvariantSystem


def cone_blocks(s: InvariantSystem):
    """The blocks of s as (vertex, slots, entries), the vertex None if it is no cone.

    The blocks are the connected components of the support of mu, joined in
    one pass over ``s.mu``, an entry that meets two blocks relabelling the
    slots of one; a slot that no entry meets is a block of its own.
    A block is a cone when one slot, its vertex, lies in every nonzero triple
    of the block (the least such slot is taken, found by intersecting the
    triples).  P(E) is a cone with vertex 0, since mu(y_i, y_j, y_k) = 0, and
    a blowup slot is a block of its own.
    """
    label = list(range(s.rank))  # each slot's block, relabelled as blocks join
    for (i, j, k), _ in s.mu:
        a, b, c = label[i], label[j], label[k]
        if a != b or a != c:
            label = [a if x == b or x == c else x for x in label]
    parts = {}
    for i, x in enumerate(label):
        parts.setdefault(x, ([], []))[0].append(i)
    for entry in s.mu:
        parts[label[entry[0][0]]][1].append(entry)
    out = []
    for slots, entries in parts.values():
        # the slots in every triple (a slot that no entry meets is its own vertex)
        common = set(entries[0][0] if entries else slots).intersection(*[t for t, _ in entries])
        out.append((min(common, default=None), slots, entries))
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
    forms follow it.  A coordinate that meets no other (every one when Q is
    diagonal, as for P(CP2 # k CP2bar)) is taken as it stands, before any
    step.  Returns the new coordinates' terms (d, beta, gamma), the form
    being sum d z^2 and the linear forms sum beta z and sum gamma z, with
    the number of coordinates that have each.
    """
    terms = {}
    for i in [i for i, row in rows.items() if not row or len(row) == 1 and i in row]:
        key = (rows.pop(i).get(i, 0), *lin.pop(i))
        terms[key] = terms.get(key, 0) + 1
    while rows:
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


# _IMAGES[p][c, q]: the keys (lambda^3 c, lambda q) mod p, one for each lambda in F_p^*
_IMAGES = {p: {(c, q): tuple((c * t**3 % p, q * t % p) for t in range(1, p))
               for c in range(p) for q in range(p)} for p in (5, 7)}


def _scaled(t1: dict, p: int, out: dict) -> dict:
    """Add to ``out`` the keys (lambda^3 c, lambda pi) of lambda x, read from _IMAGES."""
    images = _IMAGES[p]
    for key, n in t1.items():
        for image in images[key]:
            out[image] = out.get(image, 0) + n
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

    Reads the block's (m, b, Q, p1) in the given basis, vertex ``v0``, for
    :func:`_closed_form`: m = mu_sss, b_i = mu_ssi, Q_ij = mu_sij and p1 for
    s = v0 and the other slots i, j.
    """
    m = 0
    rows = {i: {} for i in slots if i != v0}
    lin = {i: [0, s.p1[i] % p] for i in rows}
    for (i, j, k), v in entries:
        # the two slots of the triple besides v0
        a, b = (j, k) if i == v0 else (i, k) if j == v0 else (i, j)
        if a == b == v0:
            m = v
        elif a == v0 or b == v0:
            lin[a + b - v0][0] = v % p
        elif v % p:
            rows[a][b] = rows[b][a] = v % p
    return _closed_form(m, rows, lin, s.p1[v0] % p, p)


def _p1_cone(s: InvariantSystem, slots, entries, p: int) -> dict | None:
    """A block's histogram in closed form when p1 shows it to be a flat cone mod p, else None.

    Take the first slot i0 with p1_i0 != 0 mod p and change basis over F_p to
    f_0 = e_i0 and f_j = e_j - c_j e_i0, c_j = p1_j / p1_i0 mod p, for the other
    slots j, so that p1 pairs only with f_0.  With m = mu(e_i0,e_i0,e_i0),
    u_j = mu(e_i0,e_i0,e_j) and M_jk = mu(e_i0,e_j,e_k) (``cross``):
    b_j = mu(f_0,f_0,f_j) = u_j - c_j m, N_jk = mu(f_0,e_j,f_k) = M_jk - c_k u_j
    and Q_jk = mu(f_0,f_j,f_k) = N_jk - c_j b_k.  The block is a flat cone
    with vertex f_0 when mu(f_j,f_k,f_l) = mu_jkl - c_l M_jk - c_k N_jl -
    c_j Q_kl is 0 mod p for every j <= k <= l; its histogram is then
    :func:`_closed_form`'s on (m, b, Q, p1_i0).  A block whose p1 is 0 mod p,
    or whose cubic does not vanish where p1 does, gives None.  The entries
    are read once, into lists over the other slots' places.
    """
    p1 = s.p1
    i0 = next((i for i in slots if p1[i] % p), None)
    if i0 is None:
        return None
    inv = pow(p1[i0], -1, p)
    others = [j for j in slots if j != i0]
    n, at = len(others), {j: x for x, j in enumerate(others)}
    c = [p1[j] * inv % p for j in others]
    m, u, cross, rest = 0, [0] * n, [[0] * n for _ in range(n)], {}
    for (i, j, k), v in entries:
        # the two slots of the triple besides i0, or its three places
        if i0 not in (i, j, k):
            rest[at[i], at[j], at[k]] = v
            continue
        a, b = (j, k) if i == i0 else (i, k) if j == i0 else (i, j)
        if a == b == i0:
            m = v
        elif a == i0 or b == i0:
            u[at[a + b - i0]] = v
        else:
            cross[at[a]][at[b]] = cross[at[b]][at[a]] = v
    b = [(ux - cx * m) % p for ux, cx in zip(u, c)]
    quad, rows = [[0] * n for _ in range(n)], {j: {} for j in others}
    for x in range(n):
        cx, ux, mx = c[x], u[x], cross[x]
        for y in range(x, n):
            q = quad[x][y] = (mx[y] - cx * b[y] - c[y] * ux) % p
            if q:
                rows[others[x]][others[y]] = rows[others[y]][others[x]] = q
    for x in range(n):
        cx, ux, mx = c[x], u[x], cross[x]
        for y in range(x, n):
            cy, mxy, qy = c[y], mx[y], quad[y]
            for z in range(y, n):
                cz = c[z]
                if (rest.get((x, y, z), 0) - cz * mxy - cy * (mx[z] - cz * ux) - cx * qy[z]) % p:
                    return None
    return _closed_form(m, rows, {j: [bx, 0] for j, bx in zip(others, b)}, p1[i0] % p, p)


def _closed_form(m: int, rows: dict, lin: dict, q: int, p: int) -> dict:
    """A cone block's histogram from (m, b, Q, p1), vertex s and n other coordinates.

    Write x = t e_s + y with y on the other coordinates.  Every nonzero
    triple holds s, so mu(x,x,x) = m t^3 + 3 t^2 (b.y) + 3 t y^T Q y, and
    p1.x = q t + g.y.  ``rows`` holds Q mod p row by row, ``lin[i]`` is
    [b_i, g_i] mod p, and both are used up.  After :func:`_diagonal_terms`
    the t = 1 key is (m, q) plus a sum of per-coordinate terms
    (3 beta z + 3 d z^2, gamma z).  When g = 0 mod p (the block is flat:
    P(E), a transition side or a blowup slot) p1.x is q at every t = 1
    point, and the cubic's values are counted as a diagonal quadric's
    (:func:`_quadric_slice`); otherwise the per-term tables of p values are
    convolved (:func:`_convolve_coordinates`).  t = lambda != 0 scales the
    t = 1 keys (see :func:`_scaled`), and t = 0 gives the keys (0, g.y).
    """
    n = len(rows)
    flat = not any(g for _, g in lin.values())  # then g.y = 0 at every t = 0 point
    terms = _diagonal_terms(rows, lin, p)
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

    Keys are (mu(x,x,x) mod p, p1.x mod p).  Each block of :func:`cone_blocks`
    is a sum of its own coordinates, so the histogram over F_p^rank convolves
    the blocks' histograms over their slots.  A cone block takes :func:`_cone`.
    A block with no vertex of n slots is counted only when its walk,
    (p^n - 1)/(p - 1) points, is at most MAX_WALK_POINTS, else None is
    returned; it takes :func:`_p1_cone`, or failing that :func:`_walk`.  All
    count the same keys over the same points.  ``blocks``, when given, is
    ``cone_blocks(s)``, found once for every prime a caller runs.
    """
    hist = None
    for v0, slots, entries in cone_blocks(s) if blocks is None else blocks:
        if v0 is not None:
            block = _cone(s, v0, slots, entries, p)
        elif (p ** len(slots) - 1) // (p - 1) <= MAX_WALK_POINTS:
            block = _p1_cone(s, slots, entries, p) or _walk(s, slots, p)
        else:
            return None
        hist = block if hist is None else _convolve(hist, block, p)
    return {(0, 0): 1} if hist is None else hist  # rank 0: one point
