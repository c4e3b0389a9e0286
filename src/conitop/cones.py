"""Fingerprints at p = 5 and 7, block by block.

A block is counted in closed form when it is a cone in the given basis
(:func:`_cone`) or, failing that, when p1 shows it to be a flat cone in a
basis over F_p (:func:`_p1_cone`); any other block is walked point by point
(:func:`_walk`).  Both closed-form routes read their block once
(:func:`_read`) and count it by :func:`_closed_form`, which diagonalizes Q
in place where its pieces have 1 or 2 coordinates.
:func:`conitop.equiv.fingerprint` imports this module the first time it
fingerprints at p = 5 or 7, so ``compare`` and ``verify-paper`` compile it
only then; ``invariants`` and ``transition`` load neither it nor
:mod:`conitop.equiv`.  See :func:`histogram`.
"""

from __future__ import annotations

from collections import Counter

from .equiv import MAX_WALK_POINTS
from .sixfold import InvariantSystem


def cone_blocks(s: InvariantSystem):
    """The blocks of s as (vertex, slots, entries), the vertex None if it is no cone.

    The blocks are the connected components of the support of mu, listed by
    their least slot; a slot that no entry meets is a block of its own.
    A block is a cone when one slot, its vertex, lies in every nonzero triple
    of the block (the least such slot is taken).  P(E) is a cone with vertex
    0, since mu(y_i, y_j, y_k) = 0, and a blowup slot is a block of its own.
    When a slot of the first triple lies in every triple, as in P(E) and
    local model 2, the entries make one cone.  Otherwise the blocks are
    joined in one pass over ``s.mu``, an entry that meets two blocks
    relabelling the smaller one's slots, so that no slot is relabelled more
    than log2(rank) times.
    """
    triples = [t for t, _ in s.mu]
    vertex = _vertex(triples) if triples else None
    if vertex is not None or not triples:
        touched = set().union(*triples)
        low = min(touched, default=None)
        return [(vertex, sorted(touched), list(s.mu)) if i == low else (i, [i], [])
                for i in range(s.rank) if i == low or i not in touched]
    label, members = list(range(s.rank)), [[i] for i in range(s.rank)]  # each slot's block
    for i, j, k in triples:
        for y in (j, k):
            a, b = label[i], label[y]
            if a != b:  # join the blocks, relabelling the smaller one's slots
                if len(members[a]) < len(members[b]):
                    a, b = b, a
                for z in members[b]:
                    label[z] = a
                members[a] += members[b]
    parts = {}
    for i, x in enumerate(label):
        parts.setdefault(x, ([], []))[0].append(i)
    for entry in s.mu:
        parts[label[entry[0][0]]][1].append(entry)
    # a slot that no entry meets is its own vertex
    return [(_vertex([t for t, _ in entries]) if entries else slots[0], slots, entries)
            for slots, entries in parts.values()]


def _vertex(triples: list):
    """The least slot that lies in every triple, or None; the triples are sorted."""
    for v in dict.fromkeys(triples[0]):
        for t in triples:
            if v not in t:
                break
        else:
            return v
    return None


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
    forms follow it.  :func:`_closed_form` passes only components of Q of 3
    or more coordinates; it counts smaller ones in place.  Returns the new
    coordinates' terms (d, beta, gamma), the form being sum d z^2 and the
    linear forms sum beta z and sum gamma z, with the number of coordinates
    that have each.
    """
    terms = {}
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


# _IMAGES[p][q][c]: the keys (lambda^3 c, lambda q) mod p, one for each lambda in F_p^*
# (nested lists: a dict on (c, q) would build and hash that key at every lookup)
_IMAGES = {p: [[tuple((c * t**3 % p, q * t % p) for t in range(1, p)) for c in range(p)]
               for q in range(p)] for p in (5, 7)}


def _scaled(t1: dict, p: int, out: dict) -> dict:
    """Add to ``out`` the keys (lambda^3 c, lambda pi) of lambda x, read from _IMAGES."""
    images = _IMAGES[p]
    for (c, q), n in t1.items():
        for image in images[q][c]:
            out[image] = out.get(image, 0) + n
    return out


# _ETA[p][a]: the Legendre symbol of a mod p, one of 0, 1 and -1
_ETA = {p: tuple((pow(a, (p - 1) // 2, p) + 1) % p - 1 for a in range(p)) for p in (5, 7)}


def _quadric_slice(m: int, terms: dict, n: int, p: int) -> list:
    """The number of y in F_p^n with m + sum(3 d z^2 + 3 beta z) = c, for each c in F_p.

    ``terms`` are :func:`_closed_form`'s (d, beta, 0) with their counts,
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


def _read(entries, v0: int, others: list, p: int):
    """A block's entries about the slot v0, mod p: (m, diag, b, nbrs, rest).

    With x and y the places of slots in ``others``: m = mu(v0,v0,v0),
    b[x] = mu(v0,v0,e_x) and diag[x] = Q_xx, Q_xy = mu(v0,e_x,e_y); nbrs[x]
    is {y: Q_xy} over the y != x with Q_xy != 0 mod p, held only for the x
    that have such a y; ``rest`` maps the places (x, y, z) of an entry
    without v0 to its value.  Entries 0 mod p are dropped.
    """
    n = len(others)
    at = {j: x for x, j in enumerate(others)}
    m, diag, b, nbrs, rest = 0, [0] * n, [0] * n, {}, {}
    for (i, j, k), v in entries:
        v %= p
        if not v:
            continue
        # the two slots of the triple besides v0, in order, or its three places
        if i == v0:
            x, y = j, k
        elif j == v0:
            x, y = i, k
        elif k == v0:
            x, y = i, j
        else:
            rest[at[i], at[j], at[k]] = v
            continue
        if x == y == v0:
            m = v
        elif x == v0 or y == v0:
            b[at[x + y - v0]] = v
        elif x == y:
            diag[at[x]] = v
        else:
            x, y = at[x], at[y]
            nbrs.setdefault(x, {})[y] = nbrs.setdefault(y, {})[x] = v
    return m, diag, b, nbrs, rest


def _cone(s: InvariantSystem, v0: int, slots, entries, p: int) -> dict:
    """A cone block's histogram over F_p^slots, in closed form.

    Reads the block's (m, b, Q, p1) in the given basis, vertex ``v0``, for
    :func:`_closed_form`: m = mu_sss, b_i = mu_ssi, Q_ij = mu_sij and p1 for
    s = v0 and the other slots i, j.
    """
    p1, others = s.p1, [i for i in slots if i != v0]
    m, diag, b, nbrs, _ = _read(entries, v0, others, p)
    return _closed_form(m, p1[v0] % p, diag, nbrs, b, [p1[i] % p for i in others], p)


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
    are read once, by :func:`_read` about i0, and M is spread into lists over
    the other slots' places for the O(n^3) check.
    """
    p1 = s.p1
    i0 = next((i for i in slots if p1[i] % p), None)
    if i0 is None:
        return None
    inv = pow(p1[i0], -1, p)
    others = [j for j in slots if j != i0]
    n = len(others)
    c = [p1[j] * inv % p for j in others]
    m, diag, u, nbrs, rest = _read(entries, i0, others, p)
    cross = [[0] * n for _ in range(n)]
    for x, mx in enumerate(cross):
        mx[x] = diag[x]
        for y, v in nbrs.get(x, {}).items():
            mx[y] = v
    b = [(ux - cx * m) % p for ux, cx in zip(u, c)]
    quad, qdiag, qnbrs = [[0] * n for _ in range(n)], [0] * n, {}
    for x in range(n):
        cx, ux, mx = c[x], u[x], cross[x]
        qdiag[x] = quad[x][x] = (mx[x] - cx * b[x] - cx * ux) % p
        for y in range(x + 1, n):
            q = quad[x][y] = (mx[y] - cx * b[y] - c[y] * ux) % p
            if q:
                qnbrs.setdefault(x, {})[y] = qnbrs.setdefault(y, {})[x] = q
    for x in range(n):
        cx, ux, mx = c[x], u[x], cross[x]
        for y in range(x, n):
            cy, mxy, qy = c[y], mx[y], quad[y]
            for z in range(y, n):
                cz = c[z]
                if (rest.get((x, y, z), 0) - cz * mxy - cy * (mx[z] - cz * ux) - cx * qy[z]) % p:
                    return None
    return _closed_form(m, p1[i0] % p, qdiag, qnbrs, b, [0] * n, p)


def _closed_form(m: int, q: int, diag: list, nbrs: dict, b: list, g: list, p: int) -> dict:
    """A cone block's histogram from :func:`_read`'s (m, diag, nbrs, b) and p1 = (q, g).

    Write x = t e_s + y, s the vertex.  Every nonzero triple holds s, so
    mu(x,x,x) = m t^3 + 3 t^2 (b.y) + 3 t y^T Q y and p1.x = q t + g.y, mod p;
    ``nbrs`` is used up.  Q is congruence-diagonalized one component at a
    time into terms (d, beta, gamma), b and g following: a coordinate alone
    is its term; a pair i, j pivots on Q_ii, else on Q_jj, else first takes
    e_i to e_i + e_j (the pair step, Q_ii = 2 Q_ij); a larger component goes
    to :func:`_diagonal_terms`.  The t = 1 key is (m, q) plus the terms'
    (3 beta z + 3 d z^2, gamma z).  When g = 0 mod p (a flat block: P(E), a
    transition side, a blowup slot) the t = 1 values are a diagonal quadric's
    (:func:`_quadric_slice`), each count filling its keys (lambda^3 c,
    lambda q) at t = lambda straight from ``_IMAGES``, and t = 0 is (0, 0).
    Otherwise the terms' tables are convolved (:func:`_convolve_coordinates`)
    and scaled (:func:`_scaled`), and t = 0 gives the keys (0, g.y).
    """
    n, terms = len(diag), {}
    for x in range(n):
        if x not in nbrs:
            key = (diag[x], b[x], g[x])
            terms[key] = terms.get(key, 0) + 1
    while nbrs:
        x, row = nbrs.popitem()
        if len(row) == 1 and len(nbrs[y := next(iter(row))]) == 1:
            del nbrs[y]
            c, a, e = row[y], diag[x], diag[y]
            if not a:  # pivot on Q_jj when Q_ii is 0
                x, y, a, e = y, x, e, a
            bx, gx = b[x], g[x]
            if not a:  # the pair step: e_i + e_j has Q = 2 Q_ij and still meets e_j in Q_ij
                a, bx, gx = 2 * c % p, (bx + b[y]) % p, (gx + g[y]) % p
            r = c * pow(a, -1, p)
            for key in (a, bx, gx), ((e - c * r) % p, (b[y] - bx * r) % p, (g[y] - gx * r) % p):
                terms[key] = terms.get(key, 0) + 1
            continue
        rows, stack = {x: row}, [x]  # the component of x, its rows taken out of nbrs
        while stack:
            for z in rows[stack.pop()]:
                if z not in rows:
                    rows[z] = nbrs.pop(z)
                    stack.append(z)
        for z, row in rows.items():
            if diag[z]:
                row[z] = diag[z]
        for key, k in _diagonal_terms(rows, {z: [b[z], g[z]] for z in rows}, p).items():
            terms[key] = terms.get(key, 0) + k
    if not any(g):
        hist = {(0, 0): p**n}
        for count, keys in zip(_quadric_slice(m, terms, n, p), _IMAGES[p][q]):
            if count:
                for key in keys:
                    hist[key] = hist.get(key, 0) + count
        return hist
    t1 = _convolve_coordinates({(m, q): 1}, terms, p)
    return _scaled(t1, p, {(0, pi): p ** (n - 1) for pi in range(p)})


def _walk(s: InvariantSystem, slots, entries, p: int) -> dict:
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
    others.  ``slots`` come in increasing order, so every triple read from
    the block's ``entries`` is canonical.
    """
    r, mu = len(slots), dict(entries).get
    # for each k: mu(e_k,e_k,e_k), mu(e_k,e_k,e_j) for j > k, mu(e_k,e_i,e_j) for
    # k < i <= j, and p1_k
    parts = []
    for k, a in enumerate(slots):
        rest = slots[k + 1:]
        tri = [mu((a, b, c), 0) % p for i, b in enumerate(rest) for c in rest[i:]]
        parts.append((mu((a, a, a), 0) % p, [mu((a, a, b), 0) % p for b in rest], tri, s.p1[a]))
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


def histogram(s: InvariantSystem, p: int) -> dict | None:
    """p = 5, 7: the blocks' histograms, convolved; None outside the walk's window.

    Keys are (mu(x,x,x) mod p, p1.x mod p).  Each block of :func:`cone_blocks`
    is a sum of its own coordinates, so the histogram over F_p^rank convolves
    the blocks' histograms over their slots.  A cone block takes :func:`_cone`.
    A block with no vertex of n slots is counted only when its walk,
    (p^n - 1)/(p - 1) points, is at most MAX_WALK_POINTS, else None is
    returned; it takes :func:`_p1_cone`, or failing that :func:`_walk`.  Both
    cone routes read the block once (:func:`_read`) and count it by
    :func:`_closed_form`.  All count the same keys over the same points.
    """
    hist = None
    for v0, slots, entries in cone_blocks(s):
        if v0 is not None:
            block = _cone(s, v0, slots, entries, p)
        elif (p ** len(slots) - 1) // (p - 1) <= MAX_WALK_POINTS:
            block = _p1_cone(s, slots, entries, p) or _walk(s, slots, entries, p)
        else:
            return None
        hist = block if hist is None else _convolve(hist, block, p)
    return {(0, 0): 1} if hist is None else hist  # rank 0: one point
