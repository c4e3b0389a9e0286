"""Fingerprints at p = 5 and 7 on block sums of cones.

:func:`conitop.equiv.fingerprint` imports this module the first time it
fingerprints at p = 5 or 7, so commands that never do (``invariants``,
``transition``) do not compile it at start-up.  Its rows are the ones
``equiv._fingerprint_walk`` gives; see :func:`histogram`.
"""

from __future__ import annotations

from .sixfold import InvariantSystem


def cone_blocks(s: InvariantSystem):
    """The blocks of s as (vertex, slots, entries), or None if one is no cone.

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
        if not common:
            return None
        out.append((min(common), slots, entries))
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


def histogram(s: InvariantSystem, blocks, p: int) -> dict:
    """p = 5, 7 on a block sum of cones: the blocks' histograms, convolved.

    In a cone with vertex s (``v0``) write x = t e_s + y, y on the other
    slots.  Every nonzero triple holds s, so
    mu(x,x,x) = m t^3 + 3 t^2 (b.y) + 3 t y^T Q y with m = mu_sss,
    b_i = mu_ssi, Q_ij = mu_sij, and p1.x = p1_s t + g.y.
    After :func:`_diagonal_terms` the t = 1 key is (m, p1_s) plus a sum of
    per-coordinate terms (3 beta z + 3 d z^2, gamma z), so its histogram is a
    convolution of tables of p values.  t = lambda != 0 scales that key to
    (lambda^3 c, lambda pi), and t = 0 gives the keys (0, g.y).
    """
    hist = None
    for v0, slots, entries in blocks:
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
        block = {}
        for (c, q), n in t1.items():
            for lam in range(1, p):
                key = c * lam**3 % p, q * lam % p
                block[key] = block.get(key, 0) + n
        n = len(slots) - 1
        for q in range(1 if flat else p):
            block[0, q] = block.get((0, q), 0) + p ** (n if flat else n - 1)
        hist = block if hist is None else _convolve(hist, block, p)
    return {key + (0,): n for key, n in hist.items()}
