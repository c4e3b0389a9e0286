"""Seeded, stratified workloads for the conitop benchmark.

Every workload is one pass: a list of ops drawn in strata, with a fixed
count of ops per (rank, kind).  The seed picks only the concrete inputs
inside each stratum and the order of the pass, so a fresh seed costs about
as much as any other.  Ops call conitop's public functions through a tracer
(see :mod:`spans`), which is a pass-through in untraced runs.

Each workload also says how to check an op's output and which deterministic
counters one pass produces.  The counters are computed from outside, from the
inputs and outputs, never from inside the program.

Out of the workloads on purpose:

* ``--workers`` above 1: the benchmark is one client on one thread;
* the rank-5 self-compare of ``P(triv / S2xS2 # S2xS2)`` (225 s) and
  ``fingerprint`` at p=7 on rank 6 (8 s per side): one op would outlast a
  whole run;
* ``fingerprint`` at p=5 on rank 6 (0.5 s per side): it made a certify pass
  so long that a run held too few passes for steady figures.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

LAYERS = ("cli", "serialize", "equiv", "sixfold", "transitions", "bundle", "fourfold", "lattice")
WORKLOADS = ("build", "search", "certify", "cli")
DEFAULT_SEED = 0
CLI_TIMEOUT_S = 60


def load_program() -> SimpleNamespace:
    """Import conitop afresh and return its modules by layer name.

    Earlier imports are dropped from ``sys.modules`` first, so every call
    pays the full import, as a new process would (from warm bytecode).
    """
    for name in [n for n in sys.modules if n == "conitop" or n.startswith("conitop.")]:
        del sys.modules[name]
    importlib.import_module("conitop")
    return SimpleNamespace(
        **{m: importlib.import_module(f"conitop.{m}") for m in LAYERS + ("intmat",)}
    )


@dataclass
class Op:
    stratum: str
    run: Callable[[Any], Any]  # run(tracer) -> output
    spec: Any = None  # the inputs the checks and counters need


@dataclass
class Workload:
    name: str
    ops: list[Op]
    check: Callable[[int, Any], bool]  # full check of op i's output
    digest: Callable[[Any], str]  # digest of an output, to compare passes
    counters: Callable[[list], dict]  # deterministic counters of one pass's outputs


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _stratified(rng: random.Random, strata, make) -> list[Op]:
    """One pass: ``count`` ops per stratum, then shuffled by the seed."""
    ops = []
    for ranks, kind, count in strata:
        for _ in range(count):
            ops.append(make(rng, rng.choice(ranks), kind))
    rng.shuffle(ops)
    return ops


def sum_expression(rng: random.Random, rank: int, balanced: bool = False) -> str:
    """A connected sum of CP2, CP2bar and S2xS2 whose form has this rank.

    Summands are drawn one by one, or with ``balanced`` in fixed shares (half
    the rank in S2xS2 summands, the rest split evenly between CP2 and CP2bar)
    and a random order, which keeps the cost of validation and signature at
    high rank from depending on the draw.
    """
    if balanced:
        pieces = ["S2xS2"] * (rank // 4)
        rest = rank - 2 * len(pieces)
        pieces += ["CP2", "CP2bar"] * (rest // 2) + [rng.choice(("CP2", "CP2bar"))] * (rest % 2)
        rng.shuffle(pieces)
    else:
        pieces, left = [], rank
        while left > 0:
            name = rng.choice(("CP2", "CP2bar", "S2xS2") if left >= 2 else ("CP2", "CP2bar"))
            pieces.append(name)
            left -= 2 if name == "S2xS2" else 1
    if not pieces:
        return "S4"
    groups = []
    for name in pieces:
        if groups and groups[-1][0] == name:
            groups[-1][1] += 1
        else:
            groups.append([name, 1])
    return " # ".join(name if n == 1 else f"{n} {name}" for name, n in groups)


def _rand_vec(rng, n, lo, hi) -> tuple[int, ...]:
    return tuple(rng.randint(lo, hi) for _ in range(n))


def rand_unimodular(prog, rng: random.Random, r: int, bound: int):
    """A random integer matrix with entries in [-bound, bound] and det +-1."""
    while True:
        m = tuple(_rand_vec(rng, r, -bound, bound) for _ in range(r))
        if prog.intmat.determinant(m) in (1, -1):
            return m


# -- build ----------------------------------------------------------------------

BUILD_KINDS = ("invariants", "blowups", "transition")
BUILD_BLOWUPS = {"invariants": 0, "blowups": 2}
BUILD_STRATA = tuple(
    (ranks, kind, count)
    for ranks, count in (
        ((0, 1, 2, 3), 3),
        ((8,), 2),
        ((16, 18, 20, 22), 1),
        ((40,), 2),
    )
    for kind in BUILD_KINDS
)


def _probe_transition(tr, prog, parent, base, t):
    """Inner public calls of ``conifold_transition`` (unswapped), re-run as probes."""
    fourfold, lattice, six = prog.fourfold, prog.lattice, prog.sixfold
    p = tr.probe(parent, "fourfold.connected_sum", "fourfold", fourfold.connected_sum,
                 base, fourfold.standard("CP2bar"))
    tr.probe(p, "lattice.is_unimodular", "lattice", lattice.is_unimodular, t.e1.base.form)
    for b, e in ((t.e1.base, t.e1), (base, t.e2)):
        q = tr.probe(parent, "sixfold.projectivize", "sixfold", six.projectivize, b, e)
        tr.probe(q, "lattice.signature", "lattice", lattice.signature, b.form)
    tr.probe(parent, "sixfold.blowup_point", "sixfold", six.blowup_point,
             six.projectivize(base, t.e2))


def _build_op(prog, expr: str, rank: int, c1, c2: int, kind: str) -> Op:
    ser, six = prog.serialize, prog.sixfold

    def run(tr):
        base = tr.call("serialize.parse_sum_expression", "serialize",
                       ser.parse_sum_expression, expr)
        tr.probe(tr.last, "lattice.is_unimodular", "lattice", prog.lattice.is_unimodular, base.form)
        e = tr.call("bundle.RankTwoBundle", "bundle", prog.bundle.RankTwoBundle, base, c1, c2)
        if kind == "transition":
            t = tr.call("transitions.conifold_transition", "transitions",
                        prog.transitions.conifold_transition, base, e)
            tr.defer(_probe_transition, tr, prog, tr.last, base, t)
            systems = [t.z1, t.z2]
        else:
            s = tr.call("sixfold.projectivize", "sixfold", six.projectivize, base, e)
            tr.probe(tr.last, "lattice.signature", "lattice", prog.lattice.signature, base.form)
            for _ in range(BUILD_BLOWUPS[kind]):
                s = tr.call("sixfold.blowup_point", "sixfold", six.blowup_point, s)
            systems = [s]
        objs = [tr.call("serialize.system_to_obj", "serialize", ser.system_to_obj, s)
                for s in systems]
        text = tr.call("serialize.json_canonical", "serialize", ser.json_canonical,
                       {"kind": kind, "systems": objs})
        return text, systems

    return Op(f"r{rank}.{kind}", run, (expr, rank, c1, c2, kind))


def build_workload(prog, seed: int, expected_digests=None) -> Workload:
    """Invariants and transition jobs over random connected sums.

    ``expected_digests`` lists the canonical-JSON digest of every op for the
    default seed; other seeds are checked by the JSON round trip only.
    """
    rng = random.Random(f"build:{seed}")

    def make(rng, rank, kind):
        expr = sum_expression(rng, rank, balanced=True)
        return _build_op(prog, expr, rank, _rand_vec(rng, rank, -3, 3), rng.randint(-5, 5), kind)

    ops = _stratified(rng, BUILD_STRATA, make)

    def check(i, out):
        text, systems = out
        objs = json.loads(text)["systems"]
        if len(objs) != len(systems):
            return False
        if any(prog.serialize.system_from_obj(o) != s for o, s in zip(objs, systems)):
            return False
        return expected_digests is None or expected_digests[i] == sha256(text)

    def counters(outputs):
        stored = nonzero = size = 0
        for text, systems in outputs:
            size += len(text.encode("utf-8"))
            for s in systems:
                stored += len(s.mu)
                nonzero += sum(1 for _, v in s.mu_items() if v)
        return {
            # the largest form validated: a transition also builds base # CP2bar
            "lattice.form_rank_max": max(rank + (kind == "transition")
                                         for _, rank, _, _, kind in (op.spec for op in ops)),
            "sixfold.mu_entries_stored": stored,
            "sixfold.mu_nonzero": nonzero,
            "sixfold.mu_fill_ratio": nonzero / stored,
            "serialize.bytes_out": size,
        }

    return Workload("build", ops, check, lambda out: sha256(out[0]), counters)


# -- fingerprint and certificate helpers shared by search and certify ------------


def primes_tried(prog, s1, s2, cert, even: bool) -> list[int]:
    """The primes ``certify_distinct`` fingerprints, read off its documented rules."""
    eq = prog.equiv
    if s1.rank != s2.rank or s1.b3 != s2.b3 or s1.rank > eq.MAX_FINGERPRINT_RANK:
        return []
    out = []
    for p in eq.DEFAULT_PRIMES:
        if p != 2 and not even:
            continue
        out.append(p)
        if cert is not None and cert.prime == p:
            break
    return out


def _probe_certify(tr, prog, parent, s1, s2, cert):
    even = _even(prog, s1, s2)
    tried = primes_tried(prog, s1, s2, cert, even)
    if any(p != 2 for p in tried) or not even:
        for s in (s1, s2):
            tr.probe(parent, "equiv.has_even_w2_cubic", "equiv", prog.equiv.has_even_w2_cubic, s)
    for p in tried:
        for s in (s1, s2):
            tr.probe(parent, "equiv.fingerprint", "equiv", prog.equiv.fingerprint, s, p,
                     note=f"r{s.rank}.p{p}")


def _certify(tr, prog, s1, s2):
    """``certify_distinct`` as ``compare`` calls it, with its inner calls probed."""
    cert = tr.call("equiv.certify_distinct", "equiv", prog.equiv.certify_distinct, s1, s2)
    tr.defer(_probe_certify, tr, prog, tr.last, s1, s2, cert)
    return cert


def _even(prog, *systems) -> bool:
    return all(prog.equiv.has_even_w2_cubic(s) for s in systems)


def _rand_bundle(prog, rng, expr: str):
    base = prog.serialize.parse_sum_expression(expr)
    return base, prog.bundle.RankTwoBundle(base, _rand_vec(rng, base.rank, -3, 3),
                                           rng.randint(-4, 4))


# -- search ---------------------------------------------------------------------

# (system ranks, kind, ops per pass); the bound per rank keeps the raw space
# (2b+1)^(r^2) inside the default step budget.  A hit costs as much as the
# witness's place in the enumeration order, which the seed moves, so p50 is
# set in the middle of the 20 rank-3 hits: 20 cheaper rank-2 ops and 18
# dearer ones lie on either side.
SEARCH_BOUND = {2: 3, 3: 2, 4: 1}
SEARCH_STRATA = (
    ((2,), "hit", 12),
    ((2,), "miss", 8),
    ((3,), "hit", 20),
    ((3,), "miss", 8),
    ((4,), "hit", 6),
    ((4,), "miss", 4),
)


def _search_system(prog, rng, rank: int, kind: str):
    """A source system for a search pair.

    Rank-3 misses come from ``P(S2xS2)`` with c1 = 0 and c2 != 0, whose cup
    form is degenerate enough that the search, not the fingerprints, sets
    the cost; c2 = 0 there is left out, as its miss takes seconds.  Other
    sources are random bundles whose p1 and a^3 are nonzero: without them the
    search is barely pruned, and a single input can cost a hundred times the
    rest of its stratum.
    """
    if rank == 3 and kind == "miss":
        base = prog.fourfold.standard("S2xS2")
        e = prog.bundle.RankTwoBundle(base, (0, 0), rng.choice((-2, -1, 1, 2)))
        return prog.sixfold.projectivize(base, e)
    while True:
        base, e = _rand_bundle(prog, rng, sum_expression(rng, rank - 1))
        s = prog.sixfold.projectivize(base, e)
        if s.p1[0] != 0 and s.mu_value(0, 0, 0) != 0:
            return s


def _changed_c1(prog, rng, s):
    """``s`` with its c1 lift moved by an even vector that no witness can follow.

    A witness with c1 transport preserves the cubic of c1 and its p1 pairing,
    so changing either one makes the pair a miss at every bound.
    """
    while True:
        c1 = tuple(a + 2 * rng.randint(-1, 1) for a in s.c1_class)
        t = prog.sixfold.make_system(s.rank, dict(s.mu_items()), s.p1, s.w2, s.b3, c1)
        if t.cubic(c1) != s.cubic(s.c1_class) or t.p1_pairing(c1) != s.p1_pairing(s.c1_class):
            return t


def search_workload(prog, seed: int) -> Workload:
    """Compare decisions at rank 2-4: ``certify_distinct``, then ``find_isomorphism``.

    A hit pair transports a system by a seeded unimodular matrix with entries
    inside the bound; a miss pair also moves the c1 lift (see ``_changed_c1``).
    Both search with c1 transport, as ``compare --check-c1`` does.
    """
    rng = random.Random(f"search:{seed}")
    eq = prog.equiv

    def make(rng, rank, kind):
        s1 = _search_system(prog, rng, rank, kind)
        bound = SEARCH_BOUND[rank]
        s2 = eq.transport_system(s1, rand_unimodular(prog, rng, rank, 1))
        if kind == "miss":
            s2 = _changed_c1(prog, rng, s2)

        def run(tr):
            cert = _certify(tr, prog, s1, s2)
            if cert is not None:
                return cert, None
            found = tr.call("equiv.find_isomorphism", "equiv", eq.find_isomorphism,
                            s1, s2, bound, True, note=kind)
            return None, found

        return Op(f"r{rank}.{kind}", run, (s1, s2, bound, kind))

    ops = _stratified(rng, SEARCH_STRATA, make)

    def check(i, out):
        s1, s2, bound, kind = ops[i].spec
        cert, found = out
        if cert is not None:  # both kinds share every fingerprint
            return False
        if kind == "miss":
            return found is None
        return found is not None and eq.verify_witness(s1, s2, found.matrix, True)

    def digest(out):
        cert, found = out
        return sha256(repr((cert, None if found is None else found.matrix)))

    def counters(outputs):
        space = hits = 0
        for op, (cert, found) in zip(ops, outputs):
            s1, _, bound, _ = op.spec
            if cert is None:
                space += (2 * bound + 1) ** (s1.rank * s1.rank)
                hits += found is not None
        return {"equiv.search.raw_space": space,
                "equiv.search.hit_ratio": hits / len(outputs)}

    return Workload("search", ops, check, digest, counters)


# -- certify --------------------------------------------------------------------

# Pairs over one base.  "twist" and "transport" pairs are isomorphic, so
# every prime runs and no certificate may come back.  A "pK" pair is built so
# that the fingerprints first differ at p = K, where its certificate must come
# from.  The p1 pairing of P(E) is (3 sig + c1^2 - 4 c2) x_0, and a twist
# keeps the system:
# * p2: c1^2 changes parity, so p1 . x mod 2 vanishes on one side only;
# * p3: c2 moves by an even amount, which keeps every mod-2 value, chosen so
#   that p1_0 is 0 mod 3 on one side only;
# * p5: c2 moves by a multiple of 6, which keeps every mod-2 and mod-3 value,
#   chosen so that p1_0 is 0 mod 5 on one side only.
#
# A fingerprint evaluates mu(w2, x, x) at every point, at a cost that grows
# with the weight of the w2 lift, and a dense mu costs more than a sparse one.
# So the first system of every pair has a w2 lift of weight CERTIFY_W2_WEIGHT,
# and a transport pair uses a signed permutation with one transvection, which
# keeps both the weight and about the density of mu.
CERTIFY_PRIME = {"twist": None, "transport": None, "p2": 2, "p3": 3, "p5": 5}
CERTIFY_W2_WEIGHT = 2
CERTIFY_STRATA = (
    ((4,), "p2", 1),
    ((4,), "p3", 1),
    ((4,), "p5", 3),
    ((4,), "twist", 3),
    ((4,), "transport", 2),
    ((5,), "p2", 2),
    ((5,), "p3", 2),
    ((5,), "twist", 2),
    ((5,), "transport", 2),
    ((6,), "p2", 2),
    ((6,), "p3", 2),
)


def _sparse_unimodular(rng: random.Random, r: int):
    """A signed permutation matrix with one row added to another, up to sign."""
    perm = list(range(r))
    rng.shuffle(perm)
    m = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(r)] for i in range(r)]
    i, j = rng.sample(range(r), 2)
    sign = rng.choice((-1, 1))
    m[i] = [a + sign * b for a, b in zip(m[i], m[j])]
    return tuple(tuple(row) for row in m)


def _certify_pair(prog, rng, rank: int, kind: str):
    six, bun = prog.sixfold, prog.bundle
    while True:
        base, e = _rand_bundle(prog, rng, sum_expression(rng, rank - 1))
        s1 = six.projectivize(base, e)
        if sum(s1.w2) != CERTIFY_W2_WEIGHT:
            continue
        p1 = s1.p1[0]
        if kind == "twist":
            return s1, six.projectivize(base, bun.twist(e, _rand_vec(rng, base.rank, -1, 1)))
        if kind == "transport":
            for _ in range(20):
                s2 = prog.equiv.transport_system(s1, _sparse_unimodular(rng, rank))
                if sum(s2.w2) == CERTIFY_W2_WEIGHT:
                    return s1, s2
            continue
        if kind == "p2":
            e2 = bun.RankTwoBundle(base, _rand_vec(rng, base.rank, -3, 3), rng.randint(-4, 4))
            if (bun.c1_squared(e2) - bun.c1_squared(e)) % 2 == 0:
                continue  # this base may have no odd square at all: draw a new one
        elif kind == "p3":
            shift = rng.choice([d for d in (2, 4, -2, -4) if p1 % 3 == 0 or (p1 - 4 * d) % 3 == 0])
            e2 = bun.RankTwoBundle(base, e.c1, e.c2 + shift)
        else:
            k = next(k for k in range(1, 6) if (p1 - 24 * k) % 5 == 0 or p1 % 5 == 0)
            e2 = bun.RankTwoBundle(base, e.c1, e.c2 + 6 * k)
        return s1, six.projectivize(base, bun.twist(e2, _rand_vec(rng, base.rank, -1, 1)))


def certify_workload(prog, seed: int) -> Workload:
    """``certify_distinct`` at rank 4-6, then the certificate's canonical JSON.

    Set-up builds the systems, so the timed ops only read them.
    """
    rng = random.Random(f"certify:{seed}")
    eq, ser = prog.equiv, prog.serialize

    def make(rng, rank, kind):
        s1, s2 = _certify_pair(prog, rng, rank, kind)

        def run(tr):
            cert = _certify(tr, prog, s1, s2)
            if cert is None:
                return None, None
            obj = tr.call("serialize.certificate_to_obj", "serialize", ser.certificate_to_obj, cert)
            text = tr.call("serialize.json_canonical", "serialize", ser.json_canonical, obj)
            return cert, text

        return Op(f"r{rank}.{kind}", run, (s1, s2, kind))

    ops = _stratified(rng, CERTIFY_STRATA, make)

    def check(i, out):
        s1, s2, kind = ops[i].spec
        cert, text = out
        if cert is None or CERTIFY_PRIME[kind] is None:
            return cert is None and CERTIFY_PRIME[kind] is None
        if cert.prime != CERTIFY_PRIME[kind] or not eq.certificate_is_valid(cert, s1, s2):
            return False
        if cert.prime not in (None, 2) and not _even(prog, s1, s2):
            return False
        return ser.certificate_from_obj(json.loads(text)) == cert

    def counters(outputs):
        points = size = decided = 0
        for op, (cert, text) in zip(ops, outputs):
            s1, s2, _ = op.spec
            for p in primes_tried(prog, s1, s2, cert, _even(prog, s1, s2)):
                points += p ** s1.rank + p ** s2.rank
            if cert is not None:
                decided += 1
                size += len(text.encode("utf-8"))
        return {
            "equiv.fingerprint.points": points,
            "equiv.certify_decisive_ratio": decided / len(outputs),
            "serialize.certificate_bytes": size,
        }

    return Workload("certify", ops, check, lambda out: sha256(out[1] or "none"), counters)


# -- cli ------------------------------------------------------------------------

# The n-th op of a kind renders as a table when n is even, as JSON when odd.
# The rank-30 bases put parsing, validation and projectivize in the tail, so
# that p90 reads a real cost rather than the slowest start-up of a pass.
CLI_STRATA = (
    ((0, 1, 2, 3, 4, 5, 6), "invariants", 4),
    ((30,), "invariants", 3),
    ((0, 1, 2, 3, 4), "transition", 4),
    ((2,), "compare", 3),
    ((0,), "verify-paper", 2),
)


def python_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src))


def run_python(args, env) -> tuple[int, bytes]:
    """Run the interpreter as a child process; returns (exit code, stdout)."""
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          timeout=CLI_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout


_PEAK_RSS = (
    "import resource, subprocess, sys; "
    "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL); "
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)


def child_peak_rss_kb(args, env) -> int:
    """Peak resident set of ``python *args``, in KiB.

    The child is started from a small intermediate interpreter: Linux carries
    a process's peak across fork and exec, so a child started straight from
    the benchmark would report the benchmark's own peak.
    """
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True)
    return int(proc.stdout)


def _compare_files(prog, rng, rank: int, n: int, workdir: Path) -> list[str]:
    """Write a compare pair of rank-``rank`` systems; the n-th pair of a pass
    takes its shape from n mod 3.

    0: a bundle descriptor against an explicit transport of it (isomorphic);
    1: the two transition sides over S4 or a rank-1 base (distinct);
    2: an explicit system against a transport with a moved c1 lift, compared
       with ``--check-c1`` (inconclusive).

    The ranks keep every search at the default bound fast and inside the
    default step budget.
    """
    ser = prog.serialize
    expr = sum_expression(rng, rank - 1)
    shape = n % 3
    if shape == 1:
        tbase = sum_expression(rng, rng.choice((0, 1)))
        inner = {"base": tbase, "c1": [rng.randint(-2, 2) for _ in range(tbase != "S4")],
                 "c2": rng.randint(-3, 3)}
        left = {"transition": inner, "side": "z1"}
        right = {"transition": inner, "side": "z2"}
        flags = []
    else:
        base, e = _rand_bundle(prog, rng, expr)
        s = prog.sixfold.projectivize(base, e)
        t = prog.equiv.transport_system(s, rand_unimodular(prog, rng, rank, 1))
        if shape == 0:
            left = {"projectivize": {"base": expr, "c1": list(e.c1), "c2": e.c2}}
            flags = []
        else:
            left = {"system": ser.system_to_obj(s)}
            t = _changed_c1(prog, rng, t)
            flags = ["--check-c1"]
        right = {"system": ser.system_to_obj(t)}
    paths = []
    for side, doc in (("left", left), ("right", right)):
        path = workdir / f"compare{n}-{side}.json"
        path.write_text(ser.json_canonical(dict(doc, schema=ser.SCHEMA)), encoding="utf-8")
        paths.append(str(path))
    return ["compare", "--left", paths[0], "--right", paths[1], *flags]


def cli_workload(prog, seed: int, src: Path, workdir: Path) -> Workload:
    """``python -m conitop.cli`` child processes, run one after another.

    Compare descriptors are written to ``workdir`` during set-up.  Each op's
    stdout must match what ``cli.main`` prints in-process for the same
    arguments, and its exit code must be 0 or 2 and agree with it.
    """
    rng = random.Random(f"cli:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    env = python_env(src)
    seen = Counter()

    def make(rng, rank, kind):
        n = seen[kind]
        seen[kind] += 1
        fmt = ("table", "json")[n % 2]
        if kind == "invariants":
            argv = ["invariants", "--base", sum_expression(rng, rank, balanced=True),
                    "--c2", str(rng.randint(-4, 4)), "--blowups", str(rng.randint(0, 1))]
            if rank:
                argv.append("--c1=" + ",".join(str(v) for v in _rand_vec(rng, rank, -3, 3)))
        elif kind == "transition":
            argv = ["transition", "--base", sum_expression(rng, rank, balanced=True),
                    "--c2", str(rng.randint(-4, 4))]
        elif kind == "compare":
            argv = _compare_files(prog, rng, rank, n, workdir)
        else:
            argv = ["verify-paper"]
        argv += ["--format", fmt]
        name = "cli." + kind.replace("-", "_")

        def run(tr):
            code, out = tr.call(name, "cli", run_python, ["-m", "conitop.cli", *argv], env)
            p = tr.probe(tr.last, "cli.import", "import", run_python,
                         ["-c", "import conitop.cli"], env)
            tr.probe(p, "cli.interp", "interp", run_python, ["-c", "pass"], env)
            return code, out

        return Op(f"{kind}.{fmt}", run, argv)

    ops = _stratified(rng, CLI_STRATA, make)

    def check(i, out):
        code, stdout = out
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                expected = prog.cli.main(ops[i].spec)
            except SystemExit:  # argparse refused the arguments, also with exit code 2
                return False
        return code in (0, 2) and code == expected and stdout == buf.getvalue().encode("utf-8")

    def counters(outputs):
        return {"cli.stdout_bytes": sum(len(out) for _, out in outputs)}

    return Workload("cli", ops, check, lambda out: sha256(bytes([out[0] & 0xFF]) + out[1]),
                    counters)
