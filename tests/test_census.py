"""A pinned verdict census: how often ``compare`` decides, at default settings.

Seven bases, four pair kinds, 60 seeded pairs per cell (c1 in -3..3, c2 in
-4..4, twist l in -2..2).  Each pair runs as ``compare`` runs it, and each
cell's counts of distinct, isomorphic, inconclusive and refused verdicts are
pinned.  Every decided verdict is checked again from its JSON report alone.
A change that moves a count updates the pin on purpose; a count that moves
from decided to undecided is a regression.
"""

import json
import random

from conitop import (
    RankTwoBundle,
    SearchBudgetError,
    certificate_is_valid,
    conifold_transition,
    projectivize,
    twist,
    verify_witness,
)
from conitop.cli import _run_compare
from conitop.equiv import DEFAULT_BOUND, DEFAULT_PRIMES
from conitop.serialize import (
    certificate_from_obj,
    json_canonical,
    parse_sum_expression,
    system_from_obj,
    witness_from_obj,
)

BASES = (
    "CP2", "CP2 # CP2bar", "S2xS2", "CP2 # 2 CP2bar", "CP2 # 3 CP2bar", "2 S2xS2",
    "CP2 # 5 CP2bar",
)
PAIRS = 60

# (distinct, isomorphic, inconclusive, refused) for each base, in the order of
# KINDS: random P(E) against P(E'), P(E) against P(E x L), z1 of E against z1
# of E x L, and z1 against z2 of E
KINDS = ("random", "twist", "z1 twist", "sides")
VERDICTS = ("distinct", "isomorphic", "inconclusive", "refused")
CENSUS = {
    "CP2": ((56, 4, 0, 0), (0, 60, 0, 0), (0, 60, 0, 0), (60, 0, 0, 0)),
    "CP2 # CP2bar": ((57, 2, 1, 0), (0, 60, 0, 0), (0, 0, 0, 60), (60, 0, 0, 0)),
    "S2xS2": ((49, 4, 7, 0), (0, 60, 0, 0), (0, 0, 0, 60), (60, 0, 0, 0)),
    "CP2 # 2 CP2bar": ((60, 0, 0, 0), (0, 0, 0, 60), (0, 0, 0, 60), (60, 0, 0, 0)),
    "CP2 # 3 CP2bar": ((58, 0, 0, 2), (0, 0, 0, 60), (0, 0, 0, 60), (60, 0, 0, 0)),
    "2 S2xS2": ((54, 0, 0, 6), (0, 0, 0, 60), (0, 0, 0, 60), (60, 0, 0, 0)),
    "CP2 # 5 CP2bar": ((53, 0, 0, 7), (0, 0, 0, 60), (0, 0, 0, 60), (60, 0, 0, 0)),
}


def _bundle(rng, base):
    c1 = tuple(rng.randint(-3, 3) for _ in range(base.rank))
    return RankTwoBundle(base, c1, rng.randint(-4, 4))


def _pair(rng, base, kind):
    e = _bundle(rng, base)
    if kind == "random":
        return projectivize(base, e), projectivize(base, _bundle(rng, base))
    if kind == "sides":
        t = conifold_transition(base, e)
        return t.z1, t.z2
    moved = twist(e, [rng.randint(-2, 2) for _ in range(base.rank)])
    if kind == "twist":
        return projectivize(base, e), projectivize(base, moved)
    return conifold_transition(base, e).z1, conifold_transition(base, moved).z1


def _verdict(s1, s2):
    """The verdict of ``compare`` at default settings, re-checked from its JSON report."""
    try:
        report, _ = _run_compare(s1, s2, DEFAULT_BOUND, DEFAULT_PRIMES, False, None, None)
    except SearchBudgetError:
        return "refused"
    report = json.loads(json_canonical(report))
    left, right = (system_from_obj(report["inputs"][side]) for side in ("left", "right"))
    result = report["result"]
    if result["verdict"] == "isomorphic":
        witness = witness_from_obj(result["witness"])
        assert verify_witness(left, right, witness.matrix), report
    elif result["verdict"] == "distinct":
        cert = certificate_from_obj(result["certificate"])
        assert certificate_is_valid(cert, left, right), report
    else:
        assert result["witness"] is None and result["certificate"] is None
    return result["verdict"]


def census():
    rng = random.Random(1)
    out = {}
    for expr in BASES:
        base = parse_sum_expression(expr)
        cells = []
        for kind in KINDS:
            verdicts = [_verdict(*_pair(rng, base, kind)) for _ in range(PAIRS)]
            cells.append(tuple(map(verdicts.count, VERDICTS)))
        out[expr] = tuple(cells)
    return out


def test_verdict_census_is_pinned_and_every_verdict_re_verifies():
    assert census() == CENSUS
