"""Acceptance suite: one test per criterion, exact tolerances, timed bounds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import json
import random
import time
from itertools import combinations

from conitop import (
    RankTwoBundle,
    blowup_point,
    certificate_is_valid,
    certify_distinct,
    conifold_transition,
    connected_sum,
    euler_characteristic,
    find_isomorphism,
    fingerprint,
    is_characteristic,
    local_model_system,
    projectivize,
    signature,
    standard,
    transport_system,
    trivial_bundle,
    twist,
    twist_witness,
    verify_witness,
)
from conitop import IntersectionForm, direct_sum
from conitop.cli import EXIT_OK, main
from conitop.intmat import matvec
from conitop.sixfold import triple_indices

from oracles import (
    is_characteristic_exhaustive,
    mu_list,
    random_bundle,
    random_catalog_sum,
    random_symmetric_rows,
    random_unimodular,
)


def _passed(number: int, message: str):
    print(f"[acceptance] criterion {number}: PASS  {message}")


def _best_time(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_projective_bundle_reproduction():
    cp2 = standard("CP2")
    e = RankTwoBundle(cp2, (1,), 0)
    s = projectivize(cp2, e)
    assert mu_list(s) == [1, -1, 1, 0]
    assert s.p1 == (4, 0)
    assert s.w2 == (0, 0)
    assert s.b3 == 0
    elapsed = _best_time(lambda: projectivize(cp2, e))
    assert elapsed < 1e-3, f"projectivize took {elapsed * 1e3:.3f} ms"
    _passed(1, f"spot values exact; {elapsed * 1e6:.0f} us")


def test_criterion_2_local_model_reproduction():
    m1 = local_model_system(1)
    m2 = local_model_system(2)
    assert mu_list(m1) == [0, 1, -1, 0] and m1.p1 == (0, 0) and m1.w2 == (0, 0)
    assert mu_list(m2) == [0, 1, -1, 1] and m2.p1 == (0, 4) and m2.w2 == (0, 0)
    elapsed = _best_time(lambda: (local_model_system(1), local_model_system(2)))
    assert elapsed < 1e-3, f"local models took {elapsed * 1e3:.3f} ms"
    _passed(2, f"both local models exact; {elapsed * 1e6:.0f} us")


def test_criterion_3_local_models_match_transition_sides():
    m1, m2 = local_model_system(1), local_model_system(2)
    bar, s4 = standard("CP2bar"), standard("S4")
    side1 = projectivize(bar, RankTwoBundle(bar, (-1,), -1))
    side2 = blowup_point(projectivize(s4, RankTwoBundle(s4, (), -1)))

    start = time.perf_counter()
    found1 = find_isomorphism(m1, side1, bound=3)
    t1 = time.perf_counter() - start
    start = time.perf_counter()
    found2 = find_isomorphism(m2, side2, bound=3)
    t2 = time.perf_counter() - start
    assert found1 is not None and found2 is not None
    assert t1 < 1.0 and t2 < 1.0

    named1 = ((1, 0), (0, -1))  # x -> a, z -> -y
    named2 = ((1, 0), (1, -1))  # x -> a + z', z -> -z'
    assert verify_witness(m1, side1, named1, check_c1=True)
    assert verify_witness(m2, side2, named2, check_c1=True)
    # c1 transport spelled out: witness image of the reference class 2x
    assert matvec(named1, m1.c1_class) == side1.c1_class
    assert matvec(named2, m2.c1_class) == side2.c1_class
    _passed(3, f"witnesses found in {t1 * 1e3:.1f} ms / {t2 * 1e3:.1f} ms; named witnesses verify with c1")


def test_criterion_4_transition_sides_certified_distinct():
    for base_name in ("S4", "CP2"):
        base = standard(base_name)
        t = conifold_transition(base, trivial_bundle(base))
        start = time.perf_counter()
        cert = certify_distinct(t.z1, t.z2, primes=(2, 3, 5))
        elapsed = time.perf_counter() - start
        assert cert is not None, base_name
        assert cert.kind == "fingerprint" and cert.prime in (2, 3, 5)
        assert certificate_is_valid(cert, t.z1, t.z2)
        assert elapsed < 1.0
    _passed(4, "fingerprint certificates for both reference transitions")


def test_criterion_5_chern_transfer_randomized():
    rng = random.Random(550)
    for _ in range(50):
        base = random_catalog_sum(rng, max_pieces=3)
        e = random_bundle(rng, base)
        t = conifold_transition(base, e)
        assert t.e1.c1 == e.c1 + (-1,)
        assert t.e2.c1 == e.c1
        assert t.e1.c2 == e.c2 - 1
        assert t.e2.c2 == e.c2 - 1
    _passed(5, "Chern transfer exact on 50 random transitions")


def test_criterion_6_property_suites():
    suite_start = time.perf_counter()
    rng = random.Random(660)

    # mu symmetry on every constructed system
    corpus = _build_corpus(rng)
    for _, s in corpus:
        for i, j, k in triple_indices(s.rank):
            v = s.mu_value(i, j, k)
            assert v == s.mu_value(j, i, k) == s.mu_value(k, i, j) == s.mu_value(k, j, i)

    # Wu characteristic validation on every 4-manifold in sight
    manifolds = [standard(n) for n in ("S4", "CP2", "CP2bar", "S2xS2")]
    manifolds += [random_catalog_sum(rng) for _ in range(20)]
    for n in manifolds:
        assert is_characteristic(n.w2, n.form)
        assert is_characteristic_exhaustive(n.w2, n.form)

    # signature additivity on 200 random pairs
    for _ in range(200):
        q1 = IntersectionForm(random_symmetric_rows(rng, rng.randint(0, 4)))
        q2 = IntersectionForm(random_symmetric_rows(rng, rng.randint(0, 4)))
        assert signature(direct_sum(q1, q2)) == signature(q1) + signature(q2)

    # twist invariance on 100 random small instances
    small_names = ("S4", "CP2", "CP2bar", "S2xS2")
    for _ in range(100):
        pieces = [rng.choice(small_names) for _ in range(rng.randint(1, 2))]
        base = standard(pieces[0])
        for name in pieces[1:]:
            base = connected_sum(base, standard(name))
        if base.rank > 2:
            base = standard(rng.choice(("CP2", "CP2bar")))
        e = random_bundle(rng, base)
        l = tuple(rng.randint(-2, 2) for _ in range(base.rank))
        s = projectivize(base, e)
        s_twist = projectivize(base, twist(e, l))
        assert verify_witness(s, s_twist, twist_witness(base, e, l), check_c1=True)
        assert find_isomorphism(s, s_twist, bound=2) is not None

    # fingerprint invariance under 100 random unimodular transports
    for _ in range(100):
        base = standard(rng.choice(small_names))
        s = projectivize(base, random_bundle(rng, base))
        if rng.random() < 0.25 and s.rank <= 3:
            s = blowup_point(s)
        a = random_unimodular(rng, s.rank)
        moved = transport_system(s, a)
        for p in (2, 3, 5):
            assert fingerprint(s, p) == fingerprint(moved, p)

    # euler characteristic of every projectivization
    for _ in range(30):
        base = random_catalog_sum(rng)
        s = projectivize(base, random_bundle(rng, base))
        assert euler_characteristic(s) == 2 * (2 + base.rank)

    # mutual exclusion of witness and certificate across the corpus
    comparable = [(name, s) for name, s in corpus if s.rank <= 3]
    for (name1, s1), (name2, s2) in combinations(comparable, 2):
        if s1.rank != s2.rank or s1.b3 != s2.b3:
            continue
        cert = certify_distinct(s1, s2)
        witness = find_isomorphism(s1, s2, bound=2)
        assert not (cert is not None and witness is not None), (name1, name2)
        if witness is not None:
            assert verify_witness(s1, s2, witness.matrix)
        if cert is not None:
            assert certificate_is_valid(cert, s1, s2)

    elapsed = time.perf_counter() - suite_start
    assert elapsed < 60.0, f"property suites took {elapsed:.1f} s"
    _passed(6, f"all property suites in {elapsed:.1f} s")


def _build_corpus(rng):
    corpus = []
    for name in ("S4", "CP2", "CP2bar", "S2xS2"):
        base = standard(name)
        corpus.append((f"P(triv/{name})", projectivize(base, trivial_bundle(base))))
    cp2 = standard("CP2")
    corpus.append(("P(c1=1/CP2)", projectivize(cp2, RankTwoBundle(cp2, (1,), 0))))
    bar = standard("CP2bar")
    corpus.append(("bundle-side", projectivize(bar, RankTwoBundle(bar, (-1,), -1))))
    s4 = standard("S4")
    corpus.append(("blowup-side", blowup_point(projectivize(s4, RankTwoBundle(s4, (), -1)))))
    corpus.append(("local-1", local_model_system(1)))
    corpus.append(("local-2", local_model_system(2)))
    t = conifold_transition(s4, trivial_bundle(s4))
    corpus.append(("z1/S4", t.z1))
    corpus.append(("z2/S4", t.z2))
    t2 = conifold_transition(cp2, trivial_bundle(cp2))
    corpus.append(("z1/CP2", t2.z1))
    corpus.append(("z2/CP2", t2.z2))
    for idx in range(4):
        base = random_catalog_sum(rng, max_pieces=2)
        corpus.append((f"random-{idx}", projectivize(base, random_bundle(rng, base))))
    return corpus


def test_criterion_7_byte_identical_reports(capsys, tmp_path):
    outputs = []
    for _ in range(2):
        assert main(["verify-paper", "--format", "json"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0].encode() == outputs[1].encode()

    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps({"schema": "conitop/1", "local_model": 1}))
    right.write_text(
        json.dumps(
            {
                "schema": "conitop/1",
                "projectivize": {"base": "CP2bar", "c1": [-1], "c2": -1},
            }
        )
    )
    compare_outputs = []
    for _ in range(2):
        code = main(["compare", "--left", str(left), "--right", str(right), "--format", "json"])
        assert code == EXIT_OK
        compare_outputs.append(capsys.readouterr().out)
    assert compare_outputs[0].encode() == compare_outputs[1].encode()
    report = json.loads(compare_outputs[0])
    assert report["result"]["verdict"] == "isomorphic"
    _passed(7, "verify-paper and compare reports byte-identical across runs")
