"""The paper's checks: the built-in suite of reference computations behind ``verify-paper``.

The suite recomputes spot values of a sphere bundle over CP2, matches each
frozen local model with its bundle or blowup side by search and by a named
witness checked with c1 (which pins every frozen value of the model),
certifies the two sides of a conifold transition distinct, and finds the
isomorphism a twist by a line bundle predicts.  Its searches are fixed
rank-2 searches of at most 7^4 candidates, run under the default step
budget.  Only the ``verify-paper`` command imports this module, so no other
command compiles it.
"""

from __future__ import annotations

from . import serialize
from .bundle import RankTwoBundle, trivial_bundle, twist
from .equiv import certify_distinct, find_isomorphism, verify_witness
from .fourfold import standard
from .sixfold import blowup_point, projectivize, twist_witness
from .transitions import conifold_transition, local_model_system


def _check(name: str, passed: bool, detail: dict) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def verification_suite() -> list[dict]:
    """The fixed suite of reference computations behind ``verify-paper``: six named checks."""
    checks = []

    # 1. Sphere-bundle invariants over the complex projective plane.
    cp2 = standard("CP2")
    s = projectivize(cp2, RankTwoBundle(cp2, (1,), 0))
    expected = {
        "mu": [[0, 0, 0, 1], [0, 0, 1, -1], [0, 1, 1, 1]],
        "p1": [4, 0],
        "w2": [0, 0],
        "b3": 0,
    }
    got = serialize.system_to_obj(s)
    passed = all(got[key] == expected[key] for key in expected)
    checks.append(_check("projective bundle spot values", passed, {"system": got}))

    # 2./3. Local model 1 matches the bundle side over CP2bar, and local
    # model 2 the blowup side over S4, by search and by a named witness.  The
    # named witness, checked with c1, pins every frozen value of the model.
    bar, s4 = standard("CP2bar"), standard("S4")
    for name, model, side, named in (
        (
            "local model 1 matches bundle side",
            local_model_system(1),
            projectivize(bar, RankTwoBundle(bar, (-1,), -1)),
            ((1, 0), (0, -1)),  # x -> a, z -> -y
        ),
        (
            "local model 2 matches blowup side",
            local_model_system(2),
            blowup_point(projectivize(s4, RankTwoBundle(s4, (), -1))),
            ((1, 0), (1, -1)),  # x -> a + z', z -> -z'
        ),
    ):
        found = find_isomorphism(model, side, bound=3)
        passed = found is not None and verify_witness(model, side, named, check_c1=True)
        detail = {
            "found": None if found is None else serialize.witness_to_obj(found),
            "named_witness": [list(r) for r in named],
        }
        checks.append(_check(name, passed, detail))

    # 4./5. The two transition sides are distinct (trivial bundle over S4, CP2).
    for base in (s4, cp2):
        t = conifold_transition(base, trivial_bundle(base))
        cert = certify_distinct(t.z1, t.z2)
        passed = cert is not None and cert.kind == "fingerprint"
        checks.append(
            _check(
                f"transition sides distinct over {base.label}",
                passed,
                {
                    "certificate": None
                    if cert is None
                    else serialize.certificate_to_obj(cert),
                },
            )
        )

    # 6. Twist invariance sample.
    e = trivial_bundle(cp2)
    l = (1,)
    s_plain = projectivize(cp2, e)
    s_twist = projectivize(cp2, twist(e, l))
    w = twist_witness(cp2, e, l)
    found = find_isomorphism(s_plain, s_twist, bound=2)
    passed = verify_witness(s_plain, s_twist, w, check_c1=True) and found is not None
    checks.append(
        _check(
            "twist invariance sample",
            passed,
            {"substitution": [list(r) for r in w]},
        )
    )
    return checks


def verify_report() -> dict:
    """The ``verify-paper`` report: every check of the suite, and whether all passed."""
    checks = verification_suite()
    return {
        "schema": serialize.REPORT_SCHEMA,
        "command": "verify-paper",
        "result": {"checks": checks, "all_passed": all(c["passed"] for c in checks)},
    }
