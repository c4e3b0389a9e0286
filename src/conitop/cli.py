"""Batch front-end: descriptors in, invariant tables and verdicts out.

Commands
--------
``invariants``    invariant system of the sphere bundle of a rank-two bundle
``transition``    both conifold transitions of that sphere bundle
``compare``       decide equivalence of two invariant systems
``verify-paper``  run the built-in suite of reference computations

Exit codes are a stable contract: 0 success (including a decided compare),
1 parse/validation failure, 2 inconclusive compare, 3 step budget exceeded,
4 verification-suite failure.

``compare --stats`` writes the witness search's counters (see
:class:`conitop.equiv.SearchStats`) to stderr as one JSON line, after the
report; stdout is the same with or without it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import serialize
from .bundle import RankTwoBundle, trivial_bundle, twist
from .errors import SearchBudgetError, ValidationError
from .fourfold import FourManifold, standard
from .sixfold import (
    InvariantSystem,
    blowup_point,
    euler_characteristic,
    projectivize,
    twist_witness,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

STEP_BUDGET_ENV = "CONITOP_STEP_BUDGET"


# -- command implementations --------------------------------------------------


def _run_invariants(
    base: FourManifold, bundle: RankTwoBundle, blowups: int
) -> tuple[dict, int]:
    system = serialize.blown_up_projectivization(base, bundle, blowups)
    report = {
        "schema": serialize.REPORT_SCHEMA,
        "command": "invariants",
        "inputs": {
            "base": serialize.manifold_to_obj(base),
            "bundle": serialize.bundle_to_obj(bundle),
            "blowups": blowups,
        },
        "result": {
            "system": serialize.system_to_obj(system),
            "euler_characteristic": euler_characteristic(system),
        },
    }
    return report, EXIT_OK


def _run_transition(
    base: FourManifold, bundle: RankTwoBundle, swap: bool
) -> tuple[dict, int]:
    from .transitions import conifold_transition

    result = conifold_transition(base, bundle, swap=swap)
    report = {
        "schema": serialize.REPORT_SCHEMA,
        "command": "transition",
        "inputs": {
            "base": serialize.manifold_to_obj(base),
            "bundle": serialize.bundle_to_obj(bundle),
            "swap": result.swapped,
        },
        "result": {
            "e1": serialize.placed_bundle_to_obj(result.e1),
            "e2": serialize.placed_bundle_to_obj(result.e2),
            "z1": serialize.system_to_obj(result.z1),
            "z2": serialize.system_to_obj(result.z2),
        },
    }
    return report, EXIT_OK


def _run_compare(
    left: InvariantSystem,
    right: InvariantSystem,
    bound: int,
    primes: tuple[int, ...],
    check_c1: bool,
    step_budget: int | None,
    stats: SearchStats | None,
) -> tuple[dict, int]:
    from .equiv import certify_distinct, find_isomorphism

    certificate = certify_distinct(left, right, primes)
    witness = None
    verdict = "inconclusive"
    if certificate is not None:
        verdict = "distinct"
    else:
        witness = find_isomorphism(left, right, bound, check_c1, step_budget, stats)
        if witness is not None:
            verdict = "isomorphic"
    # verdicts identify diffeomorphism classes only under the declared
    # classification hypotheses; otherwise they compare invariant systems
    scope = (
        "diffeomorphism-classes"
        if left.classifiable and right.classifiable
        else "invariant-systems-only"
    )
    report = {
        "schema": serialize.REPORT_SCHEMA,
        "command": "compare",
        "inputs": {
            "left": serialize.system_to_obj(left),
            "right": serialize.system_to_obj(right),
        },
        "options": {
            "bound": bound,
            "primes": list(primes),
            "check_c1": check_c1,
        },
        "result": {
            "verdict": verdict,
            "scope": scope,
            "witness": None if witness is None else serialize.witness_to_obj(witness),
            "certificate": None
            if certificate is None
            else serialize.certificate_to_obj(certificate),
        },
    }
    code = EXIT_OK if verdict in ("isomorphic", "distinct") else EXIT_INCONCLUSIVE
    return report, code


# -- built-in verification suite ----------------------------------------------


def _check(name: str, passed: bool, detail: dict) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def verification_suite(step_budget: int | None = None) -> list[dict]:
    """The fixed suite of reference computations behind ``verify-paper``."""
    from .equiv import certify_distinct, find_isomorphism, verify_witness
    from .transitions import conifold_transition, local_model_system

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

    # 2. Frozen local-model systems.
    m1 = local_model_system(1)
    m2 = local_model_system(2)
    passed = (
        m1.mu == (((0, 0, 1), 1), ((0, 1, 1), -1))
        and m2.mu == (((0, 0, 1), 1), ((0, 1, 1), -1), ((1, 1, 1), 1))
        and m1.p1 == (0, 0)
        and m2.p1 == (0, 4)
        and m1.w2 == m2.w2 == (0, 0)
        and m1.b3 == m2.b3 == 0
    )
    checks.append(
        _check(
            "local model values",
            passed,
            {
                "model_1": serialize.system_to_obj(m1),
                "model_2": serialize.system_to_obj(m2),
            },
        )
    )

    # 3./4. Local model 1 matches the bundle side over CP2bar, and local
    # model 2 the blowup side over S4, by search and by a named witness.
    bar, s4 = standard("CP2bar"), standard("S4")
    for name, model, side, named in (
        (
            "local model 1 matches bundle side",
            m1,
            projectivize(bar, RankTwoBundle(bar, (-1,), -1)),
            ((1, 0), (0, -1)),  # x -> a, z -> -y
        ),
        (
            "local model 2 matches blowup side",
            m2,
            blowup_point(projectivize(s4, RankTwoBundle(s4, (), -1))),
            ((1, 0), (1, -1)),  # x -> a + z', z -> -z'
        ),
    ):
        found = find_isomorphism(model, side, bound=3, step_budget=step_budget)
        passed = found is not None and verify_witness(model, side, named, check_c1=True)
        detail = {
            "found": None if found is None else serialize.witness_to_obj(found),
            "named_witness": [list(r) for r in named],
        }
        checks.append(_check(name, passed, detail))

    # 5./6. The two transition sides are distinct (trivial bundle over S4, CP2).
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

    # 7. Twist invariance sample.
    e = trivial_bundle(cp2)
    l = (1,)
    s_plain = projectivize(cp2, e)
    s_twist = projectivize(cp2, twist(e, l))
    w = twist_witness(cp2, e, l)
    found = find_isomorphism(s_plain, s_twist, bound=2, step_budget=step_budget)
    passed = verify_witness(s_plain, s_twist, w, check_c1=True) and found is not None
    checks.append(
        _check(
            "twist invariance sample",
            passed,
            {"substitution": [list(r) for r in w]},
        )
    )
    return checks


def _run_verify(step_budget: int | None) -> tuple[dict, int]:
    checks = verification_suite(step_budget=step_budget)
    all_passed = all(c["passed"] for c in checks)
    report = {
        "schema": serialize.REPORT_SCHEMA,
        "command": "verify-paper",
        "result": {"checks": checks, "all_passed": all_passed},
    }
    return report, (EXIT_OK if all_passed else EXIT_VERIFY)


# -- human-readable rendering --------------------------------------------------


def _render_system(obj: dict, indent: str = "  ") -> list[str]:
    labels = obj["basis_labels"]
    lines = [
        f"{indent}rank {obj['rank']}, b3 {obj['b3']}, basis: " + ", ".join(labels)
    ]
    if obj["mu"]:
        lines.append(f"{indent}cup products (nonzero):")
        for i, j, k, v in obj["mu"]:
            lines.append(f"{indent}  ({labels[i]},{labels[j]},{labels[k]}) = {v}")
    else:
        lines.append(f"{indent}cup products: all zero")
    lines.append(f"{indent}p1 pairings: " + _labeled(labels, obj["p1"]))
    lines.append(f"{indent}w2:          " + _labeled(labels, obj["w2"]))
    if obj["c1_class"] is not None:
        lines.append(f"{indent}c1 class:    " + _labeled(labels, obj["c1_class"]))
    if not obj.get("classifiable", True):
        lines.append(f"{indent}note: invariants only (classification hypotheses not declared)")
    return lines


def _labeled(labels, values) -> str:
    return ", ".join(f"{lab}: {val}" for lab, val in zip(labels, values))


def render_table(report: dict) -> str:
    command = report["command"]
    lines = [f"== {command} =="]
    if command == "invariants":
        base = report["inputs"]["base"]
        lines.append(
            f"base {base['label']}  bundle c1={report['inputs']['bundle']['c1']} "
            f"c2={report['inputs']['bundle']['c2']}  blowups={report['inputs']['blowups']}"
        )
        lines += _render_system(report["result"]["system"])
        lines.append(f"  euler characteristic: {report['result']['euler_characteristic']}")
    elif command == "transition":
        for side in ("e1", "e2"):
            e = report["result"][side]
            lines.append(
                f"{side}: over {e['base']['label']}  c1={e['c1']}  c2={e['c2']}"
            )
        for side in ("z1", "z2"):
            lines.append(f"{side}:")
            lines += _render_system(report["result"][side], indent="    ")
    elif command == "compare":
        verdict = report["result"]["verdict"]
        lines.append(f"verdict: {verdict.upper()}")
        if report["result"]["scope"] == "invariant-systems-only":
            lines.append(
                "note: classification hypotheses not declared; verdict compares"
                " invariant systems only"
            )
        if report["result"]["witness"] is not None:
            w = report["result"]["witness"]
            lines.append(f"witness matrix (rows): {w['matrix']}")
            lines.append(f"witness preserves c1: {w['preserves_c1']}")
        if report["result"]["certificate"] is not None:
            c = report["result"]["certificate"]
            where = f" at prime {c['prime']}" if c["prime"] is not None else ""
            lines.append(f"certificate: {c['kind']}{where}")
    elif command == "verify-paper":
        for check in report["result"]["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            lines.append(f"{status}  {check['name']}")
        lines.append(
            "all checks passed"
            if report["result"]["all_passed"]
            else "SOME CHECKS FAILED"
        )
    return "\n".join(lines) + "\n"


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return serialize.json_canonical(report)
    return render_table(report)


# -- argument handling ---------------------------------------------------------


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    """The integers of a comma-separated value: an empty value is none, each item one integer."""
    return tuple(serialize.read_int(t, f"{flag} item") for t in text.split(",")) if text else ()


def _read_descriptor(path: str, flag: str, build):
    """``build`` of the descriptor document in the file ``path``; every error names ``flag``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{flag}: {path!r} is not UTF-8 text") from exc
    except OSError as exc:
        raise ValidationError(f"{flag}: cannot read {path!r}: {exc.strerror or exc}") from exc
    try:
        return build(serialize.loads(text))
    except ValidationError as exc:
        raise ValidationError(f"{flag}: {exc}") from exc


def _load_base(arg: str) -> FourManifold:
    """A --base argument: catalog name, sum expression, or JSON file path.

    Names and sum expressions win over files of the same name; anything that
    does not parse as an expression is treated as a path, and when no such
    file exists the expression's error names ``--base``.
    """
    if not arg.endswith(".json"):
        try:
            return serialize.parse_sum_expression(arg)
        except ValidationError as exc:
            if not os.path.exists(arg):
                raise ValidationError(f"--base: {exc}") from exc
    return _read_descriptor(
        arg, "--base", lambda doc: serialize.manifold_from_descriptor(doc.get("manifold", doc))
    )


def _base_and_bundle(args) -> tuple[FourManifold, RankTwoBundle]:
    base = _load_base(args.base)
    c1 = (0,) * base.rank if args.c1 is None else _parse_int_list(args.c1, "--c1")
    return base, RankTwoBundle(base, c1, serialize.read_int(args.c2, "--c2"))


def _env_step_budget() -> int | None:
    raw = os.environ.get(STEP_BUDGET_ENV)
    if raw is None:
        return None
    budget = serialize.read_int(raw, STEP_BUDGET_ENV)
    if budget < 0:
        raise ValidationError(f"{STEP_BUDGET_ENV} must not be negative, got {budget}")
    return budget


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conitop",
        description="Exact invariants of sphere-bundle 6-manifolds and their conifold transitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("table", "json"), default="table")

    p_inv = sub.add_parser("invariants", help="invariant system of a sphere bundle")
    p_inv.add_argument("--base", required=True, help="catalog name, sum expression, or JSON file")
    p_inv.add_argument("--c1", help="comma-separated c1 coordinates (default: zero)")
    p_inv.add_argument("--c2", default="0")
    p_inv.add_argument("--blowups", default="0")
    add_format(p_inv)

    p_tr = sub.add_parser("transition", help="both conifold transitions")
    p_tr.add_argument("--base", required=True)
    p_tr.add_argument("--c1")
    p_tr.add_argument("--c2", default="0")
    p_tr.add_argument("--swap", action="store_true")
    add_format(p_tr)

    p_cmp = sub.add_parser("compare", help="decide equivalence of two systems")
    p_cmp.add_argument("--left", required=True, help="system descriptor JSON file")
    p_cmp.add_argument("--right", required=True, help="system descriptor JSON file")
    # defaults (equiv.DEFAULT_BOUND and DEFAULT_PRIMES) are filled in by the
    # compare branch, so that parsing does not import the decision layer
    p_cmp.add_argument("--bound")
    p_cmp.add_argument("--primes")
    p_cmp.add_argument("--check-c1", action="store_true")
    p_cmp.add_argument(
        "--stats", action="store_true", help="write search counters to stderr as one JSON line"
    )
    add_format(p_cmp)

    p_ver = sub.add_parser("verify-paper", help="run the built-in verification suite")
    add_format(p_ver)
    return parser


def _run_command(args, stats: SearchStats | None) -> tuple[dict, int]:
    if args.command == "invariants":
        return _run_invariants(*_base_and_bundle(args), serialize.read_int(args.blowups, "--blowups"))
    if args.command == "transition":
        return _run_transition(*_base_and_bundle(args), args.swap)
    if args.command == "compare":
        from .equiv import DEFAULT_BOUND, DEFAULT_PRIMES

        bound = DEFAULT_BOUND if args.bound is None else serialize.read_int(args.bound, "--bound")
        if bound < 1:  # refused before the descriptors are read, whatever the pair
            raise ValidationError(f"--bound must be at least 1, got {bound}")
        primes = DEFAULT_PRIMES if args.primes is None else _parse_int_list(args.primes, "--primes")
        left = _read_descriptor(args.left, "--left", serialize.system_from_descriptor)
        right = _read_descriptor(args.right, "--right", serialize.system_from_descriptor)
        return _run_compare(left, right, bound, primes, args.check_c1, _env_step_budget(), stats)
    return _run_verify(_env_step_budget())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stats = None
    if getattr(args, "stats", False):
        from .equiv import SearchStats

        stats = SearchStats()
    try:
        report, code = _run_command(args, stats)
    except SearchBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValidationError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(render_report(report, args.format))
    if stats is not None:
        print(json.dumps({"search": stats.to_obj()}, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
