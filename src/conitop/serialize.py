"""JSON codec for every domain object, plus descriptor parsing.

Input descriptors and machine-readable report sections share one structured
format with a versioned ``schema`` field, so reports re-parse to the exact
in-memory values they were produced from.  Human tables are a formatting
layer over the same data (see :mod:`conitop.cli`).
"""

from __future__ import annotations

import json

from .bundle import RankTwoBundle
from .equiv import DistinctnessCertificate, IsomorphismWitness
from .errors import DescriptorError, ValidationError
from .fourfold import STANDARD_NAMES, FourManifold, connected_sum, standard
from .lattice import IntersectionForm
from .sixfold import InvariantSystem, blowup_point, make_system, projectivize
from .transitions import conifold_transition, local_model_system

SCHEMA = "conitop/1"
REPORT_SCHEMA = "conitop-report/1"


def json_canonical(obj) -> str:
    """Deterministic rendering used for every machine-readable document."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict):
        raise DescriptorError("descriptor document must be a JSON object")
    schema = doc.get("schema")
    if schema is not None and schema not in (SCHEMA, REPORT_SCHEMA):
        raise DescriptorError(f"unsupported schema {schema!r}")
    return doc


# -- four-manifolds ---------------------------------------------------------


def manifold_to_obj(n: FourManifold) -> dict:
    return {
        "label": n.label,
        "matrix": [list(row) for row in n.form.matrix],
        "w2": list(n.w2),
        "c1_tangent": None if n.c1_tangent is None else list(n.c1_tangent),
        "simply_connected": n.simply_connected,
    }


def manifold_from_obj(obj: dict) -> FourManifold:
    if "matrix" not in obj or "w2" not in obj:
        raise DescriptorError("explicit manifold needs 'matrix' and 'w2'")
    return FourManifold(
        str(obj.get("label", "custom")),
        IntersectionForm.from_rows(obj["matrix"]),
        tuple(obj["w2"]),
        None if obj.get("c1_tangent") is None else tuple(obj["c1_tangent"]),
        bool(obj.get("simply_connected", True)),
    )


def parse_sum_expression(text: str) -> FourManifold:
    """Connected-sum expressions over the catalog, e.g. ``CP2 # 3 CP2bar``."""
    result = None
    for piece in text.split("#"):
        tokens = piece.split()
        if not tokens:
            raise DescriptorError(f"empty summand in manifold expression {text!r}")
        count = 1
        if tokens[0].lstrip("-").isdigit():
            count = int(tokens[0])
            tokens = tokens[1:]
        if len(tokens) != 1:
            raise DescriptorError(f"cannot parse manifold summand {piece.strip()!r}")
        name = tokens[0]
        if name not in STANDARD_NAMES:
            raise DescriptorError(f"unknown catalog manifold {name!r}")
        if count < 0:
            raise DescriptorError(f"negative summand count in {text!r}")
        for _ in range(count):
            piece_manifold = standard(name)
            result = piece_manifold if result is None else connected_sum(result, piece_manifold)
    if result is None:
        raise DescriptorError(f"empty manifold expression {text!r}")
    return result


def manifold_from_descriptor(desc) -> FourManifold:
    """Catalog name, connected-sum expression, or explicit object."""
    if isinstance(desc, str):
        return parse_sum_expression(desc)
    if isinstance(desc, dict):
        return manifold_from_obj(desc)
    raise DescriptorError("manifold descriptor must be a string or object")


# -- bundles ----------------------------------------------------------------


def bundle_to_obj(e: RankTwoBundle) -> dict:
    return {"c1": list(e.c1), "c2": e.c2}


def bundle_from_obj(base: FourManifold, obj: dict) -> RankTwoBundle:
    if not isinstance(obj, dict):
        raise DescriptorError("bundle descriptor must be an object")
    c1 = obj.get("c1", [0] * base.rank)
    return RankTwoBundle(base, tuple(c1), int(obj.get("c2", 0)))


def placed_bundle_to_obj(e: RankTwoBundle) -> dict:
    return {"base": manifold_to_obj(e.base), "c1": list(e.c1), "c2": e.c2}


def placed_bundle_from_obj(obj: dict) -> RankTwoBundle:
    base = manifold_from_descriptor(obj["base"])
    return bundle_from_obj(base, obj)


# -- invariant systems ------------------------------------------------------


def system_to_obj(s: InvariantSystem) -> dict:
    return {
        "rank": s.rank,
        "basis_labels": list(s.basis_labels),
        "mu": [[i, j, k, v] for (i, j, k), v in s.mu],
        "p1": list(s.p1),
        "w2": list(s.w2),
        "b3": s.b3,
        "c1_class": None if s.c1_class is None else list(s.c1_class),
        "classifiable": s.classifiable,
    }


def system_from_obj(obj: dict) -> InvariantSystem:
    for field in ("rank", "mu", "p1", "w2", "b3"):
        if field not in obj:
            raise DescriptorError(f"invariant system needs field {field!r}")
    entries = []
    for item in obj["mu"]:
        if len(item) != 4:
            raise DescriptorError("mu entries must be [i, j, k, value]")
        entries.append((item[:3], item[3]))
    try:
        return make_system(
            int(obj["rank"]),
            entries,
            obj["p1"],
            obj["w2"],
            int(obj["b3"]),
            None if obj.get("c1_class") is None else tuple(obj["c1_class"]),
            obj.get("basis_labels") or (),
            bool(obj.get("classifiable", True)),
        )
    except ValidationError as exc:
        raise DescriptorError(str(exc)) from exc


def system_from_descriptor(doc: dict) -> InvariantSystem:
    """Build a system from any of the accepted descriptor shapes.

    ``{"system": {...}}``                       explicit invariant data
    ``{"projectivize": {"base":..., "c1":..., "c2":...}, "blowups": n}``
    ``{"local_model": 1}``                      frozen transition model
    ``{"transition": {"base":..., "c1":..., "c2":...}, "side": "z1"|"z2"}``
    """
    if not isinstance(doc, dict):
        raise DescriptorError("system descriptor must be a JSON object")
    if "system" in doc:
        return system_from_obj(doc["system"])
    if "projectivize" in doc:
        inner = doc["projectivize"]
        base = manifold_from_descriptor(inner.get("base"))
        e = bundle_from_obj(base, inner)
        s = projectivize(base, e)
        blowups = int(doc.get("blowups", 0))
        if blowups < 0:
            raise DescriptorError(f"blowups must be nonnegative, got {blowups}")
        for _ in range(blowups):
            s = blowup_point(s)
        return s
    if "local_model" in doc:
        return local_model_system(int(doc["local_model"]))
    if "transition" in doc:
        inner = doc["transition"]
        base = manifold_from_descriptor(inner.get("base"))
        e = bundle_from_obj(base, inner)
        result = conifold_transition(base, e, swap=bool(inner.get("swap", False)))
        side = doc.get("side", "z1")
        if side not in ("z1", "z2"):
            raise DescriptorError("transition side must be 'z1' or 'z2'")
        return result.z1 if side == "z1" else result.z2
    raise DescriptorError(
        "system descriptor needs one of 'system', 'projectivize', 'local_model', 'transition'"
    )


# -- witnesses and certificates ---------------------------------------------


def witness_to_obj(w: IsomorphismWitness) -> dict:
    return {
        "matrix": [list(row) for row in w.matrix],
        "preserves_c1": w.preserves_c1,
    }


def witness_from_obj(obj: dict) -> IsomorphismWitness:
    return IsomorphismWitness(
        tuple(tuple(row) for row in obj["matrix"]), bool(obj["preserves_c1"])
    )


def certificate_to_obj(c: DistinctnessCertificate) -> dict:
    if c.kind == "fingerprint":
        detail = [[list(t) for t in side] for side in c.detail]
    else:
        detail = list(c.detail)
    return {"kind": c.kind, "prime": c.prime, "detail": detail}


def certificate_from_obj(obj: dict) -> DistinctnessCertificate:
    kind = obj["kind"]
    if kind == "fingerprint":
        detail = tuple(tuple(tuple(t) for t in side) for side in obj["detail"])
    elif kind in ("rank", "b3"):
        detail = tuple(obj["detail"])
    else:
        raise ValidationError(f"unknown certificate kind {kind!r}")
    prime = obj.get("prime")
    return DistinctnessCertificate(kind, None if prime is None else int(prime), detail)
