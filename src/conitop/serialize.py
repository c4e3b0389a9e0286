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
REPORT_SCHEMA = "conitop-report/2"
# The largest intersection form a manifold descriptor may describe, checked
# before any form is built; it also caps the summand count of a sum expression
# and, with the base rank, the number of blowups (so every system has rank at
# most MAX_FORM_RANK + 1).
MAX_FORM_RANK = 256


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


# A descriptor value is taken only as its own JSON type: a bool, float or
# string where an integer belongs is an error, never rounded or converted.
_JSON_KINDS = {int: "an integer", str: "a string", bool: "true or false", list: "a list"}


def _json_value(value, kind: type, field: str):
    if type(value) is not kind:
        raise DescriptorError(f"{field} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _json_list(value, kind: type, field: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise DescriptorError(f"{field} must be a list, got {value!r}")
    return tuple(_json_value(v, kind, field) for v in value)


def _json_rows(value, field: str) -> tuple:
    """A list of integer lists, such as a matrix."""
    return tuple(_json_list(row, int, field) for row in _json_list(value, list, field))


def _require(obj, fields, what: str) -> None:
    if not isinstance(obj, dict):
        raise DescriptorError(f"{what} must be a JSON object, got {obj!r}")
    for field in fields:
        if field not in obj:
            raise DescriptorError(f"{what} needs field {field!r}")


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
    _require(obj, ("matrix", "w2"), "explicit manifold")
    matrix = _json_rows(obj["matrix"], "matrix")
    if len(matrix) > MAX_FORM_RANK:
        raise DescriptorError(f"matrix has {len(matrix)} rows, above the limit of {MAX_FORM_RANK}")
    return FourManifold(
        _json_value(obj.get("label", "custom"), str, "label"),
        IntersectionForm(matrix),
        _json_list(obj["w2"], int, "w2"),
        None if obj.get("c1_tangent") is None else _json_list(obj["c1_tangent"], int, "c1_tangent"),
        _json_value(obj.get("simply_connected", True), bool, "simply_connected"),
    )


def parse_sum_expression(text: str) -> FourManifold:
    """Connected-sum expressions over the catalog, e.g. ``CP2 # 3 CP2bar``.

    The summands are counted against MAX_FORM_RANK before any is repeated,
    and the sum is built and validated once.
    """
    terms = []
    for piece in text.split("#"):
        tokens = piece.split()
        if not tokens:
            raise DescriptorError(f"empty summand in manifold expression {text!r}")
        count = 1
        if tokens[0].lstrip("-").isdecimal():
            try:
                count = int(tokens[0])
            except ValueError as exc:  # more digits than int() accepts
                raise DescriptorError(f"summand count {tokens[0]!r} is out of range") from exc
            tokens = tokens[1:]
        if len(tokens) != 1:
            raise DescriptorError(f"cannot parse manifold summand {piece.strip()!r}")
        name = tokens[0]
        if name not in STANDARD_NAMES:
            raise DescriptorError(f"unknown catalog manifold {name!r}")
        if count < 0:
            raise DescriptorError(f"negative summand count in {text!r}")
        terms.append((standard(name), count))
    summands = sum(count for _, count in terms)
    rank = sum(n.rank * count for n, count in terms)
    if max(summands, rank) > MAX_FORM_RANK:
        raise DescriptorError(
            f"manifold expression {text!r} has {summands} summands and rank {rank};"
            f" each is limited to {MAX_FORM_RANK}"
        )
    if not summands:
        raise DescriptorError(f"empty manifold expression {text!r}")
    return connected_sum(*(n for n, count in terms for _ in range(count)))


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
    c1 = _json_list(obj.get("c1", [0] * base.rank), int, "c1")
    return RankTwoBundle(base, c1, _json_value(obj.get("c2", 0), int, "c2"))


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
    _require(obj, ("rank", "mu", "p1", "w2", "b3"), "invariant system")
    if not isinstance(obj["mu"], (list, tuple)):
        raise DescriptorError("mu must be a list of [i, j, k, value] entries")
    entries = []
    for item in obj["mu"]:
        if not (
            isinstance(item, (list, tuple))
            and len(item) == 4
            and all(type(v) is int for v in item)
        ):
            raise DescriptorError(f"mu entries must be [i, j, k, value] integers, got {item!r}")
        entries.append((item[:3], item[3]))
    labels = obj.get("basis_labels")
    try:
        return make_system(
            _json_value(obj["rank"], int, "rank"),
            entries,
            _json_list(obj["p1"], int, "p1"),
            _json_list(obj["w2"], int, "w2"),
            _json_value(obj["b3"], int, "b3"),
            None if obj.get("c1_class") is None else _json_list(obj["c1_class"], int, "c1_class"),
            () if labels is None else _json_list(labels, str, "basis_labels"),
            _json_value(obj.get("classifiable", True), bool, "classifiable"),
        )
    except ValidationError as exc:
        raise DescriptorError(str(exc)) from exc


def blown_up_projectivization(
    base: FourManifold, e: RankTwoBundle, blowups: int
) -> InvariantSystem:
    """The sphere bundle of ``e`` blown up at ``blowups`` points, count checked first."""
    if not 0 <= blowups <= MAX_FORM_RANK - base.rank:
        raise DescriptorError(
            f"blowups must be between 0 and {MAX_FORM_RANK - base.rank}"
            f" (base rank + blowups at most {MAX_FORM_RANK}), got {blowups}"
        )
    s = projectivize(base, e)
    for _ in range(blowups):
        s = blowup_point(s)
    return s


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
        return blown_up_projectivization(
            base, e, _json_value(doc.get("blowups", 0), int, "blowups")
        )
    if "local_model" in doc:
        return local_model_system(_json_value(doc["local_model"], int, "local_model"))
    if "transition" in doc:
        inner = doc["transition"]
        base = manifold_from_descriptor(inner.get("base"))
        e = bundle_from_obj(base, inner)
        swap = _json_value(inner.get("swap", False), bool, "swap")
        result = conifold_transition(base, e, swap=swap)
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
    _require(obj, ("matrix", "preserves_c1"), "witness")
    matrix = _json_rows(obj["matrix"], "matrix")
    if any(len(row) != len(matrix) for row in matrix):
        raise DescriptorError("witness matrix must be square")
    try:
        return IsomorphismWitness(matrix, _json_value(obj["preserves_c1"], bool, "preserves_c1"))
    except ValidationError as exc:
        raise DescriptorError(str(exc)) from exc


def certificate_to_obj(c: DistinctnessCertificate) -> dict:
    if c.kind == "fingerprint":
        detail = [[list(t) for t in side] for side in c.detail]
    else:
        detail = list(c.detail)
    return {"kind": c.kind, "prime": c.prime, "detail": detail}


def certificate_from_obj(obj: dict) -> DistinctnessCertificate:
    _require(obj, ("kind", "detail"), "certificate")
    kind = _json_value(obj["kind"], str, "kind")
    if kind == "fingerprint":
        sides = _json_list(obj["detail"], list, "detail")
        detail = tuple(_json_rows(side, "detail") for side in sides)
    elif kind in ("rank", "b3"):
        detail = _json_list(obj["detail"], int, "detail")
    else:
        raise DescriptorError(f"unknown certificate kind {kind!r}")
    prime = obj.get("prime")
    if prime is not None:
        prime = _json_value(prime, int, "prime")
    return DistinctnessCertificate(kind, prime, detail)
