"""Readers of descriptor documents: JSON text in, checked domain objects out.

The writers, the integer and sum-expression readers and the limits live in
:mod:`conitop.serialize`, which every command loads; these readers, and the
``json`` decoder they use, are loaded only by a command that reads a
descriptor file (``compare``, or a JSON ``--base`` file).  ``serialize``
still answers for their public names, importing this module on first use.

Every reader refuses what it does not read: a key given twice, a constant
that is not JSON (``NaN``, ``Infinity``), and a field of an object that the
object's own reader does not take.  So no part of a document is dropped
unread, and two documents that differ anywhere never read as the same.
"""

from __future__ import annotations

import json

from .bundle import RankTwoBundle
from .errors import ValidationError
from .fourfold import FourManifold
from .lattice import IntersectionForm
from .serialize import (
    MAX_FORM_RANK,
    MAX_INT_DIGITS,
    REPORT_SCHEMA,
    SCHEMA,
    blown_up_projectivization,
    parse_sum_expression,
)
from .sixfold import InvariantSystem

_INT_LIMIT = 10**MAX_INT_DIGITS


def _json_object(pairs: list) -> dict:
    """The members of one JSON object as a dict; a key given twice is refused, not overwritten."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValidationError(f"invalid JSON: key {key!r} given twice in one object")
    return obj


def _json_constant(name: str):
    raise ValidationError(f"invalid JSON: {name} is not a JSON number")


def loads(text: str) -> dict:
    try:
        doc = json.loads(text, object_pairs_hook=_json_object, parse_constant=_json_constant)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    except ValidationError:  # a repeated key or a constant, refused by the hooks above
        raise
    except ValueError as exc:  # an integer past the digit limit of int()
        raise ValidationError(
            f"invalid JSON: an integer of more than {MAX_INT_DIGITS} digits"
        ) from exc
    except RecursionError as exc:
        raise ValidationError("invalid JSON: arrays or objects nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ValidationError("descriptor document must be a JSON object")
    schema = doc.get("schema")
    if schema is not None and schema not in (SCHEMA, REPORT_SCHEMA):
        raise ValidationError(f"unsupported schema {schema!r}")
    return doc


# A descriptor value is taken only as its own JSON type: a bool, float or
# string where an integer belongs is an error, never rounded or converted.
_JSON_KINDS = {int: "an integer", str: "a string", bool: "true or false", list: "a list"}


def _json_value(value, kind: type, field: str):
    if type(value) is not kind:
        raise ValidationError(f"{field} must be {_JSON_KINDS[kind]}, got {value!r}")
    if kind is int and not -_INT_LIMIT < value < _INT_LIMIT:
        raise ValidationError(f"{field} has an integer of more than {MAX_INT_DIGITS} digits")
    return value


def _json_list(value, kind: type, field: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{field} must be a list, got {value!r}")
    return tuple(_json_value(v, kind, field) for v in value)


def _json_rows(value, field: str) -> tuple:
    """A list of integer lists, such as a matrix."""
    return tuple(_json_list(row, int, field) for row in _json_list(value, list, field))


def _require(obj, fields, what: str, optional=()) -> None:
    """``obj`` is an object holding every one of ``fields`` and, besides them, only ``optional``."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object, got {obj!r}")
    for field in fields:
        if field not in obj:
            raise ValidationError(f"{what} needs field {field!r}")
    for field in obj:
        if field not in fields and field not in optional:
            raise ValidationError(f"{what} takes no field {field!r}")


# -- four-manifolds ---------------------------------------------------------


def manifold_from_obj(obj: dict) -> FourManifold:
    _require(obj, ("matrix", "w2"), "explicit manifold", ("label", "c1_tangent", "simply_connected"))
    matrix = _json_rows(obj["matrix"], "matrix")
    if len(matrix) > MAX_FORM_RANK:
        raise ValidationError(f"matrix has {len(matrix)} rows, above the limit of {MAX_FORM_RANK}")
    return FourManifold(
        _json_value(obj.get("label", "custom"), str, "label"),
        IntersectionForm(matrix),
        _json_list(obj["w2"], int, "w2"),
        None if obj.get("c1_tangent") is None else _json_list(obj["c1_tangent"], int, "c1_tangent"),
        _json_value(obj.get("simply_connected", True), bool, "simply_connected"),
    )


def manifold_from_descriptor(desc) -> FourManifold:
    """Catalog name, connected-sum expression, or explicit object."""
    if isinstance(desc, str):
        return parse_sum_expression(desc)
    if isinstance(desc, dict):
        return manifold_from_obj(desc)
    raise ValidationError(f"manifold must be a string or object, got {desc!r}")


def manifold_from_document(doc: dict) -> FourManifold:
    """The manifold of a manifold document, such as a ``--base`` file.

    ``{"manifold": ...}`` holds a manifold descriptor; any other document is
    an explicit manifold object itself.  Either may also hold ``schema``.
    """
    if "manifold" in doc:
        _require(doc, ("manifold",), "manifold document", ("schema",))
        return manifold_from_descriptor(doc["manifold"])
    return manifold_from_obj({key: value for key, value in doc.items() if key != "schema"})


def _base_from(inner: dict) -> FourManifold:
    """The manifold of a bundle descriptor's ``base`` field; an error names ``base``."""
    try:
        return manifold_from_descriptor(inner["base"])
    except ValidationError as exc:
        raise ValidationError(f"base: {exc}") from exc


# -- bundles ----------------------------------------------------------------


def bundle_from_obj(base: FourManifold, obj: dict) -> RankTwoBundle:
    """The bundle of ``obj``'s ``c1`` and ``c2`` over ``base``; the caller checks its other fields."""
    if not isinstance(obj, dict):
        raise ValidationError("bundle descriptor must be an object")
    c1 = _json_list(obj.get("c1", [0] * base.rank), int, "c1")
    return RankTwoBundle(base, c1, _json_value(obj.get("c2", 0), int, "c2"))


# -- invariant systems ------------------------------------------------------


def system_from_obj(obj: dict) -> InvariantSystem:
    _require(
        obj,
        ("rank", "mu", "p1", "w2", "b3"),
        "invariant system",
        ("c1_class", "basis_labels", "classifiable"),
    )
    rank = _json_value(obj["rank"], int, "rank")
    if rank < 0:
        raise ValidationError(f"system rank {rank} is negative")
    if rank > MAX_FORM_RANK + 2:
        raise ValidationError(f"system rank {rank} is above the limit of {MAX_FORM_RANK + 2}")
    if not isinstance(obj["mu"], (list, tuple)):
        raise ValidationError("mu must be a list of [i, j, k, value] entries")
    entries = []
    for item in obj["mu"]:
        if not (isinstance(item, (list, tuple)) and len(item) == 4):
            raise ValidationError(f"mu entries must be [i, j, k, value] integers, got {item!r}")
        entries.append((item[:3], _json_value(item[3], int, "mu")))
    labels = obj.get("basis_labels")
    return InvariantSystem(
        rank,
        entries,
        _json_list(obj["p1"], int, "p1"),
        _json_list(obj["w2"], int, "w2"),
        _json_value(obj["b3"], int, "b3"),
        None if obj.get("c1_class") is None else _json_list(obj["c1_class"], int, "c1_class"),
        () if labels is None else _json_list(labels, str, "basis_labels"),
        _json_value(obj.get("classifiable", True), bool, "classifiable"),
    )


# the shapes of a system descriptor, each with the document fields it takes beside its own
_SHAPES = {
    "system": (),
    "projectivize": ("blowups",),
    "local_model": (),
    "transition": ("side",),
}


def system_from_descriptor(doc: dict) -> InvariantSystem:
    """Build a system from any of the accepted descriptor shapes.

    ``{"system": {...}}``                       explicit invariant data
    ``{"projectivize": {"base":..., "c1":..., "c2":...}, "blowups": n}``
    ``{"local_model": 1}``                      frozen transition model
    ``{"transition": {"base":..., "c1":..., "c2":...}, "side": "z1"|"z2"}``

    The document holds exactly one shape and, besides it, ``schema`` and
    that shape's own document field.
    """
    if not isinstance(doc, dict):
        raise ValidationError("system descriptor must be a JSON object")
    shapes = [shape for shape in _SHAPES if shape in doc]
    if len(shapes) != 1:
        one_of = ", ".join(map(repr, _SHAPES))
        if not shapes:
            raise ValidationError(f"system descriptor needs one of {one_of}")
        raise ValidationError(
            f"system descriptor takes only one of {one_of}, got {' and '.join(map(repr, shapes))}"
        )
    shape = shapes[0]
    _require(doc, (shape,), f"{shape} descriptor", ("schema", *_SHAPES[shape]))
    if shape == "system":
        return system_from_obj(doc["system"])
    if shape == "projectivize":
        inner = doc["projectivize"]
        _require(inner, ("base",), "projectivize", ("c1", "c2"))
        base = _base_from(inner)
        e = bundle_from_obj(base, inner)
        return blown_up_projectivization(
            base, e, _json_value(doc.get("blowups", 0), int, "blowups")
        )
    if shape == "local_model":
        from .transitions import local_model_system

        return local_model_system(_json_value(doc["local_model"], int, "local_model"))
    from .transitions import conifold_transition

    inner = doc["transition"]
    _require(inner, ("base",), "transition", ("c1", "c2"))
    base = _base_from(inner)
    result = conifold_transition(base, bundle_from_obj(base, inner))
    side = doc.get("side", "z1")
    if side not in ("z1", "z2"):
        raise ValidationError("transition side must be 'z1' or 'z2'")
    return result.z1 if side == "z1" else result.z2


# -- witnesses and certificates ---------------------------------------------


def witness_from_obj(obj: dict) -> IsomorphismWitness:
    from .equiv import IsomorphismWitness

    _require(obj, ("matrix", "preserves_c1"), "witness")
    matrix = _json_rows(obj["matrix"], "matrix")
    return IsomorphismWitness(matrix, _json_value(obj["preserves_c1"], bool, "preserves_c1"))


def certificate_from_obj(obj: dict) -> DistinctnessCertificate:
    from .equiv import DistinctnessCertificate

    _require(obj, ("kind", "detail"), "certificate", ("prime",))
    kind = _json_value(obj["kind"], str, "kind")
    if kind == "fingerprint":
        sides = _json_list(obj["detail"], list, "detail")
        detail = tuple(_json_rows(side, "detail") for side in sides)
    elif kind in ("rank", "b3"):
        detail = _json_list(obj["detail"], int, "detail")
    else:
        raise ValidationError(f"unknown certificate kind {kind!r}")
    prime = obj.get("prime")
    if prime is not None:
        prime = _json_value(prime, int, "prime")
    return DistinctnessCertificate(kind, prime, detail)
