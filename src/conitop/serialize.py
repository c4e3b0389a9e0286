"""JSON codec for every domain object, plus descriptor parsing.

Input descriptors and machine-readable report sections share one structured
format with a versioned ``schema`` field, so reports re-parse to the exact
in-memory values they were produced from.  Human tables are a formatting
layer over the same data (see :mod:`conitop.cli`).
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii

from .bundle import RankTwoBundle
from .errors import ValidationError
from .fourfold import STANDARD_NAMES, FourManifold, connected_sum, standard
from .lattice import IntersectionForm
from .sixfold import InvariantSystem, blowup_point, projectivize

SCHEMA = "conitop/1"
REPORT_SCHEMA = "conitop-report/2"
# The largest intersection form a manifold descriptor may describe, checked
# before any form is built; it also caps the summand count of a sum expression
# and, with the base rank, the number of blowups.  So a blown-up
# projectivization has rank at most MAX_FORM_RANK + 1 and a transition side
# (over base # CP2bar) at most MAX_FORM_RANK + 2, the cap on explicit systems.
MAX_FORM_RANK = 256
# Descriptor integers and integers typed as text have at most this many digits,
# so that every value built from a few of them stays within the 4,300 digits
# that str() and json print.
MAX_INT_DIGITS = 1000
_INT_LIMIT = 10**MAX_INT_DIGITS


def read_int(text: str, field: str) -> int:
    """The integer typed as ``text``: an optional ``-`` and 1 to MAX_INT_DIGITS ASCII digits.

    Nothing else is read, neither blanks, ``+``, ``_`` nor non-ASCII digits,
    all of which ``int()`` takes; the ``ValidationError`` names ``field``.
    """
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValidationError(
            f"{field} must be an integer (ASCII digits after an optional '-'), got {text!r}"
        )
    if len(digits) > MAX_INT_DIGITS:
        raise ValidationError(f"{field} is out of range: more than {MAX_INT_DIGITS} digits")
    return int(text)


def json_canonical(obj) -> str:
    """Deterministic rendering used for every machine-readable document.

    Byte for byte ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, but
    rendered directly: with ``indent`` set, ``json.dumps`` never uses its C
    encoder and passes every list element through a Python generator.  A
    list of int rows of one nonzero length (mu entries, certificate rows,
    matrix rows) fills one ``%d`` template, a row's lines once per row, with
    all its ints in one step; ``%d`` prints an exact ``int`` as ``repr``
    does and refuses one past the interpreter's digit limit the same way.  Takes
    ``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``, ``int``, ``bool``
    and ``None``; anything else (a float, a key that is not a string, a set)
    raises ``TypeError``.
    """
    return _render(obj, "\n") + "\n"


def _render(obj, newline: str) -> str:
    """``obj`` as canonical JSON whose lines after the first start with ``newline``."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    inner = newline + "  "
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == _INT:
            items = map(int.__repr__, obj)
        elif kinds == _STR:
            items = map(encode_basestring_ascii, obj)
        elif (
            kinds <= _ROW
            and len(lengths := set(map(len, obj))) == 1
            and 0 not in lengths
            and set(map(type, ints := tuple(chain.from_iterable(obj)))) <= _INT
        ):
            # int rows of one nonzero length, such as mu entries and matrix
            # rows: every row fills one %d template, in one step
            deeper = inner + "  "
            row = "[" + deeper + ("," + deeper).join(["%d"] * lengths.pop()) + inner + "]"
            return "[" + inner + ("," + inner).join([row] * len(obj)) % ints + newline + "]"
        else:
            items = [_render(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not obj:
            return "{}"
        if set(map(type, obj)) != _STR:
            bad = next(k for k in obj if type(k) is not str)
            raise TypeError(f"keys must be str, not {type(bad).__name__}: {bad!r}")
        items = [
            encode_basestring_ascii(k) + ": " + _render(obj[k], inner) for k in sorted(obj)
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


_INT, _STR, _ROW = {int}, {str}, {list, tuple}


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
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


def _require(obj, fields, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object, got {obj!r}")
    for field in fields:
        if field not in obj:
            raise ValidationError(f"{what} needs field {field!r}")


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
        raise ValidationError(f"matrix has {len(matrix)} rows, above the limit of {MAX_FORM_RANK}")
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
            raise ValidationError(f"empty summand in manifold expression {text!r}")
        if len(tokens) > 2:
            raise ValidationError(f"cannot parse manifold summand {piece.strip()!r}")
        name = tokens[-1]
        count = read_int(tokens[0], "summand count") if len(tokens) == 2 else 1
        if name not in STANDARD_NAMES:
            raise ValidationError(f"unknown catalog manifold {name!r}")
        if count < 0:
            raise ValidationError(f"negative summand count in {text!r}")
        terms.append((standard(name), count))
    summands = sum(count for _, count in terms)
    rank = sum(n.rank * count for n, count in terms)
    if max(summands, rank) > MAX_FORM_RANK:
        raise ValidationError(
            f"manifold expression {text!r} has {summands} summands and rank {rank};"
            f" each is limited to {MAX_FORM_RANK}"
        )
    if not summands:
        raise ValidationError(f"empty manifold expression {text!r}")
    return connected_sum(*(n for n, count in terms for _ in range(count)))


def manifold_from_descriptor(desc) -> FourManifold:
    """Catalog name, connected-sum expression, or explicit object."""
    if isinstance(desc, str):
        return parse_sum_expression(desc)
    if isinstance(desc, dict):
        return manifold_from_obj(desc)
    raise ValidationError(f"manifold must be a string or object, got {desc!r}")


def _base_from(inner: dict) -> FourManifold:
    """The manifold of a bundle descriptor's ``base`` field; an error names ``base``."""
    try:
        return manifold_from_descriptor(inner["base"])
    except ValidationError as exc:
        raise ValidationError(f"base: {exc}") from exc


# -- bundles ----------------------------------------------------------------


def bundle_to_obj(e: RankTwoBundle) -> dict:
    return {"c1": list(e.c1), "c2": e.c2}


def bundle_from_obj(base: FourManifold, obj: dict) -> RankTwoBundle:
    if not isinstance(obj, dict):
        raise ValidationError("bundle descriptor must be an object")
    c1 = _json_list(obj.get("c1", [0] * base.rank), int, "c1")
    return RankTwoBundle(base, c1, _json_value(obj.get("c2", 0), int, "c2"))


def placed_bundle_to_obj(e: RankTwoBundle) -> dict:
    return {"base": manifold_to_obj(e.base), "c1": list(e.c1), "c2": e.c2}


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


def blown_up_projectivization(
    base: FourManifold, e: RankTwoBundle, blowups: int
) -> InvariantSystem:
    """The sphere bundle of ``e`` blown up at ``blowups`` points, count checked first."""
    if not 0 <= blowups <= MAX_FORM_RANK - base.rank:
        raise ValidationError(
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
        raise ValidationError("system descriptor must be a JSON object")
    if "system" in doc:
        return system_from_obj(doc["system"])
    if "projectivize" in doc:
        inner = doc["projectivize"]
        _require(inner, ("base",), "projectivize")
        base = _base_from(inner)
        e = bundle_from_obj(base, inner)
        return blown_up_projectivization(
            base, e, _json_value(doc.get("blowups", 0), int, "blowups")
        )
    if "local_model" in doc:
        from .transitions import local_model_system

        return local_model_system(_json_value(doc["local_model"], int, "local_model"))
    if "transition" in doc:
        from .transitions import conifold_transition

        inner = doc["transition"]
        _require(inner, ("base",), "transition")
        base = _base_from(inner)
        e = bundle_from_obj(base, inner)
        swap = _json_value(inner.get("swap", False), bool, "swap")
        result = conifold_transition(base, e, swap=swap)
        side = doc.get("side", "z1")
        if side not in ("z1", "z2"):
            raise ValidationError("transition side must be 'z1' or 'z2'")
        return result.z1 if side == "z1" else result.z2
    raise ValidationError(
        "system descriptor needs one of 'system', 'projectivize', 'local_model', 'transition'"
    )


# -- witnesses and certificates ---------------------------------------------


def witness_to_obj(w: IsomorphismWitness) -> dict:
    return {
        "matrix": [list(row) for row in w.matrix],
        "preserves_c1": w.preserves_c1,
    }


def witness_from_obj(obj: dict) -> IsomorphismWitness:
    from .equiv import IsomorphismWitness

    _require(obj, ("matrix", "preserves_c1"), "witness")
    matrix = _json_rows(obj["matrix"], "matrix")
    return IsomorphismWitness(matrix, _json_value(obj["preserves_c1"], bool, "preserves_c1"))


def certificate_to_obj(c: DistinctnessCertificate) -> dict:
    if c.kind == "fingerprint":
        detail = [[list(t) for t in side] for side in c.detail]
    else:
        detail = list(c.detail)
    return {"kind": c.kind, "prime": c.prime, "detail": detail}


def certificate_from_obj(obj: dict) -> DistinctnessCertificate:
    from .equiv import DistinctnessCertificate

    _require(obj, ("kind", "detail"), "certificate")
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
