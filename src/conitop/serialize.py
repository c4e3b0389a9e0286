"""JSON writers for every domain object, plus the readers of typed text.

Input descriptors and machine-readable report sections share one structured
format with a versioned ``schema`` field, so reports re-parse to the exact
in-memory values they were produced from.  Human tables are a formatting
layer over the same data (see :mod:`conitop.cli`).

This module holds what every command runs: the writers, ``json_canonical``,
``read_int``, ``parse_sum_expression``, ``blown_up_projectivization`` and
the limits.  The descriptor readers live in :mod:`conitop.descriptors`, which
only a command that reads a descriptor file loads; their public names
(``loads``, ``system_from_descriptor``, ``certificate_from_obj``, ...) are
still readable here and resolve on first access.  This module loads no
``json`` at import: ``json_canonical`` imports json's string encoder on its
first call, and the readers' module imports the decoder, so a table-format
command that reads no descriptor file loads no ``json`` at all.
"""

from __future__ import annotations

from itertools import chain

from .bundle import RankTwoBundle
from .errors import ValidationError
from .fourfold import STANDARD_NAMES, FourManifold, connected_sum, standard
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


# json's string encoder, read by _render as a module global; bound by the
# first json_canonical call, so that a command printing no JSON loads no json
encode_basestring_ascii = None


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
    global encode_basestring_ascii
    if encode_basestring_ascii is None:
        from json.encoder import encode_basestring_ascii
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


# -- four-manifolds ---------------------------------------------------------


def manifold_to_obj(n: FourManifold) -> dict:
    return {
        "label": n.label,
        "matrix": [list(row) for row in n.form.matrix],
        "w2": list(n.w2),
        "c1_tangent": None if n.c1_tangent is None else list(n.c1_tangent),
        "simply_connected": n.simply_connected,
    }


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


# -- bundles ----------------------------------------------------------------


def bundle_to_obj(e: RankTwoBundle) -> dict:
    return {"c1": list(e.c1), "c2": e.c2}


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


# -- witnesses and certificates ---------------------------------------------


def witness_to_obj(w: IsomorphismWitness) -> dict:
    return {
        "matrix": [list(row) for row in w.matrix],
        "preserves_c1": w.preserves_c1,
    }


def certificate_to_obj(c: DistinctnessCertificate) -> dict:
    if c.kind == "fingerprint":
        detail = [[list(t) for t in side] for side in c.detail]
    else:
        detail = list(c.detail)
    return {"kind": c.kind, "prime": c.prime, "detail": detail}


# the readers' public names, each resolved from conitop.descriptors on first
# access (PEP 562), so that a command that reads no descriptor file compiles
# neither the readers nor the json decoder
_READERS = (
    "bundle_from_obj",
    "certificate_from_obj",
    "loads",
    "manifold_from_descriptor",
    "manifold_from_document",
    "manifold_from_obj",
    "system_from_descriptor",
    "system_from_obj",
    "witness_from_obj",
)


def __getattr__(name):
    if name not in _READERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import descriptors

    value = getattr(descriptors, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_READERS))
