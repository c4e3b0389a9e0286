"""Closed simply-connected oriented 4-manifolds as intersection-form data.

A :class:`FourManifold` is the tuple (form, w2, optional c1 lift) that the
rest of the package consumes: the unimodular intersection form on H^2, the
second Stiefel-Whitney class of the tangent bundle as a mod-2 vector in the
same basis, and optionally an integral lift of w2 used as the reference first
Chern class of the tangent bundle for almost-complex bookkeeping.

Simple connectivity and torsion-freeness are assumptions of the downstream
classification layer, not something checkable from this data; constructors
document them rather than verify them.
"""

from __future__ import annotations

from itertools import chain

from .errors import ValidationError, Value
from .intmat import Vec, as_vector, vec_mod2
from .lattice import IntersectionForm, direct_sum, is_characteristic, is_unimodular, signature

STANDARD_NAMES = ("S4", "CP2", "CP2bar", "S2xS2")


class FourManifold(Value):
    # simply_connected is a declared assumption, never verified: it is not
    # computable from the stored data, but the downstream classification
    # layer is only valid under it, so the flag rides along into outputs.
    fields = ("label", "form", "w2", "c1_tangent", "simply_connected")

    def __init__(
        self,
        label: str,
        form: IntersectionForm,
        w2: Vec,
        c1_tangent: Vec | None = None,
        simply_connected: bool = True,
    ):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "w2", as_vector(w2))
        if c1_tangent is not None:
            c1_tangent = as_vector(c1_tangent)
        object.__setattr__(self, "c1_tangent", c1_tangent)
        object.__setattr__(self, "simply_connected", simply_connected)
        if not is_unimodular(self.form):
            raise ValidationError(
                f"{self.label}: intersection form is not unimodular"
            )
        if not is_characteristic(self.w2, self.form):
            raise ValidationError(f"{self.label}: w2 is not characteristic")
        if self.c1_tangent is not None:
            if len(self.c1_tangent) != self.form.rank:
                raise ValidationError(
                    f"{self.label}: c1_tangent length does not match rank"
                )
            if vec_mod2(self.c1_tangent) != self.w2:
                raise ValidationError(
                    f"{self.label}: c1_tangent is not an integral lift of w2"
                )

    @property
    def rank(self) -> int:
        return self.form.rank


def standard(name: str) -> FourManifold:
    """Catalog manifolds addressable by name in descriptors.

    S4 is the rank-0 case.  CP2 carries its genuine tangent data
    (c1 = 3 times the generator).  S2xS2 likewise (c1 = (2,2) in the
    hyperbolic basis).

    CP2bar admits no almost complex structure, so its ``c1_tangent`` slot is
    pure bookkeeping: it stores (1,), the class that the first Chern class of
    a complex one-point blowup restricts to on the exceptional summand.  That
    is the only value consistent with blowup bookkeeping: connected sum with
    CP2bar is the differentiable model of a point blowup, whose first Chern
    class is the old one minus the exceptional divisor class, and the
    exceptional divisor class is minus the preferred generator here.
    """
    if name == "S4":
        return FourManifold("S4", IntersectionForm(()), (), ())
    if name == "CP2":
        return FourManifold("CP2", IntersectionForm(((1,),)), (1,), (3,))
    if name == "CP2bar":
        return FourManifold("CP2bar", IntersectionForm(((-1,),)), (1,), (1,))
    if name == "S2xS2":
        return FourManifold(
            "S2xS2", IntersectionForm(((0, 1), (1, 0))), (0, 0), (2, 2)
        )
    raise ValidationError(f"unknown catalog manifold {name!r}")


def connected_sum(first: FourManifold, *rest: FourManifold) -> FourManifold:
    """Connected sum, in order: block-sum form, concatenated w2 and c1 data.

    Equal to the left fold of pairwise sums, but validated once: an ``S4``
    summand after the first leaves the label unchanged, and the c1 lift
    survives only when every summand carries one.
    """
    pieces = (first,) + rest
    label = first.label
    for n in rest:
        if not (n.rank == 0 and n.label == "S4"):
            label = f"{label} # {n.label}"
    c1 = None
    if all(n.c1_tangent is not None for n in pieces):
        c1 = tuple(chain.from_iterable(n.c1_tangent for n in pieces))
    return FourManifold(
        label,
        direct_sum(*(n.form for n in pieces)),
        tuple(chain.from_iterable(n.w2 for n in pieces)),
        c1,
        all(n.simply_connected for n in pieces),
    )


def p1_number(n: FourManifold) -> int:
    """Pairing of the first Pontryagin class with the fundamental class.

    Equals three times the signature (signature theorem).
    """
    return 3 * signature(n.form)
