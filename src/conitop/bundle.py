"""Rank-two complex vector bundles over a 4-manifold, as Chern data.

Over a 4-manifold, a rank-two complex bundle is determined up to isomorphism
by the pair (c1, c2), and every pair occurs, so the bundle IS its Chern data
here: c1 as an integer vector in the base's H^2 basis, c2 as the integer
pairing with the fundamental class.
"""

from __future__ import annotations

from .errors import ValidationError, Value
from .fourfold import FourManifold
from .intmat import Vec, as_vector


class RankTwoBundle(Value):
    fields = ("base", "c1", "c2")

    def __init__(self, base: FourManifold, c1: Vec, c2: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "c1", as_vector(c1, "bundle c1", base.rank))
        object.__setattr__(self, "c2", c2)
        if type(self.c2) is not int:
            raise ValidationError(f"bundle c2 {self.c2!r} is not an integer")


def trivial_bundle(base: FourManifold) -> RankTwoBundle:
    return RankTwoBundle(base, (0,) * base.rank, 0)


def twist(e: RankTwoBundle, l) -> RankTwoBundle:
    """Tensor with the line bundle of first Chern class l.

    With Chern roots x, y of the rank-two bundle, tensoring shifts both roots
    by l, so c1 goes to c1 + 2l and c2 to c2 + l.c1 + l.l, all products
    evaluated against the base intersection form.
    """
    l = as_vector(l, "twist l", e.base.rank)
    q = e.base.form
    c1 = tuple(a + 2 * b for a, b in zip(e.c1, l))
    c2 = e.c2 + q.evaluate(l, e.c1) + q.evaluate(l, l)
    return RankTwoBundle(e.base, c1, c2)


def c1_squared(e: RankTwoBundle) -> int:
    """Self-pairing of c1 against the base form."""
    return e.base.form.evaluate(e.c1, e.c1)
