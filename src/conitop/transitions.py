"""The conifold-transition operation on sphere-bundle 6-manifolds.

A conifold transition collapses a nullhomologous Lagrangian 3-sphere sitting
in a trivialized chart of the bundle and replaces it by a 2-sphere; there are
exactly two resulting diffeomorphism types per sphere.  At the invariant
level both are again built from bundle data over a modified base:

  side 1:  the sphere bundle of a rank-two bundle over  base # CP2bar  with
           c1 extended by -1 on the new summand and c2 dropped by 1;
  side 2:  a one-point blowup of the sphere bundle of a rank-two bundle over
           the unchanged base, with the same c1 and c2 dropped by 1.

:func:`conifold_transition` returns side 1 as ``z1`` and side 2 as ``z2``,
always in this order.

:func:`local_model_system` provides the frozen invariant systems of the two
closed-up local models of the surgery (transition of the trivial bundle over
the 4-ball, capped off with the same trivial piece); they serve as built-in
cross-check oracles for the constructors above.
"""

from __future__ import annotations

from .bundle import RankTwoBundle
from .errors import ValidationError, Value
from .fourfold import FourManifold, connected_sum, standard
from .sixfold import InvariantSystem, blowup_point, projectivize


class TransitionResult(Value):
    """Both sides of a transition, with the transferred Chern data.

    ``z1``/``z2`` are the invariant systems of the two diffeomorphism types,
    and ``e1``/``e2`` the bundles they are built from.
    """

    fields = ("z1", "z2", "e1", "e2")

    def __init__(
        self, z1: InvariantSystem, z2: InvariantSystem, e1: RankTwoBundle, e2: RankTwoBundle
    ):
        vars(self).update(zip(self.fields, (z1, z2, e1, e2)))


def conifold_transition(base: FourManifold, e: RankTwoBundle) -> TransitionResult:
    """Compute both transitions of the sphere bundle of ``e`` over ``base``."""
    if e.base != base:
        raise ValidationError("bundle base does not match the given manifold")
    base1 = connected_sum(base, standard("CP2bar"))
    e1 = RankTwoBundle(base1, e.c1 + (-1,), e.c2 - 1)
    z1 = projectivize(base1, e1)
    e2 = RankTwoBundle(base, e.c1, e.c2 - 1)
    z2 = blowup_point(projectivize(base, e2))
    return TransitionResult(z1, z2, e1, e2)


def local_model_system(k: int) -> InvariantSystem:
    """Invariant system of the closed-up local model of transition k (1 or 2).

    Basis (x, z): x restricts to the dual of the fiber sphere of the trivial
    piece, z is Poincare dual to the 4-manifold swept out by the surgery.
    The cup products, p1 pairings and w2 are frozen reference values derived
    from the surgery-level computation; the reference c1 is 2x on both sides.
    """
    if type(k) is not int or k not in (1, 2):
        raise ValidationError(f"local_model must be 1 or 2, got {k!r}")
    eps = (-1) ** k
    return InvariantSystem(
        2,
        {
            (0, 0, 0): 0,
            (0, 0, 1): 1,
            (0, 1, 1): -1,
            (1, 1, 1): (1 + eps) // 2,
        },
        p1=(0, 2 * (1 + eps)),
        w2=(0, 0),
        b3=0,
        c1_class=(2, 0),
        basis_labels=("x", "z"),
    )
