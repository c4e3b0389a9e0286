"""conitop: exact diffeomorphism invariants of sphere-bundle 6-manifolds.

Model a closed simply-connected 4-manifold by its intersection form, a
rank-two complex bundle over it by its Chern data, and compute the full
invariant system (cup-product form, p1, w2, b3) of the associated 2-sphere
bundle, of blowups, and of the two conifold transitions along the canonical
nullhomologous 3-sphere.  A decision layer searches for explicit integral
isomorphisms of invariant systems or certifies distinctness by finite-field
fingerprints.  All arithmetic is exact.

The names of the decision layer (:mod:`conitop.equiv`) and of the
transitions (:mod:`conitop.transitions`) resolve on first use, so that
importing the package, or running a command that needs neither, does not
compile those modules.
"""

from importlib import import_module as _import_module

from .bundle import RankTwoBundle, c1_squared, trivial_bundle, twist
from .errors import SearchBudgetError, ValidationError
from .fourfold import FourManifold, connected_sum, p1_number, standard
from .lattice import (
    IntersectionForm,
    direct_sum,
    is_characteristic,
    is_unimodular,
    signature,
)
from .sixfold import (
    InvariantSystem,
    blowup_point,
    cp3bar_system,
    euler_characteristic,
    make_system,
    projectivize,
    twist_witness,
)

__version__ = "0.1.0"

# name -> submodule, for the names imported on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(
        (
            "DistinctnessCertificate",
            "IsomorphismWitness",
            "certificate_is_valid",
            "certify_distinct",
            "find_isomorphism",
            "fingerprint",
            "has_even_w2_cubic",
            "transport_system",
            "verify_witness",
        ),
        "equiv",
    ),
    **dict.fromkeys(
        ("TransitionResult", "conifold_transition", "local_model_system"), "transitions"
    ),
}

__all__ = [
    "DistinctnessCertificate",
    "FourManifold",
    "IntersectionForm",
    "InvariantSystem",
    "IsomorphismWitness",
    "RankTwoBundle",
    "SearchBudgetError",
    "TransitionResult",
    "ValidationError",
    "blowup_point",
    "c1_squared",
    "certificate_is_valid",
    "certify_distinct",
    "conifold_transition",
    "connected_sum",
    "cp3bar_system",
    "direct_sum",
    "euler_characteristic",
    "find_isomorphism",
    "fingerprint",
    "has_even_w2_cubic",
    "is_characteristic",
    "is_unimodular",
    "local_model_system",
    "make_system",
    "p1_number",
    "projectivize",
    "signature",
    "standard",
    "transport_system",
    "trivial_bundle",
    "twist",
    "twist_witness",
    "verify_witness",
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
