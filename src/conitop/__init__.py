"""conitop: exact diffeomorphism invariants of sphere-bundle 6-manifolds.

Model a closed simply-connected 4-manifold by its intersection form, a
rank-two complex bundle over it by its Chern data, and compute the full
invariant system (cup-product form, p1, w2, b3) of the associated 2-sphere
bundle, of blowups, and of the two conifold transitions along the canonical
nullhomologous 3-sphere.  A decision layer searches for explicit integral
isomorphisms of invariant systems or certifies distinctness by finite-field
fingerprints.  All arithmetic is exact.
"""

from .bundle import RankTwoBundle, c1_squared, trivial_bundle, twist
from .equiv import (
    DistinctnessCertificate,
    IsomorphismWitness,
    certificate_is_valid,
    certify_distinct,
    find_isomorphism,
    fingerprint,
    has_even_w2_cubic,
    transport_system,
    verify_witness,
)
from .errors import DescriptorError, SearchBudgetError, ValidationError
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
from .transitions import TransitionResult, conifold_transition, local_model_system

__version__ = "0.1.0"

__all__ = [
    "DescriptorError",
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
