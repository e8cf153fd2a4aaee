"""Matrix-product secret sharing over exact integer arithmetic.

A dealer hides an ordered product of matrices drawn from a public set;
a ring of participants verifies shares through chained vector products
and reconstructs the secret through a blinded chain of matrix products.
Includes a Freivalds-style probabilistic audit and a brute-force attack
oracle for desk-scale instances.
"""

from .algebra import (
    BinaryVector,
    Matrix,
    Vector,
    determinant,
    freivalds_verify,
    is_invertible,
    mat_mul,
    mat_vec_mul,
    sample_check_vector,
    sample_invertible_matrix,
    sample_matrix,
)
from .attack import (
    MULTISET,
    ORDERED_DISTINCT,
    ORDERED_WITH_REPETITION,
    RatioHit,
    SearchProblem,
    SearchResult,
    count_search_space,
    exhaustive_search,
    ratio_analysis,
)
from .dealer import (
    Bulletin,
    DealerParams,
    Instance,
    Share,
    compute_check_pairs,
    deliver_shares,
    generate_instance,
    ring_walk,
    rotated_product,
    secrecy_rank_check,
)
from .errors import (
    GenerationFailure,
    GuardrailExceeded,
    IntegrityFailure,
    MatShareError,
    SingularMatrix,
)
from .protocol import (
    CheaterSpec,
    RunResult,
    freivalds_audit,
    recover_secret,
    run_reconstruction,
    run_verification,
    simulate_run,
)
from .transport import Envelope, IndexPointer, Network, Transcript

__all__ = [
    "BinaryVector",
    "Bulletin",
    "CheaterSpec",
    "DealerParams",
    "Envelope",
    "GenerationFailure",
    "GuardrailExceeded",
    "IndexPointer",
    "Instance",
    "IntegrityFailure",
    "MULTISET",
    "MatShareError",
    "Matrix",
    "Network",
    "ORDERED_DISTINCT",
    "ORDERED_WITH_REPETITION",
    "RatioHit",
    "RunResult",
    "SearchProblem",
    "SearchResult",
    "Share",
    "SingularMatrix",
    "Transcript",
    "Vector",
    "compute_check_pairs",
    "count_search_space",
    "deliver_shares",
    "determinant",
    "exhaustive_search",
    "freivalds_audit",
    "freivalds_verify",
    "generate_instance",
    "is_invertible",
    "mat_mul",
    "mat_vec_mul",
    "ratio_analysis",
    "recover_secret",
    "ring_walk",
    "rotated_product",
    "run_reconstruction",
    "run_verification",
    "sample_check_vector",
    "sample_invertible_matrix",
    "sample_matrix",
    "secrecy_rank_check",
    "simulate_run",
]
