"""Ternary self-dual codes from 3x3 tilings of negacirculant blocks.

The package builds [6n, 3n] codes over GF(3) whose generator is (I | M)
with M a 3x3 block matrix of n x n negacirculants, verifies self-duality
and minimum-weight data with exact integer arithmetic, enumerates the
reduced search space of first-row triples, and checks findings against
the carried registry of known codes and their minimum-word counts.
"""

from .classical import Fingerprint, extended_qr48, fingerprint, pless_symmetry
from .errors import (
    GuardError,
    InternalInconsistencyError,
    LengthMismatchError,
    Nega3Error,
    NeighborCodeError,
    NeighborError,
    NeighborMembershipError,
    NeighborWeightError,
    RegistryError,
    VectorFileError,
)
from .gf3 import Code, Gf3Vector
from .gleason import (
    AlphaConstraint,
    EnumeratorFamily,
    IntPoly,
    alpha_constraint,
    gleason_basis,
    near_extremal_family,
)
from .nega import (
    CodeSpec,
    block_row_vectors,
    build_generator,
    f_value,
    is_self_dual,
    row_gram_is_two,
    self_dual_violations,
)
from .registry import (
    GammaSet,
    Registry,
    RegistryEntry,
    format_vector_record,
    ingest_vector_file,
    load_registry,
)
from .search import (
    BetaStatus,
    Finding,
    NoveltyReport,
    SearchPlan,
    beta_set_matches,
    neighbor,
    neighbor_sweep,
    novelty_report,
    read_findings,
    run_search,
)
from .weights import (
    ExtremalityClass,
    WeightProfile,
    classify,
    count_weight,
    full_distribution,
    min_weight,
    ms_bound,
    near_extremal_weight,
)
from .verify import VerifyReport, verify_entry

__version__ = "0.1.0"

__all__ = [
    "AlphaConstraint",
    "BetaStatus",
    "Code",
    "CodeSpec",
    "EnumeratorFamily",
    "ExtremalityClass",
    "Finding",
    "Fingerprint",
    "GammaSet",
    "Gf3Vector",
    "GuardError",
    "IntPoly",
    "InternalInconsistencyError",
    "LengthMismatchError",
    "Nega3Error",
    "NeighborCodeError",
    "NeighborError",
    "NeighborMembershipError",
    "NeighborWeightError",
    "NoveltyReport",
    "Registry",
    "RegistryEntry",
    "RegistryError",
    "SearchPlan",
    "VectorFileError",
    "VerifyReport",
    "WeightProfile",
    "alpha_constraint",
    "beta_set_matches",
    "block_row_vectors",
    "build_generator",
    "classify",
    "count_weight",
    "extended_qr48",
    "f_value",
    "fingerprint",
    "format_vector_record",
    "full_distribution",
    "gleason_basis",
    "ingest_vector_file",
    "is_self_dual",
    "load_registry",
    "min_weight",
    "ms_bound",
    "near_extremal_family",
    "near_extremal_weight",
    "neighbor",
    "neighbor_sweep",
    "novelty_report",
    "pless_symmetry",
    "read_findings",
    "row_gram_is_two",
    "run_search",
    "self_dual_violations",
    "verify_entry",
]
