"""Finite semigroup analysis: Green's relations, egg-box structure, and
permutation/involution matchings onto inverses."""

from .errors import (
    CapExceededError,
    EntryRangeError,
    LiftFailureError,
    NotAssociativeError,
    NotOrthodoxError,
    NotRegularDClassError,
    NotRegularError,
    NotRegularMatrixError,
    SemigroupError,
    TableFormatError,
)
from .factors import (
    BandDecomposition,
    PrincipalFactor,
    SimilarityVerdict,
    ZeroRectBand,
    d_class_band,
    h_quotient_band,
    maximal_rect_subbands,
    principal_factor,
    principal_factors,
    similarity_check,
)
from .green import (
    EggBox,
    GreenArrays,
    GreenStructure,
    green_arrays,
    green_classes,
)
from .matching import (
    DEFAULT_BRUTE_CAP,
    METHODS,
    CharacterizationReport,
    ClauseResult,
    HallCertificate,
    Matching,
    MatchingCount,
    TutteBarrier,
    VerifyResult,
    count_permutation_matchings,
    decide,
    decide_orthodox_matching,
    find_involution_matching,
    find_permutation_matching,
    formula_characterizations,
    hall_brute_force,
    lift_band_matching,
    orthodox_involution,
    verify_barrier,
    verify_matching,
)
from .structure import (
    ClassificationFlags,
    InverseSets,
    InverseSquare,
    classify,
    find_inverse_square,
    gamma_structure,
    idempotents,
    inverse_matrix,
    inverse_sets,
    is_orthodox,
    orthodoxy_witness,
)
from .table import (
    DEFAULT_SIZE_CAP,
    BoolStructureMatrix,
    MulTable,
    direct_product,
    full_transformation,
    parse_table,
    rectangular_band,
    rees_matrix,
    render_table,
)

__version__ = "0.1.0"
