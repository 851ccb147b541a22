"""Exact graded symmetric-group representation theory of spanning line
configurations, computed two independent ways: a closed tableau formula
and a brute-force quotient-ring oracle.
"""

__version__ = "0.1.0"

from .combinat import (
    GradedPoly,
    Partition,
    StandardTableau,
    count_partitions_bounded,
    des,
    des_maj_counts,
    maj,
    pad,
    partitions_of,
    q_binomial,
    syt_count,
    syt_enumerate,
    unpad,
    z_lambda,
)
from .errors import NotACharacterError, PaddingError, ScaleGuardError
from .formula import (
    Elementary,
    FixedCodim,
    FixedK,
    Homogeneous,
    delta_eigenvalue,
    grfrob_tableaux,
    shape_multiplicity,
    stable_multiplicity,
)
from .oracle import (
    character_on_quotient,
    complete_sym,
    decompose_coinvariants,
    decompose_super_coinvariants,
    decompose_superspace,
    elementary_sym,
    grassmann_quotient,
    quotient_basis,
    super_coinvariant_table,
)
from .stability import (
    MultiplicitySequence,
    StabilityReport,
    detect_onset,
    first_row_extension_bijective,
    multiplicity_sequence,
)
from .superspace import (
    SuperMonomial,
    SuperPoly,
    d_theta,
    d_x,
    frobenius_of_closure,
    harmonic_closure,
    polarization,
    superspace_vandermonde,
    vandermonde_derivative_identity,
)
from .symfun import (
    ClassFunction,
    GradedFrobenius,
    SchurExpansion,
    dimension,
    expansion_character,
    irr_character,
    omega,
    q_reverse,
    schur_decompose,
)
