"""specloc: gap certificates, Clifford periodicity reductions, homotopy
certification, and spectral-localizer index pairings for concretely
represented operator systems."""

__version__ = "0.1.0"

from .linalg import (
    DEFAULT_POLICY,
    Inertia,
    Spectrum,
    TolerancePolicy,
    direct_sum,
    doubled_matrix,
    hermitian_spectrum,
    is_self_adjoint,
    is_singular,
    min_singular_value,
    operator_norm,
    residual_ok,
    verify_similarity,
)
from .gap import (
    GapCertificate,
    OperatorElement,
    bordered,
    delta_singular_check,
    identity_element,
    max_delta,
    operator_element,
    sigma_spectrum,
)
from .clifford import (
    CliffordRep,
    clifford_rep,
    embed_low,
    graded_part,
    reduce_periodic,
    relation_residuals,
    verify_doubling,
)
from .homotopy import (
    HomotopyPath,
    KClassWitness,
    PathCertificate,
    contract_invertible,
    direct_sum_class,
    distinct_by_index,
    equal_certified,
    make_witness,
    stabilize,
    verify_path,
)
from .localizer import (
    LocalizerReport,
    RegionDescription,
    SpectralTriple,
    build_reduced,
    commutator_norm,
    even_triple,
    index,
    localizer_halves,
    odd_triple,
    valid_region,
)
from .models import (
    bilateral_shift_truncation,
    circle_dirac,
    circle_unitary_truncation,
    random_gapped,
    winding_demo,
)
