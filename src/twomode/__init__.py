"""Computable entanglement measures for two-mode Gaussian states.

The package covers the two families that admit exact evaluation on
two-mode Gaussian states: PPT-based negativities, which depend only on the
smallest symplectic eigenvalue of the partially transposed covariance
matrix, and Gaussian convex-roof measures, obtained by minimizing over pure
Gaussian decompositions.  It also builds the extremal-negativity families
(GMEMS / GLEMS / GMEMMS), compares the orderings the two measure families
induce on them, and runs the random-state experiments probing the bound
curves that tie one family to the other.
"""

from .bounds import (
    BoundPoint,
    ExperimentResult,
    Sample,
    SamplerConfig,
    bound_curves,
    bound_experiment,
    geof_bounds,
    iter_samples,
    nu_opt_lower,
    nu_opt_upper,
)
from .errors import (
    DomainError,
    MalformedInputError,
    MinimizationError,
    NotSymmetricError,
    SamplingError,
    TwoModeError,
    UnphysicalStateError,
)
from .extremal import (
    BoundaryPoint,
    ColumnTable,
    Entanglement,
    ExtremalParams,
    OrderingVerdict,
    Regime,
    ScanCell,
    build_state,
    classify_entanglement,
    glems_threshold,
    gmems_threshold,
    m_max,
    m_opt_glems,
    m_opt_gmemms,
    m_opt_gmems,
    nu_tilde_glems,
    nu_tilde_gmems,
    ordering_compare,
    scan_ordering_3d,
    scan_ordering_slice,
)
from .gaussian_em import (
    GammaCoordinates,
    GemResult,
    gamma_from_theta,
    gaussian_eof,
    m_from_nu_tilde,
    m_theta,
    minimize_m,
    nu_tilde_from_m,
)
from .negativity import (
    NegativityReport,
    eof_symmetric,
    h_function,
    is_separable_ppt,
    log_negativity,
    negativity,
    negativity_report,
)
from .symplectic import (
    DEFAULT_TOL,
    OMEGA,
    StandardForm,
    SymplecticInvariants,
    SymplecticSpectrum,
    cm_from_json_dict,
    global_purity,
    local_invariants,
    local_purities,
    make_two_mode_squeezed,
    partial_transpose,
    spectrum_via_eigenvalues,
    symplectic_spectrum,
    to_standard_form,
    validate_physical,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
