"""Reference-element toolkit for H(div) finite elements on rectangles.

Element spaces (RT, BDM, ABF on the unit square), their degrees of freedom,
moment-based interpolation, L2 projection onto the divergence image, Piola
transport to physical rectangles, and a refinement-study harness that fits
empirical convergence rates against directional predictions.
"""

from types import ModuleType as _ModuleType

from .elements import (
    ElementFamily,
    ElementSpace,
    MAX_DEGREE,
    ScalarSpace,
    SpaceMember,
    build_div_space,
    build_space,
    space_dimension,
    span_check,
)
from .dofs import DofFunctional, DofSet, build_dofs
from .fields import (
    CallableField,
    FIELD_IDS,
    MS_G,
    MS_X,
    MS_Y,
    ManufacturedField,
    ReproductionField,
    commuting_battery,
    env_seed,
    get_field,
    make_reproduction_field,
)
from .harness import (
    ConvergenceTable,
    ErrorRecord,
    MODES,
    PhysicalRect,
    PulledBackField,
    StudyConfig,
    bdm_sharpness_witness,
    default_suite_configs,
    error_Lp,
    norm_Lp,
    piola_push,
    run_refinement_study,
    theorem_suite,
)
from .interpolation import (
    InterpolationOperator,
    L2Projector,
    OperatorConstructionError,
    commuting_residuals,
    reference_operator,
    reference_projector,
    unisolvence_report,
)
from .poly import Polynomial2D, VectorPoly2D, curl_scalar, divergence
from .quadrature import (
    QuadratureRule1D,
    QuadratureRule2D,
    gauss_legendre_01,
    n_for_degree,
    tensor_rule,
)

__version__ = "0.1.0"

# every name imported above; submodules are attributes of the package but not exports
__all__ = sorted(name for name, value in vars().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
