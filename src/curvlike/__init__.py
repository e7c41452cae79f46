"""curvlike: pointwise curvature-like tensor algebra.

Builds curvature-like tensors from bundle-valued symmetric forms through the
algebraic Gauss equation, evaluates the Chen-Ricci and improved Chen-Ricci
bounds, classifies their equality configurations, and maps the abstract
quantities to space-form ambient models.
"""

__version__ = "0.1.0"

from .ambient_models import (
    AmbientKind,
    AmbientModel,
    SlantStructure,
    application_bounds,
    build_slant_structure,
    intrinsic_ricci,
    ricci_offset,
)
from .errors import CurvlikeError, ValidationError
from .gauss_bounds import (
    BoundMode,
    BoundReport,
    CorollaryTriple,
    EqualityClass,
    EqualityTag,
    bound_coefficient,
    build_T_from_zeta,
    check_bound,
    corollary_triple,
    equality_directions,
    is_totally_symmetric,
)
from .instance_io import (
    Instance,
    StructureInfo,
    instance_sha256,
    load_instance,
    loads_instance,
    save_instance,
)
from .optim_lemmas import (
    ConstrainedQuadratic,
    Objective,
    brute_force_max,
    f1_max_closed,
    f2_max_closed,
    f_value,
    max_ricci,
)
from .structures import (
    Family,
    FamilyParams,
    RigidityVerdict,
    construct_family,
    umbilical_rigidity_witness,
)
from .tensor_core import (
    DEFAULT_TOL,
    BundleValuedForm,
    CurvatureLikeTensor,
    Dimensions,
    SymmetryReport,
    as_unit_vector,
    null_space,
    pair_exchange_residual,
    rotate_frame,
    t_ricci,
    t_ricci_form,
    t_scalar,
    t_sectional,
    trace_norms_sq,
    traces,
    validate_curvature_symmetries,
    zeta_norm_sq,
)

__all__ = [
    "__version__",
    # tensor_core
    "DEFAULT_TOL",
    "Dimensions",
    "BundleValuedForm",
    "CurvatureLikeTensor",
    "SymmetryReport",
    "as_unit_vector",
    "validate_curvature_symmetries",
    "pair_exchange_residual",
    "t_sectional",
    "t_ricci_form",
    "t_ricci",
    "t_scalar",
    "zeta_norm_sq",
    "traces",
    "trace_norms_sq",
    "rotate_frame",
    "null_space",
    # gauss_bounds
    "BoundMode",
    "EqualityTag",
    "EqualityClass",
    "BoundReport",
    "CorollaryTriple",
    "build_T_from_zeta",
    "bound_coefficient",
    "is_totally_symmetric",
    "check_bound",
    "equality_directions",
    "corollary_triple",
    # optim_lemmas
    "Objective",
    "ConstrainedQuadratic",
    "f_value",
    "f1_max_closed",
    "f2_max_closed",
    "brute_force_max",
    "max_ricci",
    # ambient_models
    "AmbientKind",
    "AmbientModel",
    "ricci_offset",
    "application_bounds",
    "intrinsic_ricci",
    "SlantStructure",
    "build_slant_structure",
    # structures
    "Family",
    "FamilyParams",
    "construct_family",
    "RigidityVerdict",
    "umbilical_rigidity_witness",
    # instance_io
    "Instance",
    "StructureInfo",
    "load_instance",
    "loads_instance",
    "save_instance",
    "instance_sha256",
    # errors
    "CurvlikeError",
    "ValidationError",
]
