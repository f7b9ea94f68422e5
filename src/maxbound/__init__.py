"""Guaranteed a-posteriori error bounds for time-dependent Maxwell solvers.

Computable majorants of the energy-norm error of approximate solutions to
the cavity Maxwell system on staggered (Yee) grids, with a forward solver,
a manufactured-solution catalog, Gronwall inequality kernels, and
parameter optimization of the bounds.
"""

__version__ = "1.0.0"

from .errors import (
    ConfigError,
    DimensionError,
    GridMismatchError,
    MaxboundError,
    ParameterError,
    PreconditionError,
    StabilityError,
    UnsupportedCaseError,
)
from .fields import EDGE, FACE, FieldTrajectory, GridSpec, MaterialField, StaggeredField
from .gronwall import (
    OracleReport,
    gronwall_differential,
    gronwall_integral,
    gronwall_oracle_check,
)
from .majorant import (
    CombinedReport,
    MajorantParams,
    MajorantReport,
    Residuals,
    ZeroTermParts,
    certify,
    combined_estimate,
    default_Y,
    residuals,
    true_error_norms,
    zero_term_parts,
)
from .operators import (
    curl_edge_to_face,
    curl_face_to_edge,
    gradient_node_to_edge,
    weighted_inner,
    weighted_norm_sq,
    zero_tangential,
)
from .optimize import (
    BoundQuadratic,
    OptimizeConfig,
    certify_gamma_rho,
    conjugate_gradient,
    golden_section,
    optimize_Y,
    optimize_all,
    optimize_gamma_rho,
)
from .problem import (
    ManufacturedCase,
    ProblemData,
    assemble_problem,
    bump_field,
    bump_field_dt,
    cavity_mode,
    get_case,
    perturb,
    polynomial_source,
)
from .snapshot import load_snapshot, save_snapshot
from .solver import SolveOutput, cfl_limit, exact_reference, leapfrog_solve, project_exact
