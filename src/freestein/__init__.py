"""Free Stein kernels, Stein discrepancies and free Poincare constants.

Exact symbolic calculus for noncommutative polynomials, moment
functionals with table / free-cumulant / random-matrix backends, and
the numerical pipelines built on them: Stein identity residuals,
minimal kernels on truncated Jacobian spans, Poincare constant
estimates and free central-limit rate experiments.
"""

from .algebra import (
    ComplexRational,
    KernelMatrix,
    NcPoly,
    TensorPoly,
    cyclic_derivative,
    cyclic_gradient,
    delta,
    explicit_kernel,
    jacobian,
    partial_derivative,
    quadratic_potential,
)
from .clt import CltExperiment, clt_rate_table, rescale_cumulants, rows_to_csv
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    FreesteinError,
    InadmissibleProblemError,
    InvalidStateError,
    ParseError,
)
from .matrixmodels import (
    EnsembleConfig,
    GueGenerator,
    PolyOfGueGenerator,
    mc_moment_table,
    moment_table_from_matrices,
    sample_gue,
)
from .partitions import catalan, noncrossing_partitions
from .poincare import (
    BianeGapReport,
    PoincareEstimate,
    VoiculescuBound,
    biane_gap_check,
    poincare_lower_bound,
    voiculescu_bound,
)
from .states import (
    CumulantSpec,
    CumulantState,
    MomentFunctional,
    MomentTable,
    NormEstimate,
    centered_free_poisson,
    check_state,
    cumulants_to_moment,
    inner_matrix,
    inner_tuple,
    moment_of_poly,
    moments_to_cumulants,
    operator_norm_estimate,
    semicircular,
    tensor_moment,
    validate_state,
)
from .stein import (
    DiscrepancyReport,
    ExplicitKernelDistance,
    MinimalKernelResult,
    SteinProblem,
    TruncationBasis,
    discrepancy_bounds,
    explicit_kernel_distance_sq,
    minimal_kernel,
    stein_residual,
)

__version__ = "0.1.0"
