"""Metric operators and positive inner products for non-Hermitian matrices.

The package classifies dense complex matrices along the chain
Hermitian < quasi-Hermitian < pseudo-Hermitian, constructs the metric
operators that witness each class (positive-definite ones when the spectrum
is real, indefinite canonical ones otherwise), Hermitizes by the metric
square root, and builds the antilinear symmetries equivalent to metric
existence.  A lattice Klein-Gordon module applies the machinery to the free
relativistic field, contrasting the conserved positive-definite inner
product with the indefinite Klein-Gordon one.
"""

from .errors import (
    EigFailure,
    EmptyPhysicalSpace,
    GridMismatch,
    InvalidGrid,
    NoPositiveMetric,
    NonDiagonalizableError,
    NotAMetric,
    NotCommuting,
    NotInvertible,
    NotPositiveDefinite,
    ParseError,
    PseudohermError,
    TimeMismatch,
    UnpairedEigenvalue,
)
from .linalg import (
    KAPPA_MAX,
    Spectrum,
    eig_full,
    herm_residual,
    herm_sqrt,
    norm_lower_bound,
    spectral_norm,
)
from .metrics import (
    Classification,
    MetricOperator,
    OperatorClass,
    REALITY_TOL,
    antilinear_residual,
    antilinear_symmetry,
    build_general_metric,
    build_positive_metric,
    classify,
    decide_class,
    eta_inner,
    hermitize,
    pair_spectrum,
    transform_metric,
    verify_intertwining,
)
from .physical import (
    PhysicalSubspace,
    indefinite_physical_set,
    norm_signs,
    restrict_to_physical,
)
from .kleingordon import (
    FourierGrid,
    FVModes,
    KGState,
    d_power,
    evolve,
    fv_components,
    fv_hamiltonian,
    fv_modes,
    fv_propagate,
    kg_inner,
    make_grid,
    pd_inner,
    position_fields,
    random_state,
    sector_decompose,
    sigma3_metric,
)
from .models import (
    EnsembleSpec,
    generate,
    jordan_block,
    pt2x2,
)

__version__ = "0.1.0"
