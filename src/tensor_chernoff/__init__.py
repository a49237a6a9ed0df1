"""Hermitian tensor algebra, Ky Fan norm inequalities, and expander-walk tail bounds."""

__version__ = "0.1.0"

from .errors import (
    ArgumentError,
    ConfigError,
    DomainError,
    NumericalError,
    PreconditionError,
    ShapeError,
    TensorChernoffError,
)
from .tensors import (
    HermitianTensor,
    Spectrum,
    Tensor,
    TensorShape,
    abs_tensor,
    as_hermitian,
    col_tensor,
    complex_power,
    conj_transpose,
    einstein_product,
    frobenius_norm,
    hermitian_det,
    hermitian_eig,
    inner_product,
    kronecker,
    make_identity,
    make_zero,
    spectral_map,
    tensor_exp,
    tensor_log,
    trace,
)
from .norms import (
    gauge_rho,
    k_trace,
    ky_fan_norm,
    schatten_norm,
    singular_values,
    spectral_norm,
)
from .majorization import (
    SortedVec,
    check_kyfan_sum_inequality,
    log_majorizes,
    majorizes,
    weak_log_majorizes,
    weak_majorizes,
)
from .inequalities import (
    PowerProductSpectrum,
    QuadratureSpec,
    beta0_density,
    beta_density,
    golden_thompson_lhs,
    golden_thompson_rhs_linear,
    golden_thompson_rhs_log,
    lie_trotter_error,
    verify_discrete_average_majorization,
)
from .graphs import (
    RegularGraph,
    gen_complete,
    gen_cycle,
    gen_hypercube,
    gen_random_regular,
    normalized_adjacency,
    sample_walks_array,
    spectral_expansion,
)
from .chernoff import (
    ChernoffParams,
    DominationFit,
    PolynomialSpec,
    VertexTensorAssignment,
    contraction_certificate,
    corollary_bound,
    empirical_tail,
    expectation_bound,
    fit_gaussian_domination,
    gamma_bounds,
    random_assignment,
    theorem_bound,
    transfer_expectation,
)
from .io import load_tensor, save_tensor
