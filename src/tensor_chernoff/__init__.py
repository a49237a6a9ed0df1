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
    hermitian_eig,
    inner_product,
    kronecker,
    make_identity,
    spectral_map,
    tensor_exp,
    trace,
)
from .norms import (
    gauge_rho,
    k_trace,
    ky_fan_norm,
    singular_values,
)
from .majorization import check_kyfan_sum_inequality
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
    empirical_tail_sweep,
    expectation_bound,
    fit_gaussian_domination,
    gamma_bounds,
    random_assignment,
    theorem_bound,
    transfer_expectation,
)
from .io import load_tensor, save_tensor
