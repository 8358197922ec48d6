"""opkit: exact decomposition certificates for commuting polynomial operators.

The package certifies identities of the form ``1 = sum_J Q_J * P^J`` over a
factored polynomial operator ``P = P_0 ... P_l``, plans optimal factor
regroupings through Groebner-basis ideal-membership tests, applies the
certificates to split inhomogeneous problems, constrained systems and
symmetry computations into lower-order pieces, and cross-checks every
identity on exact finite-dimensional matrix instances.

All arithmetic is exact (arbitrary-precision rationals); every certificate
is machine-verified before it is returned.
"""

from .backend import (
    AffineSolutionSet,
    Factorization,
    Matrix,
    OperatorInstance,
    instantiate,
    kernel_basis,
    make_truncated_derivative_instance,
    range_member,
    solve_affine,
)
from .certify import (
    Certificate,
    DualCertificate,
    UnivariateSpec,
    alpha_to_dual,
    alpha_to_dual_system,
    dual_certificate,
    dual_to_alpha,
    plan_dual_certificate,
    true_decomposition_certificate,
    univariate_certificate,
    univariate_factors,
    verify_certificate,
)
from .errors import (
    InputError,
    IntegrabilityError,
    MembershipError,
    OpkitError,
    ParseError,
    ResourceLimitError,
    VerificationError,
)
from .groebner import (
    BezoutCertificate,
    contains_one,
    divide_multi,
)
from .planner import (
    DecompositionPlan,
    SetSystem,
    alpha_l,
    alpha_u,
    beta_min,
    coincidence_graph,
    lower_set,
    max_elements,
    min_elements,
    optimal_alpha,
    plan_decomposition,
    upper_set,
)
from .poly import (
    DEFAULT_ORDER,
    MonomialOrder,
    Polynomial,
    format_polynomial,
    parse_polynomial,
)
from .reducer import (
    ReductionReport,
    SystemCertificate,
    find_system_certificate,
    kernel_structure,
    map_B,
    map_F,
    split,
    system_split,
)
from .symmetry import (
    FormalSymmetry,
    GeneralizedSymmetry,
    enumerate_formal_symmetries,
    formal_from_generalized,
    generalized_from_formal,
    is_formal_symmetry,
    projector,
)

__version__ = "0.1.0"
