"""Exact analysis of bipartite boxes and hidden-variable models.

All arithmetic happens in the ordered field Q(sqrt(2)); see
:mod:`hvlab.scalar`.  The public surface re-exported here covers the
library API; the command line lives in :mod:`hvlab.cli`.
"""

from .bell import BellExpression, DeterministicStrategy, chsh, evaluate, local_bound, ns_bound
from .boxes import (
    Behavior,
    JointTable,
    LabelSet,
    NsWitness,
    ProductWitness,
    Tensor,
    ValidityReport,
    check_product,
    deterministic_behavior,
    is_no_signalling,
    marginal,
    mix,
    uniform_behavior,
    validate_behavior,
)
from .catalog import (
    CatalogEntry,
    alpha,
    appendix_a_model,
    classical_model,
    entries,
    noise_box,
    pr_box,
    signalling_box,
    table1_box,
)
from .decompose import (
    LocalDecomposition,
    content_lp_problem,
    decomposition_to_model,
    enumerate_local_vertices,
    max_local_content,
    verify_decomposition,
)
from .errors import (
    BadPartition,
    DimensionMismatch,
    DivisionByZero,
    FileFormatError,
    HvlabError,
    InvalidBehavior,
    InvalidDecomposition,
    InvalidDistribution,
    InvalidJointTable,
    InvalidModel,
    IrrationalMatrix,
    LpFailure,
    MalformedScalar,
    NotLocal,
    OversizedScalar,
    SignallingInput,
    SizeBudgetExceeded,
    SpaceMismatch,
    UnknownOutcome,
    UnknownSetting,
    WeightSumMismatch,
    ZeroDenominator,
)
from .hvmodel import (
    ExtendedModel,
    HiddenVariableModel,
    LocalityWitness,
    TrivialityWitness,
    WExtension,
    check_locality,
    check_triviality,
    first_mover_joint,
    guessing_probability,
    marginalize_nonlocal,
    nontrivial_weight,
    reconstruct,
    uniform_distribution,
    validate_model,
)
from .scalar import HALF, ONE, SQRT2, ZERO, Scalar, as_scalar, compare, format_scalar, parse_scalar
from .simplex import LpProblem, LpSolution, check_certificate, solve_lp

__version__ = "0.1.0"
