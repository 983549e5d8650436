"""cstarlab: numerical laboratory for operator convexity and C*-convex sets.

Hermitian matrix kernel, C*-convex/log-convex combinations, sampling-based
falsifiers for Jensen-type operator inequalities and set-closure statements,
and constructive membership in the C*-convex hull of a Hermitian matrix.
"""

from .errors import (
    CstarlabError,
    DimensionMismatchError,
    DomainError,
    HermitianDefectError,
    InputError,
    NonPositiveError,
    NumericalError,
    UnboundedIntervalError,
)
from .hermitian import (
    DEFAULT_TOL,
    HermitianMatrix,
    LoewnerResult,
    SpectralDecomposition,
    SpectrumInterval,
    ToleranceConfig,
    apply_function,
    eig_hermitian,
    geometric_mean,
    haar_unitary,
    loewner_leq,
    sample_hermitian,
)
from .functions import (
    ScalarFunctionSpec,
    catalog,
    constant_function,
    parse_function,
    polynomial_function,
    power_function,
)
from .combinations import (
    CoefficientTuple,
    KrausMap,
    TupleValidation,
    UnitalMapFamily,
    apply_combination,
    apply_log_combination,
    sample_map_family,
    sample_tuple,
    validate_tuple,
)
from .convexity import (
    Counterexample,
    TestVerdict,
    epigraph_closure_test,
    harmonic_sum_closure_test,
    interval_set_falsifier,
    jensen_test,
    log_epigraph_closure_test,
    log_harmonic_jensen_test,
    log_midpoint_test,
    midpoint_convexity_test,
    sublevel_family_test,
)
from .hull import (
    FeasibilityResult,
    HullCertificate,
    HullWitness,
    OracleResult,
    WitnessCheck,
    hull_membership,
    lch_membership,
    sample_hull_member,
    spectral_interval_oracle,
    two_point_witness,
    witness_to_tuple,
)
from .recheck import RecheckResult, recheck_payload

__version__ = "0.1.0"
