"""cstarlab: numerical laboratory for operator convexity and C*-convex sets.

Hermitian matrix kernel, C*-convex/log-convex combinations, sampling-based
falsifiers for Jensen-type operator inequalities and set-closure statements,
and constructive membership in the C*-convex hull of a Hermitian matrix.

Importing the package loads no submodule: each name below resolves on first
access (PEP 562), so the CLI parser runs without numpy and a command loads
only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "CstarlabError",
        "DimensionMismatchError",
        "DomainError",
        "HermitianDefectError",
        "InputError",
        "NonPositiveError",
        "NumericalError",
        "UnboundedIntervalError",
    ), "errors"),
    **dict.fromkeys((
        "DEFAULT_TOL",
        "HermitianMatrix",
        "LoewnerResult",
        "SpectralDecomposition",
        "SpectrumInterval",
        "ToleranceConfig",
        "apply_function",
        "eig_hermitian",
        "geometric_mean",
        "haar_unitary",
        "loewner_leq",
        "sample_hermitian",
    ), "hermitian"),
    **dict.fromkeys((
        "ScalarFunctionSpec",
        "catalog",
        "constant_function",
        "parse_function",
        "polynomial_function",
        "power_function",
    ), "functions"),
    **dict.fromkeys((
        "CoefficientTuple",
        "KrausMap",
        "TupleValidation",
        "UnitalMapFamily",
        "apply_combination",
        "apply_log_combination",
        "sample_map_family",
        "sample_tuple",
        "validate_tuple",
    ), "combinations"),
    **dict.fromkeys((
        "Counterexample",
        "TestVerdict",
        "epigraph_closure_test",
        "harmonic_sum_closure_test",
        "interval_set_falsifier",
        "jensen_test",
        "log_epigraph_closure_test",
        "log_harmonic_jensen_test",
        "log_midpoint_test",
        "midpoint_convexity_test",
        "sublevel_family_test",
    ), "convexity"),
    **dict.fromkeys((
        "FeasibilityResult",
        "HullCertificate",
        "HullWitness",
        "OracleResult",
        "WitnessCheck",
        "hull_membership",
        "lch_membership",
        "sample_hull_member",
        "spectral_interval_oracle",
        "two_point_witness",
        "witness_to_tuple",
    ), "hull"),
    **dict.fromkeys(("RecheckResult", "recheck_payload"), "recheck"),
}

# the submodules a star import binds; `cli` is loaded only when named
_SUBMODULES = ("errors", "hermitian", "functions", "combinations", "convexity", "hull",
               "io", "recheck")

__all__ = [*_EXPORTS, *_SUBMODULES]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES or name == "cli":
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, "cli"})
