import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarlab import (
    DEFAULT_TOL,
    CoefficientTuple,
    DimensionMismatchError,
    DomainError,
    HermitianMatrix,
    InputError,
    NonPositiveError,
    NumericalError,
    ScalarFunctionSpec,
    SpectrumInterval,
    TestVerdict,
    epigraph_closure_test,
    harmonic_sum_closure_test,
    hull_membership,
    interval_set_falsifier,
    jensen_test,
    log_epigraph_closure_test,
    log_harmonic_jensen_test,
    log_midpoint_test,
    midpoint_convexity_test,
    parse_function,
    recheck_payload,
    sublevel_family_test,
)
from cstarlab import convexity
from cstarlab.errors import CstarlabError
from cstarlab.convexity import Counterexample
from cstarlab.io import (
    canonical_dumps,
    counterexample_to_payload,
    encode_complex_matrix,
    feasibility_to_payload,
    verdict_to_payload,
)

from conftest import non_native_leaves, specnorm

T1 = parse_function("t")
T15 = parse_function("t^1.5")
T2 = parse_function("t^2")
T4 = parse_function("t^4")
TINV = parse_function("t^-1")
POINT = ScalarFunctionSpec("point", SpectrumInterval(1.0, 1.0), lambda t: t)
NONPOS = ScalarFunctionSpec("nonpos", SpectrumInterval(hi=0.0), lambda t: t * t)


def recheck_ok(ce):
    result = recheck_payload(counterexample_to_payload(ce))
    assert result.ok, result
    return result


ORDER_SUITES = {
    "midpoint": lambda f, dim=2, m=2: midpoint_convexity_test(f, dim, 10, seed=1),
    "jensen": lambda f, dim=2, m=2: jensen_test(f, "tuple", dim, m, 10, seed=1),
    "log-midpoint": lambda f, dim=2, m=2: log_midpoint_test(f, dim, 10, seed=1),
    "log-harmonic": lambda f, dim=2, m=2: log_harmonic_jensen_test(f, dim, m, 10, seed=1),
    "epigraph": lambda f, dim=2, m=2: epigraph_closure_test(f, dim, m, 10, seed=1),
    "log-epigraph": lambda f, dim=2, m=2: log_epigraph_closure_test(f, dim, m, 10, seed=1),
}
DIM_M_MSG = "dim and m must be at least 1"
NO_POSITIVE_MSG = "domain (-inf, 0.0] has no positive part to sample"
TOO_SMALL_MSG = "domain [1.0, 1.0] is too small to sample"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ORDER_SUITES["midpoint"](T2, dim=0), InputError, "dim must be at least 1"),
        *[(lambda s=s: ORDER_SUITES[s](T2, dim=0), InputError, DIM_M_MSG)
          for s in ("jensen", "log-harmonic", "epigraph", "log-epigraph")],
        *[(lambda s=s: ORDER_SUITES[s](T2, m=0), InputError, DIM_M_MSG)
          for s in ("jensen", "log-harmonic", "epigraph", "log-epigraph")],
        (lambda: jensen_test(T2, "bogus", 2, 2, 10, seed=1), InputError,
         "unknown jensen mode 'bogus'"),
        (lambda: jensen_test(T2, "isometry", 2, 2, 10, seed=1), InputError,
         "isometry mode requires m = 1"),
        (lambda: jensen_test(POINT, "map-family", 2, 2, 10, seed=1), InputError, TOO_SMALL_MSG),
        *[(lambda s=s, z=z: s(T2, 2, 2, 10, seed=1, noise_scale=z), InputError,
           f"noise_scale must be finite and non-negative, got {z}")
          for s in (epigraph_closure_test, log_epigraph_closure_test)
          for z in (-1.0, float("nan"), float("inf"))],
        *[(lambda s=s: ORDER_SUITES[s](POINT), InputError, TOO_SMALL_MSG) for s in ORDER_SUITES],
        *[(lambda s=s: ORDER_SUITES[s](NONPOS), InputError, NO_POSITIVE_MSG)
          for s in ("log-midpoint", "log-harmonic", "log-epigraph")],
        (lambda: sublevel_family_test([], 2, 2, 10, seed=1), InputError,
         "the function family is empty"),
        (lambda: sublevel_family_test([(T2, 4.0)], 0, 2, 10, seed=1), InputError, DIM_M_MSG),
        (lambda: sublevel_family_test([(T2, 4.0)], 2, 0, 10, seed=1), InputError, DIM_M_MSG),
        (lambda: sublevel_family_test([(POINT, 4.0)], 2, 2, 10, seed=1), InputError,
         "joint domain is too small to sample"),
        (lambda: sublevel_family_test([(T2, -1.0)], 2, 2, 10, seed=1), InputError,
         "sublevel bounds are infeasible over the sampled window"),
        (lambda: interval_set_falsifier(HermitianMatrix(np.diag([-1.0, 2.0])), 10, seed=1),
         NonPositiveError, "A must be positive semidefinite (min eig -1.000e+00)"),
        (lambda: harmonic_sum_closure_test(HermitianMatrix(np.diag([0.0, 1.0])),
                                           HermitianMatrix(np.eye(2)), 10, seed=1),
         NonPositiveError, "T1 must be strictly positive (min eig 0.000e+00)"),
        (lambda: harmonic_sum_closure_test(HermitianMatrix(np.eye(2)),
                                           HermitianMatrix(np.eye(3)), 10, seed=1),
         DimensionMismatchError, "dims 2 and 3 differ"),
    ],
)
def test_suite_input_errors(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


class TestMidpoint:
    def test_square_is_clean(self):
        v = midpoint_convexity_test(T2, 2, 500, seed=42)
        assert v.status == "no-violation-found"
        assert v.worst_margin >= -1e-8

    def test_quartic_violates_quickly(self):
        v = midpoint_convexity_test(T4, 2, 1000, seed=42)
        assert v.violated
        assert v.counterexample.violation < -1e-6
        recheck_ok(v.counterexample)

    def test_scalar_case_reduces_to_convexity(self):
        for f in (T2, T4, parse_function("poly:0,1,3")):
            v = midpoint_convexity_test(f, 1, 300, seed=5)
            assert v.status == "no-violation-found"

    def test_verdict_consistency(self):
        with pytest.raises(InputError):
            TestVerdict(status="violated", samples_run=1, worst_margin=-1.0)


class TestJensen:
    def test_linear_function_equality(self):
        for mode, m in (("isometry", 1), ("tuple", 3), ("map-family", 2)):
            v = jensen_test(T1, mode, 3, m, 100, seed=7)
            assert v.status == "no-violation-found"
            assert abs(v.worst_margin) <= 1e-12

    def test_power_15_clean(self):
        v = jensen_test(T15, "tuple", 3, 3, 500, seed=42)
        assert v.status == "no-violation-found"

    def test_quartic_violates(self):
        v = jensen_test(T4, "tuple", 2, 2, 1000, seed=42)
        assert v.violated
        recheck_ok(v.counterexample)

    def test_isometry_mode_equality_margins(self):
        # f(U* X U) = U* f(X) U holds exactly in exact arithmetic
        for f in (T1, T15, T2, T4, TINV):
            v = jensen_test(f, "isometry", 3, 1, 200, seed=11)
            assert v.status == "no-violation-found"
            assert abs(v.worst_margin) <= 1e-8

    def test_map_family_choi_davis_jensen(self):
        v = jensen_test(T2, "map-family", 3, 3, 400, seed=42)
        assert v.status == "no-violation-found"

    def test_isometry_requires_single_coefficient(self):
        with pytest.raises(InputError):
            jensen_test(T2, "isometry", 2, 2, 10, seed=0)

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            jensen_test(T2, "kraus", 2, 2, 10, seed=0)


class TestLogMidpoint:
    def test_inverse_clean(self):
        v = log_midpoint_test(TINV, 3, 500, seed=42)
        assert v.status == "no-violation-found"
        assert v.worst_margin >= -1e-8

    def test_identity_function_violates(self):
        # scalar AM-GM already fails: X=1, Y=4 gives 2.5 > 2
        v = log_midpoint_test(T1, 1, 200, seed=3)
        assert v.violated
        recheck_ok(v.counterexample)

    def test_scalar_instance_values(self):
        x = HermitianMatrix([[1.0]])
        y = HermitianMatrix([[4.0]])
        from cstarlab import geometric_mean

        mid = (x.array + y.array) / 2
        assert float(mid[0, 0].real) == 2.5
        assert abs(float(geometric_mean(x, y).array[0, 0].real) - 2.0) < 1e-12

    def test_commuting_diagonals_match_scalar_log_convexity(self):
        # on commuting inputs the inequality is the scalar one:
        # 1/((x+y)/2) <= sqrt(1/x * 1/y) for positive x, y
        rng = np.random.default_rng(9)
        for _ in range(50):
            x, y = rng.uniform(0.1, 5.0, 2)
            lhs = 1.0 / ((x + y) / 2)
            rhs = np.sqrt((1.0 / x) * (1.0 / y))
            assert lhs <= rhs + 1e-12

    def test_commuting_diagonal_matrices_entrywise(self):
        from cstarlab import apply_function, geometric_mean

        rng = np.random.default_rng(10)
        for _ in range(20):
            xd = rng.uniform(0.1, 5.0, 3)
            yd = rng.uniform(0.1, 5.0, 3)
            x, y = HermitianMatrix(np.diag(xd)), HermitianMatrix(np.diag(yd))
            lhs = apply_function(TINV, HermitianMatrix((x.array + y.array) / 2))
            rhs = geometric_mean(apply_function(TINV, x), apply_function(TINV, y))
            # both sides stay diagonal and obey the scalar inequality entrywise
            assert specnorm(lhs.array - np.diag(np.diag(lhs.array))) < 1e-12
            lhs_d, rhs_d = np.diag(lhs.array).real, np.diag(rhs.array).real
            assert np.all(lhs_d <= rhs_d + 1e-10)


class TestLogHarmonicJensen:
    def test_constant_equality(self):
        v = log_harmonic_jensen_test(parse_function("const:3.0"), 3, 2, 200, seed=6)
        assert v.status == "no-violation-found"
        assert abs(v.worst_margin) <= 1e-10

    def test_inverse_clean(self):
        for dim in (2, 3):
            v = log_harmonic_jensen_test(TINV, dim, 3, 500, seed=42)
            assert v.status == "no-violation-found"
            assert v.worst_margin >= -1e-8

    def test_square_violates_within_100(self):
        v = log_harmonic_jensen_test(T2, 2, 2, 100, seed=42)
        assert v.violated
        assert v.samples_run <= 100
        recheck_ok(v.counterexample)

    def test_exact_scalar_instance(self):
        # weights 1/2, 1/2 on x=1, y=9 for f = t^2:
        # lhs = f(5) = 25, rhs = (0.5 * 1 + 0.5/81)^{-1}
        t = CoefficientTuple([np.sqrt(0.5) * np.eye(1), np.sqrt(0.5) * np.eye(1)])
        from cstarlab import apply_combination, apply_log_combination, apply_function

        xs = [HermitianMatrix([[1.0]]), HermitianMatrix([[9.0]])]
        lhs = apply_function(T2, apply_combination(t, xs))
        fxs = [apply_function(T2, x) for x in xs]
        rhs = apply_log_combination(t, fxs)
        assert abs(float(lhs.array[0, 0].real) - 25.0) < 1e-12
        assert abs(float(rhs.array[0, 0].real) - 2.0 / (1.0 + 1.0 / 81.0)) < 1e-12
        assert abs(float(rhs.array[0, 0].real) - 1.9756) < 1e-4


class TestEpigraph:
    def test_square_closed(self):
        v = epigraph_closure_test(T2, 2, 2, 300, seed=42)
        assert v.status == "no-violation-found"

    def test_quartic_exits(self):
        v = epigraph_closure_test(T4, 2, 2, 500, seed=42)
        assert v.violated
        recheck_ok(v.counterexample)

    def test_linear_zero_noise_equality(self):
        v = epigraph_closure_test(T1, 3, 2, 100, seed=8, noise_scale=0.0)
        assert v.status == "no-violation-found"
        assert abs(v.worst_margin) <= 1e-10


class TestLogEpigraph:
    def test_single_unitary_preserves_membership(self):
        v = log_epigraph_closure_test(TINV, 3, 1, 100, seed=4)
        assert v.status == "no-violation-found"

    def test_constant_function_floor(self):
        v = log_epigraph_closure_test(parse_function("const:2.0"), 2, 2, 200, seed=5)
        assert v.status == "no-violation-found"

    def test_inverse_clean(self):
        for dim in (2, 3):
            v = log_epigraph_closure_test(TINV, dim, 2, 300, seed=42)
            assert v.status == "no-violation-found"


class TestIntervalSet:
    def test_deterministic_swap_certificate(self):
        a = HermitianMatrix(np.diag([2.0, 1.0]))
        v = interval_set_falsifier(a, seed=42)
        assert v.violated
        assert v.samples_run == 0  # found before any random sampling
        ce = v.counterexample
        assert len(ce.inputs["coeffs"]) == 1
        swap = ce.inputs["coeffs"][0]
        conj = swap.conj().T @ a.array @ swap
        assert specnorm(conj - np.diag([1.0, 2.0])) < 1e-12
        assert abs(ce.violation + 1.0) < 1e-12
        recheck_ok(ce)

    def test_identity_bound_is_cstar_convex(self):
        v = interval_set_falsifier(HermitianMatrix(np.eye(2)), 2000, seed=42)
        assert v.status == "no-violation-found"

    def test_three_dim_violates(self):
        v = interval_set_falsifier(HermitianMatrix(np.diag([3.0, 1.0, 1.0])), 500, seed=42)
        assert v.violated
        recheck_ok(v.counterexample)


class TestSublevelFamily:
    def test_power_family_closed(self):
        family = [(parse_function(lbl), 4.0 ** a) for lbl, a in (("t", 1.0), ("t^1.5", 1.5), ("t^2", 2.0))]
        v = sublevel_family_test(family, 2, 2, 200, seed=42)
        assert v.status == "no-violation-found"

    def test_norm_ball_oracle(self):
        # {X: X^2 <= I} is the Hermitian unit ball; members stay inside
        v = sublevel_family_test([(T2, 1.0)], 2, 2, 200, seed=9)
        assert v.status == "no-violation-found"

    def test_huge_bound_trivial(self):
        v = sublevel_family_test([(T2, 1e12)], 3, 2, 100, seed=2)
        assert v.status == "no-violation-found"
        assert v.worst_margin > 1e10

    def test_empty_family_rejected(self):
        with pytest.raises(InputError):
            sublevel_family_test([], 2, 2, 10, seed=0)


def harmonic_sum_counterexample() -> Counterexample:
    """A harmonic-sum counterexample built by hand: the closure is a theorem,
    so no suite finds one. T1 = diag(1, 3) and T2 = diag(0.5, 2) bound the
    set by [p(1, 0.5), p(3, 2)] = [1/3, 6/5], and the log-combination of
    Z = diag(2, 1/2) with itself, Z, exceeds 6/5 by 0.8."""
    z = HermitianMatrix(np.diag([2.0, 0.5]))
    coeffs = [np.eye(2) / np.sqrt(2.0)] * 2
    return Counterexample(kind="harmonic-sum", dim=2, inputs={"xs": [z, z], "coeffs": coeffs,
                                                            "interval": (1.0 / 3.0, 1.2)},
                          lhs=z, rhs=HermitianMatrix(np.diag([1.2, 1.2])), violation=-0.8)


# each suite's (violated, clean) verdict; the harmonic-sum closure is a
# theorem, so its violated verdict carries the counterexample built by hand
NATIVE_VERDICTS = {
    "midpoint": (lambda: midpoint_convexity_test(T4, 2, 1000, seed=42),
                 lambda: midpoint_convexity_test(T2, 2, 20, seed=1)),
    "jensen tuple": (lambda: jensen_test(T4, "tuple", 2, 2, 1000, seed=42),
                     lambda: jensen_test(T2, "tuple", 2, 2, 20, seed=1)),
    "jensen map-family": (lambda: jensen_test(T4, "map-family", 2, 2, 1000, seed=43),
                          lambda: jensen_test(T2, "map-family", 2, 2, 20, seed=1)),
    "log-midpoint": (lambda: log_midpoint_test(T2, 2, 100, seed=0),
                     lambda: log_midpoint_test(TINV, 2, 20, seed=1)),
    "log-harmonic-jensen": (lambda: log_harmonic_jensen_test(T2, 2, 2, 100, seed=42),
                            lambda: log_harmonic_jensen_test(TINV, 2, 2, 20, seed=1)),
    "epigraph": (lambda: epigraph_closure_test(T4, 2, 2, 500, seed=42),
                 lambda: epigraph_closure_test(T2, 2, 2, 20, seed=1)),
    "log-epigraph": (lambda: log_epigraph_closure_test(T1, 2, 2, 200, seed=42),
                     lambda: log_epigraph_closure_test(TINV, 2, 2, 20, seed=1, noise_scale=0.0)),
    "interval-set": (lambda: interval_set_falsifier(HermitianMatrix(np.diag([2.0, 1.0])), seed=1),
                     lambda: interval_set_falsifier(HermitianMatrix(2.0 * np.eye(3)), 20, seed=1)),
    "sublevel": (lambda: sublevel_family_test([(parse_function("poly:1,0,-2,0,1"), 0.9)], 2, 2, 300,
                                              seed=23),
                 lambda: sublevel_family_test([(T2, 4.0), (TINV, 3.0)], 2, 2, 20, seed=1)),
    "harmonic-sum": (lambda: TestVerdict("violated", samples_run=1, worst_margin=-0.8,
                                         counterexample=harmonic_sum_counterexample()),
                     lambda: harmonic_sum_closure_test(HermitianMatrix(np.diag([1.0, 3.0])),
                                                       HermitianMatrix(np.diag([0.5, 2.0])), 20,
                                                       seed=1)),
}


@pytest.mark.parametrize("violated", (True, False), ids=("violated", "clean"))
@pytest.mark.parametrize("suite", NATIVE_VERDICTS)
def test_verdict_payloads_hold_json_native_leaves(suite, violated):
    # io serializes encoder output as it stands, with no second walk
    verdict = NATIVE_VERDICTS[suite][0 if violated else 1]()
    assert verdict.violated == violated
    assert non_native_leaves(verdict_to_payload(verdict, suite=suite, dim=2)) == []


@pytest.fixture(scope="module")
def payloads():
    """One valid payload of each shape the malformed-payload tests edit,
    read back from JSON."""
    t13, outside = HermitianMatrix(np.diag([1.0, 3.0])), HermitianMatrix(np.diag([0.0, 2.0]))
    out = {
        "midpoint": midpoint_convexity_test(T4, 2, 1000, seed=42).counterexample,
        "jensen": jensen_test(T4, "tuple", 2, 2, 1000, seed=42).counterexample,
        "map-family": jensen_test(T4, "map-family", 2, 2, 1000, seed=43).counterexample,
        "epigraph": epigraph_closure_test(T4, 2, 2, 500, seed=42).counterexample,
    }
    out = {name: counterexample_to_payload(ce) for name, ce in out.items()}
    out["certificate"] = feasibility_to_payload(hull_membership(t13, outside))["certificate"]
    out = json.loads(canonical_dumps(out))
    for payload in out.values():
        assert recheck_payload(payload).ok
    return out


def _set_xs0(p, arr):
    p["inputs"]["xs"][0] = encode_complex_matrix(arr)


MALFORMED = {
    "no inputs": ("midpoint", lambda p: p.pop("inputs")),
    "one xs": ("midpoint", lambda p: p["inputs"]["xs"].pop()),
    "no violation": ("midpoint", lambda p: p.pop("violation")),
    "no function": ("midpoint", lambda p: p.pop("function")),
    "non-numeric violation": ("midpoint", lambda p: p.update(violation="abc")),
    "2x3 xs": ("midpoint", lambda p: _set_xs0(p, np.ones((2, 3)))),
    "3x3 xs at dim 2": ("midpoint", lambda p: _set_xs0(p, np.eye(3))),
    "non-finite xs": ("midpoint", lambda p: _set_xs0(p, np.full((2, 2), np.nan))),
    "no dim": ("jensen", lambda p: p.pop("dim")),
    "coeffs not a list": ("jensen", lambda p: p["inputs"].update(coeffs="abc")),
    "map without kraus": ("map-family", lambda p: p["inputs"]["maps"][0].pop("kraus")),
    "certificate without vector": ("certificate", lambda p: p.pop("vector")),
    "certificate value not a number": ("certificate", lambda p: p.update(value=None)),
    "certificate interval of one": ("certificate", lambda p: p["interval"].pop()),
    "certificate x of another dim": ("certificate", lambda p: p.update(
        x=encode_complex_matrix(np.eye(3)))),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_payload_raises_input_error_naming_its_kind(payloads, case):
    base, edit = MALFORMED[case]
    payload = copy.deepcopy(payloads[base])
    edit(payload)
    with pytest.raises(InputError, match=f"^{payload['kind']} payload"):
        recheck_payload(payload)


@pytest.mark.parametrize("base, key", [("jensen", "coeffs"), ("jensen", "xs"), ("midpoint", "xs"),
                                       ("epigraph", "ys"), ("map-family", "maps")])
def test_operand_lists_of_unequal_length_are_rejected(payloads, base, key):
    # at one extra operand the payload used to recheck: zip dropped it
    payload = copy.deepcopy(payloads[base])
    payload["inputs"][key].append(payload["inputs"][key][0])
    with pytest.raises(InputError, match="operand lists of lengths"):
        recheck_payload(payload)


@pytest.mark.parametrize("label, spectrum, message", [
    ("t^0.5", [1.0, -0.5, -2.5], "payload eigenvalue -2.5 escapes the domain of t^0.5"),
    ("t^-1", [3.0, 0.0, 1.0], "payload eigenvalue 0.0 escapes the domain of t^-1"),
    ("t^-0.5", [2.0, -1e-300, -7.0], "payload eigenvalue -7.0 escapes the domain of t^-0.5"),
])
def test_recheck_names_the_least_eigenvalue_outside_the_domain(label, spectrum, message):
    payload = {"kind": "midpoint", "dim": 3, "function": label, "mode": None, "violation": -1.0,
               "inputs": {"xs": [encode_complex_matrix(np.diag(spectrum)),
                                 encode_complex_matrix(np.eye(3))]}}
    with pytest.raises(InputError) as err:
        recheck_payload(payload)
    assert str(err.value) == message


class TestCertificates:
    def test_all_found_counterexamples_reverify(self):
        found = [
            midpoint_convexity_test(T4, 2, 1000, seed=42).counterexample,
            jensen_test(T4, "tuple", 2, 2, 1000, seed=42).counterexample,
            log_midpoint_test(T2, 2, 100, seed=0).counterexample,
            log_harmonic_jensen_test(T2, 2, 2, 100, seed=42).counterexample,
            epigraph_closure_test(T4, 2, 2, 500, seed=42).counterexample,
            log_epigraph_closure_test(T1, 2, 2, 200, seed=42).counterexample,
            interval_set_falsifier(HermitianMatrix(np.diag([2.0, 1.0])), seed=1).counterexample,
            sublevel_family_test([(parse_function("poly:1,0,-2,0,1"), 0.9)], 2, 2, 300,
                                 seed=23).counterexample,
            harmonic_sum_counterexample(),
        ]
        kinds = []
        for ce in found:
            assert ce is not None
            # through JSON, as `cstarlab verify` reads it
            result = recheck_payload(json.loads(canonical_dumps(counterexample_to_payload(ce))))
            assert result.ok
            # within a factor two of the stored magnitude
            assert 0.5 <= result.recomputed / result.stored <= 2.0
            kinds.append(ce.kind)
        assert len(set(kinds)) == 9

    def test_map_family_counterexample_reverifies(self):
        v = jensen_test(T4, "map-family", 2, 2, 1000, seed=43)
        assert v.violated
        recheck_ok(v.counterexample)


class TestMonotoneFalsification:
    def test_embedded_found_by_higher_dim_run(self):
        # a fresh search one dimension up also finds a violation
        v = midpoint_convexity_test(T4, 3, 1000, seed=42)
        assert v.violated


class TestLiteratureClassifications:
    @pytest.mark.parametrize("f", [T1, T15, T2])
    @pytest.mark.parametrize("dim", [5, 6])
    def test_no_violations_up_to_dim_six(self, f, dim):
        # reduced budget at the larger dims; the acceptance suite covers
        # dims up to 4 at full budget
        assert not midpoint_convexity_test(f, dim, 150, seed=12).violated
        assert not jensen_test(f, "tuple", dim, 2, 150, seed=12).violated


# The sampling engine evaluates sample 0 alone and then chunks of 16, 64 and
# 256 samples as one stack; with the cap at 1 every sample runs alone.
# Verdict bytes must not depend on it. Chunks start at indices 0, 1, 17, 81,
# 337, so a run of N = 300 ends with [81, 300), and the seeds below were
# found by search to put the first violation (or error) where the name or
# comment says; a name's index is the violating sample's, one below
# samples_run.
CUT = ScalarFunctionSpec(
    "cut", SpectrumInterval(0.0, open_lo=True), lambda t: np.where(t > 0.03, 1.0 / t, -1.0)
)
# not operator log-convex, and non-positive below 0.03
CUT_STEEP = ScalarFunctionSpec(
    "cut-steep", SpectrumInterval(0.0, open_lo=True), lambda t: np.where(t > 0.03, t**-1.2, -1.0)
)
WELL = parse_function("poly:1,0,-2,0,1")
HUGE = parse_function("poly:0,0,5e305")
# log-epigraph draws X with eigenvalues of at least 1/2, where f(X^{-1}) is defined
BUMP = ScalarFunctionSpec("bump", SpectrumInterval(0.0, 2.0), lambda t: np.asarray(t, float) ** 2 + 1.0)
N = 300
CHUNKING_CASES = {
    # clean runs of all nine suites walk every chunk size
    "midpoint clean": (lambda: midpoint_convexity_test(T2, 3, N, seed=1), "clean"),
    "jensen isometry clean": (lambda: jensen_test(T2, "isometry", 2, 1, N, seed=1), "clean"),
    "jensen tuple clean": (lambda: jensen_test(T15, "tuple", 3, 3, N, seed=1), "clean"),
    "jensen map-family clean": (lambda: jensen_test(T2, "map-family", 3, 2, N, seed=1), "clean"),
    "log-midpoint clean": (lambda: log_midpoint_test(TINV, 3, N, seed=1), "clean"),
    "log-harmonic clean": (lambda: log_harmonic_jensen_test(TINV, 2, 3, N, seed=1), "clean"),
    "epigraph clean": (lambda: epigraph_closure_test(T2, 2, 2, N, seed=1), "clean"),
    "log-epigraph clean": (
        lambda: log_epigraph_closure_test(TINV, 3, 2, N, seed=1, noise_scale=0.0), "clean"),
    "interval-set clean": (
        lambda: interval_set_falsifier(HermitianMatrix(2.0 * np.eye(3)), N, seed=1), "clean"),
    "sublevel clean": (
        lambda: sublevel_family_test([(T2, 4.0), (TINV, 3.0)], 2, 2, N, seed=1), "clean"),
    "harmonic-sum clean": (
        lambda: harmonic_sum_closure_test(HermitianMatrix(np.diag([1.0, 3.0])),
                                          HermitianMatrix(np.diag([0.5, 2.0])), N, seed=1),
        "clean"),
    # first violations on both sides of the chunk boundaries at 17 and 81
    "midpoint last of [1, 17)": (lambda: midpoint_convexity_test(T4, 2, N, seed=64), 17),
    "epigraph last of [1, 17)": (lambda: epigraph_closure_test(T4, 2, 2, N, seed=90), 17),
    "jensen first of [17, 81)": (lambda: jensen_test(T4, "tuple", 2, 2, N, seed=34), 18),
    "map-family last of [17, 81)": (lambda: jensen_test(T4, "map-family", 2, 2, N, seed=70), 81),
    "epigraph first of [81, 300)": (lambda: epigraph_closure_test(T4, 2, 2, N, seed=219), 82),
    "map-family first of [81, 300)": (lambda: jensen_test(T4, "map-family", 2, 2, N, seed=266), 82),
    # inside the first stacked chunk
    "midpoint at 6 inside [1, 17)": (lambda: midpoint_convexity_test(T4, 2, N, seed=41), 7),
    "midpoint at 7 inside [1, 17)": (lambda: midpoint_convexity_test(T4, 2, N, seed=13), 8),
    "jensen at 14 inside [1, 17)": (lambda: jensen_test(T4, "tuple", 2, 2, N, seed=28), 15),
    "jensen at 15 inside [1, 17)": (lambda: jensen_test(T4, "tuple", 2, 2, N, seed=8), 16),
    "epigraph at 15 inside [1, 17)": (lambda: epigraph_closure_test(T4, 2, 2, N, seed=56), 16),
    "log-epigraph first of [1, 17)": (
        lambda: log_epigraph_closure_test(parse_function("t^0.5"), 2, 2, N, seed=0), 2),
    "log-epigraph at 2 inside [1, 17)": (
        lambda: log_epigraph_closure_test(parse_function("t^0.5"), 2, 2, N, seed=16), 3),
    # deep inside the last chunk
    "map-family at 126 inside [81, 300)": (
        lambda: jensen_test(T4, "map-family", 2, 2, N, seed=21), 127),
    "map-family at 247 inside [81, 300)": (
        lambda: jensen_test(T4, "map-family", 2, 2, N, seed=0), 248),
    "log-midpoint at 0": (lambda: log_midpoint_test(T2, 2, N, seed=0), 1),
    "log-harmonic at 0": (lambda: log_harmonic_jensen_test(T2, 2, 2, N, seed=0), 1),
    "sublevel at 6 inside [1, 17)": (lambda: sublevel_family_test([(WELL, 0.9)], 2, 2, N, seed=23), 7),
    "log-epigraph bounded domain at 2 inside [1, 17)": (
        lambda: log_epigraph_closure_test(BUMP, 1, 2, N, seed=3), 3),
    # the stacked draw of [1, 17) raises NonPositiveError, and its rerun
    # one sample at a time violates before the sample that raised
    "log-midpoint rerun violates at 6 inside [1, 17)": (
        lambda: log_midpoint_test(CUT_STEEP, 2, N, seed=0), 7),
    "interval-set swap certificate": (
        lambda: interval_set_falsifier(HermitianMatrix(np.diag([0.5, 1.0, 4.0])), N, seed=1), 0),
    # a positive-valued suite meets a non-positive value after clean samples,
    # at index 10 inside [1, 17) and at index 63 inside [17, 81)
    "log-midpoint non-positive at 10": (lambda: log_midpoint_test(CUT, 2, N, seed=0), (NonPositiveError, 10)),
    "log-midpoint non-positive at 63": (lambda: log_midpoint_test(CUT, 2, N, seed=15), (NonPositiveError, 63)),
    "log-harmonic non-positive at 10": (
        lambda: log_harmonic_jensen_test(CUT, 2, 2, N, seed=4), (NonPositiveError, 10)),
    # a non-finite margin raises at its sample instead of passing as clean:
    # NaN, and -inf at an infinite scale, both inside [81, 300)
    "jensen NaN margin at 207": (
        lambda: jensen_test(HUGE, "tuple", 2, 1, N, seed=1), (NumericalError, 207)),
    "midpoint -inf margin at 202": (
        lambda: midpoint_convexity_test(HUGE, 2, N, seed=1), (NumericalError, 202)),
    # the InputError window paths, at the first sample
    "midpoint window too small": (lambda: midpoint_convexity_test(POINT, 2, N, seed=1), (InputError, 0)),
    "epigraph window too small": (lambda: epigraph_closure_test(POINT, 2, 2, N, seed=1), (InputError, 0)),
    "log-epigraph no positive part": (
        lambda: log_epigraph_closure_test(NONPOS, 2, 2, N, seed=1), (InputError, 0)),
    "sublevel joint domain too small": (
        lambda: sublevel_family_test([(POINT, 4.0)], 2, 2, N, seed=1), (InputError, 0)),
    "sublevel infeasible": (lambda: sublevel_family_test([(T2, -1.0)], 2, 2, N, seed=1), (InputError, 0)),
}


def _outcome(call):
    """(body bytes or (error type, message), samples drawn, verdict) of one call."""
    drawn = [0]
    sample_rngs = convexity._sample_rngs

    def counting(seed, salt, idxs):
        drawn[0] += len(idxs)
        return sample_rngs(seed, salt, idxs)

    convexity._sample_rngs = counting
    try:
        verdict = call()
    except CstarlabError as exc:
        return (type(exc), str(exc)), drawn[0], None
    finally:
        convexity._sample_rngs = sample_rngs
    return canonical_dumps(verdict_to_payload(verdict)).encode(), drawn[0], verdict


@pytest.mark.parametrize("name", CHUNKING_CASES)
def test_verdict_bytes_do_not_depend_on_chunking(name, monkeypatch):
    call, expected = CHUNKING_CASES[name]
    body, drawn, verdict = _outcome(call)
    if expected == "clean":
        assert verdict.status == "no-violation-found" and verdict.samples_run == N
        assert drawn == N  # every chunk was evaluated stacked, none re-ran alone
    elif isinstance(expected, int):
        assert verdict.violated and verdict.samples_run == expected
    else:
        assert body[0] is expected[0]
    monkeypatch.setattr(convexity, "_CHUNK_CAP", 1)
    alone, drawn_alone, _ = _outcome(call)
    assert alone == body
    # one sample at a time draws up to the sample that ends the run
    assert drawn_alone == (expected[1] + 1 if isinstance(expected, tuple) else verdict.samples_run)


def _chunk_end(index):
    """The end of the engine's chunk that holds sample `index`."""
    start, size = 0, 1
    while start + size <= index:
        start, size = start + size, min(max(4 * size, convexity._FIRST_STACK), convexity._CHUNK_CAP)
    return min(start + size, N)


@pytest.mark.parametrize("name", [n for n, (_, e) in CHUNKING_CASES.items() if type(e) is int])
def test_violation_is_built_from_the_chunk_that_found_it(name, monkeypatch):
    # e.g. "midpoint at 6 inside [1, 17)" derives the generators of samples
    # 0..16 and "map-family at 247 inside [81, 300)" those of 0..299, each
    # once: the violating sample is not evaluated a second time on its own
    call, expected = CHUNKING_CASES[name]
    derived, raised = [], []
    sample_rngs, run_suite = convexity._sample_rngs, convexity._run_suite

    def counting(seed, salt, idxs):
        derived.extend(idxs)
        return sample_rngs(seed, salt, idxs)

    def spying(tol, seed, salt, samples, draw, **fields):
        def spy(rngs, idxs):
            try:
                return draw(rngs, idxs)
            except Exception:
                raised.extend(idxs)
                raise

        return run_suite(tol, seed, salt, samples, spy, **fields)

    monkeypatch.setattr(convexity, "_sample_rngs", counting)
    monkeypatch.setattr(convexity, "_run_suite", spying)
    verdict = call()
    assert verdict.violated and verdict.samples_run == expected
    assert bool(raised) == (name == "log-midpoint rerun violates at 6 inside [1, 17)")
    # only the samples of a chunk whose stacked draw raised run again alone
    assert {i for i in derived if derived.count(i) > 1} <= set(raised)
    assert sorted(set(derived)) == list(range(_chunk_end(expected - 1) if expected else 0))


@pytest.mark.parametrize("samples, chunks", [
    (300, [(0, 1), (1, 17), (17, 81), (81, 300)]),
    (150, [(0, 1), (1, 17), (17, 81), (81, 150)]),
    (600, [(0, 1), (1, 17), (17, 81), (81, 337), (337, 593), (593, 600)]),
    (8, [(0, 1), (1, 8)]),
])
def test_chunk_schedule(samples, chunks, monkeypatch):
    ranges = []
    sample_rngs = convexity._sample_rngs

    def recording(seed, salt, idxs):
        ranges.append((idxs.start, idxs.stop))
        return sample_rngs(seed, salt, idxs)

    monkeypatch.setattr(convexity, "_sample_rngs", recording)
    assert not midpoint_convexity_test(T2, 2, samples, seed=1).violated
    assert ranges == chunks
    ranges.clear()
    monkeypatch.setattr(convexity, "_CHUNK_CAP", 1)
    assert not midpoint_convexity_test(T2, 2, samples, seed=1).violated
    assert ranges == [(i, i + 1) for i in range(samples)]


@st.composite
def positive_part_domains(draw):
    """Domains that do not contain (0, inf) but have a positive part of
    some width: finite or infinite ends, open or closed, lo <= 0 or lo > 0."""
    hi = draw(st.one_of(st.just(math.inf), st.floats(0.01, 100.0)))
    if hi == math.inf:
        lo = draw(st.floats(0.01, 100.0))
    else:
        lo = draw(st.one_of(st.just(-math.inf), st.floats(-100.0, 0.0), st.floats(0.0, hi / 2)))
    return SpectrumInterval(lo, hi, open_lo=draw(st.booleans()), open_hi=draw(st.booleans()))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(positive_part_domains(), st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_log_epigraph_draws_where_f_of_the_inverse_is_defined(domain, dim, m, seed):
    f = ScalarFunctionSpec("bump", domain, lambda t: np.asarray(t, float) ** 2 + 1.0)
    drawn = []
    hermitians_from = convexity._hermitians_from

    def recording(*args):
        x = hermitians_from(*args)
        drawn.append(x)
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convexity, "_hermitians_from", recording)
        try:
            verdict = log_epigraph_closure_test(f, dim, m, 40, seed=seed)
        except DomainError as exc:
            pytest.fail(f"log-epigraph met a domain error on {domain}: {exc}")
    assert verdict.resamples == 0
    assert drawn
    for x in drawn:
        assert domain.contains(1.0 / np.linalg.eigvalsh(x)).all()


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.floats(-100.0, 0.0), st.one_of(st.just(math.inf), st.floats(0.0, 100.0)),
       st.booleans(), st.booleans())
def test_log_epigraph_without_a_positive_part_raises_at_sample_0(hi, width, open_lo, open_hi):
    domain = SpectrumInterval(hi - width, hi, open_lo=open_lo, open_hi=open_hi)
    f = ScalarFunctionSpec("neg", domain, lambda t: np.asarray(t, float) ** 2 + 1.0)
    (error, message), drawn, _ = _outcome(lambda: log_epigraph_closure_test(f, 2, 2, N, seed=1))
    assert error is InputError and message == f"domain {domain} has no positive part to sample"
    assert drawn == 1


def test_by_key_maps_each_sample_to_its_key_stack():
    keys = [2, 1, 2, 3, 1]
    calls = []

    def evaluate(key, rngs):
        # each "generator" is its sample's index, so a stack is tagged by it
        calls.append((key, list(rngs)))
        tags = np.array(rngs, dtype=float)
        lhs = tags[:, None, None] * np.eye(2)
        rhs = lhs + key * np.eye(2)
        inputs = {"xs": [lhs, 2.0 * lhs], "coeffs": [rhs], "bound_value": tags, "interval": key}
        return -tags, tags + 10.0, convexity._stacked(inputs, lhs, rhs, [f"f{t}" for t in rngs])

    margins, scales, sample = convexity._by_key(keys, list(range(len(keys))), evaluate)
    assert calls == [(2, [0, 2]), (1, [1, 4]), (3, [3])]
    assert margins.tolist() == [0.0, -1.0, -2.0, -3.0, -4.0]
    assert scales.tolist() == [10.0, 11.0, 12.0, 13.0, 14.0]
    for j, key in enumerate(keys):
        inputs, lhs, rhs, function = sample(j)
        assert function == f"f{j}"
        assert np.array_equal(lhs.array, j * np.eye(2))
        assert np.array_equal(rhs.array, (j + key) * np.eye(2))
        assert [x.array.tolist() for x in inputs["xs"]] == [(j * np.eye(2)).tolist(),
                                                           (2.0 * j * np.eye(2)).tolist()]
        assert np.array_equal(inputs["coeffs"][0], (j + key) * np.eye(2))
        assert inputs["bound_value"] == j and inputs["interval"] == key


# every suite salt, and seeds of one, two and three 32-bit words
SALTS = sorted(v for k, v in vars(convexity).items() if k.startswith("_SALT_"))
PIN_SEEDS = (0, 7, 2**32 - 1, 2**32, 10**12, 2**63 - 1, 2**64 - 1, 2**64 + 3)


def _draws(rng):
    return (rng.standard_normal(3).tolist(), rng.uniform(-2.0, 5.0, 2).tolist(),
            rng.integers(1, 5, 4).tolist(), int(rng.integers(1, 4)), rng.random(2).tolist())


def _check_against_seed_sequences(seed, salt, chunks):
    """The words and generators of each chunk against numpy's own
    `SeedSequence((seed, salt, i))` and `default_rng` of it."""
    refs = {i: np.random.SeedSequence((seed, salt, i)) for idxs in chunks for i in idxs}
    ref_words = {i: ss.generate_state(4, np.uint64) for i, ss in refs.items()}
    ref_draws = {i: _draws(np.random.default_rng(ss)) for i, ss in refs.items()}
    for idxs in chunks:
        words = convexity._seed_words(seed, salt, idxs)
        assert words.dtype == np.uint64 and words.shape == (len(idxs), 4)
        assert np.array_equal(words, [ref_words[i] for i in idxs])
        rngs = convexity._sample_rngs(seed, salt, idxs)
        assert len(rngs) == len(idxs)
        for i, rng in zip(idxs, rngs):
            if len(idxs) > 1:
                # a stacked chunk's PCG64 reads its seed words straight from
                # this buffer; a lone index gets numpy's own SeedSequence
                row = rng.bit_generator.seed_seq.row
                assert row.dtype == np.uint64 and row.shape == (4,) and row.flags.c_contiguous
            assert _draws(rng) == ref_draws[i]


@pytest.mark.parametrize("seed", PIN_SEEDS)
def test_chunk_generators_match_numpy_seed_sequences(seed):
    # indices 0..300 one at a time and in chunks of 64: a change to numpy's
    # seeding fails here rather than silently changing every verdict
    for salt in SALTS:
        _check_against_seed_sequences(seed, salt, [range(i, i + 1) for i in range(301)]
                                      + [range(i, min(i + 64, 301)) for i in range(0, 301, 64)])


@pytest.mark.parametrize("seed", (7, 2**64 - 1))
def test_indices_of_two_words_keep_their_streams(seed):
    # an index from 2^32 on is two entropy words; a chunk may straddle 2^32
    chunks = [range(2**32 - 2, 2**32 + 2), range(2**32 - 1, 2**32), range(2**32, 2**32 + 1),
              range(2**40 + 5, 2**40 + 9), range(2**64 - 3, 2**64)]
    _check_against_seed_sequences(seed, convexity._SALT_JENSEN, chunks)


SEEDED_SUITES = {
    "midpoint": lambda seed: midpoint_convexity_test(T2, 2, 10, seed=seed),
    "jensen": lambda seed: jensen_test(T2, "map-family", 2, 2, 10, seed=seed),
    "log-epigraph": lambda seed: log_epigraph_closure_test(TINV, 2, 2, 10, seed=seed),
    "interval-set": lambda seed: interval_set_falsifier(HermitianMatrix(2.0 * np.eye(2)), 10, seed=seed),
    "interval-set certificate": lambda seed: interval_set_falsifier(
        HermitianMatrix(np.diag([0.5, 1.0, 4.0])), 10, seed=seed),
    "sublevel": lambda seed: sublevel_family_test([(T2, 4.0)], 2, 2, 10, seed=seed),
    "harmonic-sum": lambda seed: harmonic_sum_closure_test(
        HermitianMatrix(np.eye(2)), HermitianMatrix(np.eye(2)), 10, seed=seed),
}
# (seed, message) pairs, not a dict: True and np.True_ are equal keys
BAD_SEEDS = [
    (-1, "seed must be at least 0, got -1"),
    (2.5, "seed must be an integer, got 2.5"),
    ("7", "seed must be an integer, got '7'"),
    (True, "seed must be an integer, got True"),
    (np.True_, "seed must be an integer, got np.True_"),
]


# each suite with a dim, an m or a noise_scale, called as (dim, m, noise_scale, seed)
SIZED_SUITES = {
    "midpoint": lambda d, m, z, seed: midpoint_convexity_test(T2, d, 10, seed=seed),
    "log-midpoint": lambda d, m, z, seed: log_midpoint_test(T2, d, 10, seed=seed),
    "jensen tuple": lambda d, m, z, seed: jensen_test(T2, "tuple", d, m, 10, seed=seed),
    "jensen map-family": lambda d, m, z, seed: jensen_test(T2, "map-family", d, m, 10, seed=seed),
    "log-harmonic": lambda d, m, z, seed: log_harmonic_jensen_test(T2, d, m, 10, seed=seed),
    "epigraph": lambda d, m, z, seed: epigraph_closure_test(T2, d, m, 10, seed=seed,
                                                            noise_scale=z),
    "log-epigraph": lambda d, m, z, seed: log_epigraph_closure_test(TINV, d, m, 10, seed=seed,
                                                                    noise_scale=z),
    "sublevel": lambda d, m, z, seed: sublevel_family_test([(T2, 4.0)], d, m, 10, seed=seed),
}
NOISE_MSG = "noise_scale must be finite and non-negative, got {}"
# (suites, dim, m, noise_scale, message); the dim and m check comes first,
# and their types come before their values
BAD_SIZES = [
    (("midpoint", "log-midpoint"), 0, 2, 0.1, "dim must be at least 1"),
    (("midpoint", "log-midpoint"), -3, 0, 0.1, "dim must be at least 1"),
    (("midpoint", "log-midpoint"), 2.5, 2, 0.1, "dim must be an integer, got 2.5"),
    (("midpoint", "log-midpoint"), True, 2, 0.1, "dim must be an integer, got True"),
    *[((s,), d, m, z, DIM_M_MSG) for s in SIZED_SUITES if not s.endswith("midpoint")
      for d, m, z in ((0, 2, 0.1), (2, 0, 0.1), (0, 0, 0.1), (-1, 2, 0.1))],
    *[((s,), d, m, z, message) for s in SIZED_SUITES if not s.endswith("midpoint")
      for d, m, z, message in ((2.5, 2, 0.1, "dim must be an integer, got 2.5"),
                               (True, 2, 0.1, "dim must be an integer, got True"),
                               (2, 1.5, 0.1, "m must be an integer, got 1.5"),
                               (0, 1.5, 0.1, "m must be an integer, got 1.5"))],
    *[((s,), d, m, z, message) for s in ("epigraph", "log-epigraph") for d, m, z, message in (
        (2, 2, -1.0, NOISE_MSG.format(-1.0)), (2, 2, math.nan, NOISE_MSG.format(math.nan)),
        (2, 2, math.inf, NOISE_MSG.format(math.inf)), (0, 2, math.nan, DIM_M_MSG),
        (2, 0, -1.0, DIM_M_MSG))],
]


@pytest.mark.parametrize("seed", [1, -1, "7"])
@pytest.mark.parametrize("suites, dim, m, noise, message", BAD_SIZES,
                         ids=[f"{'+'.join(s)}-d{d}-m{m}-z{z}" for s, d, m, z, _ in BAD_SIZES])
def test_bad_sizes_raise_before_any_draw_and_the_seed(suites, dim, m, noise, message, seed,
                                                       monkeypatch):
    def no_sampling(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(convexity, "_sample_rngs", no_sampling)
    for suite in suites:
        with pytest.raises(InputError) as err:
            SIZED_SUITES[suite](dim, m, noise, seed)
        assert type(err.value) is InputError
        assert str(err.value) == message


@pytest.mark.parametrize("seed, message", BAD_SEEDS, ids=[repr(s) for s, _ in BAD_SEEDS])
@pytest.mark.parametrize("suite", SEEDED_SUITES)
def test_bad_seeds_raise_before_any_sample(suite, seed, message, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(convexity, "_sample_rngs", no_sampling)
    with pytest.raises(InputError) as err:
        SEEDED_SUITES[suite](seed)
    assert str(err.value) == message


@pytest.mark.parametrize("suite", SEEDED_SUITES)
def test_numpy_integer_seeds_run_as_python_ints(suite):
    def body(seed):
        return canonical_dumps(verdict_to_payload(SEEDED_SUITES[suite](seed)))

    assert body(np.uint64(2**64 - 1)) == body(2**64 - 1)
    assert body(np.int32(7)) == body(7)


# each of the nine suites (interval-set also on a certificate A), called as (samples, seed)
BUDGET_SUITES = {
    "midpoint": lambda n, seed: midpoint_convexity_test(T2, 2, n, seed=seed),
    "jensen": lambda n, seed: jensen_test(T2, "tuple", 2, 2, n, seed=seed),
    "log-midpoint": lambda n, seed: log_midpoint_test(TINV, 2, n, seed=seed),
    "log-harmonic": lambda n, seed: log_harmonic_jensen_test(TINV, 2, 2, n, seed=seed),
    "epigraph": lambda n, seed: epigraph_closure_test(T2, 2, 2, n, seed=seed),
    "log-epigraph": lambda n, seed: log_epigraph_closure_test(TINV, 2, 2, n, seed=seed),
    "interval-set": lambda n, seed: interval_set_falsifier(
        HermitianMatrix(2.0 * np.eye(2)), n, seed=seed),
    "interval-set certificate": lambda n, seed: interval_set_falsifier(
        HermitianMatrix(np.diag([0.5, 1.0, 4.0])), n, seed=seed),
    "sublevel": lambda n, seed: sublevel_family_test([(T2, 4.0)], 2, 2, n, seed=seed),
    "harmonic-sum": lambda n, seed: harmonic_sum_closure_test(
        HermitianMatrix(np.eye(2)), HermitianMatrix(np.diag([1.0, 2.0])), n, seed=seed),
}
BAD_BUDGETS = [
    (0, "samples must be at least 1, got 0"),
    (-3, "samples must be at least 1, got -3"),
    (2.5, "samples must be an integer, got 2.5"),
    (True, "samples must be an integer, got True"),
]


@pytest.mark.parametrize("seed", [1, -1])
@pytest.mark.parametrize("samples, message", BAD_BUDGETS, ids=[repr(n) for n, _ in BAD_BUDGETS])
@pytest.mark.parametrize("suite", BUDGET_SUITES)
def test_a_budget_below_one_raises_before_any_sample_and_the_seed(suite, samples, message, seed,
                                                                  monkeypatch):
    def no_sampling(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(convexity, "_sample_rngs", no_sampling)
    with pytest.raises(InputError) as err:
        BUDGET_SUITES[suite](samples, seed)
    assert str(err.value) == message


@pytest.mark.parametrize("suite", BUDGET_SUITES)
def test_numpy_integer_budgets_run_as_python_ints(suite):
    def body(samples):
        return canonical_dumps(verdict_to_payload(BUDGET_SUITES[suite](samples, 3)))

    assert body(np.int64(20)) == body(20)
    assert body(np.uint8(1)) == body(1)


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
def test_a_sublevel_bound_that_is_not_finite_raises_before_any_draw(bound, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(convexity, "_sample_rngs", no_sampling)
    family = [(T2, 4.0), (TINV, bound)]
    for seed, samples in ((1, 20), (-1, 0)):
        with pytest.raises(InputError) as err:
            sublevel_family_test(family, 2, 2, samples, seed=seed)
        assert type(err.value) is InputError
        assert str(err.value) == f"the sublevel bound of t^-1 must be finite, got {bound}"
    # after the size checks
    with pytest.raises(InputError, match="^dim and m must be at least 1$"):
        sublevel_family_test(family, 0, 2, 20, seed=1)


def _python_min(values):
    worst = math.inf
    for v in values:
        worst = min(worst, v)
    return worst


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_tracker_keeps_the_first_of_tied_zeros(first, second):
    tr = convexity._Tracker(DEFAULT_TOL)
    assert tr.classify(np.array([1.0, first, second]), np.ones(3)) is None
    assert math.copysign(1.0, tr.worst) == math.copysign(1.0, _python_min([1.0, first, second]))
    assert math.copysign(1.0, tr.worst) == math.copysign(1.0, first)
    # a tie in a later chunk keeps the earlier minimum as well
    assert tr.classify(np.array([second]), np.ones(1)) is None
    assert math.copysign(1.0, tr.worst) == math.copysign(1.0, first)
    assert tr.run == 4


@pytest.mark.parametrize("bad_margin, bad_scale", [(math.nan, 1.0), (-math.inf, 1.0),
                                                   (0.5, math.inf), (0.5, math.nan)])
def test_tracker_raises_at_the_run_index_of_a_non_finite_sample(bad_margin, bad_scale):
    tr = convexity._Tracker(DEFAULT_TOL)
    assert tr.classify(np.array([1e-9, 0.5]), np.ones(2)) is None
    assert tr.boundary == 1
    margins = np.array([1e-9, 1.0, bad_margin, -5.0])
    scales = np.array([1.0, 1.0, bad_scale, 1.0])
    with pytest.raises(NumericalError) as err:
        tr.classify(margins, scales)
    assert str(err.value) == (f"sample 4 has margin {bad_margin} at scale {bad_scale}; "
                              "both must be finite")


def test_tracker_counts_boundary_samples_only_before_the_violation():
    tr = convexity._Tracker(DEFAULT_TOL)
    assert tr.classify(np.array([2e-9]), np.ones(1)) is None
    # the violation at position 2 comes before the NaN, so it is reported
    margins = np.array([1e-9, 0.25, -1.0, 5e-9, math.nan])
    assert tr.classify(margins, np.ones(5)) == 2
    assert (tr.run, tr.boundary, tr.worst) == (4, 2, -1.0)
    # the band scales with each sample's scale: -1e-9 is a boundary tie at
    # scale 1 and a violation at scale 1e-2
    tr = convexity._Tracker(DEFAULT_TOL)
    assert tr.classify(np.array([-1e-9, -1e-9]), np.array([1.0, 1e-2])) == 1
    assert (tr.run, tr.boundary, tr.worst) == (2, 1, -1e-9)


def _exact_verdict(lhs, rhs, tol=DEFAULT_TOL):
    """(status, samples_run, boundary_samples, worst_margin) from each
    sample's exact scale max(||lhs||, ||rhs||), one sample at a time."""
    margins = np.linalg.eigvalsh(rhs - lhs)[:, 0].tolist()
    scales = np.maximum(np.max(np.abs(np.linalg.eigvalsh(lhs)), axis=-1),
                        np.max(np.abs(np.linalg.eigvalsh(rhs)), axis=-1)).tolist()
    worst, boundary = math.inf, 0
    for run, (margin, scale) in enumerate(zip(margins, scales), start=1):
        worst = min(worst, margin)
        if margin < -tol.psd(scale):
            return "violated", run, boundary, worst
        boundary += margin < tol.psd(scale)
    return "no-violation-found", len(margins), boundary, worst


def _near_band_stub(c):
    """An `evaluate` for `_order_suite` and the (lhs, rhs) stacks it made, in
    sample order: rhs - lhs has smallest eigenvalue t * 1e-8 * c, with |t| in
    [0.75, 1.15], and the scale (about c) lies between the Frobenius bounds
    0.69 c and 1.2 c, so the band decision needs the exact scale. One sample
    in twenty has t < 0."""
    made = []

    def evaluate(rngs, lo, hi):
        lhs, rhs = [], []
        for rng in rngs:
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            u, _ = np.linalg.qr(g)
            t = rng.uniform(0.75, 1.15) * (-1.0 if rng.random() < 0.05 else 1.0)
            left = (u * (c * np.array([1.0, 0.5, 0.2]))) @ u.conj().T
            gap = (u * (c * np.array([t * 1e-8, 0.1, 0.1]))) @ u.conj().T
            lhs.append((left + left.conj().T) / 2.0)
            rhs.append(lhs[-1] + (gap + gap.conj().T) / 2.0)
        made.append((np.array(lhs), np.array(rhs)))
        return {}, made[-1][0], made[-1][1]

    return evaluate, made


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12, 1e160])
def test_scales_decomposed_on_demand_decide_as_exact_scales(c):
    statuses, differs = set(), False
    for seed in range(8):
        evaluate, made = _near_band_stub(c)
        verdict = convexity._order_suite(T1, DEFAULT_TOL, seed, 99, 120, evaluate, kind="midpoint")
        lhs = np.concatenate([left for left, _ in made])
        rhs = np.concatenate([right for _, right in made])
        status, run, boundary, worst = _exact_verdict(lhs[: verdict.samples_run],
                                                      rhs[: verdict.samples_run])
        assert (verdict.status, verdict.samples_run, verdict.boundary_samples,
                verdict.worst_margin) == (status, run, boundary, worst)
        statuses.add(status)
        # a scale at either Frobenius bound would decide some sample otherwise
        with np.errstate(over="ignore"):
            fro = np.maximum(np.linalg.norm(lhs, axis=(-2, -1)), np.linalg.norm(rhs, axis=(-2, -1)))
        differs |= np.isfinite(fro).all() and _classified(lhs, rhs, fro) != (status, run, boundary)
    assert statuses == {"violated", "no-violation-found"}
    assert differs or c == 1e160  # there every Frobenius norm overflows


def _classified(lhs, rhs, scales):
    tr = convexity._Tracker(DEFAULT_TOL)
    stop = tr.classify(np.linalg.eigvalsh(rhs - lhs)[:, 0], scales)
    return ("no-violation-found" if stop is None else "violated"), tr.run, tr.boundary


def test_a_nan_margin_names_the_exact_scale():
    # rhs - lhs overflows to -inf at sample 20, so its margin is NaN; its
    # Frobenius bounds are infinite, so the exact scale 1e308 is computed
    def evaluate(rngs, lo, hi):
        lhs = np.array([np.diag([1.0, 2.0, 3.0]).astype(complex)] * len(rngs))
        rhs = 2.0 * lhs
        for j, rng in enumerate(rngs):
            if rng.bit_generator.state == sample_20.bit_generator.state:
                lhs[j] = np.diag([1e308, 1.0, 1.0])
                rhs[j] = np.diag([-1e308, 2.0, 2.0])
        return {}, lhs, rhs

    sample_20 = convexity._sample_rngs(3, 99, range(20, 21))[0]
    with pytest.raises(NumericalError) as err:
        convexity._order_suite(T1, DEFAULT_TOL, 3, 99, 60, evaluate, kind="midpoint")
    assert str(err.value) == "sample 20 has margin nan at scale 1e+308; both must be finite"
