"""Scale invariance of every verdict outside the hull decision, and proof
objects that validate only for their own input, as hypothesis properties.

Each property scales all operands by c = 10^-12..10^12 and compares with the
verdict at c = 1. Operands are drawn with their deciding margin at least
1e-6 of their scale away from the psd band, as in `test_hull_scale.py`, so
the verdict at c = 1 is not itself a tie.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from cstarlab import (
    NonPositiveError,
    geometric_mean,
    haar_unitary,
    harmonic_sum_closure_test,
    hull_membership,
    interval_set_falsifier,
    lch_membership,
    loewner_leq,
    midpoint_convexity_test,
    parse_function,
    recheck_payload,
    sample_hull_member,
    sample_tuple,
    spectral_interval_oracle,
)
from cstarlab.io import (
    counterexample_to_payload,
    decode_complex_matrix,
    encode_complex_matrix,
    feasibility_to_payload,
)

from test_hull_scale import PROPERTY, exact_herm, hull_cases, rotated, scaled

# every power of ten gets drawn; floats over the exponent range cluster at 1
scales = st.sampled_from(range(-12, 13)).map(lambda e: 10.0**e)


def rejects(call) -> bool:
    """Whether the call raises NonPositiveError."""
    try:
        call()
    except NonPositiveError:
        return True
    return False


@st.composite
def edge_spectra(draw, dim):
    """`dim` eigenvalues in [-1, 1] whose smallest is +-10^e, e in [-5, 0]:
    clearly positive or clearly not at c = 1, yet below 1e-14 once scaled by
    c <= 1e-9, where a band with an absolute floor would call it a tie."""
    low = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-5.0, 0.0))
    rest = draw(st.lists(st.floats(0.0, 1.0), min_size=dim - 1, max_size=dim - 1))
    return np.array([low, *(low + (1.0 - low) * np.array(rest))])


@st.composite
def edge_matrix(draw, dim):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rotated(draw(edge_spectra(dim)), haar_unitary(dim, rng))


dims = st.integers(2, 4)


@PROPERTY
@given(st.data(), scales)
def test_loewner_leq_invariant_under_scaling(data, c):
    dim = data.draw(dims)
    a = data.draw(edge_matrix(dim))
    b = exact_herm(a.array + data.draw(edge_matrix(dim)).array)
    holds = loewner_leq(a, b).holds
    assert holds == (np.linalg.eigvalsh(b.array - a.array)[0] > 0)
    assert loewner_leq(scaled(a, c), scaled(b, c)).holds == holds


@PROPERTY
@given(st.data(), scales)
def test_geometric_mean_positivity_invariant_under_scaling(data, c):
    dim = data.draw(dims)
    a, b = data.draw(edge_matrix(dim)), data.draw(edge_matrix(dim))
    expected = rejects(lambda: geometric_mean(a, b))
    assert rejects(lambda: geometric_mean(scaled(a, c), scaled(b, c))) == expected


@st.composite
def lch_cases(draw):
    """Positive definite (T, X) with spectra in [1e-3, 1] and the reduced
    problem (T^-1, X^-1) not a tie."""
    dim = draw(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spectrum = st.lists(st.floats(-3.0, 0.0), min_size=dim, max_size=dim).map(
        lambda e: 10.0 ** np.array(e)
    )
    t = rotated(draw(spectrum), haar_unitary(dim, rng))
    x = rotated(draw(spectrum), haar_unitary(dim, rng))
    t_inv, x_inv = (exact_herm(np.linalg.inv(m.array)) for m in (t, x))
    lam = np.linalg.eigvalsh(t_inv.array)
    assume(lam[-1] - lam[0] > 1e-6 * lam[-1])
    assume(abs(spectral_interval_oracle(t_inv, x_inv).margin) > 1e-6 * lam[-1])
    return t, x


@PROPERTY
@given(lch_cases(), scales)
def test_lch_membership_invariant_under_scaling(case, c):
    t, x = case
    status = lch_membership(t, x).status
    assert status in ("member", "non-member")
    assert lch_membership(scaled(t, c), scaled(x, c)).status == status


def suite_fields(verdict):
    return verdict.status, verdict.samples_run, verdict.boundary_samples


@PROPERTY
@given(st.integers(1, 3), st.floats(-3.0, 0.0), st.integers(0, 2**32 - 1), scales)
def test_interval_set_falsifier_invariant_under_scaling(dim, e, seed, c):
    # [0, A] is C*-convex only for A = a I, so only then does sampling run
    a = exact_herm(10.0**e * np.eye(dim))
    expected = suite_fields(interval_set_falsifier(a, 20, seed=seed))
    assert suite_fields(interval_set_falsifier(scaled(a, c), 20, seed=seed)) == expected


@PROPERTY
@given(st.data(), st.integers(0, 2**32 - 1), scales)
def test_harmonic_sum_closure_invariant_under_scaling(data, seed, c):
    dim = data.draw(dims)
    rng = np.random.default_rng(seed)
    spectrum = st.lists(st.floats(-3.0, 0.0), min_size=dim, max_size=dim)
    t1, t2 = (rotated(10.0 ** np.array(data.draw(spectrum)), haar_unitary(dim, rng))
              for _ in range(2))
    expected = suite_fields(harmonic_sum_closure_test(t1, t2, 10, seed=seed))
    scaled_run = harmonic_sum_closure_test(scaled(t1, c), scaled(t2, c), 10, seed=seed)
    assert suite_fields(scaled_run) == expected


# --- proof objects -----------------------------------------------------------


def scaled_certificate(payload, c):
    out = dict(payload)
    for key in ("t", "x"):
        out[key] = encode_complex_matrix(c * decode_complex_matrix(payload[key]))
    out["value"] = c * payload["value"]
    out["interval"] = [c * v for v in payload["interval"]]
    out["margin"] = c * payload["margin"]
    return out


@PROPERTY
@given(hull_cases(spill=0.5), scales, st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_certificate_rechecks_at_any_scale_and_only_for_its_input(case, c, m, seed):
    t, x, _ = case
    res = hull_membership(t, x)
    assume(res.status == "non-member")
    payload = scaled_certificate(feasibility_to_payload(res)["certificate"], c)
    assert recheck_payload(payload).ok
    member = sample_hull_member(t, sample_tuple(t.dim, m, seed))
    payload["x"] = encode_complex_matrix(c * member.array)
    assert not recheck_payload(payload).ok


@PROPERTY
@given(st.integers(0, 20), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_midpoint_counterexample_rejects_commuting_pair(seed, a, b):
    # t^3 is convex on (0, inf), so no commuting positive pair violates
    # the midpoint inequality
    verdict = midpoint_convexity_test(parse_function("t^3"), 2, 200, seed=seed)
    assert verdict.violated
    payload = counterexample_to_payload(verdict.counterexample)
    assert recheck_payload(payload).ok
    payload["inputs"]["xs"] = [encode_complex_matrix(v * np.eye(2)) for v in (a, b)]
    assert not recheck_payload(payload).ok
