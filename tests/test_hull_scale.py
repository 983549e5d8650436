"""Scale and unitary invariance of the hull decision, and the rejection of
witnesses for the wrong input, as spot checks and hypothesis properties.

Operands are built exactly Hermitian as (a + a*)/2, so any scale passes the
entrywise self-adjointness check of HermitianMatrix.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cstarlab import (
    HermitianMatrix,
    haar_unitary,
    hull_membership,
    spectral_interval_oracle,
    two_point_witness,
)

PROPERTY = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def exact_herm(a) -> HermitianMatrix:
    a = np.asarray(a, np.complex128)
    return HermitianMatrix((a + a.conj().T) / 2)


def rotated(eigs, u) -> HermitianMatrix:
    return exact_herm((u * np.asarray(eigs, float)) @ u.conj().T)


def scaled(h: HermitianMatrix, c: float) -> HermitianMatrix:
    return HermitianMatrix(c * h.array)


@st.composite
def hull_cases(draw, spill=0.3):
    """(T, X, width) with the spectrum of T spanning [lo, lo + width] and the
    eigenvalues of X up to `spill` times the width outside it; draws whose
    oracle margin lies within 1e-6*width of the edge are skipped."""
    dim = draw(st.integers(2, 5))
    lo = draw(st.floats(-1.0, 1.0))
    width = draw(st.floats(1e-3, 2.0))
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=dim - 2, max_size=dim - 2))
    fracs = draw(st.lists(st.floats(-spill, 1.0 + spill), min_size=dim, max_size=dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = lo + width * np.array([0.0, 1.0, *inner])
    t = rotated(lam, haar_unitary(dim, rng))
    x = rotated(lo + width * np.array(fracs), haar_unitary(dim, rng))
    assume(abs(spectral_interval_oracle(t, x).margin) > 1e-6 * width)
    return t, x, width


scales = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)


def expected_status(t, x) -> str:
    return "member" if spectral_interval_oracle(t, x).margin > 0 else "non-member"


@PROPERTY
@given(hull_cases(), scales)
def test_verdict_invariant_under_scaling(case, c):
    t, x, _ = case
    expected = expected_status(t, x)
    assert hull_membership(t, x).status == expected
    res = hull_membership(scaled(t, c), scaled(x, c))
    assert res.status == expected
    if expected == "member":
        assert res.witness.validate(scaled(x, c)).valid


@PROPERTY
@given(hull_cases(), st.integers(0, 2**32 - 1))
def test_verdict_invariant_under_unitary_conjugation(case, seed):
    t, x, _ = case
    u = haar_unitary(t.dim, np.random.default_rng(seed))
    rt = exact_herm(u.conj().T @ t.array @ u)
    rx = exact_herm(u.conj().T @ x.array @ u)
    assert hull_membership(rt, rx).status == expected_status(t, x)


@PROPERTY
@given(hull_cases(spill=0.0), scales, st.floats(1e-6, 0.3))
def test_witness_rejects_input_outside_hull(case, c, push):
    # a witness for a member X never validates for X' whose spectrum leaves
    # the hull beyond the psd band, whatever the common scale
    t, x, _ = case
    w, u = np.linalg.eigh(x.array)
    lam = np.linalg.eigvalsh(t.array)
    w[-1] = lam[-1] + push * np.max(np.abs(lam))
    x_out = rotated(w, u)
    witness = two_point_witness(scaled(t, c), scaled(x, c))
    assert witness.validate(scaled(x, c)).valid
    assert not witness.validate(scaled(x_out, c)).valid


def test_clear_member_at_large_scale():
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = rotated(1e9 * np.array([0.0, 1.0, 2.0]), haar_unitary(3, rng))
        x = rotated(1e9 * rng.uniform(0.2, 1.8, 3), haar_unitary(3, rng))
        res = hull_membership(t, x)
        assert res.status == "member"
        assert res.witness.validate(x).valid


def test_small_scale_witness_rejects_escaped_input():
    rng = np.random.default_rng(8)
    u = haar_unitary(3, rng)
    t = rotated(1e-10 * np.array([0.0, 1.0, 2.0]), haar_unitary(3, rng))
    x = rotated(1e-10 * np.array([0.5, 1.0, 1.5]), u)
    x_out = rotated(1e-10 * np.array([0.5, 1.0, 2.05]), u)
    assert not spectral_interval_oracle(t, x_out).inside
    witness = two_point_witness(t, x)
    assert witness.validate(x).valid
    assert not witness.validate(x_out).valid
