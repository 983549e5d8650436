"""Scale and unitary invariance of the hull decision, the rejection of
witnesses for the wrong input, and proof objects that hold under every
`--tol`, as spot checks and hypothesis properties.

Operands are built exactly Hermitian as (a + a*)/2, so any scale passes the
entrywise self-adjointness check of HermitianMatrix.
"""

import argparse
import json

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cstarlab import (
    DEFAULT_TOL,
    HermitianMatrix,
    cli,
    haar_unitary,
    hull_membership,
    recheck_payload,
    spectral_interval_oracle,
    two_point_witness,
    validate_tuple,
    witness_to_tuple,
)
from cstarlab.io import canonical_dumps, feasibility_to_payload

from conftest import specnorm

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


# every power of ten gets drawn; floats over the exponent range cluster at 1
scales = st.sampled_from(range(-12, 13)).map(lambda e: 10.0**e)


def expected_status(t, x) -> str:
    return "member" if spectral_interval_oracle(t, x).margin > 0 else "non-member"


# block eigenvalues of 5e-4 in the witness of a member at scale 1e12
SMALL_BLOCKS = (HermitianMatrix(np.diag([1.0, 2.0, 3.0])),
                HermitianMatrix(np.diag([1.001, 1.5, 2.999])), 2.0)


@PROPERTY
@given(hull_cases(), scales)
@example(SMALL_BLOCKS, 1e-12)
@example(SMALL_BLOCKS, 1.0)
@example(SMALL_BLOCKS, 1e12)
def test_verdict_invariant_under_scaling(case, c):
    t, x, _ = case
    expected = expected_status(t, x)
    assert hull_membership(t, x).status == expected
    res = hull_membership(scaled(t, c), scaled(x, c))
    assert res.status == expected
    if expected == "member":
        ct, cx = scaled(t, c), scaled(x, c)
        assert res.witness.validate(cx).valid
        # the explicit tuple keeps every block at every scale: sum C* C = I
        # and sum C* (cT) C = cX within the psd band at the operands' scale
        tup = witness_to_tuple(ct, res.witness)
        assert validate_tuple(tup).ok
        moment = sum(k.conj().T @ ct.array @ k for k in tup.coeffs)
        scale = max(specnorm(ct.array), specnorm(cx.array))
        assert specnorm(moment - cx.array) <= DEFAULT_TOL.psd(scale)


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


@st.composite
def cli_tol_cases(draw):
    """(tol, T, X) as `hull member --tol` sees them: the tolerances that
    `cli._tolconfig` makes of a --tol in [1e-12, 1e-6]; T at scale c whose
    gap is 0, anywhere up to 1e-6*c, within a few decades of the psd band
    (and at most 1e-6*c), or ordinary; X with each eigenvalue at an end of
    [lam_min, lam_max], inside it, or just outside it."""
    tol = cli._tolconfig(argparse.Namespace(tol=10.0 ** draw(st.floats(-12.0, -6.0))))
    dim = draw(st.integers(2, 4))
    c = draw(scales)
    lo = c * draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 2.0))
    tiny = st.floats(-16.0, -6.0).map(lambda e: 10.0**e)
    near = st.floats(-1.0, 3.0).map(lambda e: min(tol.psd_tol * 10.0**e, 1e-6))
    gap = c * draw(st.one_of(st.just(0.0), tiny, near, st.floats(1e-3, 2.0)))
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=dim - 2, max_size=dim - 2))
    push = st.floats(-13.0, -5.0).map(lambda e: c * 10.0**e)
    eig = st.one_of(st.just(lo), st.just(lo + gap), st.floats(0.0, 1.0).map(lambda f: lo + f * gap),
                    push.map(lambda d: lo - d), push.map(lambda d: lo + gap + d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rotated(lo + gap * np.array([0.0, 1.0, *inner]), haar_unitary(dim, rng))
    x = rotated(draw(st.lists(eig, min_size=dim, max_size=dim)), haar_unitary(dim, rng))
    return tol, t, x


@PROPERTY
@given(cli_tol_cases())
def test_proof_objects_hold_under_cli_tolerances(case):
    # every non-member certificate rechecks after a JSON round trip, and
    # every member witness validates, also for a T whose gap is within the
    # solver band of --tol or just beyond it
    tol, t, x = case
    res = hull_membership(t, x, tol)
    if res.status == "non-member":
        payload = json.loads(canonical_dumps(feasibility_to_payload(res)["certificate"]))
        result = recheck_payload(payload)
        assert result.ok, result
    elif res.status == "member":
        assert res.witness.validate(x).valid


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
