"""Independent re-verification of counterexample and certificate payloads.

Everything here recomputes from the serialized payload alone, on a separate
numerical path from the engines that produced it (scipy eigensolvers and
locally re-derived matrix formulas). A payload passes when the recomputed
violation is negative and within a factor of two of the stored magnitude;
a hull certificate's stored value and interval must also match their
recomputation. Payloads are decoded through `io.decode_payload`, the
schema the suites encode them with, so a malformed payload (a missing or
mistyped field, operand lists of unequal length, a matrix not square of the
payload's dim) raises `InputError`; only the input layout is shared, and
every formula here is recheck's own.

This is the only module that uses scipy, and `cstarlab verify` the only
command that imports it, so scipy loads with this module and no other
command pays for it. There is no numpy fallback: the recheck is only
independent of the engines on scipy's path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError
from .functions import parse_function
from .hermitian import DEFAULT_TOL
from .io import decode_payload

__all__ = ["RecheckResult", "recheck_payload"]


@dataclass(frozen=True)
class RecheckResult:
    ok: bool
    stored: float
    recomputed: float
    detail: str = ""


def _eigh(a, eigvals_only=False):
    """scipy's eigh of the Hermitian part of a; a convergence failure, which
    scipy raises as a ValueError, is a NumericalError and not bad input."""
    try:
        return scipy.linalg.eigh((a + a.conj().T) / 2.0, eigvals_only=eigvals_only)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"scipy eigensolver failed: {exc}") from exc


def _eigvalsh(a):
    return _eigh(a, eigvals_only=True)


def _mineig(a) -> float:
    return float(_eigvalsh(a)[0])


def _maxeig(a) -> float:
    return float(_eigvalsh(a)[-1])


def _fun(label, a):
    f = parse_function(label)
    w, u = _eigh(a)
    escapes = w[~f.domain.contains(w)]
    if escapes.size:
        raise InputError(f"payload eigenvalue {escapes[0]} escapes the domain of {label}")
    return (u * np.asarray(f.evaluator(w), float)) @ u.conj().T


def _inv(a):
    w, u = _eigh(a)
    if w[0] <= 0:
        raise InputError("payload matrix is not strictly positive")
    return (u * (1.0 / w)) @ u.conj().T


def _sqrt(a):
    w, u = _eigh(a)
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def _gmean(a, b):
    w, u = _eigh(a)
    if w[0] <= 0:
        raise InputError("payload matrix is not strictly positive")
    rs = (u * np.sqrt(w)) @ u.conj().T
    irs = (u * (1.0 / np.sqrt(w))) @ u.conj().T
    return rs @ _sqrt(irs @ b @ irs) @ rs


def _combine(coeffs, xs):
    return sum(c.conj().T @ x @ c for c, x in zip(coeffs, xs))


def _apply_map(spec, x):
    kraus, transpose = spec
    y = x.T if transpose else x
    return sum(a.conj().T @ y @ a for a in kraus)


def _recompute(payload) -> float:
    """The recomputed violation (negative when violated) of a counterexample
    payload decoded by `io.decode_payload`."""
    kind, inputs, label = payload["kind"], payload["inputs"], payload["function"]
    xs, ys, coeffs = (inputs.get(key) for key in ("xs", "ys", "coeffs"))

    if kind == "midpoint":
        x, y = xs
        return _mineig((_fun(label, x) + _fun(label, y)) / 2.0 - _fun(label, (x + y) / 2.0))
    if kind == "jensen":
        if payload.get("mode") == "map-family":
            maps = inputs["maps"]
            value = sum(_apply_map(s, x) for s, x in zip(maps, xs))
            rhs = sum(_apply_map(s, _fun(label, x)) for s, x in zip(maps, xs))
        else:
            value = _combine(coeffs, xs)
            rhs = _combine(coeffs, [_fun(label, x) for x in xs])
        return _mineig(rhs - _fun(label, value))
    if kind == "log-midpoint":
        x, y = xs
        return _mineig(_gmean(_fun(label, x), _fun(label, y)) - _fun(label, (x + y) / 2.0))
    if kind == "log-harmonic-jensen":
        lhs = _fun(label, _combine(coeffs, xs))
        rhs = _inv(_combine(coeffs, [_inv(_fun(label, x)) for x in xs]))
        return _mineig(rhs - lhs)
    if kind == "epigraph":
        lhs = _fun(label, _combine(coeffs, xs))
        return _mineig(_combine(coeffs, ys) - lhs)
    if kind == "log-epigraph":
        xc = _inv(_combine(coeffs, [_inv(x) for x in xs]))
        yc = _inv(_combine(coeffs, [_inv(y) for y in ys]))
        return _mineig(yc - _fun(label, _inv(xc)))
    if kind == "interval-set":
        combined = _combine(coeffs, xs)
        return min(_mineig(combined), _mineig(inputs["bound"] - combined))
    if kind == "sublevel":
        combined = _combine(coeffs, xs)
        return inputs["bound_value"] - _maxeig(_fun(label, combined))
    if kind == "harmonic-sum":
        lo, hi = inputs["interval"]
        combined = _inv(_combine(coeffs, [_inv(z) for z in xs]))
        eye = np.eye(combined.shape[0])
        return min(_mineig(combined - lo * eye), _mineig(hi * eye - combined))
    raise AssertionError(f"no formula for payload kind {kind!r}")


def _recompute_certificate(payload) -> tuple[float, str]:
    """The negated escape of <Xa, a> from [lam_min(T), lam_max(T)], and which
    stored field, `value` or `interval`, differs from its recomputation by
    more than the psd band at the payload's scale ('' when neither does);
    the payload is decoded by `io.decode_payload`."""
    vec, x, t = payload["vector"], payload["x"], payload["t"]
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-8:
        raise InputError(f"hull-certificate vector is not unit (norm {norm})")
    value = float((vec.conj() @ x @ vec).real)
    lam = _eigvalsh(t)
    lo, hi = float(lam[0]), float(lam[-1])
    band = DEFAULT_TOL.psd(max(abs(lo), abs(hi), abs(value)))
    stored_lo, stored_hi = payload["interval"]
    mismatch = ""
    if abs(payload["value"] - value) > band:
        mismatch = f"stored value {payload['value']:.6e} is not <Xa, a> = {value:.6e}"
    elif max(abs(stored_lo - lo), abs(stored_hi - hi)) > band:
        mismatch = (f"stored interval [{stored_lo:.6e}, {stored_hi:.6e}] is not the "
                    f"spectral interval [{lo:.6e}, {hi:.6e}] of t")
    # negative of the escape distance, to share the sign convention
    return -max(lo - value, value - hi), mismatch


def recheck_payload(payload: dict) -> RecheckResult:
    """Recompute a payload's violation and compare against the stored value.

    For inequality counterexamples the stored value is `violation`; for hull
    certificates it is the negated escape `margin`, and the certificate's
    stored `value` and `interval` must also match their recomputation.
    Passing requires a negative recomputation within a factor of two of the
    stored magnitude. A malformed payload raises `InputError`. A payload's
    function is rebuilt from its label by `parse_function`, so only
    counterexamples of catalog and inline labels can be rechecked; one from
    a suite run on a custom `ScalarFunctionSpec` raises `InputError`.
    """
    payload = decode_payload(payload)
    if payload["kind"] == "hull-certificate":
        stored = -payload["margin"]
        recomputed, mismatch = _recompute_certificate(payload)
        if mismatch:
            return RecheckResult(False, stored, recomputed, mismatch)
    else:
        stored = payload["violation"]
        recomputed = _recompute(payload)
    if stored >= 0:
        return RecheckResult(False, stored, recomputed, "stored violation is not negative")
    if recomputed >= 0:
        return RecheckResult(False, stored, recomputed, "recomputation found no violation")
    ratio = recomputed / stored
    ok = 0.5 <= ratio <= 2.0
    detail = "" if ok else f"recomputed/stored ratio {ratio:.3f} outside [0.5, 2]"
    return RecheckResult(ok, stored, recomputed, detail)
