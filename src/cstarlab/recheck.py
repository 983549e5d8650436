"""Independent re-verification of counterexample and certificate payloads.

Everything here recomputes from the serialized payload alone, on a separate
numerical path from the engines that produced it (scipy eigensolvers and
locally re-derived matrix formulas). A payload passes when the recomputed
violation is negative and within a factor of two of the stored magnitude;
a hull certificate's stored value and interval must also match their
recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InputError
from .functions import parse_function
from .hermitian import DEFAULT_TOL
from .io import decode_complex_matrix

__all__ = ["RecheckResult", "recheck_payload"]


@dataclass(frozen=True)
class RecheckResult:
    ok: bool
    stored: float
    recomputed: float
    detail: str = ""


def _eigh(a):
    return scipy.linalg.eigh((a + a.conj().T) / 2.0)


def _mineig(a) -> float:
    return float(scipy.linalg.eigvalsh((a + a.conj().T) / 2.0)[0])


def _maxeig(a) -> float:
    return float(scipy.linalg.eigvalsh((a + a.conj().T) / 2.0)[-1])


def _fun(label, a):
    f = parse_function(label)
    w, u = _eigh(a)
    for lam in w:
        if not f.domain.contains(float(lam)):
            raise InputError(f"payload eigenvalue {lam} escapes the domain of {label}")
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
    y = x.T if spec["transpose"] else x
    out = np.zeros_like(y)
    for k in spec["kraus"]:
        a = decode_complex_matrix(k)
        out = out + a.conj().T @ y @ a
    return out


def _recompute(payload) -> float:
    kind = payload["kind"]
    inputs = payload["inputs"] if "inputs" in payload else {}
    xs = [decode_complex_matrix(p) for p in inputs.get("xs", [])]
    ys = [decode_complex_matrix(p) for p in inputs.get("ys", [])]
    coeffs = [decode_complex_matrix(p) for p in inputs.get("coeffs", [])]
    label = payload.get("function")

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
        bound = decode_complex_matrix(inputs["bound"])
        combined = _combine(coeffs, xs)
        return min(_mineig(combined), _mineig(bound - combined))
    if kind == "sublevel":
        combined = _combine(coeffs, xs)
        return float(inputs["bound_value"]) - _maxeig(_fun(label, combined))
    if kind == "harmonic-sum":
        lo, hi = inputs["interval"]
        combined = _inv(_combine(coeffs, [_inv(z) for z in xs]))
        eye = np.eye(combined.shape[0])
        return min(_mineig(combined - lo * eye), _mineig(hi * eye - combined))
    raise InputError(f"unknown payload kind {kind!r}")


def _recompute_certificate(payload) -> tuple[float, str]:
    """The negated escape of <Xa, a> from [lam_min(T), lam_max(T)], and which
    stored field, `value` or `interval`, differs from its recomputation by
    more than the psd band at the payload's scale ('' when neither does)."""
    vec = np.array([complex(p[0], p[1]) for p in payload["vector"]])
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-8:
        raise InputError(f"certificate vector is not unit (norm {norm})")
    x = decode_complex_matrix(payload["x"])
    t = decode_complex_matrix(payload["t"])
    value = float((vec.conj() @ x @ vec).real)
    lam = scipy.linalg.eigvalsh((t + t.conj().T) / 2.0)
    lo, hi = float(lam[0]), float(lam[-1])
    band = DEFAULT_TOL.psd(max(abs(lo), abs(hi), abs(value)))
    stored_lo, stored_hi = (float(v) for v in payload["interval"])
    mismatch = ""
    if abs(float(payload["value"]) - value) > band:
        mismatch = f"stored value {float(payload['value']):.6e} is not <Xa, a> = {value:.6e}"
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
    stored magnitude.
    """
    kind = payload.get("kind")
    if kind is None:
        raise InputError("payload has no kind")
    if kind == "hull-certificate":
        stored = -float(payload["margin"])
        recomputed, mismatch = _recompute_certificate(payload)
        if mismatch:
            return RecheckResult(False, stored, recomputed, mismatch)
    else:
        stored = float(payload["violation"])
        recomputed = _recompute(payload)
    if stored >= 0:
        return RecheckResult(False, stored, recomputed, "stored violation is not negative")
    if recomputed >= 0:
        return RecheckResult(False, stored, recomputed, "recomputation found no violation")
    ratio = recomputed / stored
    ok = 0.5 <= ratio <= 2.0
    detail = "" if ok else f"recomputed/stored ratio {ratio:.3f} outside [0.5, 2]"
    return RecheckResult(ok, stored, recomputed, detail)
