"""JSON interchange: matrix files, counterexample payloads, run reports.

Matrices travel as {"dim": n, "entries": [[[re, im], ...], ...]} row-major.
Report files split into a deterministic `body` (identical bytes for
identical command line and seed) and a `meta` section holding wall-clock
data that is excluded from determinism comparisons.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .errors import InputError
from .combinations import UnitalMapFamily
from .convexity import EVIDENCE_NOTE, Counterexample, TestVerdict
from .hermitian import SCALE_FLOOR, HermitianMatrix, ToleranceConfig
from .hull import FeasibilityResult, HullCertificate, HullWitness

__all__ = [
    "encode_complex_matrix",
    "decode_complex_matrix",
    "load_matrix",
    "save_matrix",
    "canonical_dumps",
    "report_body_bytes",
    "counterexample_to_payload",
    "verdict_to_payload",
    "witness_to_payload",
    "certificate_to_payload",
    "feasibility_to_payload",
    "build_report",
    "write_report",
    "load_report",
]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):  # before int: bool is a subclass of int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _dumps(jsonable) -> str:
    return json.dumps(jsonable, sort_keys=True, separators=(",", ":")) + "\n"


def canonical_dumps(obj) -> str:
    return _dumps(_jsonable(obj))


def report_body_bytes(report: dict) -> bytes:
    """Deterministic byte form of a report's body."""
    return canonical_dumps(report.get("body", report)).encode()


def encode_complex_matrix(arr) -> dict:
    a = np.asarray(arr, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    return {
        "dim": int(a.shape[0]),
        "entries": [[[float(v.real), float(v.imag)] for v in row] for row in a],
    }


def decode_complex_matrix(payload) -> np.ndarray:
    try:
        dim = int(payload["dim"])
        entries = payload["entries"]
        arr = np.array(
            [[complex(pair[0], pair[1]) for pair in row] for row in entries],
            dtype=np.complex128,
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InputError(f"malformed matrix payload: {exc}") from exc
    if arr.shape[0] != dim or (arr.ndim != 2):
        raise InputError(f"matrix payload dim {dim} does not match entries shape {arr.shape}")
    return arr


def load_matrix(path) -> HermitianMatrix:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    arr = decode_complex_matrix(payload)
    if arr.shape[0] != arr.shape[1]:
        raise InputError(f"{path}: matrix is not square")
    return HermitianMatrix(arr)


def save_matrix(path, H: HermitianMatrix) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_dumps(encode_complex_matrix(H.array)))


def _encode_inputs(inputs: dict) -> dict:
    out = {}
    for key, value in inputs.items():
        if key in ("xs", "ys"):
            out[key] = [encode_complex_matrix(x.array) for x in value]
        elif key == "coeffs":
            out[key] = [encode_complex_matrix(c) for c in value]
        elif key == "maps":
            fam: UnitalMapFamily = value
            out[key] = [
                {
                    "kraus": [encode_complex_matrix(a) for a in m.kraus],
                    "transpose": bool(m.transpose),
                }
                for m in fam.maps
            ]
        elif key == "bound":
            out[key] = encode_complex_matrix(value.array)
        else:
            out[key] = _jsonable(value)
    return out


def counterexample_to_payload(ce: Counterexample) -> dict:
    return {
        "kind": ce.kind,
        "dim": ce.dim,
        "function": ce.function,
        "mode": ce.mode,
        "inputs": _encode_inputs(ce.inputs),
        "lhs": encode_complex_matrix(ce.lhs.array),
        "rhs": encode_complex_matrix(ce.rhs.array),
        "violation": float(ce.violation),
    }


def verdict_to_payload(verdict: TestVerdict, **context) -> dict:
    payload = dict(context)
    payload.update(
        {
            "status": verdict.status,
            "samples_run": verdict.samples_run,
            "worst_margin": float(verdict.worst_margin),
            "boundary_samples": verdict.boundary_samples,
            "resamples": verdict.resamples,
            "counterexample": (
                counterexample_to_payload(verdict.counterexample)
                if verdict.counterexample
                else None
            ),
        }
    )
    if verdict.status == "no-violation-found":
        payload["note"] = EVIDENCE_NOTE
    return payload


def witness_to_payload(witness: HullWitness) -> dict:
    return {
        "eigenvalues": [float(v) for v in witness.eigenvalues],
        "blocks": [encode_complex_matrix(b.array) for b in witness.blocks],
    }


def certificate_to_payload(
    cert: HullCertificate, T: HermitianMatrix, X: HermitianMatrix
) -> dict:
    return {
        "kind": "hull-certificate",
        "vector": [[float(v.real), float(v.imag)] for v in cert.vector],
        "value": float(cert.value),
        "interval": [float(cert.interval[0]), float(cert.interval[1])],
        "margin": float(cert.margin),
        "t": encode_complex_matrix(T.array),
        "x": encode_complex_matrix(X.array),
    }


def feasibility_to_payload(res: FeasibilityResult) -> dict:
    """The verdict, its witness and its certificate, which carries the
    verdict's own operands (for `lch_membership`, the inverted pair)."""
    return {
        "status": res.status,
        "residual": float(res.residual),
        "witness": witness_to_payload(res.witness) if res.witness else None,
        "certificate": (
            certificate_to_payload(res.certificate, res.t, res.x) if res.certificate else None
        ),
    }


def build_report(command: Sequence[str], seed, tol: ToleranceConfig, results: list) -> dict:
    return {
        "command": list(command),
        "seed": seed,
        "tolerances": {
            "construction_tol": tol.construction_tol,
            "psd_tol": tol.psd_tol,
            "solver_tol": tol.solver_tol,
            "abs_floor": SCALE_FLOOR,
        },
        "results": results,
    }


def write_report(path, body: dict, meta: dict) -> dict:
    report = _jsonable({"body": body, "meta": meta})
    if path is not None:
        with open(path, "w") as fh:
            fh.write(_dumps(report))
    return report


def load_report(path) -> dict:
    try:
        with open(path) as fh:
            report = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(report, dict) or "body" not in report:
        raise InputError(f"{path} is not a run report (missing body)")
    return report
