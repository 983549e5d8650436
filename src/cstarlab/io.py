"""JSON interchange: matrix files, counterexample payloads, run reports.

Matrices travel as {"dim": n, "entries": [[[re, im], ...], ...]} row-major.
Report files split into a deterministic `body` (identical bytes for
identical command line and seed) and a `meta` section holding wall-clock
data that is excluded from determinism comparisons. Encoders emit JSON-native
values only, so one `json.dumps` (`canonical_dumps`) serializes a report as
it stands; `write_json` writes every CLI file, an unwritable path raising
`InputError`.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from .errors import InputError
from .hermitian import CONSTRUCTION_TOL, SCALE_FLOOR, HermitianMatrix, ToleranceConfig

if TYPE_CHECKING:  # convexity imports this module; `report` loads no engine module
    from .convexity import Counterexample, TestVerdict
    from .hull import FeasibilityResult, HullCertificate, HullWitness

__all__ = [
    "encode_complex_matrix",
    "decode_complex_matrix",
    "load_matrix",
    "save_matrix",
    "canonical_dumps",
    "write_json",
    "report_body_bytes",
    "counterexample_to_payload",
    "verdict_to_payload",
    "witness_to_payload",
    "certificate_to_payload",
    "feasibility_to_payload",
    "build_report",
    "write_report",
    "load_report",
    "decode_payload",
]

EVIDENCE_NOTE = "no-violation-found is sampling evidence, not a proof"


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path, obj) -> None:
    """Write `canonical_dumps(obj)` to `path`; a path that cannot be
    written raises `InputError`."""
    text = canonical_dumps(obj)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def report_body_bytes(report: dict) -> bytes:
    """Deterministic byte form of a report's body."""
    return canonical_dumps(report.get("body", report)).encode()


def _pairs(arr) -> list:
    """Nested [re, im] pairs of Python floats, from one `tolist`."""
    a = np.ascontiguousarray(arr, dtype=np.complex128)
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


def encode_complex_matrix(arr) -> dict:
    rows, _ = np.shape(arr)
    return {"dim": rows, "entries": _pairs(arr)}


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


def _read_json(path):
    """The JSON value in `path`; an unreadable file or invalid JSON raises
    `InputError`."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def load_matrix(path) -> HermitianMatrix:
    arr = decode_complex_matrix(_read_json(path))
    if arr.shape[0] != arr.shape[1]:
        raise InputError(f"{path}: matrix is not square")
    return HermitianMatrix(arr)


def save_matrix(path, H: HermitianMatrix) -> None:
    write_json(path, encode_complex_matrix(H.array))


def _number(value, dim=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
        raise InputError(f"{value!r} is not a finite number")
    return float(value)


def _list(value, length=None) -> list:
    if not isinstance(value, list) or not value or length not in (None, len(value)):
        raise InputError(f"{value!r:.40} is not a list of {length or 'one or more'} entries")
    return value


def _matrix(value, dim) -> np.ndarray:
    arr = decode_complex_matrix(value)
    if arr.shape != (dim, dim):
        raise InputError(f"a matrix of shape {arr.shape} where the payload's dim is {dim}")
    if not np.isfinite(arr).all():
        raise InputError("a matrix has non-finite entries")
    return arr


def _matrices(value, dim) -> list:
    return [_matrix(p, dim) for p in _list(value)]


def _map(spec, dim) -> tuple:
    if not isinstance(spec, dict) or spec.get("transpose") not in (True, False):
        raise InputError(f"map {spec!r:.40} is not {{kraus, transpose}}")
    return _matrices(spec["kraus"], dim), bool(spec["transpose"])


def _family_at(fams, j: int):
    from .combinations import _family_at  # only a suite cuts map families

    return _family_at(fams, j)


def _interval(value, dim=None) -> tuple:
    return tuple(_number(b) for b in _list(value, 2))


def _vector(value, dim) -> np.ndarray:
    return np.array([complex(*(_number(v) for v in _list(p, 2))) for p in _list(value, dim)])


class _InputKey(NamedTuple):
    """How one counterexample input is cut for sample j from a suite's
    stacked draw, encoded into a payload, and decoded from one:
    `decode(value, dim)` at the payload's dim."""

    cut: Callable
    encode: Callable
    decode: Callable


_OPERATORS = _InputKey(lambda v, j: [HermitianMatrix._wrap(x[j]) for x in v],
                      lambda v: [encode_complex_matrix(x.array) for x in v], _matrices)

# The one schema of counterexample inputs, read by `convexity._stacked`,
# `counterexample_to_payload` and `recheck`, which keeps its own formulas.
# Stacks hold one (n, d, d) array per operand, `maps` the families of
# `_sample_families` and `bound_value` one entry per sample; `bound` and
# `interval` are suite-wide. A decoded map is (Kraus operators, transpose).
INPUT_KEYS = {
    "xs": _OPERATORS,
    "ys": _OPERATORS,
    "coeffs": _InputKey(lambda v, j: [c[j] for c in v],
                       lambda v: [encode_complex_matrix(c) for c in v], _matrices),
    "maps": _InputKey(
        _family_at,
        lambda fam: [{"kraus": [encode_complex_matrix(a) for a in phi.kraus],
                      "transpose": bool(phi.transpose)} for phi in fam.maps],
        lambda v, dim: [_map(spec, dim) for spec in _list(v)]),
    "bound": _InputKey(lambda v, j: v, lambda v: encode_complex_matrix(v.array), _matrix),
    "bound_value": _InputKey(lambda v, j: v[j], float, _number),
    "interval": _InputKey(lambda v, j: v, lambda v: [float(b) for b in v], _interval),
}

# each kind's input keys, and whether its payload names a function
_KINDS = {
    "midpoint": (("xs",), True),
    "log-midpoint": (("xs",), True),
    "jensen": (("xs", "coeffs"), True),
    "jensen map-family": (("xs", "maps"), True),
    "log-harmonic-jensen": (("xs", "coeffs"), True),
    "epigraph": (("xs", "ys", "coeffs"), True),
    "log-epigraph": (("xs", "ys", "coeffs"), True),
    "interval-set": (("xs", "coeffs", "bound"), False),
    "sublevel": (("xs", "coeffs", "bound_value"), True),
    "harmonic-sum": (("xs", "coeffs", "interval"), False),
}

# a hull certificate's fields, decoded at the length of its vector
_CERTIFICATE_FIELDS = {"vector": _vector, "value": _number, "interval": _interval,
                       "margin": _number, "t": _matrix, "x": _matrix}


def decode_payload(payload) -> dict:
    """A counterexample or hull-certificate payload with the fields that
    `recheck` reads decoded through the schema: for a counterexample `kind`,
    `mode`, `function`, `violation` and the kind's `inputs`.

    Raises `InputError`, naming the kind, for a missing field, a value of
    the wrong type, operand lists of unequal length (or, for the midpoint
    kinds, other than two), or a matrix that is not square of the
    payload's dim. Premises such as sum C_i* C_i = I are not checked."""
    if not isinstance(payload, dict):
        raise InputError(f"payload {payload!r:.40} is not an object")
    kind, mode = payload.get("kind"), payload.get("mode")
    name = f"{kind} {mode}" if f"{kind} {mode}" in _KINDS else str(kind)
    if kind is None:
        raise InputError("payload has no kind")
    if name not in _KINDS and kind != "hull-certificate":
        raise InputError(f"unknown payload kind {kind!r}")
    try:
        if kind == "hull-certificate":
            dim = len(_list(payload["vector"]))
            return {"kind": kind, **{key: decode(payload[key], dim)
                                     for key, decode in _CERTIFICATE_FIELDS.items()}}
        keys, labeled = _KINDS[name]
        dim, inputs, label = payload["dim"], payload["inputs"], payload.get("function")
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise InputError(f"dim {dim!r} is not a positive integer")
        if not isinstance(inputs, dict):
            raise InputError("inputs is not an object")
        if labeled and not isinstance(label, str):
            raise InputError(f"function {label!r} is not a function label")
        decoded = {key: INPUT_KEYS[key].decode(inputs[key], dim) for key in keys}
        # one entry per operand in each list: xs, ys, coeffs and maps
        lengths = {key: len(v) for key, v in decoded.items() if isinstance(v, list)}
        if len(set(lengths.values())) > 1 or kind.endswith("midpoint") and lengths["xs"] != 2:
            raise InputError(f"operand lists of lengths {lengths}")
        return {"kind": kind, "mode": mode, "function": label, "inputs": decoded,
                "violation": _number(payload["violation"])}
    except KeyError as exc:
        raise InputError(f"{kind} payload has no field {exc}") from None
    except InputError as exc:
        raise InputError(f"{kind} payload: {exc}") from None


def counterexample_to_payload(ce: Counterexample) -> dict:
    return {
        "kind": ce.kind,
        "dim": ce.dim,
        "function": ce.function,
        "mode": ce.mode,
        "inputs": {key: INPUT_KEYS[key].encode(v) for key, v in ce.inputs.items()},
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
        "eigenvalues": witness.eigenvalues.tolist(),
        "blocks": [encode_complex_matrix(b.array) for b in witness.blocks],
    }


def certificate_to_payload(
    cert: HullCertificate, T: HermitianMatrix, X: HermitianMatrix
) -> dict:
    return {
        "kind": "hull-certificate",
        "vector": _pairs(cert.vector),
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
            "construction_tol": CONSTRUCTION_TOL,
            "psd_tol": tol.psd_tol,
            "solver_tol": tol.solver_tol,
            "abs_floor": SCALE_FLOOR,
        },
        "results": results,
    }


def write_report(path, body: dict, meta: dict) -> dict:
    report = {"body": body, "meta": meta}
    if path is not None:
        write_json(path, report)
    return report


def load_report(path) -> dict:
    """A run report; its body must be an object whose `results`, if any,
    are a list of objects."""
    report = _read_json(path)
    if not isinstance(report, dict) or not isinstance(report.get("body"), dict):
        raise InputError(f"{path} is not a run report (missing body)")
    results = report["body"].get("results", [])
    if not isinstance(results, list) or not all(isinstance(r, dict) for r in results):
        raise InputError(f"{path}: results is not a list of objects")
    return report
