"""Independent checks of every op's output.

Suite reports must carry the verdict the generator built them for, and
every counterexample or certificate must re-verify through
`cstarlab.recheck.recheck_payload`. Hull verdicts must agree with the
spectral-interval oracle, and every witness is checked against its defining
conditions (sum E_i = I, sum lam_i E_i = X, E_i >= 0) with scipy, not with
`HullWitness.validate`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from cstarlab.errors import CstarlabError
from cstarlab.hermitian import HermitianMatrix
from cstarlab.hull import spectral_interval_oracle
from cstarlab.io import report_body_bytes
from cstarlab.recheck import recheck_payload

EXIT_CODES = {"member": {0}, "non-member": {1}, "tight": {0, 3}}
STATUS_OF_EXIT = {0: "member", 1: "non-member", 3: "boundary"}

# witness tolerances, relative to the spectral scale of T and X
WITNESS_EQ_TOL = 1e-8
WITNESS_PSD_TOL = 1e-10


@dataclass
class Outcome:
    """What one op produced and whether it was right.

    The counts are exact for a given input, which is what lets two runs of
    one seed be compared field by field.
    """

    ok: bool
    detail: str = ""
    digest: str = ""
    out_bytes: int = 0
    samples_run: int = 0
    resamples: int = 0


def _record_body(outcome: Outcome, report: dict) -> None:
    """Digest and size of a report body in the program's canonical byte
    form; the `meta` section holds wall-clock data and is left out."""
    raw = report_body_bytes(report)
    outcome.digest = hashlib.sha256(raw).hexdigest()
    outcome.out_bytes = len(raw)


def _decode(payload) -> np.ndarray:
    return np.array(
        [[complex(p[0], p[1]) for p in row] for row in payload["entries"]],
        dtype=np.complex128,
    )


def check_witness(payload: dict, t: np.ndarray, x: np.ndarray) -> str:
    """Empty string if the witness blocks prove x in the hull of t."""
    lam_t = scipy.linalg.eigvalsh(t)
    scale = max(float(np.max(np.abs(lam_t))), float(np.max(np.abs(scipy.linalg.eigvalsh(x)))), 1.0)
    lam = np.asarray(payload["eigenvalues"], float)
    if lam.shape != lam_t.shape or np.max(np.abs(lam - lam_t)) > WITNESS_EQ_TOL * scale:
        return "witness eigenvalues are not the spectrum of T"
    blocks = [_decode(b) for b in payload["blocks"]]
    dim = t.shape[0]
    total = sum(blocks)
    moment = sum(l * b for l, b in zip(lam, blocks))
    sum_defect = float(np.linalg.norm(total - np.eye(dim), 2))
    moment_defect = float(np.linalg.norm(moment - x, 2))
    min_eig = min(float(scipy.linalg.eigvalsh((b + b.conj().T) / 2.0)[0]) for b in blocks)
    if sum_defect > WITNESS_EQ_TOL:
        return f"sum of blocks misses I by {sum_defect:.3e}"
    if moment_defect > WITNESS_EQ_TOL * scale:
        return f"moment misses X by {moment_defect:.3e}"
    if min_eig < -WITNESS_PSD_TOL * scale:
        return f"block min eigenvalue {min_eig:.3e} is negative"
    return ""


def _recheck(payload: dict) -> str:
    result = recheck_payload(payload)
    return "" if result.ok else f"{payload.get('kind')} payload failed recheck: {result.detail}"


def _load(path: str):
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw, json.loads(raw)


def _check_suite(op, rc: int, outcome: Outcome) -> str:
    if not os.path.exists(op.out):
        return "no report written"
    _, report = _load(op.out)
    body = report["body"]
    _record_body(outcome, report)
    results = body["results"]
    statuses = [r["status"] for r in results]
    outcome.samples_run = sum(r["samples_run"] for r in results)
    outcome.resamples = sum(r["resamples"] for r in results)
    for r in results:
        if r["counterexample"] is not None:
            bad = _recheck(r["counterexample"])
            if bad:
                return bad
    violated = "violated" in statuses
    if op.expect == "pass":
        if rc != 0 or violated:
            return f"expected no violation, got exit {rc} and {statuses}"
    else:
        if rc != 1 or not violated:
            return f"expected a violation, got exit {rc} and {statuses}"
    if op.command == "classify" and body["classification_conflict"]:
        return f"classification conflict: observed {body['observed_class']}"
    return ""


def _check_verify(op, rc: int, stdout: str) -> str:
    _, report = _load(op.report)
    expected = sum(
        bool(r.get(key)) for r in report["body"]["results"] for key in ("counterexample", "certificate")
    )
    lines = [ln for ln in stdout.splitlines() if ln.startswith("payload ")]
    if rc != 0:
        return f"verify exited {rc}"
    if len(lines) != expected or not all(ln.endswith("-> ok") for ln in lines):
        return f"verify checked {len(lines)} of {expected} payloads: {stdout.strip()[:200]}"
    return ""


def _oracle_status(t: np.ndarray, x: np.ndarray) -> str:
    inside = spectral_interval_oracle(HermitianMatrix(t), HermitianMatrix(x)).inside
    return "member" if inside else "non-member"


def _inverse(a: np.ndarray) -> np.ndarray:
    w, u = scipy.linalg.eigh(a)
    inv = (u * (1.0 / w)) @ u.conj().T
    return (inv + inv.conj().T) / 2.0


def _check_hull(op, rc: int, stdout: str, outcome: Outcome) -> str:
    if rc not in EXIT_CODES[op.expect]:
        return f"{op.expect} case exited {rc}"
    status = STATUS_OF_EXIT[rc]
    if op.expect != "tight" and _oracle_status(op.t, op.x) != op.expect:
        return f"oracle disagrees with the generated {op.expect} case"
    t, x = op.t, op.x
    if op.command == "lch member":
        # witness and certificate refer to the reduced problem (T^-1, X^-1)
        t, x = _inverse(t), _inverse(x)
    if op.command == "hull witness":
        if status == "member":
            if not os.path.exists(op.out):
                return "member verdict without a witness file"
            raw, payload = _load(op.out)
            outcome.out_bytes = len(raw)
            outcome.digest = hashlib.sha256(raw).hexdigest()
            return check_witness(payload, t, x)
        outcome.digest = hashlib.sha256(stdout.encode()).hexdigest()
        return ""
    _, report = _load(op.out)
    _record_body(outcome, report)
    (result,) = report["body"]["results"]
    if result["status"] != status:
        return f"report status {result['status']} does not match exit {rc}"
    if status == "member":
        if result["witness"] is None:
            return "member verdict without a witness"
        return check_witness(result["witness"], t, x)
    if status == "non-member":
        if result["certificate"] is None:
            return "non-member verdict without a certificate"
        return _recheck(result["certificate"])
    return ""


def check_op(op, rc: int, stdout: str) -> Outcome:
    """Check one op's exit code, printed output and output file."""
    outcome = Outcome(ok=False)
    try:
        if op.command == "verify":
            bad = _check_verify(op, rc, stdout)
        elif op.t is not None:
            bad = _check_hull(op, rc, stdout, outcome)
        else:
            bad = _check_suite(op, rc, outcome)
    except (CstarlabError, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        bad = f"unreadable output: {type(exc).__name__}: {exc}"
    outcome.ok = not bad
    outcome.detail = bad
    return outcome
