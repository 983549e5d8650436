"""Constructive membership for the C*-convex hull of a Hermitian matrix.

For T with ascending eigenvalues lam_1..lam_n (with multiplicity), the hull
of {T} is parametrized by PSD blocks E_i with sum E_i = I and
sum lam_i E_i = X, and X lies in it iff every eigenvalue of X lies in
[lam_1, lam_n]. Membership is decided in closed form from that interval: an
escape beyond the psd band yields a separating certificate (an eigenvector
of X whose eigenvalue escapes [lam_1, lam_n]); otherwise the two extreme
blocks E_1 = (lam_n I - X)/gap and E_n = (X - lam_1 I)/gap form a witness,
which is validated before `member` is returned and yields an honest
`boundary` verdict when it fails. Every band follows the `ToleranceConfig`
rule at the spectral scale of T and X. The log-convex hull reduces to the same
decision through inversion, and the hull of f(T) through the functional
calculus; every verdict carries the operands its witness or certificate
refers to.

This module holds the hull decision and its proof objects only; the
sampling suites, the harmonic-sum closure suite among them, live in
`convexity`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InputError
from .combinations import CoefficientTuple, _inv_pd_arr, apply_combination, validate_tuple
from .functions import ScalarFunctionSpec
from .hermitian import (
    DEFAULT_TOL,
    SCALE_FLOOR,
    HermitianMatrix,
    ToleranceConfig,
    _eigh,
    _require_pd,
    apply_function,
)

__all__ = [
    "HullWitness",
    "HullCertificate",
    "WitnessCheck",
    "OracleResult",
    "FeasibilityResult",
    "FunctionHull",
    "spectral_interval_oracle",
    "hull_membership",
    "two_point_witness",
    "sample_hull_member",
    "witness_to_tuple",
    "lch_membership",
    "hull_of_function",
]


@dataclass(frozen=True)
class WitnessCheck:
    valid: bool
    min_eig: float
    sum_defect: float
    moment_defect: float


@dataclass(frozen=True, eq=False)
class HullWitness:
    """PSD blocks E_1..E_n aligned with the ascending eigenvalues of T."""

    eigenvalues: np.ndarray
    blocks: tuple

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, float)
        lam.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if len(self.blocks) != lam.shape[0]:
            raise InputError("one block per eigenvalue is required")

    def validate(self, X: HermitianMatrix) -> WitnessCheck:
        """Check ||sum lam_i E_i - X|| <= DEFAULT_TOL.psd(scale) at the spectral
        scale of the eigenvalues and X (whatever --tol says), ||sum E_i - I|| <=
        1e-8 and E_i >= -1e-10 (spectral norms). The blocks sum to I, so their
        sum defect and eigenvalues are dimensionless and keep absolute bounds."""
        E = np.array([block.array for block in self.blocks])
        min_eig = float(np.min(np.linalg.eigvalsh(E)))
        sum_defect = float(np.linalg.norm(E.sum(axis=0) - np.eye(X.dim), 2))
        moment = (self.eigenvalues[:, None, None] * E).sum(axis=0)
        moment_defect = float(np.linalg.norm(moment - X.array, 2))
        band = DEFAULT_TOL.psd(_scale_of(self.eigenvalues, np.linalg.eigvalsh(X.array)))
        valid = min_eig >= -1e-10 and sum_defect <= 1e-8 and moment_defect <= band
        return WitnessCheck(valid, min_eig, sum_defect, moment_defect)


@dataclass(frozen=True, eq=False)
class HullCertificate:
    """Unit vector a with <Xa, a> outside [lam_min(T), lam_max(T)]."""

    vector: np.ndarray
    value: float
    interval: tuple
    margin: float

    def __post_init__(self):
        v = np.asarray(self.vector, np.complex128)
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)


@dataclass(frozen=True)
class OracleResult:
    inside: bool
    margin: float

    def __bool__(self):
        return self.inside


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Verdict of a hull decision on the operands `t` and `x`, which its
    witness or certificate refer to. `residual` is the escape of x beyond the
    hull for `non-member`, the distance of x to lam I for a degenerate t, and
    otherwise the largest defect of the closed-form witness. `check` is the
    validation of that witness (None for `non-member`); it is not
    serialized. `iterations` is always 0 and stays because the perfbench
    harness reads it."""

    status: str  # 'member' | 'non-member' | 'boundary'
    residual: float
    t: HermitianMatrix
    x: HermitianMatrix
    witness: HullWitness | None = None
    certificate: HullCertificate | None = None
    check: WitnessCheck | None = None
    iterations: int = field(default=0, init=False)

    def __post_init__(self):
        if self.status == "member" and self.witness is None:
            raise InputError("member status requires a witness")
        if self.status == "non-member" and self.certificate is None:
            raise InputError("non-member status requires a certificate")


def _scale_of(lam: np.ndarray, w: np.ndarray) -> float:
    return max(float(np.max(np.abs(lam))), float(np.max(np.abs(w))))


def spectral_interval_oracle(
    T: HermitianMatrix, X: HermitianMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> OracleResult:
    """Interval test: X belongs to the hull of T iff every eigenvalue of X
    lies in [lam_min(T), lam_max(T)].

    The margin is the signed distance of the worst eigenvalue of X to that
    interval: positive inside, negative outside. This characterization is
    validated against brute-force sampling and the two-point construction
    in the test suite before anything else relies on it.
    """
    if T.dim != X.dim:
        raise DimensionMismatchError(f"dims {T.dim} and {X.dim} differ")
    lam = np.linalg.eigvalsh(T.array)
    w = np.linalg.eigvalsh(X.array)
    margin = float(min(np.min(w) - lam[0], lam[-1] - np.max(w)))
    return OracleResult(inside=margin >= -tol.psd(_scale_of(lam, w)), margin=margin)


def _certificate(x: np.ndarray, lam_lo: float, lam_hi: float) -> HullCertificate:
    w, u = _eigh(x)
    below = lam_lo - w[0]
    above = w[-1] - lam_hi
    idx = 0 if below >= above else len(w) - 1
    return HullCertificate(
        vector=u[:, idx].copy(),
        value=float(w[idx]),
        interval=(float(lam_lo), float(lam_hi)),
        margin=float(max(below, above)),
    )


def _closed_form(T: HermitianMatrix, X: HermitianMatrix, tol: ToleranceConfig):
    """(lam, scale, degenerate, escape, witness), shared by `hull_membership`
    and `two_point_witness`. For a degenerate T (gap <= DEFAULT_TOL.solver) the hull
    is {lam I}, escape is the distance of X to it and the witness E_1 = I;
    otherwise escape is the distance by which the spectrum of X leaves
    [lam_min, lam_max] (negative inside) and the witness the two-point one.
    The witness is None when escape exceeds the psd band, else unvalidated.
    """
    if T.dim != X.dim:
        raise DimensionMismatchError(f"dims {T.dim} and {X.dim} differ")
    lam = np.linalg.eigvalsh(T.array)
    x = X.array
    w = np.linalg.eigvalsh(x)
    dim = T.dim
    scale = _scale_of(lam, w)
    eye = np.eye(dim, dtype=np.complex128)
    stack = np.zeros((lam.shape[0], dim, dim), np.complex128)
    gap = float(lam[-1] - lam[0])
    degenerate = gap <= DEFAULT_TOL.solver(scale)
    if degenerate:
        center = float(np.mean(lam))
        escape = float(np.max(np.abs(np.linalg.eigvalsh(x - center * eye))))
        stack[0] = eye
    else:
        escape = float(max(lam[0] - w[0], w[-1] - lam[-1]))
        stack[0] = (lam[-1] * eye - x) / gap
        stack[-1] = (x - lam[0] * eye) / gap
    if escape > tol.psd(scale):
        return lam, scale, degenerate, escape, None
    blocks = [HermitianMatrix._wrap(e) for e in stack]
    return lam, scale, degenerate, escape, HullWitness(eigenvalues=lam, blocks=blocks)


def hull_membership(
    T: HermitianMatrix, X: HermitianMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> FeasibilityResult:
    """Decide whether X lies in the C*-convex hull of {T}.

    An escape of the spectrum of X beyond the psd band returns `non-member`
    with a separating eigenvector certificate. Otherwise the closed-form
    witness is built and validated: `member` if it passes, `boundary` if it
    fails, which is where ties inside the psd band land. For a degenerate T
    the witness E_1 = I is validated too, but accepted only within the
    solver tolerance of lam I, and the rest of the band is `boundary`.
    """
    lam, scale, degenerate, escape, witness = _closed_form(T, X, tol)
    if witness is None:
        return FeasibilityResult(
            status="non-member",
            residual=escape,
            t=T,
            x=X,
            certificate=_certificate(X.array, lam[0], lam[-1]),
        )
    check = witness.validate(X)
    if degenerate:
        valid = escape <= tol.solver(scale)
        residual = escape
    else:
        valid = check.valid
        residual = max(check.sum_defect, check.moment_defect, -check.min_eig)
    if valid:
        return FeasibilityResult(status="member", residual=residual, t=T, x=X, witness=witness,
                                 check=check)
    return FeasibilityResult(status="boundary", residual=residual, t=T, x=X, check=check)


def two_point_witness(
    T: HermitianMatrix, X: HermitianMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> HullWitness:
    """Closed-form witness using only the extreme eigenvalues of T:
    E_min = (lam_max I - X)/(lam_max - lam_min) and
    E_max = (X - lam_min I)/(lam_max - lam_min), all other blocks zero.

    Raises InputError when X escapes the hull beyond the psd band. The
    witness is returned unvalidated; check it with `HullWitness.validate`."""
    _, _, degenerate, escape, witness = _closed_form(T, X, tol)
    if witness is None:
        if degenerate:
            raise InputError("degenerate T: only lam I itself lies in the hull")
        raise InputError(f"X lies outside the hull interval (margin {-escape:.3e})")
    return witness


def sample_hull_member(T: HermitianMatrix, t: CoefficientTuple) -> HermitianMatrix:
    """sum C_i* T C_i for a validated coefficient tuple: a guaranteed member."""
    if t.dim != T.dim:
        raise DimensionMismatchError(f"tuple dim {t.dim} does not match {T.dim}")
    check = validate_tuple(t)
    if not check.ok:
        raise InputError(f"invalid coefficient tuple: defect {check.defect:.3e}")
    return apply_combination(t, [T] * t.m)


def witness_to_tuple(T: HermitianMatrix, witness: HullWitness) -> CoefficientTuple:
    """Convert witness blocks into an explicit coefficient tuple with
    sum C* T C = sum lam_i E_i.

    With u_i the i-th eigenvector of T and E_i = sum_k x_ik x_ik* a rank
    decomposition of the i-th block, the rank-one coefficients
    C_ik = u_i x_ik* satisfy sum C_ik* T C_ik = sum_i lam_i E_i and
    sum C_ik* C_ik = sum_i E_i = I. This exhibits witnessed membership in
    the generating form of the hull rather than the block parametrization.
    """
    if T.dim != witness.blocks[0].dim:
        raise DimensionMismatchError("witness blocks do not match the dim of T")
    lam, u = _eigh(T.array)
    if lam.shape[0] != witness.eigenvalues.shape[0]:
        raise InputError("witness length does not match the spectrum of T")
    scale = max(float(np.max(np.abs(lam))), SCALE_FLOOR)
    coeffs = []
    for i, block in enumerate(witness.blocks):
        w, v = _eigh(block.array)
        for k in range(len(w)):
            if w[k] <= 1e-14 * scale:
                continue
            x = np.sqrt(w[k]) * v[:, k]
            coeffs.append(np.outer(u[:, i], x.conj()))
    if not coeffs:
        raise InputError("witness has no nonzero blocks")
    return CoefficientTuple(coeffs)


def lch_membership(
    T: HermitianMatrix, X: HermitianMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> FeasibilityResult:
    """Membership in the C*-log-convex hull of {T}, decided through the
    reduction X in LCH(T) iff X^{-1} in CH(T^{-1}); the verdict's operands,
    and so its witness or certificate, are that reduced pair."""
    if T.dim != X.dim:
        raise DimensionMismatchError(f"dims {T.dim} and {X.dim} differ")
    _require_pd(tol, T=T, X=X)
    return hull_membership(*(HermitianMatrix._wrap(_inv_pd_arr(M.array)) for M in (T, X)), tol)


@dataclass(frozen=True, eq=False)
class FunctionHull:
    """Descriptor of the hull of f(T): the ascending list f(lam_i)."""

    eigenvalues: np.ndarray
    transformed: HermitianMatrix

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, float)
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)

    def membership(self, X: HermitianMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> FeasibilityResult:
        return hull_membership(self.transformed, X, tol)


def hull_of_function(T: HermitianMatrix, f: ScalarFunctionSpec) -> FunctionHull:
    """Hull descriptor for f(T) through the functional calculus; membership
    queries delegate to `hull_membership` on f(T)."""
    ft = apply_function(f, T)
    return FunctionHull(
        eigenvalues=np.linalg.eigvalsh(ft.array),
        transformed=ft,
    )

