"""Constructive membership for the C*-convex hull of a Hermitian matrix.

For T with ascending eigenvalues lam_1..lam_n (with multiplicity), the hull
of {T} is parametrized by PSD blocks E_i with sum E_i = I and
sum lam_i E_i = X, and X lies in it iff every eigenvalue of X lies in
[lam_1, lam_n]. Membership is decided in closed form from that interval: an
escape beyond the psd band yields a separating certificate (an eigenvector
of X whose eigenvalue escapes [lam_1, lam_n]); otherwise the two extreme
blocks E_1 = (lam_n I - X)/gap and E_n = (X - lam_1 I)/gap form a witness,
which is validated before `member` is returned and yields an honest
`boundary` verdict when it fails. The log-convex hull reduces to the same
decision through inversion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputError,
    NonPositiveError,
    NumericalError,
)
from .combinations import (
    CoefficientTuple,
    _inv_pd_arr,
    _log_combine_arr,
    _sample_tuple_arrs,
    apply_combination,
    validate_tuple,
)
from .convexity import Counterexample, TestVerdict, _Tracker, _sample_rng
from .functions import ScalarFunctionSpec
from .hermitian import (
    DEFAULT_TOL,
    HermitianMatrix,
    ToleranceConfig,
    _eigh,
    _sym,
    apply_function,
    haar_unitary,
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
    "harmonic_sum_closure_test",
]

_SALT_HARMONIC = 10


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
        """Check ||sum lam_i E_i - X|| <= 1e-8*scale, with scale the spectral
        scale of the eigenvalues and X, and ||sum E_i - I|| <= 1e-8 and
        E_i >= -1e-10 (spectral norms). The blocks sum to I, so their sum
        defect and eigenvalues are dimensionless and keep absolute bounds."""
        E = np.array([block.array for block in self.blocks])
        min_eig = float(np.min(np.linalg.eigvalsh(E)))
        sum_defect = float(np.linalg.norm(E.sum(axis=0) - np.eye(X.dim), 2))
        moment = (self.eigenvalues[:, None, None] * E).sum(axis=0)
        moment_defect = float(np.linalg.norm(moment - X.array, 2))
        scale = _scale_of(self.eigenvalues, X.array)
        valid = min_eig >= -1e-10 and sum_defect <= 1e-8 and moment_defect <= 1e-8 * scale
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
    """Verdict of a hull decision. `residual` is the escape of X beyond the
    hull for `non-member`, the distance of X to lam I for a degenerate T, and
    otherwise the largest defect of the closed-form witness. `iterations` is
    always 0 and stays because the perfbench harness reads it."""

    status: str  # 'member' | 'non-member' | 'boundary'
    residual: float
    witness: HullWitness | None = None
    certificate: HullCertificate | None = None
    iterations: int = field(default=0, init=False)

    def __post_init__(self):
        if self.status == "member" and self.witness is None:
            raise InputError("member status requires a witness")
        if self.status == "non-member" and self.certificate is None:
            raise InputError("non-member status requires a certificate")


def _scale_of(lam: np.ndarray, x: np.ndarray) -> float:
    # hull bands are the unit-scale tolerance times this scale: the floor sits
    # on the scale, not on the band, so a verdict does not change when T and
    # X are scaled together
    return max(float(np.max(np.abs(lam))), float(np.max(np.abs(np.linalg.eigvalsh(x)))), 1e-14)


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
    scale = _scale_of(lam, X.array)
    return OracleResult(inside=margin >= -tol.psd(1.0) * scale, margin=margin)


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
    and `two_point_witness`. For a degenerate T (gap <= 1e-9*scale) the hull
    is {lam I}, escape is the distance of X to it and the witness E_1 = I;
    otherwise escape is the distance by which the spectrum of X leaves
    [lam_min, lam_max] (negative inside) and the witness the two-point one.
    The witness is None when escape exceeds the psd band, else unvalidated.
    """
    if T.dim != X.dim:
        raise DimensionMismatchError(f"dims {T.dim} and {X.dim} differ")
    lam = np.linalg.eigvalsh(T.array)
    x = X.array
    dim = T.dim
    scale = _scale_of(lam, x)
    eye = np.eye(dim, dtype=np.complex128)
    stack = np.zeros((lam.shape[0], dim, dim), np.complex128)
    gap = float(lam[-1] - lam[0])
    degenerate = gap <= 1e-9 * scale
    if degenerate:
        center = float(np.mean(lam))
        escape = float(np.max(np.abs(np.linalg.eigvalsh(x - center * eye))))
        stack[0] = eye
    else:
        w = np.linalg.eigvalsh(x)
        escape = float(max(lam[0] - w[0], w[-1] - lam[-1]))
        stack[0] = (lam[-1] * eye - x) / gap
        stack[-1] = (x - lam[0] * eye) / gap
    if escape > tol.psd(1.0) * scale:
        return lam, scale, degenerate, escape, None
    blocks = [HermitianMatrix(e, atol=np.inf) for e in stack]
    return lam, scale, degenerate, escape, HullWitness(eigenvalues=lam, blocks=blocks)


def hull_membership(
    T: HermitianMatrix, X: HermitianMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> FeasibilityResult:
    """Decide whether X lies in the C*-convex hull of {T}.

    An escape of the spectrum of X beyond the psd band returns `non-member`
    with a separating eigenvector certificate. Otherwise the closed-form
    witness is built and validated: `member` if it passes, `boundary` if it
    fails, which is where ties inside the psd band land. For a degenerate T
    the witness E_1 = I is accepted only within the solver tolerance of
    lam I, and the rest of the band is `boundary`.
    """
    lam, scale, degenerate, escape, witness = _closed_form(T, X, tol)
    if witness is None:
        return FeasibilityResult(
            status="non-member",
            residual=escape,
            certificate=_certificate(X.array, lam[0], lam[-1]),
        )
    if degenerate:
        valid = escape <= tol.solver(1.0) * scale
        residual = escape
    else:
        check = witness.validate(X)
        valid = check.valid
        residual = max(check.sum_defect, check.moment_defect, -check.min_eig)
    if valid:
        return FeasibilityResult(status="member", residual=residual, witness=witness)
    return FeasibilityResult(status="boundary", residual=residual)


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
    scale = max(float(np.max(np.abs(lam))), 1e-14)
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
    reduction X in LCH(T) iff X^{-1} in CH(T^{-1}); the returned witness or
    certificate refers to that reduced problem."""
    if T.dim != X.dim:
        raise DimensionMismatchError(f"dims {T.dim} and {X.dim} differ")
    for name, M in (("T", T), ("X", X)):
        w = np.linalg.eigvalsh(M.array)
        if w[0] <= tol.psd(float(np.max(np.abs(w)))):
            raise NonPositiveError(f"{name} must be strictly positive (min eig {w[0]:.3e})")
    t_inv = HermitianMatrix(_inv_pd_arr(T.array), atol=np.inf)
    x_inv = HermitianMatrix(_inv_pd_arr(X.array), atol=np.inf)
    return hull_membership(t_inv, x_inv, tol)


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
        eigenvalues=np.sort(np.linalg.eigvalsh(ft.array)),
        transformed=ft,
    )


# --- harmonic sums of log-convex hulls --------------------------------------


def _parallel_sum(x: float, y: float) -> float:
    return 1.0 / (1.0 / x + 1.0 / y)


def _harmonic_decompose(z_arr: np.ndarray, a1, b1, a2, b2):
    """Split Z = (X^{-1} + Y^{-1})^{-1} with spectrum(X) in [a1, b1] and
    spectrum(Y) in [a2, b2], by bisecting the monotone diagonal path of the
    parallel sum for each eigenvalue of Z. Returns (X, Y, residual)."""
    w, u = _eigh(z_arr)
    lo = _parallel_sum(a1, a2)
    hi = _parallel_sum(b1, b2)
    xs = np.empty_like(w)
    ys = np.empty_like(w)
    if hi - lo <= 0.0:
        xs[:] = a1
        ys[:] = a2
    else:
        for j, z in enumerate(w):
            target = min(max(float(z), lo), hi)
            t_lo, t_hi = 0.0, 1.0
            for _ in range(80):
                t = (t_lo + t_hi) / 2.0
                if _parallel_sum(a1 + t * (b1 - a1), a2 + t * (b2 - a2)) < target:
                    t_lo = t
                else:
                    t_hi = t
            t = (t_lo + t_hi) / 2.0
            xs[j] = a1 + t * (b1 - a1)
            ys[j] = a2 + t * (b2 - a2)
    rebuilt = np.array([_parallel_sum(xv, yv) for xv, yv in zip(xs, ys)])
    residual = float(np.max(np.abs(rebuilt - w)))
    X = _sym((u * xs) @ u.conj().T)
    Y = _sym((u * ys) @ u.conj().T)
    return X, Y, residual


def harmonic_sum_closure_test(
    T1: HermitianMatrix,
    T2: HermitianMatrix,
    samples: int = 300,
    *,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> TestVerdict:
    """Closure of {(X^{-1} + Y^{-1})^{-1}: X in LCH(T1), Y in LCH(T2)} under
    log-combinations.

    Membership in the harmonic-sum set is checked against its interval
    characterization [p(a1, a2), p(b1, b2)] (p = parallel sum of the hull
    interval endpoints), and every combined element is constructively
    re-split into admissible X and Y parts.
    """
    if T1.dim != T2.dim:
        raise DimensionMismatchError(f"dims {T1.dim} and {T2.dim} differ")
    for name, M in (("T1", T1), ("T2", T2)):
        w = np.linalg.eigvalsh(M.array)
        if w[0] <= tol.psd(float(np.max(np.abs(w)))):
            raise NonPositiveError(f"{name} must be strictly positive (min eig {w[0]:.3e})")
    dim = T1.dim
    l1 = np.linalg.eigvalsh(T1.array)
    l2 = np.linalg.eigvalsh(T2.array)
    a1, b1 = float(l1[0]), float(l1[-1])
    a2, b2 = float(l2[0]), float(l2[-1])
    h_lo = _parallel_sum(a1, a2)
    h_hi = _parallel_sum(b1, b2)
    eye = np.eye(dim, dtype=np.complex128)
    tr = _Tracker(tol)
    for idx in range(samples):
        rng = _sample_rng(seed, _SALT_HARMONIC, idx)
        m = int(rng.integers(1, 4))
        coeffs = _sample_tuple_arrs(dim, m, rng)
        zs = []
        for _ in range(m):
            ux = haar_unitary(dim, rng)
            x = _sym((ux * rng.uniform(a1, b1, dim)) @ ux.conj().T)
            uy = haar_unitary(dim, rng)
            y = _sym((uy * rng.uniform(a2, b2, dim)) @ uy.conj().T)
            zs.append(_inv_pd_arr(_inv_pd_arr(x) + _inv_pd_arr(y)))
        combined = _log_combine_arr(coeffs, zs)
        margin = min(
            float(np.linalg.eigvalsh(combined - h_lo * eye)[0]),
            float(np.linalg.eigvalsh(h_hi * eye - combined)[0]),
        )
        scale = max(abs(h_lo), abs(h_hi), float(np.max(np.abs(np.linalg.eigvalsh(combined)))))
        if tr.classify(margin, scale) == "violated":
            ce = Counterexample(
                kind="harmonic-sum",
                dim=dim,
                inputs={
                    "xs": [HermitianMatrix(z, atol=np.inf) for z in zs],
                    "coeffs": list(coeffs),
                    "interval": (h_lo, h_hi),
                },
                lhs=HermitianMatrix(combined, atol=np.inf),
                rhs=HermitianMatrix(h_hi * eye, atol=np.inf),
                violation=margin,
            )
            return tr.verdict(ce)
        # constructive expressibility: re-split the combined element
        _, _, residual = _harmonic_decompose(combined, a1, b1, a2, b2)
        if residual > tol.psd(scale) + max(0.0, -margin):
            raise NumericalError(
                f"harmonic decomposition residual {residual:.3e} is inconsistent "
                f"with the interval margin {margin:.3e}"
            )
    return tr.verdict()
