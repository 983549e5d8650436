"""Complex Hermitian matrix kernel: spectral decomposition, Loewner order,
functional calculus, the matrix geometric mean, and seeded sampling.

All matrices are dense complex n x n arrays. Every operation is a pure
function of its inputs; returned arrays are marked read-only. The private
array helpers (`_sym`, `_apply_arr`, `_haar_columns`, ...) also take stacks
of matrices, shape (..., n, n), and act on each matrix of the stack exactly
as on that matrix alone; a stack of one is the single-matrix case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    HermitianDefectError,
    InputError,
    NonPositiveError,
    NumericalError,
    UnboundedIntervalError,
)

__all__ = [
    "HermitianMatrix",
    "SpectralDecomposition",
    "SpectrumInterval",
    "ToleranceConfig",
    "DEFAULT_TOL",
    "LoewnerResult",
    "eig_hermitian",
    "loewner_leq",
    "apply_function",
    "geometric_mean",
    "sample_hermitian",
    "haar_unitary",
]

HERMITIAN_ATOL = 1e-12  # entrywise |M - M*| allowed, times max(1, max |M_jk|)
SCALE_FLOOR = 1e-14  # spectral scales below this count as this in every band


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _sym(a: np.ndarray) -> np.ndarray:
    """Average a with its adjoint; suppresses floating-point drift."""
    return (a + a.conj().mT) / 2.0


def _eigh(a: np.ndarray):
    """Ascending eigenvalues and eigenvectors of a Hermitian array."""
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    return w, u


def _max_abs_eig(a: np.ndarray):
    """Largest absolute eigenvalue of each matrix of the stack."""
    return np.max(np.abs(np.linalg.eigvalsh(a)), axis=-1)


def _mineig(a: np.ndarray):
    """Smallest eigenvalue of each matrix of the stack."""
    return np.linalg.eigvalsh(a)[..., 0]


def _from_eig(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """U diag(w) U*, made exactly Hermitian, for stacks of (U, w)."""
    return _sym((u * w[..., None, :]) @ u.conj().mT)


def _sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Square root of a PSD array; small negative eigenvalues are clipped."""
    w, u = _eigh(a)
    return _from_eig(u, np.sqrt(np.clip(w, 0.0, None)))


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerances relative to spectral scale: each band is tol * max(scale,
    SCALE_FLOOR), so scaling all operands by c keeps every verdict while
    c * scale >= SCALE_FLOOR. `construction_tol` bounds dimensionless defects."""

    construction_tol: float = 1e-12
    psd_tol: float = 1e-8
    solver_tol: float = 1e-9

    def __post_init__(self):
        if not all(0 < t < math.inf for t in (self.construction_tol, self.psd_tol, self.solver_tol)):
            raise InputError("tolerances must be finite and strictly positive")
        if self.construction_tol > self.psd_tol:
            raise InputError("construction_tol must not exceed psd_tol")

    def psd(self, scale: float) -> float:
        return self.psd_tol * max(scale, SCALE_FLOOR)

    def solver(self, scale: float) -> float:
        return self.solver_tol * max(scale, SCALE_FLOOR)


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """An n x n complex matrix with enforced self-adjointness: entrywise
    defects |M - M*| above 1e-12 * max(1, max |M_jk|) are rejected.

    The stored array is the exact Hermitian average of the input and is
    read-only; instances are safe to share across threads. Arrays computed
    inside the package are wrapped by `_wrap`, which skips the defect check.
    """

    entries: np.ndarray

    def __init__(self, entries):
        a = np.array(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise InputError("dimension must be at least 1")
        if not np.all(np.isfinite(a)):
            raise InputError("matrix entries must be finite")
        defect = np.abs(a - a.conj().T)
        limit = HERMITIAN_ATOL * max(1.0, float(np.max(np.abs(a))))
        if float(defect.max()) > limit:
            j, k = np.unravel_index(int(np.argmax(defect)), defect.shape)
            raise HermitianDefectError(
                f"self-adjointness defect {float(defect.max()):.3e} at entry "
                f"({j},{k}) exceeds {limit:.3e}"
            )
        object.__setattr__(self, "entries", _freeze(_sym(a)))

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "HermitianMatrix":
        """`__init__` for square arrays the package computed: no defect check."""
        if not np.all(np.isfinite(a)):
            raise InputError("matrix entries must be finite")
        h = object.__new__(cls)
        object.__setattr__(h, "entries", _freeze(_sym(np.asarray(a, np.complex128))))
        return h

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def array(self) -> np.ndarray:
        return self.entries

    @classmethod
    def identity(cls, dim: int) -> "HermitianMatrix":
        return cls(np.eye(dim, dtype=np.complex128))

    @classmethod
    def diagonal(cls, values) -> "HermitianMatrix":
        return cls(np.diag(np.asarray(values, dtype=np.complex128)))

    @classmethod
    def zero(cls, dim: int) -> "HermitianMatrix":
        return cls(np.zeros((dim, dim), dtype=np.complex128))

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending real eigenvalues plus a unitary whose columns are the
    matching eigenvectors."""

    eigenvalues: np.ndarray
    unitary: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _freeze(np.asarray(self.eigenvalues, float)))
        object.__setattr__(self, "unitary", _freeze(np.asarray(self.unitary, np.complex128)))

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class SpectrumInterval:
    """A real interval, possibly unbounded, with open/closed endpoints."""

    lo: float = -math.inf
    hi: float = math.inf
    open_lo: bool = False
    open_hi: bool = False

    def __post_init__(self):
        if self.lo > self.hi:
            raise InputError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, t):
        """Whether t lies in the interval, elementwise for an array of t."""
        below = t <= self.lo if self.open_lo else t < self.lo
        above = t >= self.hi if self.open_hi else t > self.hi
        return np.logical_not(below | above)

    def __str__(self):
        left = "(" if (self.open_lo or not math.isfinite(self.lo)) else "["
        right = ")" if (self.open_hi or not math.isfinite(self.hi)) else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


@dataclass(frozen=True)
class LoewnerResult:
    holds: bool
    margin: float

    def __bool__(self):
        return self.holds


def eig_hermitian(H: HermitianMatrix) -> SpectralDecomposition:
    """Spectral decomposition with ascending eigenvalues.

    Deterministic for identical input. The unitary reconstructs the matrix
    as U diag(w) U*; column i yields the spectral projector for w[i].
    """
    w, u = _eigh(H.array)
    return SpectralDecomposition(eigenvalues=w, unitary=u)


def loewner_leq(
    A: HermitianMatrix, B: HermitianMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> LoewnerResult:
    """Decide A <= B in the Loewner order.

    Holds iff the smallest eigenvalue of B - A is >= -psd_tol * scale, where
    scale is the largest absolute eigenvalue among the operands. The margin
    is that smallest eigenvalue, so callers get a signed certificate.
    """
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dims {A.dim} and {B.dim} differ")
    margin = float(np.linalg.eigvalsh(B.array - A.array)[0])
    scale = float(max(_max_abs_eig(A.array), _max_abs_eig(B.array)))
    return LoewnerResult(holds=margin >= -tol.psd(scale), margin=margin)


def _apply_arr(f, a: np.ndarray, positive: bool = False) -> np.ndarray:
    """Functional calculus on a raw array; with `positive`, f must be
    strictly positive on the spectrum. Every eigenvalue must lie in f's
    domain; the first one that does not (in stack order, ascending within a
    matrix) is named by the DomainError."""
    w, u = _eigh(a)
    inside = f.domain.contains(w)
    if not inside.all():
        raise DomainError(float(w[~inside][0]), str(f.domain), f.label)
    fw = np.asarray(f.evaluator(w), dtype=float)
    if not np.all(np.isfinite(fw)):
        raise NumericalError(f"{f.label} produced non-finite values")
    if positive and np.any(fw <= 0.0):
        raise NonPositiveError(f"{f.label} is not positive on the sampled spectrum")
    return _from_eig(u, fw)


def apply_function(f, H: HermitianMatrix) -> HermitianMatrix:
    """Functional calculus: U diag(f(w)) U* over the decomposition of H.

    Every eigenvalue must lie in f's domain interval, with open endpoints
    excluded strictly, and f must be finite on the spectrum.
    """
    return HermitianMatrix._wrap(_apply_arr(f, H.array))


def _require_pd(tol: ToleranceConfig, **named: HermitianMatrix) -> None:
    """Raise unless each named operand is strictly positive beyond the psd
    band at its own scale."""
    for name, M in named.items():
        w = np.linalg.eigvalsh(M.array)
        if w[0] <= tol.psd(float(np.max(np.abs(w)))):
            raise NonPositiveError(f"{name} must be strictly positive (min eig {w[0]:.3e})")


def _geometric_mean_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    wa, ua = _eigh(a)
    uh = ua.conj().mT
    rs = (ua * np.sqrt(wa)[..., None, :]) @ uh
    irs = (ua * (1.0 / np.sqrt(wa))[..., None, :]) @ uh
    mid = _sqrt_psd(_sym(irs @ b @ irs))
    return _sym(rs @ mid @ rs)


def geometric_mean(
    A: HermitianMatrix, B: HermitianMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> HermitianMatrix:
    """Matrix geometric mean A^(1/2) (A^(-1/2) B A^(-1/2))^(1/2) A^(1/2).

    Both operands must be strictly positive. The result is symmetric in its
    arguments and congruence-invariant up to rounding.
    """
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dims {A.dim} and {B.dim} differ")
    _require_pd(tol, A=A, B=B)
    return HermitianMatrix._wrap(_geometric_mean_arr(A.array, B.array))


def _ginibre(rows: int, cols: int, rngs) -> np.ndarray:
    """One complex Ginibre (rows x cols) matrix from each generator, stacked;
    each generator draws the real parts, then the imaginary parts."""
    parts = np.array([rng.standard_normal((2, rows, cols)) for rng in rngs])
    return parts[:, 0] + 1j * parts[:, 1]


def _haar_columns(rows: int, cols: int, rngs) -> np.ndarray:
    """Haar-distributed orthonormal columns, one (rows x cols) matrix per
    generator: QR of a complex Ginibre matrix, with the phases of diag(R)
    moved into Q."""
    q, r = np.linalg.qr(_ginibre(rows, cols, rngs))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0  # measure-zero guard
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return _haar_columns(dim, dim, [rng])[0]


def sample_hermitian(
    dim: int,
    spectrum: SpectrumInterval,
    rng_seed,
    scale: float | None = None,
) -> HermitianMatrix:
    """Seed-deterministic random Hermitian matrix with eigenvalues strictly
    inside the given interval.

    Eigenvalues are drawn uniformly from the interval shrunk by a relative
    margin of 1e-6, in a Haar-random eigenbasis. An unbounded interval
    requires an explicit sampling `scale`, which replaces the missing
    endpoint(s) at distance `scale`.
    """
    if dim < 1:
        raise InputError("dimension must be at least 1")
    lo, hi = spectrum.lo, spectrum.hi
    if not math.isfinite(lo) or not math.isfinite(hi):
        if scale is None:
            raise UnboundedIntervalError(
                f"interval {spectrum} is unbounded; pass a sampling scale"
            )
        if not math.isfinite(lo) and not math.isfinite(hi):
            lo, hi = -scale, scale
        elif not math.isfinite(hi):
            hi = lo + scale
        else:
            lo = hi - scale
    pad = 1e-6 * max(hi - lo, abs(lo), abs(hi))
    if lo + pad > hi - pad:
        pad = (hi - lo) / 4.0
    rng = _seeded_rng(rng_seed)
    return HermitianMatrix._wrap(_rand_hermitian_arr(dim, lo + pad, hi - pad, [rng])[0])


def _seeded_rng(seed) -> np.random.Generator:
    """Generator from an integer seed or a tuple used as an entropy pool."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence(seed))


def _rand_hermitian_arr(dim: int, lo, hi, rngs) -> np.ndarray:
    """Internal sampler on raw arrays, one matrix per generator: a Haar
    eigenbasis, then eigenvalues uniform in [lo, hi]. `lo` and `hi` are
    numbers or sequences with one entry per generator."""
    u = _haar_columns(dim, dim, rngs)
    if np.isscalar(lo):
        lo, hi = [lo] * len(rngs), [hi] * len(rngs)
    w = np.array([rng.uniform(a, b, size=dim) for rng, a, b in zip(rngs, lo, hi)])
    return _from_eig(u, w)
