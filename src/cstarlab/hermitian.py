"""Complex Hermitian matrix kernel: spectral decomposition, Loewner order,
functional calculus, the matrix geometric mean, and seeded sampling.

All matrices are dense complex n x n arrays. Every operation is a pure
function of its inputs; returned arrays are marked read-only. The private
array helpers (`_sym`, `_apply_arr`, `_haar_from`, ...) also take stacks
of matrices, shape (..., n, n), and act on each matrix of the stack exactly
as on that matrix alone; a stack of one is the single-matrix case.
"""

from __future__ import annotations

import itertools
import math
import operator
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
CONSTRUCTION_TOL = 1e-12  # bound on dimensionless defects such as ||sum C_i* C_i - I||
SOLVER_TOL = 1e-9  # largest relative solver band, used while psd_tol is above it


def _require_int(name: str, value, least: int | None = None) -> int:
    """`value` as a Python int: an integer, numpy's included but not a bool,
    of at least `least` where one is given; anything else raises InputError
    naming `name`."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if least is not None and n < least:
        raise InputError(f"{name} must be at least {least}, got {n}")
    return n


def _require_sizes(dim, m=None, noise_scale: float = 0.0) -> None:
    """Before any draw and the seed check: dim (and m, where a caller takes
    one) an integer (see `_require_int`), then at least 1, then a finite,
    non-negative noise_scale."""
    _require_int("dim", dim)
    if m is None:
        if dim < 1:
            raise InputError("dim must be at least 1")
    elif _require_int("m", m) < 1 or dim < 1:
        raise InputError("dim and m must be at least 1")
    if not 0.0 <= noise_scale < math.inf:
        raise InputError(f"noise_scale must be finite and non-negative, got {noise_scale}")


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
    c * scale >= SCALE_FLOOR. `psd_tol`, the one value `--tol` sets, gives
    the psd band; the solver band's `solver_tol` is derived from it.
    Dimensionless defects are bounded by the fixed `CONSTRUCTION_TOL`."""

    psd_tol: float = 1e-8

    def __post_init__(self):
        if not 0 < self.psd_tol < math.inf:
            raise InputError("tolerances must be finite and strictly positive")

    @property
    def solver_tol(self) -> float:
        """min(SOLVER_TOL, psd_tol): a smaller psd_tol narrows it too."""
        return min(SOLVER_TOL, self.psd_tol)

    def psd(self, scale):
        """The psd band at a scale, or at each scale of an array."""
        return self.psd_tol * np.maximum(scale, SCALE_FLOOR)

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


def loewner_leq(A: HermitianMatrix, B: HermitianMatrix) -> LoewnerResult:
    """Decide A <= B in the Loewner order.

    Holds iff the smallest eigenvalue of B - A is >= -DEFAULT_TOL.psd(scale),
    where scale is the largest absolute eigenvalue among the operands. The
    margin is that smallest eigenvalue, so callers get a signed certificate.
    """
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dims {A.dim} and {B.dim} differ")
    margin = float(np.linalg.eigvalsh(B.array - A.array)[0])
    scale = float(max(_max_abs_eig(A.array), _max_abs_eig(B.array)))
    return LoewnerResult(holds=bool(margin >= -DEFAULT_TOL.psd(scale)), margin=margin)


def _apply_arr(f, a: np.ndarray, positive: bool = False) -> np.ndarray:
    """Functional calculus on a raw array; with `positive`, f must be
    strictly positive on the spectrum. Every eigenvalue must lie in f's
    domain and f must be finite there. On a stack, the first matrix that
    fails raises, as a call on each matrix in turn would; a DomainError
    names its first eigenvalue outside the domain, in ascending order."""
    w, u = _eigh(a)
    return _from_eig(u, _f_of(f, w, positive))


def _f_of(f, w: np.ndarray, positive: bool) -> np.ndarray:
    """f on the eigenvalues `w` of a matrix, or of a stack of them (one row
    each), checked as `_apply_arr` says."""
    inside = f.domain.contains(w)
    fw = np.asarray(f.evaluator(w), dtype=float) if inside.all() else None
    if fw is not None and np.all(np.isfinite(fw)) and not (positive and np.any(fw <= 0.0)):
        return fw
    if w.ndim > 1:
        for wi in w.reshape(-1, w.shape[-1]):
            _f_of(f, wi, positive)  # raises at the first matrix that fails
    if fw is None:
        raise DomainError(float(w[~inside][0]), str(f.domain), f.label)
    if not np.all(np.isfinite(fw)):
        raise NumericalError(f"{f.label} produced non-finite values")
    raise NonPositiveError(f"{f.label} is not positive on the sampled spectrum")


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


def geometric_mean(A: HermitianMatrix, B: HermitianMatrix) -> HermitianMatrix:
    """Matrix geometric mean A^(1/2) (A^(-1/2) B A^(-1/2))^(1/2) A^(1/2).

    Both operands must be strictly positive. The result is symmetric in its
    arguments and congruence-invariant up to rounding.
    """
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dims {A.dim} and {B.dim} differ")
    _require_pd(DEFAULT_TOL, A=A, B=B)
    return HermitianMatrix._wrap(_geometric_mean_arr(A.array, B.array))


class _Draws:
    """The draws of one stack of samples, one generator per sample, made in a
    single pass over the generators.

    Each method queues draws in the order one generator makes them and
    returns the buffers that `run` fills, with one entry per sample along
    the axis of size n. `run` has each generator fill its entry of every
    queued block in turn: normals as `standard_normal` of that shape draws
    them, uniforms on [0, 1) as `random` does, and a queued callable
    `step(j, rng)` draws what depends on earlier draws."""

    def __init__(self, n: int):
        self.n = n
        self._blocks = []  # (kind, buffer): True normal, False uniform, None a step

    def _queue(self, kind, out):
        self._blocks.append((kind, out))
        return out

    def normal(self, *shape) -> np.ndarray:
        """Normals of `shape` per sample, in an (n, *shape) buffer."""
        return self._queue(True, np.empty((self.n, *shape)))

    def normals(self, count: int, *shape) -> np.ndarray:
        """`count` blocks of normals of `shape` per sample, one after the
        other, in a (count, n, *shape) buffer."""
        out = np.empty((count, self.n, *shape))
        for block in out:
            self._queue(True, block)
        return out

    def uniform(self, *shape) -> np.ndarray:
        """Uniforms on [0, 1) of `shape` per sample, in an (n, *shape) buffer."""
        return self._queue(False, np.empty((self.n, *shape)))

    def hermitians(self, count: int, dim: int):
        """The draws of `count` random Hermitian matrices per sample (see
        `_hermitians_from`), each a Ginibre matrix, real parts then imaginary
        parts, and then its `dim` uniforms: buffers (count, n, 2, dim, dim)
        and (count, n, dim)."""
        g = np.empty((count, self.n, 2, dim, dim))
        r = np.empty((count, self.n, dim))
        for gi, ri in zip(g, r):
            self._queue(True, gi)
            self._queue(False, ri)
        return g, r

    def step(self, step) -> None:
        """Queue `step(j, rng)`, called with each sample's index and generator."""
        self._queue(None, step)

    def run(self, rngs) -> None:
        # a fill's stream does not depend on how it is split, so consecutive
        # blocks of one kind take one call per generator into a joint
        # buffer, which is then copied out to them
        calls, joints = [], []
        for kind, group in itertools.groupby(self._blocks, key=lambda block: block[0]):
            outs = [out for _, out in group]
            if kind is None:
                calls += [(None, step) for step in outs]
            elif len(outs) == 1:
                calls.append((kind, list(outs[0])))
            else:
                joint = np.empty((self.n, sum(out.size for out in outs) // self.n))
                calls.append((kind, list(joint)))
                joints.append((joint, outs))
        for j, rng in enumerate(rngs):
            normal, uniform = rng.standard_normal, rng.random
            for kind, outs in calls:
                if kind:
                    normal(out=outs[j])
                elif kind is None:
                    outs(j, rng)
                else:
                    uniform(out=outs[j])
        for joint, outs in joints:
            at = 0
            for out in outs:
                size = out.size // self.n
                out[...] = joint[:, at : at + size].reshape(out.shape)
                at += size


def _haar_from(g: np.ndarray) -> np.ndarray:
    """Haar-distributed orthonormal columns from Ginibre normals of shape
    (..., 2, rows, cols), real parts then imaginary parts: QR of the complex
    matrix, with the phases of diag(R) moved into Q."""
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0  # measure-zero guard
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return _haar_from(rng.standard_normal((2, dim, dim)))


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
    requires an explicit sampling `scale`, finite and positive, which
    replaces the missing endpoint(s) at distance `scale`; a window whose
    width overflows a float is rejected. `dim` is checked first, as
    `_require_sizes` says, and the seed last, as `_seeded_rng` says.
    """
    _require_sizes(dim)
    lo, hi = spectrum.lo, spectrum.hi
    if not math.isfinite(lo) or not math.isfinite(hi):
        if scale is None:
            raise UnboundedIntervalError(
                f"interval {spectrum} is unbounded; pass a sampling scale"
            )
        if not 0.0 < scale < math.inf:
            raise InputError(f"sampling scale must be finite and positive, got {scale}")
        if not math.isfinite(lo) and not math.isfinite(hi):
            lo, hi = -scale, scale
        elif not math.isfinite(hi):
            hi = lo + scale
        else:
            lo = hi - scale
    if not math.isfinite(hi - lo):
        raise InputError(f"sampling window [{lo}, {hi}] has no finite width")
    pad = 1e-6 * max(hi - lo, abs(lo), abs(hi))
    if lo + pad > hi - pad:
        pad = (hi - lo) / 4.0
    rng = _seeded_rng(rng_seed)
    return HermitianMatrix._wrap(_rand_hermitians(1, dim, lo + pad, hi - pad, [rng])[0, 0])


def _seeded_rng(seed) -> np.random.Generator:
    """Generator from a tuple used as an entropy pool, or else from an
    integer seed of at least 0 (see `_require_int`)."""
    if not isinstance(seed, tuple):
        seed = _require_int("seed", seed, 0)
    return np.random.default_rng(np.random.SeedSequence(seed))


def _hermitians_from(g: np.ndarray, r: np.ndarray, lo, hi) -> np.ndarray:
    """The one random Hermitian sampler, on the buffers of
    `_Draws.hermitians`: a Haar eigenbasis from each Ginibre draw and
    eigenvalues lo + (hi - lo) * r, which is numpy's `uniform(lo, hi)` bit
    for bit on the finite widths that every caller passes. `lo` and `hi` are
    numbers or arrays that broadcast against the (count, n) stack: one entry
    per sample, say, or (count, 1) for one per operand."""
    lo, hi = np.asarray(lo, float)[..., None], np.asarray(hi, float)[..., None]
    return _from_eig(_haar_from(g), lo + (hi - lo) * r)


def _rand_hermitians(count: int, dim: int, lo, hi, rngs) -> np.ndarray:
    """`count` random Hermitian matrices per generator as a (count, n, dim,
    dim) stack: for each in turn a Haar eigenbasis, then eigenvalues uniform
    in [lo, hi] (see `_hermitians_from`)."""
    draws = _Draws(len(rngs))
    g, r = draws.hermitians(count, dim)
    draws.run(rngs)
    return _hermitians_from(g, r, lo, hi)
