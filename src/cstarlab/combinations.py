"""C*-convex and C*-log-convex combinations.

A coefficient tuple (C_1, ..., C_m) with sum C_i* C_i = I generalizes scalar
convex weights; applying it to operators X_i forms sum C_i* X_i C_i, and the
log variant forms (sum C_i* X_i^{-1} C_i)^{-1}. A unital family of positive
maps Phi_i generalizes the tuple in turn, forming sum Phi_i(X_i).

Positive maps (`KrausMap`) and unital families of them take stacks like
the kernel's array helpers: operators of shape (..., d, d) with one
transpose flag per stacked map, applied to each matrix of the stack exactly
as to that matrix alone. The sampling engine draws one stacked family per
chunk and applies it through the same `apply_arr` as a single map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputError,
    NonPositiveError,
)
from .hermitian import (
    CONSTRUCTION_TOL,
    HermitianMatrix,
    _Draws,
    _eigh,
    _from_eig,
    _haar_from,
    _require_sizes,
    _seeded_rng,
    _sym,
)

__all__ = [
    "CoefficientTuple",
    "KrausMap",
    "UnitalMapFamily",
    "TupleValidation",
    "validate_tuple",
    "sample_tuple",
    "sample_map_family",
    "apply_combination",
    "apply_log_combination",
]


@dataclass(frozen=True, eq=False)
class CoefficientTuple:
    """A list of m square complex matrices of equal dimension.

    Normalization (sum C_i* C_i = I) is checked by `validate_tuple`, not at
    construction, so that deliberately invalid tuples can be represented.
    """

    coeffs: tuple

    def __init__(self, coeffs: Sequence[np.ndarray]):
        mats = tuple(np.array(c, dtype=np.complex128) for c in coeffs)
        if not mats:
            raise InputError("a coefficient tuple needs at least one matrix")
        d = mats[0].shape[0]
        for c in mats:
            if c.ndim != 2 or c.shape != (d, d):
                raise InputError("all coefficients must be square matrices of equal dim")
            c.setflags(write=False)
        object.__setattr__(self, "coeffs", mats)

    @property
    def dim(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.coeffs)

    def __repr__(self):
        return f"CoefficientTuple(dim={self.dim}, m={self.m})"


@dataclass(frozen=True, eq=False)
class KrausMap:
    """A positive linear map X -> sum_k A_k* X A_k, optionally precomposed
    with the entrywise transpose (which keeps the map positive but breaks
    complete positivity).

    Like the kernel's array helpers, a map may be a stack: operators of
    shape (..., d, d) and `transpose` one flag per stacked map (an array of
    shape (...)). A map of 2-D operators keeps a plain bool."""

    kraus: tuple
    transpose: bool | np.ndarray = False

    def __init__(self, kraus: Sequence[np.ndarray], transpose: bool | Sequence[bool] = False):
        mats = tuple(np.array(a, dtype=np.complex128) for a in kraus)
        if not mats:
            raise InputError("a Kraus map needs at least one operator")
        shape = mats[0].shape
        for a in mats:
            if a.ndim < 2 or a.shape != shape or shape[-1] != shape[-2]:
                raise InputError("Kraus operators must be square and of equal shape")
            a.setflags(write=False)
        flags = np.asarray(transpose, bool)
        if flags.shape not in ((), shape[:-2]):
            raise InputError(f"transpose flags of shape {flags.shape} do not match the "
                             f"stack shape {shape[:-2]}")
        object.__setattr__(self, "kraus", mats)
        object.__setattr__(self, "transpose", bool(flags) if len(shape) == 2 else flags)

    @classmethod
    def _wrap(cls, kraus: tuple, transpose) -> "KrausMap":
        """`__init__` for read-only complex operators the package built, and
        their flags as `__init__` stores them: no copy and no checks."""
        k = object.__new__(cls)
        object.__setattr__(k, "kraus", kraus)
        object.__setattr__(k, "transpose", transpose)
        return k

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[-1]

    def apply_arr(self, x: np.ndarray) -> np.ndarray:
        y = np.where(np.asarray(self.transpose)[..., None, None], x.mT, x)
        return sum(a.conj().mT @ y @ a for a in self.kraus)

    def unit_image(self) -> np.ndarray:
        """Value on the identity; independent of the transpose flag."""
        return sum(a.conj().mT @ a for a in self.kraus)


@dataclass(frozen=True, eq=False)
class UnitalMapFamily:
    """Positive linear maps Phi_i whose values on the identity sum to I;
    stacked maps form one family per stacked sample."""

    maps: tuple

    def __init__(self, maps: Sequence[KrausMap]):
        ms = tuple(maps)
        if not ms:
            raise InputError("a map family needs at least one map")
        d = ms[0].dim
        if any(m.dim != d for m in ms):
            raise DimensionMismatchError("maps in a family must share one dim")
        # each unit image sum_i Phi_i(I) of the stack must be I within
        # CONSTRUCTION_TOL (spectral norm)
        units = sum(m.unit_image() for m in ms)
        defects = np.linalg.norm(units - np.eye(d), 2, axis=(-2, -1))
        bad = defects > CONSTRUCTION_TOL
        if np.any(bad):
            raise InputError(f"family is not unital: defect {defects[bad][0]:.3e}")
        object.__setattr__(self, "maps", ms)

    @classmethod
    def _wrap(cls, maps: tuple) -> "UnitalMapFamily":
        """`__init__` for a family the package built unital: no check."""
        fam = object.__new__(cls)
        object.__setattr__(fam, "maps", maps)
        return fam

    @property
    def dim(self) -> int:
        return self.maps[0].dim

    @property
    def m(self) -> int:
        return len(self.maps)

    def apply_arr(self, xs: Sequence[np.ndarray]) -> np.ndarray:
        """sum Phi_i(X_i)."""
        return sum(phi.apply_arr(x) for phi, x in zip(self.maps, xs))


@dataclass(frozen=True)
class TupleValidation:
    ok: bool
    defect: float

    def __bool__(self):
        return self.ok


def validate_tuple(t: CoefficientTuple) -> TupleValidation:
    """Spectral-norm defect of sum C_i* C_i - I, compared to CONSTRUCTION_TOL."""
    s = sum(c.conj().T @ c for c in t.coeffs)
    defect = float(np.linalg.norm(s - np.eye(t.dim), 2))
    return TupleValidation(ok=defect <= CONSTRUCTION_TOL, defect=defect)


def _tuple_blocks(g: np.ndarray, m: int) -> list[np.ndarray]:
    """The m coefficient stacks of the tuples drawn as `g`, Ginibre normals
    of shape (n, 2, m*dim, dim)."""
    # Haar isometry of shape (m*dim) x dim, sliced into m square blocks;
    # the stacked isometry gives sum C_i* C_i = I exactly
    q = _haar_from(g)
    dim = q.shape[-1]
    return [q[..., i * dim : (i + 1) * dim, :] for i in range(m)]


def _sample_tuple_arrs(dim: int, m: int, rngs) -> list[np.ndarray]:
    """One coefficient tuple per generator, as m stacks of (dim x dim) blocks."""
    draws = _Draws(len(rngs))
    g = draws.normal(2, m * dim, dim)
    draws.run(rngs)
    return _tuple_blocks(g, m)


def sample_tuple(dim: int, m: int, rng_seed) -> CoefficientTuple:
    """Haar-style random coefficient tuple; identical seeds give identical
    tuples. With m = 1 the single coefficient is a Haar unitary."""
    _require_sizes(dim, m)
    rng = _seeded_rng(rng_seed)
    return CoefficientTuple([c[0] for c in _sample_tuple_arrs(dim, m, [rng])])


_MAX_KRAUS = 3  # Kraus operators per sampled map, at most
_TRANSPOSE_PROB = 0.5  # chance that a sampled map is transposed


def sample_map_family(dim: int, m: int, rng_seed) -> UnitalMapFamily:
    """Random unital family of positive maps: Kraus blocks cut from one tall
    isometry, each map transposed with probability 1/2."""
    _require_sizes(dim, m)
    rng = _seeded_rng(rng_seed)
    return _family_at(_sample_families(dim, m, [rng]), 0)


def _sample_families(dim: int, m: int, rngs):
    """One `sample_map_family` draw per generator, as `(family, sizes)` (see
    `_family_draws`)."""
    draws = _Draws(len(rngs))
    families = _family_draws(draws, dim, m)
    draws.run(rngs)
    return families()


def _family_draws(draws: _Draws, dim: int, m: int):
    """Queue one `sample_map_family` draw per sample of `draws`; returns
    `families()`, which builds them once the draws have run, as `(family,
    sizes)`: a family of m stacked maps, each with `_MAX_KRAUS` operators
    that are zero past a sample's count, and `sizes[j, i]`, the count of
    map i in sample j. Each generator draws the sizes, then its isometry,
    then the flags."""
    n = draws.n
    counts, normals = [None] * n, [None] * n

    def isometry(j, rng):
        counts[j] = [int(rng.integers(1, _MAX_KRAUS + 1)) for _ in range(m)]
        normals[j] = rng.standard_normal((2, sum(counts[j]) * dim, dim))

    draws.step(isometry)
    flags = draws.uniform(m)

    def families():
        sizes = np.array(counts)
        totals = sizes.sum(axis=1)
        kraus = np.zeros((m, _MAX_KRAUS, n, dim, dim), dtype=np.complex128)
        for total in dict.fromkeys(totals.tolist()):
            # the group's isometries, as in `_tuple_blocks`, cut into blocks
            # and placed at (map, operator, sample) in sample and map order
            group = np.flatnonzero(totals == total)
            g = np.array([normals[j] for j in group])
            size = sizes[group].ravel()
            starts = np.repeat(np.cumsum(size) - size, size)
            maps = np.repeat(np.tile(np.arange(m), len(group)), size)
            kraus[maps, np.arange(len(maps)) - starts, np.repeat(group, total)] = (
                _haar_from(g).reshape(-1, dim, dim))
        # unital by construction (blocks of isometries), so the maps share
        # `kraus` and skip the constructors' copies and unitality check
        kraus.setflags(write=False)
        flips = flags < _TRANSPOSE_PROB
        return UnitalMapFamily._wrap(tuple(KrausMap._wrap(tuple(kraus[i]), flips[:, i])
                                           for i in range(m))), sizes

    return families


def _family_at(fams, j: int) -> UnitalMapFamily:
    """Sample j of `_sample_families`, each map cut to its own operators."""
    fam, sizes = fams
    return UnitalMapFamily._wrap(tuple(
        KrausMap._wrap(tuple(a[j] for a in phi.kraus[:size]), bool(phi.transpose[j]))
        for phi, size in zip(fam.maps, sizes[j].tolist())))


def _combine_arr(coeffs: Sequence[np.ndarray], xs: Sequence[np.ndarray]) -> np.ndarray:
    acc = coeffs[0].conj().mT @ xs[0] @ coeffs[0]
    for c, x in zip(coeffs[1:], xs[1:]):
        acc += c.conj().mT @ x @ c
    return _sym(acc)


def _inv_pd_arr(a: np.ndarray, what: str = "operand") -> np.ndarray:
    w, u = _eigh(a)
    low = w[..., 0]
    if np.any(low <= 0):
        raise NonPositiveError(
            f"{what} is not strictly positive (min eigenvalue {low[low <= 0][0]:.3e})")
    return _from_eig(u, 1.0 / w)


def _log_combine_arr(coeffs: Sequence[np.ndarray], xs: Sequence[np.ndarray]) -> np.ndarray:
    inner = _combine_arr(coeffs, _inv_pd_arr(np.asarray(xs)))
    return _inv_pd_arr(inner, "combined inverse sum")


def _operands(t: CoefficientTuple, xs: Sequence[HermitianMatrix]) -> list[np.ndarray]:
    """The arrays of `xs`, which must be t.m operands of t's dim."""
    if len(xs) != t.m:
        raise DimensionMismatchError(f"expected {t.m} operands, got {len(xs)}")
    if any(x.dim != t.dim for x in xs):
        raise DimensionMismatchError("operand dim does not match tuple dim")
    return [x.array for x in xs]


def apply_combination(t: CoefficientTuple, xs: Sequence[HermitianMatrix]) -> HermitianMatrix:
    """sum C_i* X_i C_i, re-symmetrized to absorb rounding drift."""
    return HermitianMatrix._wrap(_combine_arr(t.coeffs, _operands(t, xs)))


def apply_log_combination(t: CoefficientTuple, xs: Sequence[HermitianMatrix]) -> HermitianMatrix:
    """(sum C_i* X_i^{-1} C_i)^{-1} for strictly positive X_i.

    The inner sum is bounded below by a positive multiple of the identity,
    so the outer inverse always exists for valid input.
    """
    return HermitianMatrix._wrap(_log_combine_arr(t.coeffs, _operands(t, xs)))
