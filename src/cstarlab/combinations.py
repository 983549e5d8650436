"""C*-convex and C*-log-convex combinations.

A coefficient tuple (C_1, ..., C_m) with sum C_i* C_i = I generalizes scalar
convex weights; applying it to operators X_i forms sum C_i* X_i C_i, and the
log variant forms (sum C_i* X_i^{-1} C_i)^{-1}. This module also builds the
witness-style tuples used to reduce positive unital map families and
eigenvalue scalarizations to plain C*-combinations.

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
    NonContractionError,
    NonPositiveError,
)
from .hermitian import (
    DEFAULT_TOL,
    HermitianMatrix,
    ToleranceConfig,
    _eigh,
    _from_eig,
    _haar_columns,
    _seeded_rng,
    _sqrt_psd,
    _sym,
)

__all__ = [
    "CoefficientTuple",
    "KrausMap",
    "UnitalMapFamily",
    "OperatorTuple",
    "TupleValidation",
    "FamilyCombination",
    "validate_tuple",
    "sample_tuple",
    "sample_map_family",
    "apply_combination",
    "apply_log_combination",
    "complete_contraction",
    "split_sum_witness",
    "eigenvalue_scalarization_witness",
    "positive_family_combination",
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
class OperatorTuple:
    """A k-tuple of Hermitian matrices of equal dimension, combined
    componentwise by coefficient tuples."""

    components: tuple

    def __init__(self, components: Sequence[HermitianMatrix]):
        comps = tuple(components)
        if not comps:
            raise InputError("an operator tuple needs at least one component")
        d = comps[0].dim
        if any(c.dim != d for c in comps):
            raise DimensionMismatchError("operator tuple components differ in dim")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def k(self) -> int:
        return len(self.components)


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

    def __init__(self, maps: Sequence[KrausMap], tol: ToleranceConfig = DEFAULT_TOL):
        ms = tuple(maps)
        if not ms:
            raise InputError("a map family needs at least one map")
        d = ms[0].dim
        if any(m.dim != d for m in ms):
            raise DimensionMismatchError("maps in a family must share one dim")
        _require_unital(sum(m.unit_image() for m in ms), tol)
        object.__setattr__(self, "maps", ms)

    @property
    def dim(self) -> int:
        return self.maps[0].dim

    @property
    def m(self) -> int:
        return len(self.maps)

    def apply_arr(self, xs: Sequence[np.ndarray]) -> np.ndarray:
        """sum Phi_i(X_i)."""
        return sum(phi.apply_arr(x) for phi, x in zip(self.maps, xs))


def _require_unital(units: np.ndarray, tol: ToleranceConfig) -> None:
    """Raise unless each unit image sum_i Phi_i(I) of the stack is I within
    construction_tol (spectral norm)."""
    defects = np.linalg.norm(units - np.eye(units.shape[-1]), 2, axis=(-2, -1))
    bad = defects > tol.construction_tol
    if np.any(bad):
        raise InputError(f"family is not unital: defect {defects[bad][0]:.3e}")


@dataclass(frozen=True)
class TupleValidation:
    ok: bool
    defect: float

    def __bool__(self):
        return self.ok


def validate_tuple(t: CoefficientTuple, tol: ToleranceConfig = DEFAULT_TOL) -> TupleValidation:
    """Spectral-norm defect of sum C_i* C_i - I, compared to construction_tol."""
    s = sum(c.conj().T @ c for c in t.coeffs)
    defect = float(np.linalg.norm(s - np.eye(t.dim), 2))
    return TupleValidation(ok=defect <= tol.construction_tol, defect=defect)


def _sample_tuple_arrs(dim: int, m: int, rngs) -> list[np.ndarray]:
    """One coefficient tuple per generator, as m stacks of (dim x dim) blocks."""
    # Haar isometry of shape (m*dim) x dim, sliced into m square blocks;
    # the stacked isometry gives sum C_i* C_i = I exactly
    q = _haar_columns(m * dim, dim, rngs)
    return [q[..., i * dim : (i + 1) * dim, :] for i in range(m)]


def sample_tuple(dim: int, m: int, rng_seed) -> CoefficientTuple:
    """Haar-style random coefficient tuple; identical seeds give identical
    tuples. With m = 1 the single coefficient is a Haar unitary."""
    if dim < 1 or m < 1:
        raise InputError("dim and m must be at least 1")
    rng = _seeded_rng(rng_seed)
    return CoefficientTuple([c[0] for c in _sample_tuple_arrs(dim, m, [rng])])


_MAX_KRAUS = 3  # Kraus operators per sampled map, at most


def sample_map_family(dim: int, m: int, rng_seed, transpose_prob: float = 0.5) -> UnitalMapFamily:
    """Random unital family of positive maps: Kraus blocks cut from one tall
    isometry, each map transposed with the given probability."""
    if dim < 1 or m < 1:
        raise InputError("dim and m must be at least 1")
    rng = _seeded_rng(rng_seed)
    return _family_at(_sample_families(dim, m, [rng], transpose_prob), 0)


def _sample_families(dim: int, m: int, rngs, transpose_prob: float = 0.5):
    """One `sample_map_family` draw per generator, as `(family, sizes)`: a
    family of m stacked maps, each with `_MAX_KRAUS` operators that are zero
    past a sample's count, and `sizes[j, i]`, the count of map i in sample
    j. Each generator draws the sizes, then its isometry (the samples are
    stacked by total size), then the flags."""
    n = len(rngs)
    sizes = np.array([[int(rng.integers(1, _MAX_KRAUS + 1)) for _ in range(m)] for rng in rngs])
    totals = sizes.sum(axis=1)
    kraus = np.zeros((m, _MAX_KRAUS, n, dim, dim), dtype=np.complex128)
    for total in dict.fromkeys(totals.tolist()):
        group = np.flatnonzero(totals == total)
        # the group's isometries, as in `_sample_tuple_arrs`, cut into blocks
        blocks = _haar_columns(total * dim, dim, [rngs[j] for j in group])
        blocks = blocks.reshape(len(group), total, dim, dim)
        for pos, j in enumerate(group):
            at = 0
            for i, size in enumerate(sizes[j].tolist()):
                kraus[i, :size, j] = blocks[pos, at : at + size]
                at += size
    flips = np.array([[rng.random() < transpose_prob for _ in range(m)] for rng in rngs])
    return UnitalMapFamily([KrausMap(kraus[i], flips[:, i]) for i in range(m)]), sizes


def _family_at(fams, j: int) -> UnitalMapFamily:
    """Sample j of `_sample_families`, each map cut to its own operators."""
    fam, sizes = fams
    return UnitalMapFamily([KrausMap([a[j] for a in phi.kraus[:size]], phi.transpose[j])
                            for phi, size in zip(fam.maps, sizes[j].tolist())])


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
    inner = _combine_arr(coeffs, [_inv_pd_arr(x) for x in xs])
    return _inv_pd_arr(inner, "combined inverse sum")


def apply_combination(t: CoefficientTuple, xs):
    """sum C_i* X_i C_i, applied componentwise when the X_i are operator
    tuples. The output is re-symmetrized to absorb rounding drift."""
    if len(xs) != t.m:
        raise DimensionMismatchError(f"expected {t.m} operands, got {len(xs)}")
    first = xs[0]
    if isinstance(first, OperatorTuple):
        k = first.k
        if any(x.k != k or x.dim != t.dim for x in xs):
            raise DimensionMismatchError("operator tuples must share shape and dim")
        comps = []
        for j in range(k):
            arrs = [x.components[j].array for x in xs]
            comps.append(HermitianMatrix._wrap(_combine_arr(t.coeffs, arrs)))
        return OperatorTuple(comps)
    if any(x.dim != t.dim for x in xs):
        raise DimensionMismatchError("operand dim does not match tuple dim")
    return HermitianMatrix._wrap(_combine_arr(t.coeffs, [x.array for x in xs]))


def apply_log_combination(t: CoefficientTuple, xs: Sequence[HermitianMatrix]) -> HermitianMatrix:
    """(sum C_i* X_i^{-1} C_i)^{-1} for strictly positive X_i.

    The inner sum is bounded below by a positive multiple of the identity,
    so the outer inverse always exists for valid input.
    """
    if len(xs) != t.m:
        raise DimensionMismatchError(f"expected {t.m} operands, got {len(xs)}")
    if any(x.dim != t.dim for x in xs):
        raise DimensionMismatchError("operand dim does not match tuple dim")
    return HermitianMatrix._wrap(_log_combine_arr(t.coeffs, [x.array for x in xs]))


def complete_contraction(C, tol: ToleranceConfig = DEFAULT_TOL) -> CoefficientTuple:
    """Complete a contraction C to the pair (C, D) with D = (I - C*C)^(1/2),
    which satisfies C*C + D*D = I."""
    c = np.asarray(C, dtype=np.complex128)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InputError("expected a square matrix")
    top = float(np.linalg.norm(c, 2))
    if top > 1.0 + tol.construction_tol:
        raise NonContractionError(f"largest singular value {top:.12f} exceeds 1")
    gap = np.eye(c.shape[0]) - c.conj().T @ c
    d = _sqrt_psd(_sym(gap))
    return CoefficientTuple([c, d])


def split_sum_witness(X: HermitianMatrix, Y: HermitianMatrix, tol: ToleranceConfig = DEFAULT_TOL):
    """Contractions recovering each summand of S = X + Y by congruence:
    C_1 = S^(-1/2) X^(1/2) and C_2 = S^(-1/2) Y^(1/2), so that
    C_1*(X+Y)C_1 = X and C_2*(X+Y)C_2 = Y.

    Each C_i is a contraction and C_1 C_1* + C_2 C_2* = I. Note the adjoint
    placement: the sum C_i* C_i is NOT the identity unless X and Y commute,
    so the pair is not a coefficient tuple; complete each contraction with
    `complete_contraction` to embed it in one.
    """
    if X.dim != Y.dim:
        raise DimensionMismatchError(f"dims {X.dim} and {Y.dim} differ")
    for name, M in (("X", X), ("Y", Y)):
        w = np.linalg.eigvalsh(M.array)
        if w[0] < -tol.psd(float(np.max(np.abs(w)))):
            raise NonPositiveError(f"{name} must be positive semidefinite (min eig {w[0]:.3e})")
    s = X.array + Y.array
    ws, us = _eigh(s)
    if ws[0] <= tol.psd(float(ws[-1])):
        raise NonPositiveError("X + Y is singular; witnesses are undefined")
    s_inv_half = _sym((us * (1.0 / np.sqrt(ws))) @ us.conj().T)
    c1 = s_inv_half @ _sqrt_psd(X.array)
    c2 = s_inv_half @ _sqrt_psd(Y.array)
    return c1, c2


def eigenvalue_scalarization_witness(X: HermitianMatrix, k: int) -> CoefficientTuple:
    """Coefficient tuple (U E_k1, ..., U E_kn) that maps n copies of X to
    lambda_k I, where lambda_k is the k-th ascending eigenvalue (1-based)
    and E_ki are the unit matrices in the eigenbasis U of X."""
    n = X.dim
    if not 1 <= k <= n:
        raise InputError(f"eigenvalue index {k} out of range 1..{n}")
    _, u = _eigh(X.array)
    col = u[:, k - 1]
    coeffs = []
    for i in range(n):
        c = np.zeros((n, n), dtype=np.complex128)
        c[:, i] = col
        coeffs.append(c)
    return CoefficientTuple(coeffs)


@dataclass(frozen=True, eq=False)
class FamilyCombination:
    """Value of sum Phi_i(X_i) together with the coefficient tuple and the
    scalar inputs that reproduce it as a plain C*-combination."""

    value: HermitianMatrix
    equivalent_tuple: CoefficientTuple
    scalars: tuple  # lambda_(i,j), aligned with equivalent_tuple.coeffs


def positive_family_combination(
    fam: UnitalMapFamily,
    xs: Sequence[HermitianMatrix],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> FamilyCombination:
    """sum Phi_i(X_i) for a unital family, plus the equivalent coefficient
    tuple C_ij = sqrt(Phi_i(P_ij)) over the spectral projections of each X_i.

    Applying the returned tuple to the scalar matrices lambda_ij I
    reproduces the value, which embeds map-family combinations into
    coefficient-tuple combinations.
    """
    if len(xs) != fam.m:
        raise DimensionMismatchError(f"expected {fam.m} operands, got {len(xs)}")
    if any(x.dim != fam.dim for x in xs):
        raise DimensionMismatchError("operand dim does not match family dim")
    _require_unital(sum(m.unit_image() for m in fam.maps), tol)
    coeffs = []
    scalars = []
    for phi, x in zip(fam.maps, xs):
        w, u = _eigh(x.array)
        # projs[j] is the spectral projector v v* of the eigenvector v = u[:, j]
        projs = u.T[:, :, None] * u.T.conj()[:, None, :]
        coeffs.extend(_sqrt_psd(_sym(phi.apply_arr(projs))))
        scalars.extend(w.tolist())
    return FamilyCombination(
        value=HermitianMatrix._wrap(fam.apply_arr([x.array for x in xs])),
        equivalent_tuple=CoefficientTuple(coeffs),
        scalars=tuple(scalars),
    )
