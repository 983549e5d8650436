"""C*-convex and C*-log-convex combinations.

A coefficient tuple (C_1, ..., C_m) with sum C_i* C_i = I generalizes scalar
convex weights; applying it to operators X_i forms sum C_i* X_i C_i, and the
log variant forms (sum C_i* X_i^{-1} C_i)^{-1}. This module also builds the
witness-style tuples used to reduce positive unital map families and
eigenvalue scalarizations to plain C*-combinations.
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
    complete positivity)."""

    kraus: tuple
    transpose: bool = False

    def __init__(self, kraus: Sequence[np.ndarray], transpose: bool = False):
        mats = tuple(np.array(a, dtype=np.complex128) for a in kraus)
        if not mats:
            raise InputError("a Kraus map needs at least one operator")
        d = mats[0].shape[0]
        for a in mats:
            if a.shape != (d, d):
                raise InputError("Kraus operators must be square and of equal dim")
            a.setflags(write=False)
        object.__setattr__(self, "kraus", mats)
        object.__setattr__(self, "transpose", bool(transpose))

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply_arr(self, x: np.ndarray) -> np.ndarray:
        y = x.T if self.transpose else x
        return sum(a.conj().T @ y @ a for a in self.kraus)

    def unit_image(self) -> np.ndarray:
        """Value on the identity; independent of the transpose flag."""
        return sum(a.conj().T @ a for a in self.kraus)


@dataclass(frozen=True, eq=False)
class UnitalMapFamily:
    """Positive linear maps Phi_i whose values on the identity sum to I."""

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


def sample_map_family(
    dim: int,
    m: int,
    rng_seed,
    max_kraus: int = 3,
    transpose_prob: float = 0.5,
) -> UnitalMapFamily:
    """Random unital family of positive maps: Kraus blocks cut from one tall
    isometry, each map transposed with the given probability."""
    if dim < 1 or m < 1:
        raise InputError("dim and m must be at least 1")
    rng = _seeded_rng(rng_seed)
    return _family_at(_sample_family_arrs(dim, m, [rng], max_kraus, transpose_prob), 0)


def _sample_family_arrs(dim: int, m: int, rngs, max_kraus: int = 3, transpose_prob: float = 0.5):
    """One `sample_map_family` draw per generator, as arrays: `kraus[i, k]`
    stacks Kraus operator k of map i over the samples (zero past a sample's
    count), `sizes[j, i]` counts the operators of map i in sample j, and
    `flips[j, i]` says whether that map transposes. Each generator draws the
    sizes, then its isometry (the samples are stacked by total size), then
    the flags. Raises as `UnitalMapFamily` does for a family that is not
    unital."""
    n = len(rngs)
    sizes = np.array([[int(rng.integers(1, max_kraus + 1)) for _ in range(m)] for rng in rngs])
    totals = sizes.sum(axis=1)
    kraus = np.zeros((m, max_kraus, n, dim, dim), dtype=np.complex128)
    for total in dict.fromkeys(totals.tolist()):
        group = np.flatnonzero(totals == total)
        blocks = _sample_tuple_arrs(dim, total, [rngs[j] for j in group])
        for pos, j in enumerate(group):
            at = 0
            for i, size in enumerate(sizes[j].tolist()):
                for k in range(size):
                    kraus[i, k, j] = blocks[at + k][pos]
                at += size
    flips = np.array([[rng.random() < transpose_prob for _ in range(m)] for rng in rngs])
    _require_unital(_kraus_sums(kraus, sizes, lambda i, a, sel: a.conj().mT @ a), DEFAULT_TOL)
    return kraus, sizes, flips


def _family_at(fams, j: int) -> UnitalMapFamily:
    """Sample j of `_sample_family_arrs` as a UnitalMapFamily."""
    kraus, sizes, flips = fams
    return UnitalMapFamily([KrausMap(kraus[i, :size, j], transpose=bool(flips[j, i]))
                            for i, size in enumerate(sizes[j].tolist())])


def _kraus_sums(kraus, sizes, term):
    """sum_i sum_k term(i, A_ik, sel) per sample, summed in the order of
    `sum(sum(... for A in map.kraus) for map in maps)`; `term` gets the
    stacked Kraus operators of the samples `sel` that have operator k of map
    i, and returns their stacked terms."""
    total = 0
    for i in range(kraus.shape[0]):
        part = 0 + term(i, kraus[i, 0], slice(None))  # every map has an operator 0
        for k in range(1, sizes[:, i].max()):
            sel = np.flatnonzero(sizes[:, i] > k)
            part[sel] = part[sel] + term(i, kraus[i, k, sel], sel)
        total = total + part
    return total


def _apply_families(fams, xs) -> np.ndarray:
    """sum_i Phi_i(X_i) for each sample, with that sample's own family from
    `_sample_family_arrs`; each map computes as `KrausMap.apply_arr`."""
    kraus, sizes, flips = fams

    def term(i, a, sel):
        # a transposing map multiplies the transposed view, as apply_arr does
        y, flip = xs[i][sel], flips[sel, i]
        if flip.all() or not flip.any():
            return a.conj().mT @ (y.mT if flip[0] else y) @ a
        out = np.empty(a.shape, dtype=np.complex128)
        for mask, flipped in ((~flip, False), (flip, True)):
            v = y[mask]
            out[mask] = a[mask].conj().mT @ (v.mT if flipped else v) @ a[mask]
        return out

    return _kraus_sums(kraus, sizes, term)


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
    d = fam.dim
    value = np.zeros((d, d), dtype=np.complex128)
    coeffs = []
    scalars = []
    for phi, x in zip(fam.maps, xs):
        value += phi.apply_arr(x.array)
        w, u = _eigh(x.array)
        for j in range(d):
            v = u[:, j]
            proj = np.outer(v, v.conj())
            coeffs.append(_sqrt_psd(_sym(phi.apply_arr(proj))))
            scalars.append(float(w[j]))
    return FamilyCombination(
        value=HermitianMatrix._wrap(value),
        equivalent_tuple=CoefficientTuple(coeffs),
        scalars=tuple(scalars),
    )
