"""Sampling-based verification and falsification of operator inequalities.

Every suite draws seeded random instances, checks one inequality in the
Loewner order, and either reports `no-violation-found` (evidence, not proof)
or returns a machine-checkable counterexample. Six suites test Jensen-type
inequalities for a scalar function; three test that a set stays closed under
C*-combinations: the order interval [0, A], a joint sublevel set, and the
harmonic sums of two C*-log-convex hulls. Falsifiers escalate the
eigenvalue spread geometrically across three rounds, since several
inequalities only fail visibly for well-separated spectra.

Per-sample randomness is derived from (master seed, suite salt, sample
index), so verdicts are independent of execution order. Sample i draws from
the stream of `default_rng(SeedSequence((seed, salt, i)))`. A lone sample
gets exactly that generator from numpy; the seed words of a stacked chunk
come from one vectorized pass of numpy's SeedSequence hash over the chunk
(`_seed_words`), identical to SeedSequence's own, and each sample's PCG64
seeds itself from its row of them.

All nine suites share one sampling loop, `_run_suite`, which owns the margin
bookkeeping, the per-sample generators, the stop at the first violation and
the counterexample; a suite supplies only its `draw`. The six Loewner-order
suites add the escalating window and lambda_min(rhs - lhs) via `_order_suite`.

The loop evaluates sample 0 alone, then chunks of 16, 64 and 256
consecutive indices (see `_CHUNK_CAP` for the measured reason). Draws are
stage-stacked. Within a chunk, each sample's generator makes all of that
sample's draws in one pass (`hermitian._Draws`), in the order of a sample
run alone: coefficient tuple, then each operand's Ginibre matrix and
eigenvalues, then noise. The draws land in preallocated buffers, and each
kernel stage then runs once over the whole stack: the m operands of n
samples form one (m, n, d, d) array, so one QR, one eigendecomposition per
functional calculus or inverse and one `eigvalsh` for noise serve the
chunk. numpy computes a stack matrix by matrix exactly as for one matrix,
and an error names the first matrix that fails, as one call per matrix
would. `_Tracker` classifies a chunk with array operations, and the
order suites decompose lhs and rhs for a scale only where the band
decision depends on it (see `_order_suite`). The first violation builds
its counterexample from the stack that found it, so a verdict (samples,
margins, counterexample, errors) is the same for every schedule and
byte-identical to one sample at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import (
    DimensionMismatchError,
    InputError,
    NonPositiveError,
    NumericalError,
)
from .combinations import (
    _combine_arr,
    _family_draws,
    _inv_pd_arr,
    _log_combine_arr,
    _tuple_blocks,
)
from .functions import ScalarFunctionSpec
from .hermitian import (
    DEFAULT_TOL,
    SCALE_FLOOR,
    HermitianMatrix,
    SpectrumInterval,
    ToleranceConfig,
    _Draws,
    _apply_arr,
    _eigh,
    _from_eig,
    _geometric_mean_arr,
    _haar_from,
    _hermitians_from,
    _max_abs_eig,
    _rand_hermitians,
    _require_pd,
    _sqrt_psd,
    _sym,
)
from .io import INPUT_KEYS

__all__ = [
    "TestVerdict",
    "Counterexample",
    "midpoint_convexity_test",
    "jensen_test",
    "log_midpoint_test",
    "log_harmonic_jensen_test",
    "epigraph_closure_test",
    "log_epigraph_closure_test",
    "interval_set_falsifier",
    "sublevel_family_test",
    "harmonic_sum_closure_test",
]

SPREADS = (1.0, 4.0, 16.0)

# Chunk sizes: sample 0 runs alone, then stacks grow x4 from _FIRST_STACK up
# to _CHUNK_CAP. A stacked chunk pays a fixed cost (seed words, a generator
# per sample, a few dozen numpy calls) that a chunk of 2 to 8 does not
# absorb: warm, with one OpenBLAS thread on a 2-vCPU x86 host, a jensen
# tuple chunk at dim 3, m 2 takes about 375 us for 2 samples and 560 us
# for 8, and per sample 46, 32 and 25 us in chunks of 16, 64 and 256.
# At the cap the largest stack, the Kraus array of a map family at dim 4 and
# m 3, holds 3*3*256*4*4 complex entries, about 0.6 MB; an operand stack
# holds m*256*d*d. A chunk whose stacked draw raises reruns its samples
# alone, up to 255 of them; a clean run raises none.
_FIRST_STACK = 16
_CHUNK_CAP = 256

# per-suite salts for deriving sample seeds
_SALT_MIDPOINT = 1
_SALT_JENSEN = 2
_SALT_LOG_MIDPOINT = 3
_SALT_LOG_HARMONIC = 4
_SALT_EPIGRAPH = 5
_SALT_LOG_EPIGRAPH = 6
_SALT_INTERVAL = 7
_SALT_SUBLEVEL = 8
_SALT_HARMONIC = 10

# numpy's SeedSequence constants: the pool size and the hash multipliers
_POOL = 4
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True, eq=False)
class Counterexample:
    """A reproducible witness that one sampled instance violates the
    inequality; `violation` is the most negative eigenvalue of rhs - lhs
    (or of the relevant membership defect)."""

    kind: str
    dim: int
    inputs: dict
    lhs: HermitianMatrix
    rhs: HermitianMatrix
    violation: float
    function: str | None = None
    mode: str | None = None

    def __post_init__(self):
        if not self.violation < 0:
            raise InputError("a counterexample must carry a negative violation")


@dataclass(frozen=True, eq=False)
class TestVerdict:
    __test__ = False  # not a pytest class

    status: str  # 'no-violation-found' | 'violated'
    samples_run: int
    worst_margin: float
    boundary_samples: int = 0
    # no suite redraws a sample (log-epigraph samples where f(X^{-1}) is
    # defined), so this stays 0; report bodies keep the field
    resamples: int = 0
    counterexample: Counterexample | None = None

    def __post_init__(self):
        if (self.status == "violated") != (self.counterexample is not None):
            raise InputError("status 'violated' must come with a counterexample")

    @property
    def violated(self) -> bool:
        return self.status == "violated"


def _u32(x):
    """x mod 2^32: Python ints are masked, uint32 arrays wrap by themselves."""
    return x & _M32 if type(x) is int else x


def _hashmix(value, a, b):
    """numpy's SeedSequence hashmix of `value` under hash constant `a`,
    which the call advances to `b`."""
    value = _u32((value ^ a) * b)
    return value ^ (value >> 16)


def _mix(x, y):
    """numpy's SeedSequence mix of pool word x with hashed word y."""
    r = _u32(_u32(_MIX_L * x) - _u32(_MIX_R * y))
    return r ^ (r >> 16)


def _hash_consts(a=_INIT_A, mult=_MULT_A):
    """The (a, b) pairs of numpy's successive hashmix calls in one mixing
    (with `_INIT_B`, `_MULT_B`: of generate_state's words)."""
    while True:
        b = a * mult & _M32
        yield a, b
        a = b


# generate_state's hash constants before and after each of its 8 words
_STATE_A, _STATE_B = np.array(list(itertools.islice(_hash_consts(_INIT_B, _MULT_B), 8)),
                              dtype=np.uint32).T[..., None]


def _int_words(n: int) -> list[int]:
    """numpy's split of a non-negative int into 32-bit words, low word first."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _mix_into(pool: list, dsts, value, consts):
    """pool[d] = mix(pool[d], hashmix(value)) for each d of `dsts` in turn,
    with the next hash constant each. A word that depends on the sample
    index is a uint32 array over the chunk and is hashed with all its
    constants in one (len(dsts), n) stack; the seed's and salt's words are
    Python ints."""
    pairs = [next(consts) for _ in dsts]
    if type(value) is int:
        for d, (a, b) in zip(dsts, pairs):
            pool[d] = _mix(pool[d], _hashmix(value, a, b))
        return
    a, b = np.array(pairs, dtype=np.uint32).T[..., None]
    rows = np.empty((len(dsts), len(value)), dtype=np.uint32)
    for row, d in zip(rows, dsts):
        row[:] = pool[d]
    for d, row in zip(dsts, _mix(rows, _hashmix(value, a, b))):
        pool[d] = row


def _seed_words(seed: int, salt: int, idxs: range) -> np.ndarray:
    """`SeedSequence((seed, salt, i)).generate_state(4, np.uint64)` for each
    i of `idxs` (consecutive, below 2^64) as the rows of one C-contiguous
    (n, 4) uint64 array: numpy's SeedSequence hash run once over the
    chunk, in uint32 arithmetic. An index of two 32-bit words (2^32 and
    above) makes a longer entropy than one of one word, so each length is
    hashed on its own."""
    cut = min(max(idxs.start, 2**32), idxs.stop)
    if idxs.start < cut < idxs.stop:
        return np.concatenate([_seed_words(seed, salt, range(idxs.start, cut)),
                               _seed_words(seed, salt, range(cut, idxs.stop))])
    if cut == idxs.start:  # every index has two words
        index = np.arange(idxs.start, idxs.stop, dtype=np.uint64)
        index_words = [(index & _M32).astype(np.uint32), (index >> 32).astype(np.uint32)]
    else:
        index_words = [np.arange(idxs.start, idxs.stop, dtype=np.uint32)]
    entropy = [*_int_words(seed), *_int_words(salt), *index_words]
    consts = _hash_consts()
    pool = [_hashmix(e, *next(consts)) for e in (entropy + [0] * _POOL)[:_POOL]]
    for s in range(_POOL):
        _mix_into(pool, [d for d in range(_POOL) if d != s], pool[s], consts)
    for e in entropy[_POOL:]:
        _mix_into(pool, range(_POOL), e, consts)
    # the 8 uint32 words of generate_state(8) cycle through the pool
    state = np.array(pool * 2, dtype=np.uint32).reshape(8, -1)
    state ^= _STATE_A
    state *= _STATE_B
    state ^= state >> 16
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _Words(ISeedSequence):
    """The seed sequence of one sample: hands PCG64 its row of
    `_seed_words`, the buffer PCG64 reads as its four seed words."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        return self.row


def _sample_rngs(seed: int, salt: int, idxs: range) -> list[np.random.Generator]:
    """One generator per index of `idxs`, each with the stream of
    `np.random.default_rng(np.random.SeedSequence((seed, salt, index)))`:
    numpy's own for a lone index (it is faster there), else `_seed_words`."""
    if len(idxs) == 1:
        return [np.random.default_rng(np.random.SeedSequence((seed, salt, idxs.start)))]
    generator, pcg64 = np.random.Generator, np.random.PCG64
    return [generator(pcg64(_Words(row))) for row in _seed_words(seed, salt, idxs)]


def _round_windows(domain: SpectrumInterval, samples: int, positive: bool = False):
    """`windows(idxs)`, the eigenvalue window of each sample index of a
    suite of `samples`: the window of its escalation round, each of the
    three computed once."""
    rounds = [_window(domain, spread, positive) for spread in SPREADS]
    return lambda idxs: [rounds[min(i * 3 // max(samples, 1), 2)] for i in idxs]


def _window(domain: SpectrumInterval, spread: float, positive: bool = False):
    """Finite eigenvalue window inside the domain for one escalation round."""
    lo, hi, open_lo = domain.lo, domain.hi, domain.open_lo
    if positive and lo < 0.0:
        lo, open_lo = 0.0, True
    if not math.isfinite(lo) and not math.isfinite(hi):
        lo_f, hi_f = -spread, spread
    elif math.isfinite(lo) and not math.isfinite(hi):
        lo_f = lo + 0.01 * spread if open_lo else lo
        hi_f = lo + spread
    elif not math.isfinite(lo):
        hi_f = hi - 0.01 * spread if domain.open_hi else hi
        lo_f = hi - spread
    else:
        lo_f, hi_f = lo, hi
    pad = 1e-6 * max(hi_f - lo_f, abs(lo_f), abs(hi_f))
    return lo_f + pad, hi_f - pad


def _bands(tol: ToleranceConfig, scales: np.ndarray) -> np.ndarray:
    """`tol.psd(scale)` for each scale of an array."""
    return tol.psd_tol * np.maximum(scales, SCALE_FLOOR)


class _Tracker:
    """Margin bookkeeping shared by all suites."""

    def __init__(self, tol: ToleranceConfig):
        self.tol = tol
        self.worst = math.inf
        self.boundary = 0
        self.run = 0

    def classify(self, margins: np.ndarray, scales: np.ndarray) -> int | None:
        """Count the samples of a chunk (the next indices from `run` on, as
        chunks are classified in index order) up to the first violation and
        return its position in the chunk, or None. A sample is `violated`
        below the psd band at its scale, a boundary tie inside it, and `ok`
        above it. A non-finite margin or scale fails every comparison or
        makes the band infinite, so it raises rather than pass as a clean
        sample, unless a violation comes first."""
        bands = _bands(self.tol, scales)
        finite = np.isfinite(margins) & np.isfinite(scales)
        violated = (margins < -bands) & finite
        stops = np.flatnonzero(violated | ~finite)
        stop = int(stops[0]) if stops.size else None
        if stop is not None and not violated[stop]:
            raise NumericalError(f"sample {self.run + stop} has margin {float(margins[stop])} at "
                                 f"scale {float(scales[stop])}; both must be finite")
        end = len(margins) if stop is None else stop + 1
        self.run += end
        # Python's min folded over the chunk keeps the first of equal minima
        low = float(margins[int(np.argmin(margins[:end]))])
        if low < self.worst:
            self.worst = low
        self.boundary += int(np.count_nonzero(((margins < bands) & ~violated)[:end]))
        return stop

    def verdict(self, counterexample: Counterexample | None = None) -> TestVerdict:
        return TestVerdict(
            status="violated" if counterexample is not None else "no-violation-found",
            samples_run=self.run,
            worst_margin=self.worst if math.isfinite(self.worst) else 0.0,
            boundary_samples=self.boundary,
            counterexample=counterexample,
        )


def _require_seed(seed) -> int:
    """A suite's seed as a Python int; it must be a non-negative integer."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise InputError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    return seed


def _require_sizes(dim, m=None, noise_scale: float = 0.0) -> None:
    """Before any draw and the seed check: dim (and m, where a suite takes
    one) at least 1, then a finite, non-negative noise_scale."""
    if m is None:
        if dim < 1:
            raise InputError("dim must be at least 1")
    elif dim < 1 or m < 1:
        raise InputError("dim and m must be at least 1")
    if not 0.0 <= noise_scale < math.inf:
        raise InputError(f"noise_scale must be finite and non-negative, got {noise_scale}")


def _run_suite(tol: ToleranceConfig, seed: int, salt: int, samples: int, draw, **fixed_ce_fields):
    """The sampling loop of every suite.

    `draw(rngs, idxs)` evaluates the samples `idxs` (a range), one
    generator each, as one stack and returns `(margins, scales, sample)`:
    margins and scales of shape (n,), and `sample(j)` the stack's j-th
    `(inputs, lhs, rhs, function)` (see `_stacked`). A scale need only
    classify its margin as the sample's exact scale would (see
    `_order_suite`).

    Sample 0 runs alone: most violating suites stop there. After it, chunks
    of 16, 64 and then 256 samples (`_FIRST_STACK`, growing x4 up to
    `_CHUNK_CAP`) are drawn as one stack and classified in index order; the
    first margin below the psd band at its scale builds the counterexample
    from that stack, so later samples count nowhere. A suite of 300 samples
    runs chunks of 1, 16, 64 and 219. Every sample of a chunk whose stacked
    draw raised runs again alone, so errors surface at the sample and with
    the message of a one-at-a-time loop; no other sample is evaluated
    twice.
    `fixed_ce_fields` (kind, function, mode) complete the counterexample.

    Sample i draws the stream of `SeedSequence((seed, salt, i))` whatever its
    chunk (`_sample_rngs`). `seed` must be a non-negative integer; anything
    else raises `InputError` before the first sample.

    Draws run with numpy's overflow and invalid-value warnings off: a
    non-finite margin or scale raises `NumericalError` when it is
    classified, so the warnings would only repeat that error on stderr.
    """
    seed = _require_seed(seed)

    def run(idxs):
        with np.errstate(over="ignore", invalid="ignore"):
            return draw(_sample_rngs(seed, salt, idxs), idxs)

    tr = _Tracker(tol)
    idx, size = 0, 1
    while idx < samples:
        stop = min(idx + size, samples)
        size = min(max(4 * size, _FIRST_STACK), _CHUNK_CAP)
        stacks = (run(range(i, i + 1)) for i in range(idx, stop))
        if stop - idx > 1:
            try:
                stacks = [run(range(idx, stop))]
            except Exception:
                # whatever raised, user-supplied evaluators included, raises
                # again from its own sample when the chunk runs alone below
                pass
        for margins, scales, sample in stacks:
            j = tr.classify(margins, scales)
            if j is not None:
                inputs, lhs, rhs, function = sample(j)
                if function is not None:
                    fixed_ce_fields["function"] = function
                return tr.verdict(Counterexample(dim=lhs.dim, inputs=inputs, lhs=lhs, rhs=rhs,
                                                 violation=float(margins[j]), **fixed_ce_fields))
        idx = stop
    return tr.verdict()


def _stacked(inputs: dict, lhs, rhs, functions=None):
    """The `sample` of a draw over one stack: sample j's counterexample
    inputs (each cut by its `io.INPUT_KEYS` entry), lhs, rhs and function
    label (None without `functions`)."""
    wrap = HermitianMatrix._wrap

    def sample(j):
        cut = {key: INPUT_KEYS[key].cut(value, j) for key, value in inputs.items()}
        return cut, wrap(lhs[j]), wrap(rhs[j]), None if functions is None else functions[j]

    return sample


def _by_key(keys, rngs, evaluate):
    """Stack samples that differ in a discrete draw (such as the length of
    their coefficient tuple): `evaluate(key, rngs)` draws once per distinct
    key on that key's samples; margins and scales come back in sample order,
    and `sample(j)` is sample j's entry of its key's stack, after the earlier
    samples with that key."""
    keys = np.asarray(keys)
    margins, scales = np.empty(len(rngs)), np.empty(len(rngs))
    groups = {}
    for key in dict.fromkeys(keys.tolist()):
        sel = np.flatnonzero(keys == key)
        margins[sel], scales[sel], groups[key] = evaluate(key, [rngs[i] for i in sel])
    return margins, scales, lambda j: groups[keys[j]](int(np.sum(keys[:j] == keys[j])))


def _min(p, q):
    """Python's min(p, q) elementwise, -0.0 included (np.minimum(0.0, -0.0)
    is -0.0, min(0.0, -0.0) is 0.0): q only where q < p."""
    return np.where(q < p, q, p)


def _order_suite(f, tol, seed, salt, samples, evaluate, positive=False, interval=None,
                 **fixed_ce_fields):
    """A suite checking lhs <= rhs in the Loewner order, with eigenvalues
    drawn from the escalating window of `interval` (f's domain by default;
    its positive part when `positive`); `evaluate(rngs, lo, hi)` returns
    (inputs, lhs, rhs) for a stack of samples, `lo` and `hi` holding each
    sample's window.

    The margin is lambda_min(rhs - lhs) and the scale max(||lhs||, ||rhs||)
    in the spectral norm. That scale lies in [F / sqrt(d), F], with F the
    larger Frobenius norm, and only a margin whose size lies between the psd
    bands at those bounds (each widened by a relative 1e-9 for rounding)
    can be classified differently by different scales in between. So lhs
    and rhs are decomposed only for such a sample, or one whose margin or
    bounds are not finite; every other sample takes the upper bound as its
    scale, which classifies it as the exact scale would."""

    windows_of = _round_windows(f.domain if interval is None else interval, samples, positive)

    def draw(rngs, idxs):
        windows = windows_of(idxs)
        for lo, hi in set(windows):
            if positive and hi <= 0:
                raise InputError(f"domain {f.domain} has no positive part to sample")
            if lo >= hi:
                raise InputError(f"domain {f.domain} is too small to sample")
        lo, hi = np.array(windows).T
        inputs, lhs, rhs = evaluate(rngs, lo, hi)
        margins = np.linalg.eigvalsh(rhs - lhs)[:, 0]
        # the upper bound F, the scale of every sample not decomposed below
        scales = np.maximum(np.linalg.norm(lhs, axis=(-2, -1)), np.linalg.norm(rhs, axis=(-2, -1)))
        size = np.abs(margins)
        exact = ~(np.isfinite(margins) & np.isfinite(scales))
        exact |= ((size >= _bands(tol, scales / math.sqrt(lhs.shape[-1])) * (1.0 - 1e-9))
                  & (size <= _bands(tol, scales) * (1.0 + 1e-9)))
        if exact.any():
            # one LAPACK call for both stacks; it works matrix by matrix, so
            # each eigenvalue is the one a call on its own stack would give
            eig_l, eig_r = np.linalg.eigvalsh(
                np.concatenate([lhs[exact], rhs[exact]])).reshape(2, -1, lhs.shape[-1])
            scales[exact] = np.maximum(np.max(np.abs(eig_l), axis=-1), np.max(np.abs(eig_r), axis=-1))
        return margins, scales, _stacked(inputs, lhs, rhs)

    return _run_suite(tol, seed, salt, samples, draw, function=f.label, **fixed_ce_fields)


def _tuple_draws(rngs, dim: int, m: int, lo, hi, noise: bool = False, count: int | None = None):
    """One pass of draws per sample: a coefficient tuple of m blocks,
    `count` (by default m) operands with eigenvalues in [lo, hi] (see
    `_hermitians_from`) and, with `noise`, m Ginibre draws for `_psd_noise`.
    Returns (coeffs, xs, noise normals or None)."""
    draws = _Draws(len(rngs))
    t = draws.normal(2, m * dim, dim)
    g, r = draws.hermitians(m if count is None else count, dim)
    z = draws.normals(m, 2, dim, dim) if noise else None
    draws.run(rngs)
    return _tuple_blocks(t, m), _hermitians_from(g, r, lo, hi), z


def midpoint_convexity_test(
    f: ScalarFunctionSpec,
    dim: int,
    samples: int = 500,
    *,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> TestVerdict:
    """Search for X, Y with f((X+Y)/2) not below (f(X)+f(Y))/2."""
    _require_sizes(dim)

    def evaluate(rngs, lo, hi):
        xs = _rand_hermitians(2, dim, lo, hi, rngs)
        x, y = xs
        lhs = _apply_arr(f, (x + y) / 2.0)
        fx, fy = _apply_arr(f, xs)
        return {"xs": xs}, lhs, (fx + fy) / 2.0

    return _order_suite(f, tol, seed, _SALT_MIDPOINT, samples, evaluate, kind="midpoint")


def jensen_test(
    f: ScalarFunctionSpec,
    mode: str,
    dim: int,
    m: int = 2,
    samples: int = 500,
    *,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> TestVerdict:
    """Check f(sum C_i* X_i C_i) <= sum C_i* f(X_i) C_i on sampled instances.

    Modes: 'isometry' (m = 1, a Haar unitary coefficient), 'tuple' (a random
    coefficient tuple), 'map-family' (the positive-linear-maps form
    f(sum Phi_i(X_i)) <= sum Phi_i(f(X_i))).
    """
    if mode not in ("isometry", "tuple", "map-family"):
        raise InputError(f"unknown jensen mode {mode!r}")
    if mode == "isometry" and m != 1:
        raise InputError("isometry mode requires m = 1")
    _require_sizes(dim, m)

    def evaluate(rngs, lo, hi):
        if mode != "map-family":
            coeffs, xs, _ = _tuple_draws(rngs, dim, m, lo, hi)
            lhs = _apply_arr(f, _combine_arr(coeffs, xs))
            return {"xs": xs, "coeffs": coeffs}, lhs, _combine_arr(coeffs, _apply_arr(f, xs))
        draws = _Draws(len(rngs))
        families = _family_draws(draws, dim, m)
        g, r = draws.hermitians(m, dim)
        draws.run(rngs)
        fams, xs = families(), _hermitians_from(g, r, lo, hi)
        fam = fams[0]
        lhs = _apply_arr(f, _sym(fam.apply_arr(xs)))
        rhs = _sym(fam.apply_arr(_apply_arr(f, xs)))
        return {"xs": xs, "maps": fams}, lhs, rhs

    return _order_suite(f, tol, seed, _SALT_JENSEN, samples, evaluate, kind="jensen", mode=mode)


def log_midpoint_test(
    f: ScalarFunctionSpec,
    dim: int,
    samples: int = 500,
    *,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> TestVerdict:
    """Check f((X+Y)/2) <= f(X) # f(Y) (geometric mean) on strictly positive
    pairs; f must map (0, inf) into (0, inf)."""
    _require_sizes(dim)

    def evaluate(rngs, lo, hi):
        xs = _rand_hermitians(2, dim, lo, hi, rngs)
        x, y = xs
        lhs = _apply_arr(f, (x + y) / 2.0, positive=True)
        rhs = _geometric_mean_arr(*_apply_arr(f, xs, positive=True))
        return {"xs": xs}, lhs, rhs

    return _order_suite(
        f, tol, seed, _SALT_LOG_MIDPOINT, samples, evaluate, positive=True, kind="log-midpoint"
    )


def log_harmonic_jensen_test(
    f: ScalarFunctionSpec,
    dim: int,
    m: int = 2,
    samples: int = 500,
    *,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> TestVerdict:
    """Check the harmonic-mean strengthening of the Jensen inequality,
    f(sum C_i* X_i C_i) <= (sum C_i* f(X_i)^{-1} C_i)^{-1}, which
    characterizes operator log-convex functions."""
    _require_sizes(dim, m)

    def evaluate(rngs, lo, hi):
        coeffs, xs, _ = _tuple_draws(rngs, dim, m, lo, hi)
        lhs = _apply_arr(f, _combine_arr(coeffs, xs))
        inner = _combine_arr(coeffs, _inv_pd_arr(_apply_arr(f, xs, positive=True)))
        return {"xs": xs, "coeffs": coeffs}, lhs, _inv_pd_arr(inner)

    return _order_suite(
        f, tol, seed, _SALT_LOG_HARMONIC, samples, evaluate, positive=True,
        kind="log-harmonic-jensen",
    )


def epigraph_closure_test(
    f: ScalarFunctionSpec,
    dim: int,
    m: int = 2,
    samples: int = 500,
    *,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
    noise_scale: float = 0.1,
) -> TestVerdict:
    """Sample pairs inside the operator epigraph {(X, Y): f(X) <= Y}, apply a
    random coefficient tuple componentwise, and check the combined pair did
    not leave the epigraph.

    Membership noise: Y = f(X) + G G* with the PSD part scaled to
    `noise_scale` (finite, >= 0) times the norm of f(X); zero keeps Y on the boundary.
    """
    _require_sizes(dim, m, noise_scale)

    def evaluate(rngs, lo, hi):
        coeffs, xs, z = _tuple_draws(rngs, dim, m, lo, hi, noise=noise_scale > 0.0)
        fxs = _apply_arr(f, xs)
        ys = fxs + _psd_noise(fxs, noise_scale, z)
        lhs = _apply_arr(f, _combine_arr(coeffs, xs))
        return {"xs": xs, "ys": ys, "coeffs": coeffs}, lhs, _combine_arr(coeffs, ys)

    return _order_suite(f, tol, seed, _SALT_EPIGRAPH, samples, evaluate, kind="epigraph")


def _psd_noise(ref: np.ndarray, noise_scale: float, z: np.ndarray | None) -> np.ndarray:
    """G G* for each Ginibre G drawn as the normals `z` (shape (..., 2, d,
    d)), scaled to `noise_scale` times the norm of the matching matrix of
    `ref`; zero where G G* vanishes, and everywhere when `noise_scale` is 0
    (no normals drawn)."""
    if noise_scale <= 0.0:
        return np.zeros(ref.shape, dtype=np.complex128)
    g = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    n = g @ g.conj().mT
    # one LAPACK call for both stacks, matrix by matrix
    top, norm = np.max(np.abs(np.linalg.eigvalsh(np.concatenate([n, ref]))), axis=-1).reshape(
        2, *ref.shape[:-2])
    flat = top == 0.0
    factor = noise_scale * norm / np.where(flat, 1.0, top)
    return np.where(flat[..., None, None], 0.0, n * factor[..., None, None])


def log_epigraph_closure_test(
    f: ScalarFunctionSpec,
    dim: int,
    m: int = 2,
    samples: int = 500,
    *,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
    noise_scale: float = 0.1,
) -> TestVerdict:
    """Closure of {(X, Y) positive: f(X^{-1}) <= Y} under componentwise
    log-combinations (harmonic C*-mixing of both components).

    X is drawn from R = {t > 0: 1/t in dom f} unless dom f contains
    (0, inf). The combined X_c^{-1} = sum C_i* X_i^{-1} C_i keeps its
    spectrum in the hull of the spectra of the X_i^{-1}, so f(X_c^{-1}) is
    defined whenever every f(X_i^{-1}) is."""
    _require_sizes(dim, m, noise_scale)
    d = f.domain
    interval = d  # dom f holds (0, inf), or has no positive part and sample 0 raises
    if d.hi > 0.0 and (d.lo > 0.0 or d.hi < math.inf):
        # each end of R keeps the flag of the end of dom f it inverts
        interval = SpectrumInterval(1.0 / d.hi, 1.0 / d.lo if d.lo > 0.0 else math.inf,
                                    open_lo=d.open_hi or d.hi == math.inf, open_hi=d.open_lo)

    def evaluate(rngs, lo, hi):
        coeffs, xs, z = _tuple_draws(rngs, dim, m, lo, hi, noise=noise_scale > 0.0)
        x_inv = _inv_pd_arr(xs)
        fs = _apply_arr(f, x_inv, positive=True)
        ys = fs + _psd_noise(fs, noise_scale, z)
        xc = _inv_pd_arr(_combine_arr(coeffs, x_inv))
        yc = _inv_pd_arr(_combine_arr(coeffs, _inv_pd_arr(ys)))
        lhs = _apply_arr(f, _inv_pd_arr(xc), positive=True)
        return {"xs": xs, "ys": ys, "coeffs": coeffs}, lhs, yc

    return _order_suite(f, tol, seed, _SALT_LOG_EPIGRAPH, samples, evaluate, positive=True,
                        interval=interval, kind="log-epigraph")


def interval_set_falsifier(
    A: HermitianMatrix,
    samples: int = 500,
    *,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> TestVerdict:
    """Search for a C*-combination of members of [0, A] that leaves [0, A].

    When A has two distinct eigenvalues the deterministic certificate is
    tried first: conjugating A by the unitary that swaps its extreme
    eigenvectors escapes the order interval whenever the spectrum is not a
    singleton. Random rounds then mix Haar-sampled members with random
    tuples.
    """
    _require_seed(seed)  # the certificate returns before the sampling loop checks it
    a = A.array
    dim = A.dim
    w, u = _eigh(a)
    scale = float(np.max(np.abs(w)))
    if w[0] < -tol.psd(scale):
        raise NonPositiveError(f"A must be positive semidefinite (min eig {w[0]:.3e})")

    def membership(x: np.ndarray):
        """Margins min(lambda_min(X), lambda_min(A - X)) and eigenvalues of a
        stack, from one eigvalsh call over X and A - X (matrix by matrix)."""
        eig_x, eig_gap = np.linalg.eigvalsh(np.concatenate([x, a - x])).reshape(2, len(x), -1)
        return _min(eig_x[:, 0], eig_gap[:, 0]), eig_x

    # deterministic swap certificate
    if w[-1] - w[0] > 10.0 * tol.psd(scale):
        perm = np.eye(dim)
        perm[:, [0, dim - 1]] = perm[:, [dim - 1, 0]]
        swap = u @ perm @ u.conj().T
        combined = _sym(swap.conj().T @ a @ swap)
        margin = float(membership(combined[None])[0][0])
        if margin < -tol.psd(scale):
            ce = Counterexample(
                kind="interval-set",
                dim=dim,
                inputs={"xs": [A], "coeffs": [swap], "bound": A},
                lhs=HermitianMatrix._wrap(combined),
                rhs=A,
                violation=margin,
            )
            return TestVerdict("violated", samples_run=0, worst_margin=margin, counterexample=ce)

    sqrt_a = _sqrt_psd(a)

    def evaluate(m, rngs):
        coeffs, ws, _ = _tuple_draws(rngs, dim, m, 0.0, 1.0)
        # sqrt(A) W sqrt(A) with W in [0, I] is a member of [0, A]
        xs = _sym(sqrt_a @ ws @ sqrt_a)
        combined = _combine_arr(coeffs, xs)
        inputs = {"xs": xs, "coeffs": coeffs, "bound": A}
        margins, eig = membership(combined)
        scales = np.maximum(scale, np.max(np.abs(eig), axis=-1))
        rhs = np.broadcast_to(a, combined.shape)
        return margins, scales, _stacked(inputs, combined, rhs)

    def draw(rngs, idxs):
        return _by_key([int(rng.integers(1, 5)) for rng in rngs], rngs, evaluate)

    return _run_suite(tol, seed, _SALT_INTERVAL, samples, draw, kind="interval-set")


def _parallel_sum(x, y):
    return 1.0 / (1.0 / x + 1.0 / y)


def _harmonic_split(w: np.ndarray, a1, b1, a2, b2):
    """Split each eigenvalue w of Z = (X^{-1} + Y^{-1})^{-1}, with spectrum(X)
    in [a1, b1] and spectrum(Y) in [a2, b2], along the diagonal path
    x = a1 + t d1, y = a2 + t d2 (d1 = b1 - a1, d2 = b2 - a2, t in [0, 1]),
    on which the parallel sum p(x, y) increases from p(a1, a2) to p(b1, b2).
    Each w, clipped to that range, is met where xy = w(x + y): at the root
    in [0, 1] of d1 d2 t^2 + b t + c, with b = d1 (a2 - w) + d2 (a1 - w)
    and c = a1 a2 - w (a1 + a2) <= 0. X and Y share Z's eigenbasis, so
    their eigenvalues are the returned xs and ys. Returns (xs, ys, residual);
    on a stack of spectra, one residual per spectrum."""
    lo = _parallel_sum(a1, a2)
    hi = _parallel_sum(b1, b2)
    d1, d2 = b1 - a1, b2 - a2
    if hi - lo <= 0.0:
        t = np.zeros_like(w)  # a1 = b1 and a2 = b2: the path is one point
    else:
        target = np.clip(w, lo, hi)
        b = d1 * (a2 - target) + d2 * (a1 - target)
        c = a1 * a2 - target * (a1 + a2)
        if d1 * d2 == 0.0:
            t = -c / b  # linear
        else:
            # the larger root, in the form without cancellation for each sign of b
            root = np.sqrt(b * b - 4.0 * d1 * d2 * c)
            t = np.where(b > 0.0, -2.0 * c, root - b) / np.where(b > 0.0, b + root, 2.0 * d1 * d2)
        t = np.clip(t, 0.0, 1.0)
    xs, ys = a1 + t * d1, a2 + t * d2
    residual = np.max(np.abs(_parallel_sum(xs, ys) - w), axis=-1)
    return xs, ys, residual


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
    interval endpoints), and every eigenvalue of a combined element Z inside
    it is constructively split into admissible parts; X and Y follow from
    those parts in Z's eigenbasis.
    """
    if T1.dim != T2.dim:
        raise DimensionMismatchError(f"dims {T1.dim} and {T2.dim} differ")
    _require_pd(tol, T1=T1, T2=T2)
    dim = T1.dim
    l1 = np.linalg.eigvalsh(T1.array)
    l2 = np.linalg.eigvalsh(T2.array)
    a1, b1 = float(l1[0]), float(l1[-1])
    a2, b2 = float(l2[0]), float(l2[-1])
    h_lo = _parallel_sum(a1, a2)
    h_hi = _parallel_sum(b1, b2)
    eye = np.eye(dim, dtype=np.complex128)

    def evaluate(m, rngs):
        # each Z_i = (X_i^{-1} + Y_i^{-1})^{-1}, X_i drawn in [a1, b1], then Y_i in [a2, b2]
        coeffs, xys, _ = _tuple_draws(rngs, dim, m, [[a1], [a2]] * m, [[b1], [b2]] * m,
                                      count=2 * m)
        inv = _inv_pd_arr(xys)
        zs = _inv_pd_arr(inv[0::2] + inv[1::2])
        combined = _log_combine_arr(coeffs, zs)
        # one LAPACK call for the three stacks, matrix by matrix
        eig_lo, eig_hi, eig = np.linalg.eigvalsh(np.concatenate(
            [combined - h_lo * eye, h_hi * eye - combined, combined])).reshape(3, len(rngs), -1)
        margins = _min(eig_lo[:, 0], eig_hi[:, 0])
        scales = np.maximum(max(abs(h_lo), abs(h_hi)), np.max(np.abs(eig), axis=-1))
        bands = _bands(tol, scales)
        inside = margins >= -bands
        if inside.any():
            # constructive expressibility: split the spectrum of each combined element inside
            _, _, residual = _harmonic_split(eig[inside], a1, b1, a2, b2)
            margin, band = margins[inside], bands[inside]
            bad = residual > band + np.maximum(0.0, -margin)
            if bad.any():
                raise NumericalError(
                    f"harmonic decomposition residual {residual[bad][0]:.3e} is inconsistent "
                    f"with the interval margin {margin[bad][0]:.3e}"
                )
        inputs = {"xs": zs, "coeffs": coeffs, "interval": (h_lo, h_hi)}
        rhs = np.broadcast_to(h_hi * eye, combined.shape)
        return margins, scales, _stacked(inputs, combined, rhs)

    def draw(rngs, idxs):
        return _by_key([int(rng.integers(1, 4)) for rng in rngs], rngs, evaluate)

    return _run_suite(tol, seed, _SALT_HARMONIC, samples, draw, kind="harmonic-sum")


def _sublevel_draws(rngs, dim: int, m: int, windows, feasible):
    """One pass of draws per sample: a coefficient tuple of m blocks, then
    for each of m operands its eigenvalues and its Haar eigenbasis. Each
    eigenvalue is the first `uniform(lo, hi)` in the sample's window
    `windows[j]` that is `feasible`; more than 200 * dim rejections for one
    operand raise. Returns (coeffs, xs)."""

    def eigenvalues(out, j, rng):
        lo, hi = windows[j]
        k = rejects = 0
        while k < dim:
            t = float(rng.uniform(lo, hi))
            if feasible(t):
                out[j, k] = t
                k += 1
            else:
                rejects += 1
                if rejects > 200 * dim:
                    raise InputError("sublevel bounds are infeasible over the sampled window")

    draws = _Draws(len(rngs))
    c = draws.normal(2, m * dim, dim)
    eigs = np.empty((m, len(rngs), dim))
    g = []
    for out in eigs:
        draws.step(functools.partial(eigenvalues, out))
        g.append(draws.normal(2, dim, dim))
    draws.run(rngs)
    return _tuple_blocks(c, m), _from_eig(_haar_from(np.stack(g)), eigs)


def sublevel_family_test(
    family: Sequence[tuple[ScalarFunctionSpec, float]],
    dim: int,
    m: int = 2,
    samples: int = 300,
    *,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> TestVerdict:
    """Closure of the joint sublevel set {X: f_a(X) <= M_a for all a} under
    C*-combinations; all f_a are expected operator convex.

    Member eigenvalues are rejection-sampled from the scalar feasible set
    {t: f_a(t) <= M_a for all a}; an empty feasible set raises.
    """
    if not family:
        raise InputError("the function family is empty")
    _require_sizes(dim, m)

    lo_d = max(f.domain.lo for f, _ in family)
    hi_d = min(f.domain.hi for f, _ in family)
    open_lo = any(f.domain.open_lo and f.domain.lo == lo_d for f, _ in family)
    open_hi = any(f.domain.open_hi and f.domain.hi == hi_d for f, _ in family)
    joint = SpectrumInterval(lo=lo_d, hi=hi_d, open_lo=open_lo, open_hi=open_hi)

    def feasible(t: float) -> bool:
        return all(float(f.evaluator(np.array([t]))[0]) <= bound for f, bound in family)

    bounds = np.array([float(b) for _, b in family])

    windows_of = _round_windows(joint, samples)

    def draw(rngs, idxs):
        windows = windows_of(idxs)
        if any(lo >= hi for lo, hi in set(windows)):
            raise InputError("joint domain is too small to sample")
        coeffs, xs = _sublevel_draws(rngs, dim, m, windows, feasible)
        combined = _combine_arr(coeffs, xs)
        fxs = np.stack([_apply_arr(f, combined) for f, _ in family])
        margins = bounds[:, None] - np.linalg.eigvalsh(fxs)[..., -1]
        worst = np.argmin(margins, axis=0)
        each = np.arange(len(rngs))
        fx_bad, bound_bad = fxs[worst, each], bounds[worst]
        scale = np.maximum(np.abs(bound_bad), _max_abs_eig(fx_bad))
        inputs = {"xs": xs, "coeffs": coeffs, "bound_value": bound_bad}
        rhs = bound_bad[:, None, None] * np.eye(dim, dtype=np.complex128)
        labels = [family[i][0].label for i in worst]
        return margins[worst, each], scale, _stacked(inputs, fx_bad, rhs, labels)

    return _run_suite(tol, seed, _SALT_SUBLEVEL, samples, draw, kind="sublevel")
