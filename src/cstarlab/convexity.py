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
index), so verdicts are independent of execution order.

All nine suites share one sampling loop, `_run_suite`, which owns the margin
tracker, the per-sample generators, the stop at the first violation and
the counterexample; a suite supplies only its `draw`. The six Loewner-order
suites add the escalating window and lambda_min(rhs - lhs) via `_order_suite`.

The loop evaluates samples in chunks of 1, 2, 4, ... up to `_CHUNK_CAP`
consecutive indices. Within a chunk each sample still makes its own draws
from its own generator, in the same order as when it runs alone; the
linear algebra (QR, eigh, functional calculus, inverses, combinations) then
runs once over the stacked (n, d, d) arrays, which numpy computes matrix by
matrix exactly as for one matrix. A verdict is therefore byte-identical for
every chunk schedule: same `samples_run`, margins, boundary count,
resamples, counterexample and errors as a one-sample-at-a-time run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    InputError,
    NonPositiveError,
    NumericalError,
)
from .combinations import (
    _combine_arr,
    _family_at,
    _inv_pd_arr,
    _log_combine_arr,
    _sample_families,
    _sample_tuple_arrs,
)
from .functions import ScalarFunctionSpec
from .hermitian import (
    DEFAULT_TOL,
    HermitianMatrix,
    SpectrumInterval,
    ToleranceConfig,
    _apply_arr,
    _eigh,
    _from_eig,
    _geometric_mean_arr,
    _ginibre,
    _haar_columns,
    _max_abs_eig,
    _mineig,
    _rand_hermitian_arr,
    _require_pd,
    _sym,
)

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
    "embed_counterexample",
    "EVIDENCE_NOTE",
]

EVIDENCE_NOTE = "no-violation-found is sampling evidence, not a proof"

SPREADS = (1.0, 4.0, 16.0)

# the largest chunk of samples evaluated as one stack; small enough that the
# stacks stay a few hundred kilobytes
_CHUNK_CAP = 64

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
    resamples: int = 0
    counterexample: Counterexample | None = None

    def __post_init__(self):
        if (self.status == "violated") != (self.counterexample is not None):
            raise InputError("status 'violated' must come with a counterexample")

    @property
    def violated(self) -> bool:
        return self.status == "violated"


def _sample_rng(seed: int, salt: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), salt, index)))


def _round_spread(index: int, samples: int) -> float:
    return SPREADS[min(index * 3 // max(samples, 1), 2)]


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


class _Tracker:
    """Margin bookkeeping shared by all suites."""

    def __init__(self, tol: ToleranceConfig):
        self.tol = tol
        self.worst = math.inf
        self.boundary = 0
        self.resamples = 0
        self.run = 0

    def classify(self, margin: float, scale: float) -> str:
        """Count the next sample (index `run`, as samples are classified in
        index order) and sort it as `violated`, a boundary tie or `ok`. A
        non-finite margin or scale fails every comparison or makes the band
        infinite, so it raises rather than pass as a clean sample."""
        if not (math.isfinite(margin) and math.isfinite(scale)):
            raise NumericalError(
                f"sample {self.run} has margin {margin} at scale {scale}; both must be finite"
            )
        self.run += 1
        self.worst = min(self.worst, margin)
        thr = self.tol.psd(scale)
        if margin < -thr:
            return "violated"
        if margin < thr:
            self.boundary += 1
        return "ok"

    def verdict(self, counterexample: Counterexample | None = None) -> TestVerdict:
        return TestVerdict(
            status="violated" if counterexample is not None else "no-violation-found",
            samples_run=self.run,
            worst_margin=self.worst if math.isfinite(self.worst) else 0.0,
            boundary_samples=self.boundary,
            resamples=self.resamples,
            counterexample=counterexample,
        )


def _retry_domain(tracker: _Tracker | None, build, cap: int = 10):
    """Run `build` and retry on domain violations, counting resamples.

    A chunk of several samples passes no tracker and is not retried: its
    error sends every sample of the chunk back through a run of its own.
    """
    if tracker is None:
        return build()
    for _ in range(cap):
        try:
            return build()
        except DomainError:
            tracker.resamples += 1
    raise NumericalError(f"domain violations persisted through {cap} resampling attempts")


def _run_suite(tol: ToleranceConfig, seed: int, salt: int, samples: int, draw, **fixed_ce_fields):
    """The sampling loop of every suite.

    `draw(rngs, idxs, tracker)` evaluates the samples `idxs` (a range), one
    generator each, as one stack and returns `(margins, scales, inputs, lhs,
    rhs[, functions])`: margins and scales of shape (n,), lhs and rhs of
    shape (n, d, d), `inputs` keyed as in `Counterexample.inputs` but with
    per-sample values stacked (see `_first`), and per-sample function labels
    for suites whose counterexample names one.

    Chunks of 1, 2, 4, ... up to `_CHUNK_CAP` samples are drawn as one
    stack, without a tracker. Their margins are walked in index order and
    the walk stops before the first one below the psd band at its scale, so
    later samples of the chunk count nowhere. That sample, every sample of
    a chunk of one, and every sample of a chunk whose stacked draw raised
    then run alone, with the tracker for domain retries: the violation
    builds the counterexample from that run, and errors surface at the
    sample and with the message of a one-at-a-time loop. `fixed_ce_fields`
    (kind, function, mode) complete the counterexample.
    """
    tr = _Tracker(tol)
    idx, size = 0, 1
    while idx < samples:
        stop = min(idx + size, samples)
        size = min(2 * size, _CHUNK_CAP)
        if stop - idx > 1:
            try:
                margins, scales = draw([_sample_rng(seed, salt, i) for i in range(idx, stop)],
                                       range(idx, stop), None)[:2]
                walk = zip(margins.tolist(), scales.tolist())
            except Exception:
                # whatever raised, user-supplied evaluators included, raises
                # again from its own sample when the chunk runs alone below
                walk = ()
            for margin, scale in walk:
                if margin < -tol.psd(scale):
                    break
                tr.classify(margin, scale)
                idx += 1
        for alone in range(idx, stop):
            margins, scales, inputs, lhs, rhs, *functions = draw(
                [_sample_rng(seed, salt, alone)], range(alone, alone + 1), tr)
            margin = float(margins[0])
            if tr.classify(margin, float(scales[0])) == "violated":
                if functions:
                    fixed_ce_fields["function"] = functions[0][0]
                wrap = HermitianMatrix._wrap
                ce = Counterexample(dim=lhs.shape[-1], inputs=_first(inputs), lhs=wrap(lhs[0]),
                                    rhs=wrap(rhs[0]), violation=margin, **fixed_ce_fields)
                return tr.verdict(ce)
        idx = stop
    return tr.verdict()


def _first(inputs: dict) -> dict:
    """The counterexample inputs of the first sample of a stack: the lists
    `xs`, `ys` and `coeffs` hold one stack per operand, `maps` the families
    of `_sample_families`, `bound_value` one entry per sample, and other
    keys a suite-wide value."""
    out = {}
    for key, value in inputs.items():
        if key in ("xs", "ys"):
            out[key] = [HermitianMatrix._wrap(x[0]) for x in value]
        elif key == "coeffs":
            out[key] = [c[0] for c in value]
        elif key == "maps":
            out[key] = _family_at(value, 0)
        elif key == "bound_value":
            out[key] = value[0]
        else:
            out[key] = value
    return out


def _by_key(keys, rngs, evaluate):
    """Stack samples that differ in a discrete draw (such as the length of
    their coefficient tuple): `evaluate(key, rngs)` runs once per distinct
    key on that key's samples, and margins and scales come back in sample
    order. A stack of one returns all that `evaluate` returns."""
    if len(rngs) == 1:
        return evaluate(keys[0], rngs)
    keys = np.asarray(keys)
    margins, scales = np.empty(len(rngs)), np.empty(len(rngs))
    for key in dict.fromkeys(keys.tolist()):
        sel = np.flatnonzero(keys == key)
        margins[sel], scales[sel] = evaluate(key, [rngs[i] for i in sel])[:2]
    return margins, scales


def _min(p, q):
    """Python's min(p, q) elementwise, -0.0 included (np.minimum(0.0, -0.0)
    is -0.0, min(0.0, -0.0) is 0.0): q only where q < p."""
    return np.where(q < p, q, p)


def _order_suite(f, tol, seed, salt, samples, evaluate, positive=False, **fixed_ce_fields):
    """A suite checking lhs <= rhs in the Loewner order, with eigenvalues
    drawn from the escalating window of f's domain (its positive part when
    `positive`); `evaluate(rngs, lo, hi, tracker)` returns (inputs, lhs, rhs)
    for a stack of samples, `lo` and `hi` holding each sample's window."""

    def draw(rngs, idxs, tracker):
        windows = [_window(f.domain, _round_spread(idx, samples), positive) for idx in idxs]
        for lo, hi in windows:
            if positive and (lo >= hi or hi <= 0):
                raise InputError(f"domain {f.domain} has no positive part to sample")
            if lo >= hi:
                raise InputError(f"domain {f.domain} is too small to sample")
        lo, hi = zip(*windows)
        inputs, lhs, rhs = evaluate(rngs, lo, hi, tracker)
        scale = np.maximum(_max_abs_eig(lhs), _max_abs_eig(rhs))
        return _mineig(rhs - lhs), scale, inputs, lhs, rhs

    return _run_suite(tol, seed, salt, samples, draw, function=f.label, **fixed_ce_fields)


def _midpoint_sides(f: ScalarFunctionSpec, xs):
    """(f((X+Y)/2), (f(X)+f(Y))/2)."""
    x, y = xs
    return _apply_arr(f, (x + y) / 2.0), (_apply_arr(f, x) + _apply_arr(f, y)) / 2.0


def _jensen_sides(f: ScalarFunctionSpec, coeffs, xs):
    """(f(sum C_i* X_i C_i), sum C_i* f(X_i) C_i)."""
    lhs = _apply_arr(f, _combine_arr(coeffs, xs))
    return lhs, _combine_arr(coeffs, [_apply_arr(f, x) for x in xs])


def midpoint_convexity_test(
    f: ScalarFunctionSpec,
    dim: int,
    samples: int = 500,
    *,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> TestVerdict:
    """Search for X, Y with f((X+Y)/2) not below (f(X)+f(Y))/2."""
    if dim < 1:
        raise InputError("dim must be at least 1")

    def evaluate(rngs, lo, hi, tracker):
        xs = [_rand_hermitian_arr(dim, lo, hi, rngs) for _ in range(2)]
        return {"xs": xs}, *_midpoint_sides(f, xs)

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
    if dim < 1 or m < 1:
        raise InputError("dim and m must be at least 1")

    def evaluate(rngs, lo, hi, tracker):
        fams = _sample_families(dim, m, rngs) if mode == "map-family" else None
        coeffs = _sample_tuple_arrs(dim, m, rngs) if fams is None else None

        def build():
            xs = [_rand_hermitian_arr(dim, lo, hi, rngs) for _ in range(m)]
            if fams is None:
                return {"xs": xs, "coeffs": coeffs}, *_jensen_sides(f, coeffs, xs)
            fam = fams[0]
            lhs = _apply_arr(f, _sym(fam.apply_arr(xs)))
            rhs = _sym(fam.apply_arr([_apply_arr(f, x) for x in xs]))
            return {"xs": xs, "maps": fams}, lhs, rhs

        return _retry_domain(tracker, build)

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
    if dim < 1:
        raise InputError("dim must be at least 1")

    def evaluate(rngs, lo, hi, tracker):
        x, y = (_rand_hermitian_arr(dim, lo, hi, rngs) for _ in range(2))
        lhs = _apply_arr(f, (x + y) / 2.0, positive=True)
        rhs = _geometric_mean_arr(_apply_arr(f, x, positive=True), _apply_arr(f, y, positive=True))
        return {"xs": [x, y]}, lhs, rhs

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
    if dim < 1 or m < 1:
        raise InputError("dim and m must be at least 1")

    def evaluate(rngs, lo, hi, tracker):
        coeffs = _sample_tuple_arrs(dim, m, rngs)
        xs = [_rand_hermitian_arr(dim, lo, hi, rngs) for _ in range(m)]
        lhs = _apply_arr(f, _combine_arr(coeffs, xs))
        inner = _combine_arr(coeffs, [_inv_pd_arr(_apply_arr(f, x, positive=True)) for x in xs])
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
    `noise_scale` times the norm of f(X); zero keeps Y on the boundary.
    """
    if dim < 1 or m < 1:
        raise InputError("dim and m must be at least 1")

    def evaluate(rngs, lo, hi, tracker):
        coeffs = _sample_tuple_arrs(dim, m, rngs)

        def build():
            xs = [_rand_hermitian_arr(dim, lo, hi, rngs) for _ in range(m)]
            ys = [fx + _psd_noise(fx, dim, noise_scale, rngs) for fx in (_apply_arr(f, x) for x in xs)]
            lhs = _apply_arr(f, _combine_arr(coeffs, xs))
            return {"xs": xs, "ys": ys, "coeffs": coeffs}, lhs, _combine_arr(coeffs, ys)

        return _retry_domain(tracker, build)

    return _order_suite(f, tol, seed, _SALT_EPIGRAPH, samples, evaluate, kind="epigraph")


def _psd_noise(ref: np.ndarray, dim: int, noise_scale: float, rngs) -> np.ndarray:
    """G G*, one Ginibre G per generator, scaled to `noise_scale` times the
    norm of the matching `ref`; zero where G G* vanishes."""
    if noise_scale <= 0.0:
        return np.zeros((len(rngs), dim, dim), dtype=np.complex128)
    g = _ginibre(dim, dim, rngs)
    n = g @ g.conj().mT
    top = _max_abs_eig(n)
    flat = top == 0.0
    factor = noise_scale * _max_abs_eig(ref) / np.where(flat, 1.0, top)
    return np.where(flat[:, None, None], 0.0, n * factor[:, None, None])


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
    log-combinations (harmonic C*-mixing of both components)."""
    if dim < 1 or m < 1:
        raise InputError("dim and m must be at least 1")

    def evaluate(rngs, lo, hi, tracker):
        coeffs = _sample_tuple_arrs(dim, m, rngs)

        def build():
            xs = [_rand_hermitian_arr(dim, lo, hi, rngs) for _ in range(m)]
            fs = [_apply_arr(f, _inv_pd_arr(x), positive=True) for x in xs]
            ys = [fx + _psd_noise(fx, dim, noise_scale, rngs) for fx in fs]
            xc = _inv_pd_arr(_combine_arr(coeffs, [_inv_pd_arr(x) for x in xs]))
            yc = _inv_pd_arr(_combine_arr(coeffs, [_inv_pd_arr(y) for y in ys]))
            lhs = _apply_arr(f, _inv_pd_arr(xc), positive=True)
            return {"xs": xs, "ys": ys, "coeffs": coeffs}, lhs, yc

        return _retry_domain(tracker, build)

    return _order_suite(
        f, tol, seed, _SALT_LOG_EPIGRAPH, samples, evaluate, positive=True, kind="log-epigraph"
    )


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
    a = A.array
    dim = A.dim
    w, u = _eigh(a)
    scale = float(np.max(np.abs(w)))
    if w[0] < -tol.psd(scale):
        raise NonPositiveError(f"A must be positive semidefinite (min eig {w[0]:.3e})")

    def membership_margin(x: np.ndarray):
        return _min(_mineig(x), _mineig(a - x))

    # deterministic swap certificate
    if w[-1] - w[0] > 10.0 * tol.psd(scale):
        perm = np.eye(dim)
        perm[:, [0, dim - 1]] = perm[:, [dim - 1, 0]]
        swap = u @ perm @ u.conj().T
        combined = _sym(swap.conj().T @ a @ swap)
        margin = float(membership_margin(combined))
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

    sqrt_a = _from_eig(u, np.sqrt(np.clip(w, 0.0, None)))

    def evaluate(m, rngs):
        coeffs = _sample_tuple_arrs(dim, m, rngs)
        # sqrt(A) W sqrt(A) with W in [0, I] is a member of [0, A]
        xs = [_sym(sqrt_a @ _rand_hermitian_arr(dim, 0.0, 1.0, rngs) @ sqrt_a) for _ in range(m)]
        combined = _combine_arr(coeffs, xs)
        inputs = {"xs": xs, "coeffs": coeffs, "bound": A}
        scales = np.maximum(scale, _max_abs_eig(combined))
        return membership_margin(combined), scales, inputs, combined, np.broadcast_to(a, combined.shape)

    def draw(rngs, idxs, tracker):
        return _by_key([int(rng.integers(1, 5)) for rng in rngs], rngs, evaluate)

    return _run_suite(tol, seed, _SALT_INTERVAL, samples, draw, kind="interval-set")


def _parallel_sum(x, y):
    return 1.0 / (1.0 / x + 1.0 / y)


def _harmonic_decompose(z_arr: np.ndarray, a1, b1, a2, b2):
    """Split Z = (X^{-1} + Y^{-1})^{-1} with spectrum(X) in [a1, b1] and
    spectrum(Y) in [a2, b2] along the diagonal path x = a1 + t d1,
    y = a2 + t d2 (d1 = b1 - a1, d2 = b2 - a2, t in [0, 1]), on which the
    parallel sum p(x, y) increases from p(a1, a2) to p(b1, b2). Each
    eigenvalue w of Z, clipped to that range, is met where xy = w(x + y):
    at the root in [0, 1] of d1 d2 t^2 + b t + c, with
    b = d1 (a2 - w) + d2 (a1 - w) and c = a1 a2 - w (a1 + a2) <= 0.
    Returns (X, Y, residual); on a stack of Z, stacks of X and Y and one
    residual per matrix."""
    w, u = _eigh(z_arr)
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
    return _from_eig(u, xs), _from_eig(u, ys), residual


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
        coeffs = _sample_tuple_arrs(dim, m, rngs)
        zs = [_inv_pd_arr(_inv_pd_arr(_rand_hermitian_arr(dim, a1, b1, rngs))
                          + _inv_pd_arr(_rand_hermitian_arr(dim, a2, b2, rngs))) for _ in range(m)]
        combined = _log_combine_arr(coeffs, zs)
        margins = _min(_mineig(combined - h_lo * eye), _mineig(h_hi * eye - combined))
        scales = np.maximum(max(abs(h_lo), abs(h_hi)), _max_abs_eig(combined))
        bands = np.array([tol.psd(scale) for scale in scales.tolist()])
        inside = margins >= -bands
        if inside.any():
            # constructive expressibility: re-split each combined element inside
            _, _, residual = _harmonic_decompose(combined[inside], a1, b1, a2, b2)
            margin, band = margins[inside], bands[inside]
            bad = residual > band + np.maximum(0.0, -margin)
            if bad.any():
                raise NumericalError(
                    f"harmonic decomposition residual {residual[bad][0]:.3e} is inconsistent "
                    f"with the interval margin {margin[bad][0]:.3e}"
                )
        inputs = {"xs": zs, "coeffs": coeffs, "interval": (h_lo, h_hi)}
        return margins, scales, inputs, combined, np.broadcast_to(h_hi * eye, combined.shape)

    def draw(rngs, idxs, tracker):
        return _by_key([int(rng.integers(1, 4)) for rng in rngs], rngs, evaluate)

    return _run_suite(tol, seed, _SALT_HARMONIC, samples, draw, kind="harmonic-sum")


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
    if dim < 1 or m < 1:
        raise InputError("dim and m must be at least 1")

    lo_d = max(f.domain.lo for f, _ in family)
    hi_d = min(f.domain.hi for f, _ in family)
    open_lo = any(f.domain.open_lo and f.domain.lo == lo_d for f, _ in family)
    open_hi = any(f.domain.open_hi and f.domain.hi == hi_d for f, _ in family)
    joint = SpectrumInterval(lo=lo_d, hi=hi_d, open_lo=open_lo, open_hi=open_hi)

    def feasible(t: float) -> bool:
        return all(float(f.evaluator(np.array([t]))[0]) <= bound for f, bound in family)

    def draw_eigs(rng, lo, hi):
        eigs = []
        rejects = 0
        while len(eigs) < dim:
            t = float(rng.uniform(lo, hi))
            if feasible(t):
                eigs.append(t)
            else:
                rejects += 1
                if rejects > 200 * dim:
                    raise InputError("sublevel bounds are infeasible over the sampled window")
        return eigs

    def draw_members(rngs, windows):
        eigs = [draw_eigs(rng, lo, hi) for rng, (lo, hi) in zip(rngs, windows)]
        return _from_eig(_haar_columns(dim, dim, rngs), np.array(eigs))

    bounds = np.array([float(b) for _, b in family])

    def draw(rngs, idxs, tracker):
        windows = [_window(joint, _round_spread(idx, samples)) for idx in idxs]
        if any(lo >= hi for lo, hi in windows):
            raise InputError("joint domain is too small to sample")
        coeffs = _sample_tuple_arrs(dim, m, rngs)
        xs = [draw_members(rngs, windows) for _ in range(m)]
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
        return margins[worst, each], scale, inputs, fx_bad, rhs, labels

    return _run_suite(tol, seed, _SALT_SUBLEVEL, samples, draw, kind="sublevel")


def embed_counterexample(ce: Counterexample, f: ScalarFunctionSpec, scalar: float) -> Counterexample:
    """Lift a midpoint or coefficient-tuple Jensen counterexample one
    dimension up by direct sum with a fixed scalar in f's domain.

    Operator convexity is inherited by compressions, so a violation at dim d
    embeds into dim d+1; the embedded instance is rebuilt and rechecked from
    scratch rather than assumed.
    """
    if ce.kind not in ("midpoint", "jensen"):
        raise InputError(f"embedding is not defined for kind {ce.kind!r}")
    if ce.kind == "jensen" and "coeffs" not in ce.inputs:
        raise InputError("only coefficient-tuple jensen counterexamples embed")
    if not f.domain.contains(scalar):
        raise DomainError(scalar, str(f.domain), f.label)

    def grow(x: np.ndarray, corner: complex) -> np.ndarray:
        d = x.shape[0]
        out = np.zeros((d + 1, d + 1), dtype=np.complex128)
        out[:d, :d] = x
        out[d, d] = corner
        return out

    xs = [grow(x.array, scalar) for x in ce.inputs["xs"]]
    inputs = {"xs": [HermitianMatrix._wrap(x) for x in xs]}
    if ce.kind == "midpoint":
        lhs, rhs = _midpoint_sides(f, xs)
    else:
        coeffs = [grow(c, 1.0 if i == 0 else 0.0) for i, c in enumerate(ce.inputs["coeffs"])]
        inputs["coeffs"] = coeffs
        lhs, rhs = _jensen_sides(f, coeffs, xs)
    violation = float(_mineig(rhs - lhs))
    if not violation < 0:
        raise NumericalError("embedded instance no longer violates the inequality")
    return Counterexample(
        kind=ce.kind,
        dim=ce.dim + 1,
        function=ce.function,
        mode=ce.mode,
        inputs=inputs,
        lhs=HermitianMatrix._wrap(lhs),
        rhs=HermitianMatrix._wrap(rhs),
        violation=violation,
    )
