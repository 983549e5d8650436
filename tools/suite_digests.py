"""Print sha256 digests of falsifier-suite verdict bodies over a fixed grid.

Each line is `<sha256>  <call>` for one library call: the digest of the
canonical JSON of `verdict_to_payload(verdict)` (or of the raised error's
type and message). The last lines give the call, violation and error counts
and a combined digest over all lines. The grid covers all nine suites,
including `sublevel_family_test` and `harmonic_sum_closure_test`, which no
CLI command reaches, plus `embed_counterexample`, at a budget of 30 samples.
A second grid reruns a subset of it at 300 samples (lines named `n300 ...`),
so that clean runs walk the sampling engine's largest chunks and violations
fall far from the first sample.

Two source trees produce byte-identical verdicts iff their outputs match:

    PYTHONPATH=<tree>/src python3 tools/suite_digests.py > digests.txt

Digests depend on the LAPACK build, so compare runs on one machine only.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from cstarlab import (
    HermitianMatrix,
    embed_counterexample,
    epigraph_closure_test,
    harmonic_sum_closure_test,
    interval_set_falsifier,
    jensen_test,
    log_epigraph_closure_test,
    log_harmonic_jensen_test,
    log_midpoint_test,
    midpoint_convexity_test,
    parse_function,
    sublevel_family_test,
)
from cstarlab.errors import CstarlabError
from cstarlab.functions import ScalarFunctionSpec
from cstarlab.hermitian import SpectrumInterval
from cstarlab.io import canonical_dumps, counterexample_to_payload, verdict_to_payload

SEED = 7
SAMPLES = 30
LONG_SAMPLES = 300
LONG_LABELS = ("t", "t^1.5", "t^2", "t^-0.5", "t^-1", "t^0.5", "t^3")
LABELS = (
    "t", "t^0.5", "t^1.5", "t^2", "t^3", "t^4", "t^-0.5", "t^-1",
    "const:2.0", "poly:1,0,1", "poly:0,0,0,1", "poly:0,-1,0,0,1",
)
DIMS = (1, 2, 3, 4)
MS = (1, 2, 3)
NOISES = (0.0, 0.1)
POINT = ScalarFunctionSpec("point", SpectrumInterval(1.0, 1.0), lambda t: np.asarray(t, float))
NEGATIVE = ScalarFunctionSpec("neg", SpectrumInterval(hi=0.0), lambda t: np.asarray(t, float) ** 2)


def _diag(*values) -> HermitianMatrix:
    return HermitianMatrix.diagonal(values)


def _rotated(values, seed: int) -> HermitianMatrix:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((len(values), len(values)))
    q, _ = np.linalg.qr(g)
    a = (q * np.asarray(values, float)) @ q.T
    return HermitianMatrix((a + a.T) / 2.0)


def _function_calls(fns, dims, ms, noises, samples, prefix=""):
    """(name, thunk) for the six function suites over a grid of shapes."""
    n = samples
    for f in fns:
        for dim in dims:
            yield f"{prefix}midpoint {f.label} d{dim}", lambda f=f, d=dim: midpoint_convexity_test(
                f, d, n, seed=SEED)
            yield f"{prefix}log-midpoint {f.label} d{dim}", lambda f=f, d=dim: log_midpoint_test(
                f, d, n, seed=SEED)
            yield f"{prefix}jensen isometry {f.label} d{dim}", lambda f=f, d=dim: jensen_test(
                f, "isometry", d, 1, n, seed=SEED)
            for m in ms:
                for mode in ("tuple", "map-family"):
                    yield f"{prefix}jensen {mode} {f.label} d{dim} m{m}", (
                        lambda f=f, d=dim, m=m, mode=mode: jensen_test(f, mode, d, m, n, seed=SEED))
                yield f"{prefix}log-harmonic {f.label} d{dim} m{m}", (
                    lambda f=f, d=dim, m=m: log_harmonic_jensen_test(f, d, m, n, seed=SEED))
                for noise in noises:
                    yield f"{prefix}epigraph {f.label} d{dim} m{m} n{noise}", (
                        lambda f=f, d=dim, m=m, z=noise: epigraph_closure_test(
                            f, d, m, n, seed=SEED, noise_scale=z))
                    yield f"{prefix}log-epigraph {f.label} d{dim} m{m} n{noise}", (
                        lambda f=f, d=dim, m=m, z=noise: log_epigraph_closure_test(
                            f, d, m, n, seed=SEED, noise_scale=z))


def grid():
    """Yield (name, thunk) for every call of the grid."""
    fns = [parse_function(label) for label in LABELS] + [POINT, NEGATIVE]
    yield from _function_calls(fns, DIMS, MS, NOISES, SAMPLES)
    t2 = parse_function("t^2")
    for name, thunk in (
        ("midpoint d0", lambda: midpoint_convexity_test(t2, 0, SAMPLES, seed=SEED)),
        ("jensen bad mode", lambda: jensen_test(t2, "bogus", 2, 2, SAMPLES, seed=SEED)),
        ("jensen isometry m2", lambda: jensen_test(t2, "isometry", 2, 2, SAMPLES, seed=SEED)),
        ("jensen m0", lambda: jensen_test(t2, "tuple", 2, 0, SAMPLES, seed=SEED)),
        ("epigraph m0", lambda: epigraph_closure_test(t2, 2, 0, SAMPLES, seed=SEED)),
    ):
        yield name, thunk

    bounds = {
        "diag21": _diag(2.0, 1.0),
        "diag0123": _diag(0.0, 1.0, 2.0, 3.0),
        "singleton": _diag(1.5, 1.5, 1.5),
        "scalar": _diag(2.0),
        "rot3": _rotated([0.5, 1.0, 4.0], 3),
        "rot4": _rotated([0.0, 0.0, 1.0, 2.0], 4),
        "zero": _diag(0.0, 0.0),
        "nonpsd": _diag(-1.0, 2.0),
    }
    for name, a in bounds.items():
        yield f"interval-set {name}", lambda a=a: interval_set_falsifier(a, SAMPLES, seed=SEED)

    p = parse_function
    families = {
        "t2<=4": [(p("t^2"), 4.0)],
        "t2<=4,t^-1<=3": [(p("t^2"), 4.0), (p("t^-1"), 3.0)],
        "t4<=1": [(p("t^4"), 1.0)],
        "t3<=8": [(p("t^3"), 8.0)],
        "t^-0.5<=2,t1.5<=5": [(p("t^-0.5"), 2.0), (p("t^1.5"), 5.0)],
        "infeasible": [(p("t^2"), -1.0)],
        "empty": [],
    }
    for name, fam in families.items():
        for dim in (1, 2, 3):
            for m in (1, 2):
                yield f"sublevel {name} d{dim} m{m}", (
                    lambda fam=fam, d=dim, m=m: sublevel_family_test(fam, d, m, SAMPLES, seed=SEED))
    yield "sublevel m0", lambda: sublevel_family_test(families["t2<=4"], 2, 0, SAMPLES, seed=SEED)

    pairs = {
        "d1": (_diag(1.0), _diag(2.0)),
        "d2": (_diag(1.0, 3.0), _diag(0.5, 2.0)),
        "d3rot": (_rotated([1.0, 2.0, 5.0], 5), _rotated([0.3, 0.6, 1.2], 6)),
        "d3flat": (_diag(2.0, 2.0, 2.0), _diag(1.0, 2.0, 3.0)),
        "d4": (_rotated([0.2, 1.0, 1.5, 3.0], 7), _diag(1.0, 1.0, 4.0, 4.0)),
        "singular": (_diag(0.0, 1.0), _diag(1.0, 2.0)),
        "mismatch": (_diag(1.0, 2.0), _diag(1.0, 2.0, 3.0)),
    }
    for name, (a, b) in pairs.items():
        yield f"harmonic-sum {name}", lambda a=a, b=b: harmonic_sum_closure_test(a, b, SAMPLES, seed=SEED)

    t4 = parse_function("t^4")
    for dim in (2, 3):
        for scalar in (0.25, 0.5, 2.0):
            yield f"embed midpoint d{dim} s{scalar}", (
                lambda d=dim, s=scalar: _embedded(midpoint_convexity_test(t4, d, 1000, seed=42), t4, s))
            yield f"embed jensen d{dim} s{scalar}", (
                lambda d=dim, s=scalar: _embedded(jensen_test(t4, "tuple", d, 2, 1000, seed=42), t4, s))


def long_grid():
    """Yield (name, thunk) for the subset of the grid run at LONG_SAMPLES."""
    fns = [parse_function(label) for label in LONG_LABELS]
    yield from _function_calls(fns, (2, 3), (2, 3), (0.1,), LONG_SAMPLES, "n300 ")
    bounds = {"diag21": _diag(2.0, 1.0), "eye3": _diag(1.5, 1.5, 1.5),
              "rot3": _rotated([0.5, 1.0, 4.0], 3)}
    for name, a in bounds.items():
        yield f"n300 interval-set {name}", lambda a=a: interval_set_falsifier(
            a, LONG_SAMPLES, seed=SEED)
    p = parse_function
    for name, fam in {"t2<=4": [(p("t^2"), 4.0)],
                      "t2<=4,t^-1<=3": [(p("t^2"), 4.0), (p("t^-1"), 3.0)]}.items():
        for dim in (2, 3):
            yield f"n300 sublevel {name} d{dim}", (
                lambda fam=fam, d=dim: sublevel_family_test(fam, d, 2, LONG_SAMPLES, seed=SEED))
    for name, (a, b) in {"d2": (_diag(1.0, 3.0), _diag(0.5, 2.0)),
                         "d3rot": (_rotated([1.0, 2.0, 5.0], 5), _rotated([0.3, 0.6, 1.2], 6))}.items():
        yield f"n300 harmonic-sum {name}", lambda a=a, b=b: harmonic_sum_closure_test(
            a, b, LONG_SAMPLES, seed=SEED)


def _embedded(verdict, f, scalar):
    return embed_counterexample(verdict.counterexample, f, scalar)


def body(thunk) -> tuple[dict, str]:
    try:
        result = thunk()
    except CstarlabError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}, "error"
    if hasattr(result, "status"):
        return verdict_to_payload(result), result.status
    return counterexample_to_payload(result), "violated"


def main() -> int:
    combined = hashlib.sha256()
    counts = {"calls": 0, "violated": 0, "error": 0}
    for name, thunk in (*grid(), *long_grid()):
        payload, outcome = body(thunk)
        digest = hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()
        line = f"{digest}  {name}"
        print(line)
        combined.update((line + "\n").encode())
        counts["calls"] += 1
        counts[outcome] = counts.get(outcome, 0) + 1
    print(" ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"combined {combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
