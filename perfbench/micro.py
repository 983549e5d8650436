"""Per-call microbenchmarks of the kernel, combination and hull layers.

Run in the traced run only, with no wrappers installed. Every input is
built from a fixed seed before its clock starts; each entry reports the
median over repeats of the mean time per call, in microseconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from cstarlab import combinations, hermitian, hull
from cstarlab.functions import parse_function
from cstarlab.hermitian import HermitianMatrix, SpectrumInterval

DIMS = (2, 3, 4, 5)
TUPLE_M = 3
REPEATS = 5
MIN_BATCH_S = 0.004


def per_call_us(fn) -> float:
    fn()
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - t0 >= MIN_BATCH_S:
            break
        calls *= 2
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times) * 1e6


def _positive(dim: int, rng) -> HermitianMatrix:
    u = hermitian.haar_unitary(dim, rng)
    a = (u * rng.uniform(0.5, 4.0, dim)) @ u.conj().T
    return HermitianMatrix((a + a.conj().T) / 2.0)


def kernel_cases(dim: int):
    rng = np.random.default_rng(np.random.SeedSequence((20151217, dim)))
    a, b = _positive(dim, rng), _positive(dim, rng)
    f = parse_function("t^1.5")
    interval = SpectrumInterval(0.5, 4.0)
    unitary_rng = np.random.default_rng(dim)
    t = combinations.sample_tuple(dim, TUPLE_M, 7)
    xs = [_positive(dim, rng) for _ in range(TUPLE_M)]
    return {
        "hermitian.eig_hermitian": lambda: hermitian.eig_hermitian(a),
        "hermitian.apply_function": lambda: hermitian.apply_function(f, a),
        "hermitian.geometric_mean": lambda: hermitian.geometric_mean(a, b),
        "hermitian.loewner_leq": lambda: hermitian.loewner_leq(a, b),
        "hermitian.sample_hermitian": lambda: hermitian.sample_hermitian(dim, interval, 11),
        "hermitian.haar_unitary": lambda: hermitian.haar_unitary(dim, unitary_rng),
        "combinations.sample_tuple": lambda: combinations.sample_tuple(dim, TUPLE_M, 7),
        "combinations.apply_combination": lambda: combinations.apply_combination(t, xs),
        "combinations.apply_log_combination": lambda: combinations.apply_log_combination(t, xs),
    }


def hull_cases():
    dim = 3
    rng = np.random.default_rng(np.random.SeedSequence((20151217, 0)))
    u = hermitian.haar_unitary(dim, rng)
    t_arr = (u * np.array([1.0, 2.5, 6.0])) @ u.conj().T
    v = hermitian.haar_unitary(dim, rng)
    x_arr = (v * np.array([1.5, 3.0, 5.0])) @ v.conj().T
    T = HermitianMatrix((t_arr + t_arr.conj().T) / 2.0)
    X = HermitianMatrix((x_arr + x_arr.conj().T) / 2.0)
    witness = hull.two_point_witness(T, X)
    return {
        "hull.oracle_us": lambda: hull.spectral_interval_oracle(T, X),
        "hull.witness_validate_us": lambda: witness.validate(X),
        "hull.witness_to_tuple_us": lambda: hull.witness_to_tuple(T, witness),
    }


def run() -> dict:
    """All microbenchmark metrics, keyed by metric name, in microseconds."""
    out = {}
    for dim in DIMS:
        for name, fn in kernel_cases(dim).items():
            out[f"{name}.us.d{dim}"] = per_call_us(fn)
    for name, fn in hull_cases().items():
        out[name] = per_call_us(fn)
    return out


def metric_names() -> list:
    names = [f"{name}.us.d{dim}" for dim in DIMS for name in kernel_cases(dim)]
    return names + list(hull_cases())
