"""Print sha256 digests of falsifier-suite verdict bodies and CLI outputs
over a fixed grid.

Each line is `<sha256>  <call>` for one library call: the digest of the
canonical JSON of `verdict_to_payload(verdict)` (or of the raised error's
type and message). The grid covers all nine suites, including
`sublevel_family_test` and `harmonic_sum_closure_test`, which no CLI command
reaches, plus `embed_counterexample`, at a budget of 30 samples. A second
grid reruns a subset of it at 300 samples (lines named `n300 ...`), so that
clean runs walk the sampling engine's largest chunks and violations fall far
from the first sample.

A third grid (lines named `cli ...`) runs `cstarlab.cli.main` in a
temporary directory on fixed matrix files and prints
`<sha256>  cli <run> exit <code>`: the digest of the report body
(`report_body_bytes`), of the witness file, or of stdout where a command
writes neither. The last lines give the call, violation, error and CLI
counts and a combined digest over all lines.

Two source trees produce byte-identical verdicts iff their outputs match:

    PYTHONPATH=<tree>/src python3 tools/suite_digests.py > digests.txt

Digests depend on the LAPACK build, so compare runs on one machine only.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np

from cstarlab import (
    HermitianMatrix,
    cli,
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
from cstarlab.io import (
    canonical_dumps,
    counterexample_to_payload,
    load_report,
    report_body_bytes,
    save_matrix,
    verdict_to_payload,
)

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


CLI_MATRICES = {
    "t.json": _rotated([1.0, 2.0, 4.0], 11),
    "x-in.json": _rotated([1.5, 2.5, 3.0], 12),
    "x-out.json": _rotated([0.5, 2.0, 3.0], 13),
    # escapes [1, 4] by 1e-8: inside the psd band, but the witness block
    # (X - I)/3 has eigenvalue -3e-9 < -1e-10, so the verdict is `boundary`
    "x-tie.json": _rotated([1.0 - 1e-8, 2.0, 3.0], 14),
    "t-flat.json": _diag(2.0, 2.0, 2.0),
    # 1e-8 from 2I: inside the psd band but beyond the solver band of the
    # degenerate T = 2I, so the verdict is `boundary` with a valid witness
    "x-flat-tie.json": _diag(2.0, 2.0, 2.0 + 1e-8),
    "a-spread.json": _rotated([0.5, 1.0, 4.0], 15),
    "a-flat.json": _diag(1.5, 1.5, 1.5),
}


def cli_grid():
    """Yield (name, argv, source) for every CLI run, in order: `source` is
    `report` (the body of the report at --out), `file` (the bytes at --out)
    or `stdout`. Paths are relative, so report bodies, which echo the
    command line, do not depend on the temporary directory."""
    run = ["--samples", str(SAMPLES), "--seed", str(SEED)]
    yield "classify t^2", ["classify", "--function", "t^2", "--dims", "2", *run], "report"
    for mode in ("isometry", "tuple", "map-family"):
        yield f"jensen {mode} t^4", [
            "jensen", "--mode", mode, "--function", "t^4", "--dims", "2,3", *run], "report"
    for noise in ("0", "0.1"):
        yield f"epigraph t^4 n{noise}", [
            "epigraph", "--function", "t^4", "--dims", "2", "--noise", noise, *run], "report"
        yield f"log-epigraph t^0.5 n{noise}", [
            "log-epigraph", "--function", "t^0.5", "--dims", "2", "--noise", noise, *run], "report"
    yield "interval-set certificate", [
        "interval-set", "--a", "a-spread.json", *run, "--out", "interval.json"], "report"
    yield "interval-set clean", ["interval-set", "--a", "a-flat.json", *run], "report"
    hull_cases = {"member": ("t.json", "x-in.json"), "non-member": ("t.json", "x-out.json"),
                  "tie": ("t.json", "x-tie.json"), "degenerate": ("t-flat.json", "t-flat.json")}
    for case, (t, x) in hull_cases.items():
        yield f"hull member {case}", [
            "hull", "member", "--t", t, "--x", x, "--out", f"hull-{case}.json"], "report"
    yield "hull member tie tol 1e-6", [
        "hull", "member", "--t", "t.json", "--x", "x-tie.json", "--tol", "1e-6"], "report"
    yield "hull witness member", [
        "hull", "witness", "--t", "t.json", "--x", "x-in.json", "--out", "witness.json"], "file"
    for case in ("non-member", "tie"):
        t, x = hull_cases[case]
        yield f"hull witness {case}", [
            "hull", "witness", "--t", t, "--x", x, "--out", "witness.json"], "stdout"
    yield "hull witness degenerate tie", [
        "hull", "witness", "--t", "t-flat.json", "--x", "x-flat-tie.json", "--out", "witness.json"], "stdout"
    for case in ("member", "non-member"):
        yield f"lch member {case}", ["lch", "member", "--t", "t.json", "--x", hull_cases[case][1],
                                     "--out", f"lch-{case}.json"], "report"
    for report in ("hull-non-member.json", "lch-non-member.json", "interval.json"):
        yield f"verify {report}", ["verify", "--report", report], "stdout"


def cli_lines():
    """Yield one `<sha256>  cli <run> exit <code>` line per CLI run."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for path, matrix in CLI_MATRICES.items():
                save_matrix(path, matrix)
            for name, argv, source in cli_grid():
                if source != "stdout" and "--out" not in argv:
                    argv = [*argv, "--out", "out.json"]
                stdout = StringIO()
                with redirect_stdout(stdout), redirect_stderr(StringIO()):
                    code = cli.main(argv)
                if source == "stdout":
                    data = stdout.getvalue().encode()
                else:
                    out = argv[argv.index("--out") + 1]
                    if source == "report":
                        data = report_body_bytes(load_report(out))
                    else:
                        with open(out, "rb") as fh:
                            data = fh.read()
                yield f"{hashlib.sha256(data).hexdigest()}  cli {name} exit {code}"
        finally:
            os.chdir(cwd)


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
    for line in cli_lines():
        print(line)
        combined.update((line + "\n").encode())
        counts["cli"] = counts.get("cli", 0) + 1
    print(" ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"combined {combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
