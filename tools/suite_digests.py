"""Print sha256 digests of falsifier-suite verdict bodies and CLI outputs
over a fixed grid.

Each line is `<sha256>  <call>` for one library call: the digest of the
canonical JSON of `verdict_to_payload(verdict)` (or of the raised error's
type and message). The grid covers all nine suites, including
`sublevel_family_test` and `harmonic_sum_closure_test`, which no CLI command
reaches, at a budget of 30 samples, and runs log-epigraph also on the
bounded domain [0, 2] (lines named `log-epigraph bump ...`). A second grid
reruns a subset of it at 300 samples (lines named `n300 ...`), so that clean
runs walk the sampling engine's chunks of 1, 16, 64 and 219 and violations
fall far from the first sample. A third reruns a smaller subset at 300
samples at two seeds of two 32-bit words, 2^63 + 12345 and 2^64 - 1 (lines
named `n300 seed<seed> ...`), since SEED = 7 seeds every sample from three
words of entropy and the CLI's seeds reach 2^64 - 1. A fourth runs clean
instances of the nine suites at 600 samples (lines named `n600 ...`), whose
chunks end with two of the largest size, 256, and then a partial one of 7.

A last grid (lines named `cli ...`) runs `cstarlab.cli.main` in a
temporary directory on fixed matrix files and prints
`<sha256>  cli <run> exit <code>`: the digest of the report body
(`report_body_bytes`), of the witness file, or of stdout (stderr for a
failed parse) where a command writes neither. All CLI runs share one
process, so later runs reuse the parser that earlier ones built.

Every violation's counterexample payload is passed through JSON, as
`cstarlab verify` reads it, and rechecked with `recheck_payload`; the line
`rechecked=<n> recheck_failed=<k> non_native=<j> cli_verify_failed=<v>`
counts them, the ones that failed or raised, the leaves that are not
exactly a str, int, float, bool or None (a tuple or a numpy scalar, say) in
every payload digested and in every report body and witness payload the CLI
runs hand to `cstarlab.io` before encoding, and the CLI `verify` runs that
exit non-zero, so that a report that stops verifying through the CLI shows
there and not only in its digest line. `cstarlab.io` passes encoder output
straight to `json.dumps`, so the encoders must emit native values only. The
last lines give the call, violation, error and CLI counts and a combined
digest over all lines before them. The tool exits 1 when any of
`recheck_failed`, `non_native` or `cli_verify_failed` is not 0, and 0
otherwise.

Two source trees produce byte-identical verdicts iff their outputs match:

    PYTHONPATH=<tree>/src python3 tools/suite_digests.py > digests.txt

Digests depend on the LAPACK build, so compare runs on one machine only.
With `--record` the output starts with `# <field>: <value>` lines naming
that environment (`environment()`); `tests/suite_digests.txt` holds that
output, and `tests/test_suite_digests.py` runs `run()` in-process and
compares it with the file line by line wherever the environment matches.
After a deliberate body change, rewrite the file with

    PYTHONPATH=src python3 tools/suite_digests.py --record > tests/suite_digests.txt
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np

import cstarlab.io
import cstarlab.recheck
from cstarlab import (
    HermitianMatrix,
    cli,
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
    load_report,
    report_body_bytes,
    save_matrix,
    verdict_to_payload,
)
from cstarlab.recheck import recheck_payload

SEED = 7
SAMPLES = 30
LONG_SAMPLES = 300
LONG_LABELS = ("t", "t^1.5", "t^2", "t^-0.5", "t^-1", "t^0.5", "t^3")
WIDE_SEEDS = (2**63 + 12345, 2**64 - 1)
WIDE_LABELS = ("t^1.5", "t^-1", "t^0.5", "t^3")
CAP_SAMPLES = 600
LABELS = (
    "t", "t^0.5", "t^1.5", "t^2", "t^3", "t^4", "t^-0.5", "t^-1",
    "const:2.0", "poly:1,0,1", "poly:0,0,0,1", "poly:0,-1,0,0,1",
)
DIMS = (1, 2, 3, 4)
MS = (1, 2, 3)
NOISES = (0.0, 0.1)
POINT = ScalarFunctionSpec("point", SpectrumInterval(1.0, 1.0), lambda t: np.asarray(t, float))
NEGATIVE = ScalarFunctionSpec("neg", SpectrumInterval(hi=0.0), lambda t: np.asarray(t, float) ** 2)
# a bounded domain, where log-epigraph samples X with spectrum in [1/2, inf)
BUMP = ScalarFunctionSpec("bump", SpectrumInterval(0.0, 2.0), lambda t: np.asarray(t, float) ** 2 + 1.0)
# functions outside the catalog that `parse_function` does not know
OWN_FUNCTIONS = {f.label: f for f in (POINT, NEGATIVE, BUMP)}


def _diag(*values) -> HermitianMatrix:
    return HermitianMatrix(np.diag(values))


def _rotated(values, seed: int) -> HermitianMatrix:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((len(values), len(values)))
    q, _ = np.linalg.qr(g)
    a = (q * np.asarray(values, float)) @ q.T
    return HermitianMatrix((a + a.T) / 2.0)


def _function_calls(fns, dims, ms, noises, samples, prefix="", seed=SEED):
    """(name, thunk) for the six function suites over a grid of shapes."""
    n = samples
    for f in fns:
        for dim in dims:
            yield f"{prefix}midpoint {f.label} d{dim}", lambda f=f, d=dim: midpoint_convexity_test(
                f, d, n, seed=seed)
            yield f"{prefix}log-midpoint {f.label} d{dim}", lambda f=f, d=dim: log_midpoint_test(
                f, d, n, seed=seed)
            yield f"{prefix}jensen isometry {f.label} d{dim}", lambda f=f, d=dim: jensen_test(
                f, "isometry", d, 1, n, seed=seed)
            for m in ms:
                for mode in ("tuple", "map-family"):
                    yield f"{prefix}jensen {mode} {f.label} d{dim} m{m}", (
                        lambda f=f, d=dim, m=m, mode=mode: jensen_test(f, mode, d, m, n, seed=seed))
                yield f"{prefix}log-harmonic {f.label} d{dim} m{m}", (
                    lambda f=f, d=dim, m=m: log_harmonic_jensen_test(f, d, m, n, seed=seed))
                for noise in noises:
                    yield f"{prefix}epigraph {f.label} d{dim} m{m} n{noise}", (
                        lambda f=f, d=dim, m=m, z=noise: epigraph_closure_test(
                            f, d, m, n, seed=seed, noise_scale=z))
                    yield f"{prefix}log-epigraph {f.label} d{dim} m{m} n{noise}", (
                        lambda f=f, d=dim, m=m, z=noise: log_epigraph_closure_test(
                            f, d, m, n, seed=seed, noise_scale=z))


def grid():
    """Yield (name, thunk) for every call of the grid."""
    fns = [parse_function(label) for label in LABELS] + [POINT, NEGATIVE]
    yield from _function_calls(fns, DIMS, MS, NOISES, SAMPLES)
    for dim in (1, 2, 3):
        for m in MS:
            for noise in NOISES:
                yield f"log-epigraph {BUMP.label} d{dim} m{m} n{noise}", (
                    lambda d=dim, m=m, z=noise: log_epigraph_closure_test(
                        BUMP, d, m, SAMPLES, seed=SEED, noise_scale=z))
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


def wide_seed_grid():
    """Yield (name, thunk) for a subset of the long grid at seeds of two
    32-bit words (lines named `n300 seed<seed> ...`), as the CLI and the
    benchmark pass them; SEED is one word."""
    fns = [parse_function(label) for label in WIDE_LABELS]
    for seed in WIDE_SEEDS:
        prefix = f"n300 seed{seed} "
        yield from _function_calls(fns, (2,), (2,), (0.1,), LONG_SAMPLES, prefix, seed)
        yield f"{prefix}interval-set rot3", lambda s=seed: interval_set_falsifier(
            _rotated([0.5, 1.0, 4.0], 3), LONG_SAMPLES, seed=s)
        yield f"{prefix}sublevel t2<=4,t^-1<=3 d2", lambda s=seed: sublevel_family_test(
            [(parse_function("t^2"), 4.0), (parse_function("t^-1"), 3.0)], 2, 2, LONG_SAMPLES, seed=s)
        yield f"{prefix}harmonic-sum d2", lambda s=seed: harmonic_sum_closure_test(
            _diag(1.0, 3.0), _diag(0.5, 2.0), LONG_SAMPLES, seed=s)


def cap_grid():
    """Yield (name, thunk) for clean runs of the nine suites at CAP_SAMPLES
    (lines named `n600 ...`)."""
    n, p = CAP_SAMPLES, parse_function
    t15, t2, tinv = p("t^1.5"), p("t^2"), p("t^-1")
    calls = {
        "midpoint t^2 d3": lambda: midpoint_convexity_test(t2, 3, n, seed=SEED),
        "jensen isometry t^2 d2": lambda: jensen_test(t2, "isometry", 2, 1, n, seed=SEED),
        "jensen tuple t^1.5 d3 m3": lambda: jensen_test(t15, "tuple", 3, 3, n, seed=SEED),
        "jensen map-family t^2 d3 m2": lambda: jensen_test(t2, "map-family", 3, 2, n, seed=SEED),
        "log-midpoint t^-1 d3": lambda: log_midpoint_test(tinv, 3, n, seed=SEED),
        "log-harmonic t^-1 d2 m3": lambda: log_harmonic_jensen_test(tinv, 2, 3, n, seed=SEED),
        "epigraph t^2 d2 m2 n0.1": lambda: epigraph_closure_test(t2, 2, 2, n, seed=SEED),
        "log-epigraph t^-1 d3 m2 n0.1": lambda: log_epigraph_closure_test(tinv, 3, 2, n, seed=SEED),
        "interval-set eye3": lambda: interval_set_falsifier(_diag(1.5, 1.5, 1.5), n, seed=SEED),
        "sublevel t2<=4,t^-1<=3 d2": lambda: sublevel_family_test(
            [(t2, 4.0), (tinv, 3.0)], 2, 2, n, seed=SEED),
        "harmonic-sum d2": lambda: harmonic_sum_closure_test(
            _diag(1.0, 3.0), _diag(0.5, 2.0), n, seed=SEED),
    }
    for name, thunk in calls.items():
        yield f"n600 {name}", thunk


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
    # T's gap 5e-10 lies beyond the solver band of --tol 1e-11 and within
    # the default one; X = lam_max I is a member either way
    "t-near-flat.json": _diag(1.0, 1.0 + 5e-10),
    "x-near-flat.json": _diag(1.0 + 5e-10, 1.0 + 5e-10),
    "a-spread.json": _rotated([0.5, 1.0, 4.0], 15),
    "a-flat.json": _diag(1.5, 1.5, 1.5),
}


def cli_grid():
    """Yield (name, argv, source) for every CLI run, in order: `source` is
    `report` (the body of the report at --out), `file` (the bytes at --out),
    `stdout`, or `stderr` (its last line, the error message; argparse wraps
    the usage text above it to the terminal's width). Paths are relative,
    so report bodies, which echo the command line, do not depend on the
    temporary directory."""
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
    yield "hull member near-degenerate tol 1e-11", [
        "hull", "member", "--t", "t-near-flat.json", "--x", "x-near-flat.json", "--tol", "1e-11",
        "--out", "hull-near-flat.json"], "report"
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
    # in this order: the parse failure goes through the parser that later
    # runs reuse, and verifying jensen.json is the process's first recheck
    yield "jensen parse failure", ["jensen", "--function", "t^4", "--dims", "2", *run,
                                   "--format", "json"], "stderr"
    yield "jensen tuple t^4 m2", ["jensen", "--function", "t^4", "--dims", "2", "--m", "2", *run,
                                  "--out", "jensen.json"], "report"
    for report in ("jensen.json", "hull-non-member.json", "lch-non-member.json", "interval.json",
                   "hull-near-flat.json"):
        yield f"verify {report}", ["verify", "--report", report], "stdout"
    yield "classify t^2 seed 2^64-1", ["classify", "--function", "t^2", "--dims", "2", "--samples",
                                      str(SAMPLES), "--seed", str(2**64 - 1)], "report"
    # the report echoes construction_tol as the fixed 1e-12 below it
    yield "hull member tol 1e-14", [
        "hull", "member", "--t", "t.json", "--x", "x-in.json", "--tol", "1e-14"], "report"
    # an abbreviated --out would put the output path in the body
    yield "jensen abbreviated --ou parse failure", [
        "jensen", "--function", "t^4", "--dims", "2", *run, "--ou", "jensen-ou.json"], "stderr"


def non_native(obj) -> int:
    """The leaves of `obj`, a tree of dicts with str keys and lists, that
    are not exactly a str, int, float, bool or None; a key that is not a
    str counts as one."""
    if type(obj) is dict:
        return sum(type(k) is not str for k in obj) + sum(map(non_native, obj.values()))
    if type(obj) is list:
        return sum(map(non_native, obj))
    return type(obj) not in (str, int, float, bool, type(None))


def cli_lines(count):
    """Yield `(run, code, line)` per CLI run, `line` being `<sha256>  cli
    <run> exit <code>`, passing each report body and witness payload the
    runs encode to `count`."""
    write_report, witness_to_payload = cstarlab.io.write_report, cstarlab.io.witness_to_payload

    def audited_write_report(path, body, meta):
        count(body)
        return write_report(path, body, meta)

    def audited_witness_to_payload(witness):
        payload = witness_to_payload(witness)
        count(payload)
        return payload

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        cstarlab.io.write_report = audited_write_report
        cstarlab.io.witness_to_payload = audited_witness_to_payload
        try:
            for path, matrix in CLI_MATRICES.items():
                save_matrix(path, matrix)
            for name, argv, source in cli_grid():
                if source in ("report", "file") and "--out" not in argv:
                    argv = [*argv, "--out", "out.json"]
                stdout, stderr = StringIO(), StringIO()
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = cli.main(argv)
                if source == "stdout":
                    data = stdout.getvalue().encode()
                elif source == "stderr":
                    data = stderr.getvalue().splitlines()[-1].encode()
                else:
                    out = argv[argv.index("--out") + 1]
                    if source == "report":
                        data = report_body_bytes(load_report(out))
                    else:
                        with open(out, "rb") as fh:
                            data = fh.read()
                yield name, code, f"{hashlib.sha256(data).hexdigest()}  cli {name} exit {code}"
        finally:
            cstarlab.io.write_report, cstarlab.io.witness_to_payload = write_report, witness_to_payload
            os.chdir(cwd)


def body(thunk) -> tuple[dict, str]:
    try:
        verdict = thunk()
    except CstarlabError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}, "error"
    return verdict_to_payload(verdict), verdict.status


def rechecks(payload: dict) -> bool:
    """Whether a violation's counterexample, read back from its JSON,
    rechecks; the recheck finds the grid's own functions by label beside
    the catalog."""
    ce = json.loads(canonical_dumps(payload["counterexample"]))
    parse = cstarlab.recheck.parse_function
    cstarlab.recheck.parse_function = lambda label: OWN_FUNCTIONS.get(label) or parse(label)
    try:
        return recheck_payload(ce).ok
    except CstarlabError:
        return False
    finally:
        cstarlab.recheck.parse_function = parse


def run() -> tuple[list[str], int]:
    """The tool's output lines, in order, and its exit code."""
    lines = []
    combined = hashlib.sha256()
    counts = {"calls": 0, "violated": 0, "error": 0}
    rechecked = {"rechecked": 0, "recheck_failed": 0, "non_native": 0, "cli_verify_failed": 0}

    def count(obj):
        rechecked["non_native"] += non_native(obj)

    def emit(line):
        lines.append(line)
        combined.update((line + "\n").encode())

    for name, thunk in (*grid(), *long_grid(), *wide_seed_grid(), *cap_grid()):
        payload, outcome = body(thunk)
        count(payload)
        if outcome == "violated":
            rechecked["rechecked"] += 1
            rechecked["recheck_failed"] += not rechecks(payload)
        digest = hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()
        emit(f"{digest}  {name}")
        counts["calls"] += 1
        counts[outcome] = counts.get(outcome, 0) + 1
    for name, code, line in cli_lines(count):
        rechecked["cli_verify_failed"] += name.startswith("verify ") and code != 0
        emit(line)
        counts["cli"] = counts.get("cli", 0) + 1
    emit(" ".join(f"{k}={v}" for k, v in rechecked.items()))
    lines.append(" ".join(f"{k}={v}" for k, v in counts.items()))
    lines.append(f"combined {combined.hexdigest()}")
    return lines, int(any(rechecked[k] for k in ("recheck_failed", "non_native", "cli_verify_failed")))


def environment() -> dict:
    """What the digests depend on beyond the source tree: numpy's version,
    the name, version and build options of the BLAS numpy was built with,
    the machine, and the OpenBLAS core kernel chosen at run time (a
    DYNAMIC_ARCH build picks it per CPU; `unreadable` where the library or
    its `get_corename` cannot be found)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": json.dumps({k: blas.get(k) for k in ("name", "version", "openblas configuration")},
                           sort_keys=True),
        "machine": platform.machine(),
        "openblas core": _openblas_core(),
    }


def _openblas_core() -> str:
    """The core name OpenBLAS reports for this CPU, from the library that
    numpy's wheel bundles (loading it again returns the loaded instance)."""
    root = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
                       + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return "unreadable"


def header() -> list[str]:
    """`# <field>: <value>` for each field of `environment()`."""
    return [f"# {k}: {v}" for k, v in environment().items()]


def main(argv: list[str]) -> int:
    if argv not in ([], ["--record"]):
        sys.exit("usage: suite_digests.py [--record]")
    lines, code = run()
    print("\n".join(header() * bool(argv) + lines))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
