"""Seeded input generators for the two benchmark workloads.

A workload is one *pass*: a list of blocks, each block a list of CLI ops
with a fixed composition. Every block holds the same mix of commands, case
kinds and dimensions, so that runs on different seeds do the same kind of
work and only the random matrices and per-command seeds differ. All matrix
files are written before any op runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("suites-clean", "short-ops")

# blocks per pass; a pass takes 15-25 s of op time at the seed commit, so a
# 45 s run completes at least one and count metrics are taken over exactly one
BLOCKS_PER_PASS = {"suites-clean": 3, "short-ops": 24}

CLEAN_FUNCTIONS = ("t", "t^1.5", "t^2", "t^-1", "t^-0.5")
LOG_CONVEX_FUNCTIONS = ("t^-1", "t^-0.5")
# each (command, function) pair below finds a violation within its first few
# samples on every seed tried; m >= 2 where m = 1 makes the combination a
# unitary conjugation, which satisfies every inequality with equality
VIOLATING_FUNCTIONS = ("t^3", "t^0.5", "poly:0,1,0,1")
LOG_VIOLATING_FUNCTIONS = ("t^3", "t^0.5", "t^4", "t^2.5", "poly:0,1,0,1")

# the README's examples run 300-2000 samples; 300 per suite call (150 in
# classify, which makes three to six suite calls) keeps a block at 4-6 s, so
# a 45 s run holds at least five blocks (140 ops, of the 100 that its p90
# needs) on a machine up to 1.5 times slower
CLEAN_SAMPLES = 300
CLASSIFY_SAMPLES = 150
CLEAN_SHAPES = tuple((dim, m) for m in (1, 2, 3) for dim in (2, 3, 4))
VIOLATING_SAMPLES = 500  # a budget only: the suites stop at the first violation
# classify also runs jensen with m = 1, which never violates and so runs all
# of its samples; a small budget keeps classify as fast as the other ops
VIOLATING_CLASSIFY_SAMPLES = 8

HULL_DIMS = (2, 3, 4, 5)
HULL_MEMBERS_PER_DIM = 5
HULL_NON_MEMBERS_PER_DIM = 3
# a tight case can run the solver for 0.5-1.9 s, up to its 10 000-iteration
# cap; inside the band this hit 6 of 300 sampled cases at dim 2, one in six at
# dim 3 and 6 of 30 at dim 5, and a varying number of them per run swung its
# throughput by up to 15% between seeds, so inside-band cases stay at dim 2;
# block b takes TIGHT_CASES[b % 6], through hull member for even b, else witness
TIGHT_CASES = (
    ("top-eigenvalue", 2), ("both-ends", 2), ("inside-band", 2),
    ("top-eigenvalue", 3), ("both-ends", 3), ("inside-band", 2),
)
HULL_COMMANDS = (("hull", "member"), ("hull", "witness"), ("lch", "member"))


@dataclass
class Op:
    """One CLI invocation and what its output must look like.

    `expect` is the verdict the generator built the input for: `pass` or
    `violated` for suites, `member`, `non-member` or `tight` for hull ops,
    `verified` for `verify`. `t` and `x` hold the generated hull operands.
    """

    argv: list
    command: str
    expect: str
    out: str | None = None
    report: str | None = None
    t: np.ndarray | None = field(default=None, repr=False)
    x: np.ndarray | None = field(default=None, repr=False)


def _write_matrix(path: str, a: np.ndarray) -> str:
    """Write `a` in the CLI's matrix format: row-major [re, im] pairs."""
    payload = {
        "dim": int(a.shape[0]),
        "entries": [[[float(v.real), float(v.imag)] for v in row] for row in a],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _hermitian(eigs, rng: np.random.Generator) -> np.ndarray:
    u = _haar(len(eigs), rng)
    a = (u * np.asarray(eigs, float)) @ u.conj().T
    # averaging with the adjoint makes the array exactly Hermitian, so the
    # file passes the loader's self-adjointness check at any scale
    return (a + a.conj().T) / 2.0


def _balanced(values, count: int, rng: np.random.Generator) -> list:
    """`count` draws that use each value equally often, in random order."""
    reps = -(-count // len(values))
    pool = list(values) * reps
    rng.shuffle(pool)
    return pool[:count]


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**63)))


def _suite_argv(command, function, dim, m, samples, seed, out):
    if command == "classify":
        return ["classify", "--function", function, "--dims", str(dim),
                "--max-m", str(m), "--samples", str(samples), "--seed", seed, "--out", out]
    if command.startswith("jensen-"):
        return ["jensen", "--mode", command[len("jensen-"):], "--function", function,
                "--dims", str(dim), "--m", str(m), "--samples", str(samples),
                "--seed", seed, "--out", out]
    return [command, "--function", function, "--dims", str(dim), "--m", str(m),
            "--samples", str(samples), "--seed", seed, "--out", out]


def _clean_block(rng, workdir, tag) -> list:
    specs = [("classify", f) for f in CLEAN_FUNCTIONS]
    for mode in ("isometry", "tuple", "map-family"):
        specs += [(f"jensen-{mode}", f) for f in CLEAN_FUNCTIONS]
    specs += [("epigraph", f) for f in CLEAN_FUNCTIONS]
    specs += [("log-epigraph", f) for f in LOG_CONVEX_FUNCTIONS]
    specs.append(("interval-set", None))
    # each command's (dim, m) is fixed by its place in the list, not drawn: a
    # suite call costs 5-20 times more at dim 4, m 3 than at dim 2, m 1, and
    # with every block alike a run does the same mix whatever its seed and
    # however many blocks fit in its time
    ops = []
    for i, (command, function) in enumerate(specs):
        dim, m = CLEAN_SHAPES[i % len(CLEAN_SHAPES)]
        out = os.path.join(workdir, f"{tag}-{i}.json")
        if command == "interval-set":
            # [0, cI] is C*-convex, so no combination of members leaves it
            a_path = _write_matrix(
                os.path.join(workdir, f"{tag}-{i}-A.json"),
                float(rng.uniform(0.5, 5.0)) * np.eye(dim, dtype=np.complex128),
            )
            argv = ["interval-set", "--a", a_path, "--samples", str(CLEAN_SAMPLES),
                    "--seed", _seed(rng), "--out", out]
        else:
            samples = CLASSIFY_SAMPLES if command == "classify" else CLEAN_SAMPLES
            argv = _suite_argv(command, function, dim, m, samples, _seed(rng), out)
        ops.append(Op(argv=argv, command=command, expect="pass", out=out))
    order = rng.permutation(len(ops))
    return [ops[j] for j in order]


def _violating_pairs(rng, workdir, tag) -> list:
    """(suite op, verify op) pairs, unshuffled."""
    specs = [("classify", f) for f in VIOLATING_FUNCTIONS]
    for command in ("jensen-tuple", "jensen-map-family", "epigraph"):
        specs += [(command, f) for f in VIOLATING_FUNCTIONS]
    specs += [("log-epigraph", f) for f in LOG_VIOLATING_FUNCTIONS]
    specs.append(("interval-set", None))
    dims = _balanced((2, 3, 4), len(specs), rng)
    ms = _balanced((2, 3), len(specs), rng)
    pairs = []
    for i, ((command, function), dim, m) in enumerate(zip(specs, dims, ms)):
        out = os.path.join(workdir, f"{tag}-{i}.json")
        if command == "interval-set":
            # distinct eigenvalues: the swap certificate leaves [0, A]
            eigs = np.sort(rng.uniform(0.5, 5.0, dim))
            eigs[-1] = eigs[0] + 1.0 + float(rng.uniform(0.0, 4.0))
            a_path = _write_matrix(os.path.join(workdir, f"{tag}-{i}-A.json"), _hermitian(eigs, rng))
            argv = ["interval-set", "--a", a_path, "--samples", str(VIOLATING_SAMPLES),
                    "--seed", _seed(rng), "--out", out]
        else:
            samples = VIOLATING_CLASSIFY_SAMPLES if command == "classify" else VIOLATING_SAMPLES
            argv = _suite_argv(command, function, dim, m, samples, _seed(rng), out)
        suite_op = Op(argv=argv, command=command, expect="violated", out=out)
        verify_op = Op(argv=["verify", "--report", out], command="verify",
                       expect="verified", report=out)
        pairs.append((suite_op, verify_op))
    return pairs


def _hull_case(kind: str, variant: str, command, dim: int, rng):
    lo = float(rng.uniform(0.5, 2.0))
    width = float(rng.uniform(1.0, 8.0))
    hi = lo + width
    t_eigs = np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, dim - 2)]))
    x_eigs = rng.uniform(lo + 0.05 * width, hi - 0.05 * width, dim)
    if kind == "non-member":
        share = float(rng.uniform(0.02, 0.3))
        if command[0] == "lch":
            # lch decides X^-1 against the hull of T^-1, so the escape is
            # measured there: X^-1 clears 1/lo by `share` of that interval
            x_eigs[0] = 1.0 / (1.0 / lo + share * (1.0 / lo - 1.0 / hi))
        elif rng.random() < 0.5:
            x_eigs[0] = hi + share * width
        else:
            x_eigs[0] = lo - share * width
    elif kind == "tight":
        x_eigs[0] = hi
        if variant == "both-ends":
            x_eigs[1] = lo
        elif variant == "inside-band":
            # outside the interval by less than the psd band (1e-8 * scale)
            x_eigs[0] = hi * (1.0 + 3e-9)
    return _hermitian(t_eigs, rng), _hermitian(x_eigs, rng)


def _hull_ops(rng, workdir, tag, block_index: int) -> list:
    """One op per hull case, unshuffled."""
    cases = []
    for dim in HULL_DIMS:
        cases += [("member", dim)] * HULL_MEMBERS_PER_DIM
        cases += [("non-member", dim)] * HULL_NON_MEMBERS_PER_DIM
    variant, tight_dim = TIGHT_CASES[block_index % len(TIGHT_CASES)]
    cases.append(("tight", tight_dim))
    ops = []
    for i, (kind, dim) in enumerate(cases):
        if kind == "tight":
            # not through lch, where a quarter to a half of them hit the cap
            command = HULL_COMMANDS[block_index % 2]
        else:
            command = HULL_COMMANDS[(i + block_index) % len(HULL_COMMANDS)]
        t, x = _hull_case(kind, variant, command, dim, rng)
        t_path = _write_matrix(os.path.join(workdir, f"{tag}-{i}-T.json"), t)
        x_path = _write_matrix(os.path.join(workdir, f"{tag}-{i}-X.json"), x)
        out = os.path.join(workdir, f"{tag}-{i}.json")
        argv = list(command) + ["--t", t_path, "--x", x_path, "--out", out]
        ops.append(Op(argv=argv, command=" ".join(command), expect=kind, out=out, t=t, x=x))
    return ops


def _short_block(rng, workdir, tag, block_index: int) -> list:
    # hull ops and violating suites share one workload: both are ops of a few
    # to 70 ms whose time goes to the CLI, report io, recheck and the hull
    # decision, and one workload of both leaves time for long runs; a suite
    # op stays next to its verify op
    units = [[op] for op in _hull_ops(rng, workdir, f"{tag}h", block_index)]
    units += [list(pair) for pair in _violating_pairs(rng, workdir, f"{tag}v")]
    order = rng.permutation(len(units))
    return [op for j in order for op in units[j]]


def generate(workload: str, seed: int, workdir: str, blocks: int | None = None) -> list:
    """Build one pass of `workload` from `seed`; returns a list of blocks.

    Matrix files go to `workdir`. Op outputs are written there too, under
    names fixed by the op's position in the pass.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    count = BLOCKS_PER_PASS[workload] if blocks is None else blocks
    out = []
    for b in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((seed, WORKLOADS.index(workload), b)))
        tag = f"b{b}"
        if workload == "suites-clean":
            out.append(_clean_block(rng, workdir, tag))
        else:
            out.append(_short_block(rng, workdir, tag, b))
    return out
