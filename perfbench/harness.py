"""Run one workload closed-loop through `cstarlab.cli.main` and report metrics.

One client sends the next op only after the previous one returns. An op is
one `main(argv)` call; its time is the wall time of that call alone. Output
checks run between ops, off the clock. The loop stops at the first block
boundary after `seconds` of op time, so every run does whole blocks of the
same composition.

The untraced run gives the end-to-end metrics. The traced run wraps the
layer entry points (see `install_wrappers`), runs the same loop, then
replays a prefix of the same ops, alternately with and without wrappers, to
measure the tracing overhead and the untraced sample rate, and finishes
with microbenchmarks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

import cstarlab.cli
import cstarlab.convexity
import cstarlab.hull
import cstarlab.io
import checks
import micro
import workloads
from spans import Tracer

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP_OPS = 4
SETUP_REPEATS = 8
SETUP_TIMEOUT_S = 60
REPLAY_SHARE = 0.15  # untraced op time replayed, as a share of `seconds`
SETUP_SNIPPET = "import cstarlab.cli; cstarlab.cli.build_parser()"

SUITES = {
    "midpoint_convexity_test": "midpoint",
    "jensen_test": "jensen",
    "log_midpoint_test": "log-midpoint",
    "log_harmonic_jensen_test": "log-harmonic-jensen",
    "epigraph_closure_test": "epigraph",
    "log_epigraph_closure_test": "log-epigraph",
    "interval_set_falsifier": "interval-set",
}
SUITE_LABELS = (
    "midpoint", "jensen-isometry", "jensen-tuple", "jensen-map-family", "log-midpoint",
    "log-harmonic-jensen", "epigraph", "log-epigraph", "interval-set",
)
LAPACK = ("eigh", "eigvalsh", "qr")
HULL_STATUSES = ("member", "non-member", "boundary")

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


def per_layer_specs() -> list:
    """(name, unit, better) for every metric of the traced run."""
    specs = [("cli.self_ms_per_op", "ms", "lower")]
    specs += [(f"convexity.{s}.us_per_sample", "us", "lower") for s in SUITE_LABELS]
    specs += [
        ("convexity.samples_run", "count", "higher"),
        ("convexity.resamples", "count", "lower"),
        ("convexity.useful_sample_ratio", "ratio", "higher"),
        ("convexity.violating_suite_ms", "ms", "lower"),
        ("convexity.op_time_share", "ratio", "lower"),
        ("samples_per_s", "1/s", "higher"),
        ("hermitian.lapack_calls_per_sample", "count", "lower"),
        ("hermitian.lapack_share", "ratio", "lower"),
    ]
    for name in micro.metric_names():
        if not name.startswith("hull."):
            specs.append((name, "us", "lower"))
    specs += [(f"hull.decision_ms.{s}", "ms", "lower") for s in HULL_STATUSES]
    specs += [
        ("hull.iterations_per_decision", "count", "lower"),
        ("hull.wasted_iteration_share", "ratio", "lower"),
        ("hull.lch_ms", "ms", "lower"),
    ]
    specs += [(name, "us", "lower") for name in micro.metric_names() if name.startswith("hull.")]
    specs += [
        ("io.write_report_ms", "ms", "lower"),
        ("io.load_report_ms", "ms", "lower"),
        ("io.load_matrix_us", "us", "lower"),
        ("io.report_bytes_per_op", "bytes", "lower"),
        ("recheck.payload_ms", "ms", "lower"),
        ("recheck.payloads", "count", "higher"),
        ("recheck.failures", "count", "lower"),
        ("failed_ops_ratio", "ratio", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return specs


@dataclass
class Execution:
    op_index: int  # position in the pass
    seconds: float
    ok: bool


@dataclass
class LoopResult:
    ops: list
    executions: list = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)  # op_index -> checks.Outcome, pass 0
    failures: list = field(default_factory=list)

    @property
    def pass_len(self) -> int:
        return len(self.ops)

    @property
    def op_seconds(self) -> float:
        return sum(e.seconds for e in self.executions)


def call(main, op) -> tuple:
    """Run one op; returns (exit code, stdout, stderr, seconds)."""
    if op.out is not None and os.path.exists(op.out):
        os.remove(op.out)
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = main(op.argv)
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def run_loop(blocks: list, seconds: float, main, tracer: Tracer | None = None) -> LoopResult:
    """Closed loop over the pass, cycling until `seconds` of op time."""
    ops = [op for block in blocks for op in block]
    result = LoopResult(ops=ops)
    if tracer is not None:
        tracer.op_index = -1
    for op in ops[:WARMUP_OPS]:
        call(main, op)
    elapsed = 0.0
    while True:
        at = 0
        for block in blocks:
            for op in block:
                index = len(result.executions)
                if tracer is not None:
                    tracer.op_index = index
                rc, stdout, stderr, dt = call(main, op)
                outcome = checks.check_op(op, rc, stdout)
                if not outcome.ok and len(result.failures) < 20:
                    result.failures.append(
                        {"argv": op.argv, "exit": rc, "detail": outcome.detail, "stderr": stderr[-300:]}
                    )
                if index < len(ops):
                    result.outcomes[at] = outcome
                result.executions.append(Execution(at, dt, outcome.ok))
                elapsed += dt
                at += 1
            if elapsed >= seconds:
                return result


def replay(result: LoopResult, budget: float, tracer: Tracer) -> tuple:
    """Re-run executions in order, each op once without and once with the
    wrappers, until `budget` seconds of untraced op time; returns (untraced
    seconds, traced seconds, samples) over that prefix. Alternating op by op
    keeps warm-up and machine drift out of the tracing overhead."""
    traced_main = tracer.wrap(cstarlab.cli.main, "cli.main", root=True)
    tracer.op_index = -1  # replayed spans are not counted in the layer metrics
    untraced = traced = 0.0
    samples = 0
    for ex in result.executions:
        op = result.ops[ex.op_index]
        untraced += call(cstarlab.cli.main, op)[3]
        install_wrappers(tracer)
        try:
            traced += call(traced_main, op)[3]
        finally:
            tracer.unpatch()
        samples += result.outcomes[ex.op_index].samples_run
        if untraced >= budget:
            break
    return untraced, traced, samples


def install_wrappers(tracer: Tracer) -> None:
    def suite_facts(label):
        def describe(args, kwargs, verdict):
            name = label
            if label == "jensen":
                name = "jensen-" + (args[1] if len(args) > 1 else kwargs["mode"])
            return ("suite", name, verdict.samples_run, verdict.resamples, verdict.violated)
        return describe

    for attr, label in SUITES.items():
        tracer.patch(cstarlab.convexity, attr, f"convexity.{label}", suite_facts(label))
    tracer.patch(cstarlab.hull, "hull_membership", "hull.hull_membership",
                 lambda a, k, r: ("hull", r.status, r.iterations))
    tracer.patch(cstarlab.hull, "lch_membership", "hull.lch_membership",
                 lambda a, k, r: ("lch", r.status))
    for attr in ("load_matrix", "write_report", "load_report"):
        tracer.patch(cstarlab.io, attr, f"io.{attr}")
    tracer.patch(cstarlab.cli, "recheck_payload", "recheck.recheck_payload",
                 lambda a, k, r: ("recheck", r.ok))
    for attr in LAPACK:
        tracer.patch(np.linalg, attr, f"lapack.{attr}")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def span_metrics(tracer: Tracer, result: LoopResult) -> dict:
    a = tracer.arrays()
    names = tracer.names
    name_id = {n: i for i, n in enumerate(names)}
    n_spans = len(a["dur"])
    counted = a["op"] >= 0
    first = counted & (a["op"] < result.pass_len)

    def spans_named(name):
        return counted & (a["name"] == name_id.get(name, -2))

    facts = {sid: f for sid, f in tracer.attrs.items() if counted[sid]}
    suite_ids = [sid for sid, f in facts.items() if f[0] == "suite"]
    is_suite = np.zeros(n_spans + 1, dtype=bool)  # trailing slot for "no parent"
    is_suite[suite_ids] = True
    m = {}
    roots = spans_named("cli.main")
    m["cli.self_ms_per_op"] = _median(a["self"][roots] / 1e6)

    for label in SUITE_LABELS:
        ids = [sid for sid in suite_ids if facts[sid][1] == label]
        samples = sum(facts[sid][2] for sid in ids)
        busy = float(a["dur"][ids].sum()) if ids else 0.0
        m[f"convexity.{label}.us_per_sample"] = busy / samples / 1e3 if samples else 0.0
    first_suites = [sid for sid in suite_ids if first[sid]]
    samples = sum(facts[sid][2] for sid in first_suites)
    resamples = sum(facts[sid][3] for sid in first_suites)
    m["convexity.samples_run"] = float(samples)
    m["convexity.resamples"] = float(resamples)
    m["convexity.useful_sample_ratio"] = samples / (samples + resamples) if samples else 0.0
    m["convexity.violating_suite_ms"] = _median(
        a["dur"][sid] / 1e6 for sid in suite_ids if facts[sid][4]
    )

    suite_busy = float(a["dur"][suite_ids].sum()) if suite_ids else 0.0
    root_busy = float(a["dur"][roots].sum())
    m["convexity.op_time_share"] = suite_busy / root_busy if root_busy else 0.0

    lapack = np.zeros(n_spans, dtype=bool)
    for attr in LAPACK:
        lapack |= spans_named(f"lapack.{attr}")
    under_suite = lapack & is_suite[a["parent"]]
    m["hermitian.lapack_calls_per_sample"] = (
        float(np.count_nonzero(under_suite & first)) / samples if samples else 0.0
    )
    m["hermitian.lapack_share"] = (
        float(a["dur"][under_suite].sum()) / suite_busy if suite_busy else 0.0
    )

    hull_ids = [sid for sid, f in facts.items() if f[0] == "hull"]
    for status in HULL_STATUSES:
        m[f"hull.decision_ms.{status}"] = _median(
            a["dur"][sid] / 1e6 for sid in hull_ids if facts[sid][1] == status
        )
    first_hull = [sid for sid in hull_ids if first[sid]]
    iterations = sum(facts[sid][2] for sid in first_hull)
    wasted = sum(facts[sid][2] for sid in first_hull if facts[sid][1] != "member")
    m["hull.iterations_per_decision"] = iterations / len(first_hull) if first_hull else 0.0
    m["hull.wasted_iteration_share"] = wasted / iterations if iterations else 0.0
    m["hull.lch_ms"] = _median(a["dur"][spans_named("hull.lch_membership")] / 1e6)

    m["io.write_report_ms"] = _median(a["dur"][spans_named("io.write_report")] / 1e6)
    m["io.load_report_ms"] = _median(a["dur"][spans_named("io.load_report")] / 1e6)
    m["io.load_matrix_us"] = _median(a["dur"][spans_named("io.load_matrix")] / 1e3)
    m["io.report_bytes_per_op"] = (
        sum(o.out_bytes for o in result.outcomes.values()) / result.pass_len
    )
    recheck_ids = [sid for sid, f in facts.items() if f[0] == "recheck"]
    m["recheck.payload_ms"] = _median(a["dur"][recheck_ids] / 1e6) if recheck_ids else 0.0
    m["recheck.payloads"] = float(sum(1 for sid in recheck_ids if first[sid]))
    m["recheck.failures"] = float(sum(1 for sid in recheck_ids if not facts[sid][1]))
    return m


def per_op_counts(tracer: Tracer, result: LoopResult) -> list:
    """Exact per-op counts for pass 0: LAPACK calls by name and Dykstra
    iterations; used to show that a seed repeats exactly."""
    a = tracer.arrays()
    counts = [dict.fromkeys(LAPACK, 0) | {"iterations": 0} for _ in range(result.pass_len)]
    for attr in LAPACK:
        nid = tracer.names.index(f"lapack.{attr}") if f"lapack.{attr}" in tracer.names else -2
        ops = a["op"][(a["name"] == nid) & (a["op"] >= 0) & (a["op"] < result.pass_len)]
        for op_index, n in zip(*np.unique(ops, return_counts=True)):
            counts[op_index][attr] = int(n)
    for sid, f in tracer.attrs.items():
        op_index = tracer.op[sid]
        if f[0] == "hull" and 0 <= op_index < result.pass_len:
            counts[op_index]["iterations"] += f[2]
    return counts


def measure_setup(src: str, repeats: int, first: bool) -> list:
    """Wall times of fresh interpreters importing the CLI and building its
    parser. On the `first` call one more start runs untimed, because it also
    compiles bytecode for a fresh checkout."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-c", SETUP_SNIPPET]
    times = []
    for i in range(repeats + first):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantize the measurement; the timer only guards a hang
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"set-up interpreter exited {rc}")
        if i or not first:
            times.append(elapsed)
    return times


def git_sha(root: str) -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: str, src: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    package = os.path.join(src, "cstarlab")
    lines = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_sha": git_sha(root),
        "src_lines": lines,
    }


def combined_digest(result: LoopResult) -> str:
    digests = [result.outcomes[i].digest for i in sorted(result.outcomes)]
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def measure(blocks: list, seconds: float, traced: bool) -> tuple:
    """Run the loop, with the layer wrappers installed if `traced`;
    returns (LoopResult, Tracer or None)."""
    if not traced:
        return run_loop(blocks, seconds, cstarlab.cli.main), None
    tracer = Tracer()
    install_wrappers(tracer)
    try:
        main = tracer.wrap(cstarlab.cli.main, "cli.main", root=True)
        return run_loop(blocks, seconds, main, tracer), tracer
    finally:
        tracer.unpatch()


def run(workload: str, seed: int, seconds: float, traced: bool, root: str, src: str) -> int:
    env = environment(root, src)
    # half the set-up starts run before the loop and half after it, so that
    # their median spans more of the machine's slow and fast spells
    setup_times = [] if traced else measure_setup(src, SETUP_REPEATS // 2, first=True)
    state = ".perfbench"
    workdir = os.path.join(state, "work", workload)
    blocks = workloads.generate(workload, seed, workdir)

    result, tracer = measure(blocks, seconds, traced)
    if not traced:
        setup_times += measure_setup(src, SETUP_REPEATS // 2, first=False)
    attempted = len(result.executions)
    failed = sum(1 for e in result.executions if not e.ok)
    if traced:
        metrics = span_metrics(tracer, result)
        untraced, traced_s, samples = replay(result, REPLAY_SHARE * seconds, tracer)
        metrics["samples_per_s"] = samples / untraced
        metrics["trace.overhead_ratio"] = traced_s / untraced
        metrics["failed_ops_ratio"] = failed / attempted
        metrics.update(micro.run())
        specs = per_layer_specs()
        os.makedirs(state, exist_ok=True)
        tracer.save(os.path.join(state, f"trace-{workload}.npz"))
    else:
        times_ms = np.array([e.seconds for e in result.executions]) * 1e3
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": attempted / result.op_seconds,
            "op_ms_p50": float(np.percentile(times_ms, 50)),
            "op_ms_p90": float(np.percentile(times_ms, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        specs = END_TO_END

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "failures": result.failures,
        "passes": attempted / result.pass_len,
        "pass_len": result.pass_len,
        "complete_pass": attempted >= result.pass_len,
        "body_digest": combined_digest(result),
        "op_digests": [result.outcomes[i].digest for i in sorted(result.outcomes)],
        "setup_times_s": setup_times,
        "op_seconds": [e.seconds for e in result.executions],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }
    if traced:
        record["per_op_counts"] = per_op_counts(tracer, result)
    os.makedirs(os.path.join(state, "results"), exist_ok=True)
    path = os.path.join(state, "results", f"{workload}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload}  seed {seed}  trace {int(traced)}  "
          f"ops {attempted} ({record['passes']:.2f} passes of {result.pass_len})  failed {failed}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"body digest {record['body_digest']}")
    for failure in result.failures:
        print(f"FAILED {' '.join(failure['argv'])}: {failure['detail']}", file=sys.stderr)
    for name, unit, _ in specs:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0
