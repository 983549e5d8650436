"""Command-line front end.

Exit codes: 0 pass/member, 1 violation/non-member (or classification
conflict), 2 input error (an unreadable input or an unwritable --out
included), 3 numerical indeterminacy. Every randomized
subcommand takes an explicit --seed; identical command lines with identical
seeds produce byte-identical report bodies.

Building the parser imports only argparse and `errors`; each command
imports the modules it uses when it runs, so `hull member` never loads the
falsifiers and the suites never load `recheck`. Commands call the suites,
the hull decisions and io through module attributes
(`convexity.jensen_test`), so patching those attributes reaches the CLI.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .errors import CstarlabError, InputError, NumericalError

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3


def _seed_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _count_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _dims_arg(text: str) -> list:
    try:
        dims = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims list {text!r}")
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError("dims must be positive integers")
    return dims


def _tolconfig(args):
    from .hermitian import DEFAULT_TOL, ToleranceConfig

    t = getattr(args, "tol", None)
    if t is None:
        return DEFAULT_TOL
    return ToleranceConfig(psd_tol=t, solver_tol=min(DEFAULT_TOL.solver_tol, t))


def _emit(args, body: dict, summary: str) -> None:
    from . import io

    meta = {
        "duration_seconds": time.perf_counter() - args._t0,
        "created_unix": time.time(),
    }
    io.write_report(getattr(args, "out", None), body, meta)
    print(summary)


def _suite_flags(p, with_m=True, with_noise=False):
    p.add_argument("--function", required=True, help="catalog label or inline spec")
    p.add_argument("--dims", required=True, type=_dims_arg)
    p.add_argument("--samples", type=_count_arg, default=500)
    p.add_argument("--seed", required=True, type=_seed_arg)
    if with_m:
        p.add_argument("--m", type=int, default=2, help="coefficients per combination")
    if with_noise:
        p.add_argument("--noise", type=float, default=0.1, help="PSD noise level for epigraph sampling")
    _common_flags(p)


def _common_flags(p):
    p.add_argument("--tol", type=float, default=None, help="override the PSD tolerance")
    p.add_argument("--out", default=None, help="write the run report to this path")


def cmd_classify(args) -> int:
    from . import convexity, io
    from .functions import parse_function

    f = parse_function(args.function)
    tol = _tolconfig(args)
    results = []
    violated = False

    def record(suite, verdict, **ctx):
        nonlocal violated
        violated = violated or verdict.violated
        results.append(io.verdict_to_payload(verdict, suite=suite, function=f.label, **ctx))

    for dim in args.dims:
        record(
            "midpoint",
            convexity.midpoint_convexity_test(f, dim, args.samples, seed=args.seed, tol=tol),
            dim=dim,
        )
        for m in range(1, args.max_m + 1):
            record(
                "jensen",
                convexity.jensen_test(f, "tuple", dim, m, args.samples, seed=args.seed, tol=tol),
                dim=dim,
                m=m,
                mode="tuple",
            )
        if f.positive_domain:
            record(
                "log-midpoint",
                convexity.log_midpoint_test(f, dim, args.samples, seed=args.seed, tol=tol),
                dim=dim,
            )
            record(
                "log-harmonic-jensen",
                convexity.log_harmonic_jensen_test(
                    f, dim, args.max_m, args.samples, seed=args.seed, tol=tol
                ),
                dim=dim,
                m=args.max_m,
            )

    convex_suites = [r for r in results if r["suite"] in ("midpoint", "jensen")]
    log_suites = [r for r in results if r["suite"].startswith("log-")]
    convex_ok = all(r["status"] == "no-violation-found" for r in convex_suites)
    log_ok = bool(log_suites) and all(r["status"] == "no-violation-found" for r in log_suites)
    if not convex_ok:
        observed = "neither"
    elif log_ok:
        observed = "operator-log-convex"
    else:
        observed = "operator-convex"
    # a refinement (stronger observed class) is not a conflict
    if f.expected_class == "neither":
        conflict = convex_ok
    elif f.expected_class == "operator-convex":
        conflict = not convex_ok
    elif f.expected_class == "operator-log-convex":
        conflict = not convex_ok or (bool(log_suites) and not log_ok)
    else:
        conflict = False

    body = io.build_report(_echo(args), args.seed, tol, results)
    body["expected_class"] = f.expected_class
    body["observed_class"] = observed
    body["classification_conflict"] = conflict
    _emit(args, body, f"{f.label}: observed {observed} (expected {f.expected_class})")
    if violated or f.expected_class == "neither":
        return EXIT_VIOLATION
    return EXIT_PASS


def _run_suite_command(args, runner, suite_name, **extra) -> int:
    from . import io
    from .functions import parse_function

    f = parse_function(args.function)
    tol = _tolconfig(args)
    results = []
    violated = False
    for dim in args.dims:
        verdict = runner(f, dim, tol)
        violated = violated or verdict.violated
        ctx = {"suite": suite_name, "function": f.label, "dim": dim}
        ctx.update(extra)
        results.append(io.verdict_to_payload(verdict, **ctx))
    body = io.build_report(_echo(args), args.seed, tol, results)
    status = "violated" if violated else "no-violation-found"
    _emit(args, body, f"{suite_name} {f.label} dims {args.dims}: {status}")
    return EXIT_VIOLATION if violated else EXIT_PASS


def cmd_jensen(args) -> int:
    from . import convexity

    m = 1 if args.mode == "isometry" else args.m
    return _run_suite_command(
        args,
        lambda f, dim, tol: convexity.jensen_test(
            f, args.mode, dim, m, args.samples, seed=args.seed, tol=tol
        ),
        "jensen",
        mode=args.mode,
        m=m,
    )


def cmd_epigraph(args) -> int:
    from . import convexity

    return _run_suite_command(
        args,
        lambda f, dim, tol: convexity.epigraph_closure_test(
            f, dim, args.m, args.samples, seed=args.seed, tol=tol, noise_scale=args.noise
        ),
        "epigraph",
        m=args.m,
    )


def cmd_log_epigraph(args) -> int:
    from . import convexity

    return _run_suite_command(
        args,
        lambda f, dim, tol: convexity.log_epigraph_closure_test(
            f, dim, args.m, args.samples, seed=args.seed, tol=tol, noise_scale=args.noise
        ),
        "log-epigraph",
        m=args.m,
    )


def cmd_interval_set(args) -> int:
    from . import convexity, io

    tol = _tolconfig(args)
    A = io.load_matrix(args.a)
    verdict = convexity.interval_set_falsifier(A, args.samples, seed=args.seed, tol=tol)
    body = io.build_report(_echo(args), args.seed, tol, [
        io.verdict_to_payload(verdict, suite="interval-set", dim=A.dim)
    ])
    _emit(args, body, f"interval-set [0, A] dim {A.dim}: {verdict.status}")
    return EXIT_VIOLATION if verdict.violated else EXIT_PASS


def _hull_exit(status: str) -> int:
    return {"member": EXIT_PASS, "non-member": EXIT_VIOLATION, "boundary": EXIT_INDETERMINATE}[status]


def _membership_command(args, decide, label: str) -> int:
    from . import io

    tol = _tolconfig(args)
    res = decide(io.load_matrix(args.t), io.load_matrix(args.x), tol)
    body = io.build_report(_echo(args), None, tol, [io.feasibility_to_payload(res)])
    _emit(args, body, f"{label}: {res.status} (residual {res.residual:.2e})")
    return _hull_exit(res.status)


def cmd_hull_member(args) -> int:
    from . import hull

    return _membership_command(args, hull.hull_membership, "hull membership")


def cmd_lch_member(args) -> int:
    from . import hull

    return _membership_command(args, hull.lch_membership, "log-convex hull membership")


def cmd_hull_witness(args) -> int:
    from . import hull, io

    tol = _tolconfig(args)
    res = hull.hull_membership(io.load_matrix(args.t), io.load_matrix(args.x), tol)
    if res.status == "member":
        io.write_json(args.out, io.witness_to_payload(res.witness))
        print(f"member: witness blocks written to {args.out}")
    elif res.status == "non-member":
        print(f"non-member: certificate value {res.certificate.value:.6g} escapes "
              f"[{res.certificate.interval[0]:.6g}, {res.certificate.interval[1]:.6g}]")
    else:
        print(f"boundary: residual {res.residual:.2e}; closed-form witness min_eig "
              f"{res.check.min_eig:.2e}, sum defect {res.check.sum_defect:.2e}, "
              f"moment defect {res.check.moment_defect:.2e}")
    return _hull_exit(res.status)


def cmd_hull_sample(args) -> int:
    from . import hull, io
    from .combinations import sample_tuple

    T = io.load_matrix(args.t)
    t = sample_tuple(T.dim, args.m, args.seed)
    member = hull.sample_hull_member(T, t)
    io.save_matrix(args.out, member)
    print(f"sampled hull member (m={args.m}) written to {args.out}")
    return EXIT_PASS


def recheck_payload(payload: dict):
    """`recheck.recheck_payload`, importing `recheck` on the first call.
    `verify` calls it through this module attribute, so patching
    `cli.recheck_payload` reaches every payload."""
    from .recheck import recheck_payload

    return recheck_payload(payload)


def cmd_verify(args) -> int:
    from . import io

    report = io.load_report(args.report)
    payloads = []
    for entry in report["body"].get("results", []):
        if entry.get("counterexample"):
            payloads.append(entry["counterexample"])
        if entry.get("certificate"):
            payloads.append(entry["certificate"])
    if not payloads:
        print("report carries no counterexample payloads; nothing to verify")
        return EXIT_PASS
    all_ok = True
    for i, payload in enumerate(payloads):
        result = recheck_payload(payload)
        state = "ok" if result.ok else f"FAILED ({result.detail})"
        print(
            f"payload {i} [{payload.get('kind')}]: stored {result.stored:.6e}, "
            f"recomputed {result.recomputed:.6e} -> {state}"
        )
        all_ok = all_ok and result.ok
    return EXIT_PASS if all_ok else EXIT_VIOLATION


def _number(entry: dict, i: int, name: str, field: str) -> float:
    """`entry[field]`, which the summary prints as a number; a report
    that lacks it is malformed input."""
    value = entry.get(field)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"result {i} ({name}) has no numeric {field}, got {value!r}")
    return value


def cmd_report(args) -> int:
    from . import io

    report = io.load_report(args.infile)
    body = report["body"]
    command = body.get("command", [])
    if not isinstance(command, list):
        raise InputError(f"the report's command is not a list, got {command!r}")
    print("command:", " ".join(map(str, command)))
    print("seed:", body.get("seed"))
    for i, entry in enumerate(body.get("results", [])):
        if "status" in entry and "suite" in entry:
            bits = [entry["suite"]]
            if entry.get("function"):
                bits.append(entry["function"])
            if entry.get("dim") is not None:
                bits.append(f"dim {entry['dim']}")
            if entry.get("m") is not None:
                bits.append(f"m {entry['m']}")
            print(
                f"  {' '.join(map(str, bits))}: {entry['status']} "
                f"(worst margin {_number(entry, i, entry['suite'], 'worst_margin'):.3e}, "
                f"{entry.get('samples_run')} samples)"
            )
        elif "status" in entry:
            print(f"  hull: {entry['status']} (residual {_number(entry, i, 'hull', 'residual'):.3e})")
    for key in ("expected_class", "observed_class"):
        if key in body:
            print(f"{key.replace('_', ' ')}: {body[key]}")
    return EXIT_PASS


def _echo(args) -> list:
    # the report destination does not affect results; keeping it out of the
    # echoed command makes bodies byte-identical across output paths
    argv = list(args._argv)
    out = []
    skip = False
    for item in argv:
        if skip:
            skip = False
            continue
        if item == "--out":
            skip = True
            continue
        if item.startswith("--out="):
            continue
        out.append(item)
    return out


class _Parser(argparse.ArgumentParser):
    """Takes options by full name only. With abbreviations, `--ou X` would
    escape `_echo` and put the output path in the report body; subparsers
    are built with the class of their parent."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cstarlab",
        description="Operator-convexity laboratory: Jensen-type inequality "
        "falsifiers, C*-convexity suites, and constructive C*-convex hull "
        "membership for Hermitian matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run the convexity suites for one function")
    _suite_flags(p, with_m=False)
    p.add_argument("--max-m", type=_count_arg, default=3, help="run jensen suites for m = 1..max_m")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("jensen", help="Jensen operator inequality falsifier")
    p.add_argument("--mode", choices=["isometry", "tuple", "map-family"], default="tuple")
    _suite_flags(p)
    p.set_defaults(handler=cmd_jensen)

    p = sub.add_parser("epigraph", help="operator epigraph closure test")
    _suite_flags(p, with_noise=True)
    p.set_defaults(handler=cmd_epigraph)

    p = sub.add_parser("log-epigraph", help="log-convex epigraph closure test")
    _suite_flags(p, with_noise=True)
    p.set_defaults(handler=cmd_log_epigraph)

    p = sub.add_parser("interval-set", help="falsify C*-convexity of the order interval [0, A]")
    p.add_argument("--a", required=True, help="matrix file for the upper bound A")
    p.add_argument("--samples", type=_count_arg, default=500)
    p.add_argument("--seed", required=True, type=_seed_arg)
    _common_flags(p)
    p.set_defaults(handler=cmd_interval_set)

    p = sub.add_parser("hull", help="C*-convex hull membership, witnesses, sampling")
    hull_sub = p.add_subparsers(dest="hull_command", required=True)

    q = hull_sub.add_parser("member", help="decide membership of X in the hull of T")
    q.add_argument("--t", required=True)
    q.add_argument("--x", required=True)
    _common_flags(q)
    q.set_defaults(handler=cmd_hull_member)

    q = hull_sub.add_parser("witness", help="emit validated witness blocks")
    q.add_argument("--t", required=True)
    q.add_argument("--x", required=True)
    q.add_argument("--tol", type=float, default=None)
    q.add_argument("--out", required=True, help="path for the witness JSON")
    q.set_defaults(handler=cmd_hull_witness)

    q = hull_sub.add_parser("sample", help="sample a random member of the hull of T")
    q.add_argument("--t", required=True)
    q.add_argument("--m", type=int, default=2)
    q.add_argument("--seed", required=True, type=_seed_arg)
    q.add_argument("--out", required=True, help="path for the sampled matrix")
    q.set_defaults(handler=cmd_hull_sample)

    p = sub.add_parser("lch", help="C*-log-convex hull membership")
    lch_sub = p.add_subparsers(dest="lch_command", required=True)
    q = lch_sub.add_parser("member")
    q.add_argument("--t", required=True)
    q.add_argument("--x", required=True)
    _common_flags(q)
    q.set_defaults(handler=cmd_lch_member)

    p = sub.add_parser("verify", help="re-verify counterexample payloads from a report")
    p.add_argument("--report", required=True)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("report", help="print a human-readable report summary")
    p.add_argument("--in", required=True, dest="infile")
    p.set_defaults(handler=cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import, and shared by every later call in
    # the process: building costs some 30 parses, and parsing leaves the
    # parser as it was (each call gets a fresh namespace)
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_INPUT
    args._argv = list(argv)
    args._t0 = time.perf_counter()
    try:
        return args.handler(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except CstarlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
