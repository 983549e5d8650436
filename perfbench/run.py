"""cstarlab benchmark: one closed-loop client driving the CLI in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suites-clean --seed 1 --seconds 45 --trace 0

Workloads: suites-clean, short-ops (see perfbench/README.md).
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A detailed record, with the
environment and the report-body digests, goes to
`.perfbench/results/<workload>-seed<seed>-trace<t>.json`.
"""

import argparse
import os
import sys

# BLAS must be pinned to one thread before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not os.path.isfile(os.path.join(SRC, "cstarlab", "cli.py")):
        print(f"error: no cstarlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)  # inputs are named relative to the root, so bodies do not depend on it
    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, SRC)


if __name__ == "__main__":
    sys.exit(main())
