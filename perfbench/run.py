#!/usr/bin/env python3
r"""Builds and runs the simulator benchmark (README.md in this directory).

    python3 perfbench/run.py --workload churn-serial --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload churn-sharded --seed 1 \
        --seconds 30 --trace 1 --table layers.md   # per-layer table
    python3 perfbench/run.py --selftest        # checks reject doctored input
    python3 perfbench/run.py --make-reference  # rewrite reference_k1.json

Run it from anywhere inside a checkout. It configures and builds
perfbench/CMakeLists.txt (the repository's `nylon` library plus the
benchmark program) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs the program. The
program's last stdout line, one JSON object with the keys correct,
attempted, failed and metrics, is the result; build and progress output
goes to stderr. Any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("churn-serial", "churn-sharded", "paper-specs")
# A run may overrun --seconds by its last round and teardown.
RUN_GRACE_S = 120


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target,
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("benchmark printed no result")
    doc = json.loads(lines[-1])
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(doc))
    if not isinstance(doc["attempted"], int) or doc["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--table", help="per-layer table path (--trace 1); "
                    "default <build dir>/layers_<workload>.md")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        return subprocess.run([build("perfbench_selftest")]).returncode
    if args.make_reference:
        ref = os.path.join(HERE, "reference_k1.json")
        return subprocess.run([build("nylon_bench"), "--make-reference",
                               ref]).returncode
    if args.workload is None:
        ap.error("--workload is required")

    cmd = [build("nylon_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--repo", ROOT,
           "--reference", os.path.join(HERE, "reference_k1.json")]
    if args.trace == 1:
        table = args.table or os.path.join(
            build_dir(), "layers_%s.md" % args.workload)
        cmd += ["--table", table]
        print("# per-layer table -> %s" % table, file=sys.stderr)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + RUN_GRACE_S)
    if proc.returncode != 0:
        print("benchmark exited with %d" % proc.returncode, file=sys.stderr)
        return proc.returncode
    print(parse_result(proc.stdout))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
