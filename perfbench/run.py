#!/usr/bin/env python3
"""Build and run the relcheck benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of table1-run, customer-lanes, customer-sql, customer-serve,
or `all` to run every workload, each in its own process. The benchmark is
built from source with cargo (into $CARGO_TARGET_DIR, default
.bench_build) and run from the repository root. Its output ends with one
JSON result line; the exit code is non-zero, and no result line is
printed, when the build fails or an answer is wrong.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["table1-run", "customer-lanes", "customer-sql", "customer-serve"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def usage(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    print(__doc__.strip(), file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    opts = {}
    i = 0
    while i < len(argv):
        key = argv[i]
        if key not in ("--workload", "--seed", "--seconds", "--trace"):
            usage(f"unknown argument {key!r}")
        if i + 1 >= len(argv):
            usage(f"{key} needs a value")
        opts[key] = argv[i + 1]
        i += 2
    for key in ("--workload", "--seed", "--seconds"):
        if key not in opts:
            usage(f"{key} is required")
    opts.setdefault("--trace", "0")
    return opts


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return target_dir / "release" / "relcheck-perfbench"


def run_one(binary, workload, opts):
    cmd = [str(binary), "--workload", workload, "--seed", opts["--seed"],
           "--seconds", opts["--seconds"], "--trace", opts["--trace"],
           "--out", str(ROOT / "perfbench-out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return False
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(l for l in lines if not l.startswith("{")))
        print(f"run.py: {workload} failed (exit {proc.returncode})", file=sys.stderr)
        return False
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        print(f"run.py: {workload} printed no result line", file=sys.stderr)
        return False
    print("\n".join(lines), flush=True)
    return result["correct"] is True


def main():
    opts = parse_args(sys.argv[1:])
    workload = opts["--workload"]
    if workload != "all" and workload not in WORKLOADS:
        usage(f"unknown workload {workload!r}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target)
    if binary is None:
        sys.exit(1)
    names = WORKLOADS if workload == "all" else [workload]
    ok = True
    for name in names:
        if len(names) > 1:
            print(f"== {name}", flush=True)
        ok = run_one(binary, name, opts) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
