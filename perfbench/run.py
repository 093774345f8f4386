#!/usr/bin/env python3
"""Builds and runs the OMS search-stack benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload <oms-rram|std-ideal|serve-grow> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke 1]

The benchmark is compiled from source on first use into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line
of standard output is the run's JSON result; build logs go to standard
error. Exits non-zero, without a result line, when the build or the run
fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "oms_bench"],
    ]
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as e:
            fail(f"build failed: {e}")
    return os.path.join(build_dir, "oms_bench")


def commit_id():
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True)
        if os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def check_result(line, trace):
    """The result line must name exactly the metrics BENCHMARK.json lists."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {[k for k in want if k in got and want[k] != got[k]]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["oms-rram", "std-ideal", "serve-grow"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = (os.environ.get("CARGO_TARGET_DIR")
              or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--smoke", str(args.smoke),
           "--workdir", os.path.join(build_dir, "work"),
           "--commit", commit_id()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"run exited with {run.returncode}")
    lines = run.stdout.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
