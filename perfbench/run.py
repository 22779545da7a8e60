#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (and the program's libraries from src/) in Release mode
under $CARGO_TARGET_DIR (default .bench_build), runs the swbench program and
forwards its output. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; it is checked against the
metric names and units in BENCHMARK.json before it is printed. Exits
nonzero, without a result line, when the build fails or the result does
not match BENCHMARK.json; exits with swbench's code otherwise.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out_dir):
    """Configures (once) and builds swbench; returns its path or None."""
    os.makedirs(out_dir, exist_ok=True)
    tree = os.path.join(out_dir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(tree, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "-j", str(os.cpu_count() or 1)])
    with open(os.path.join(out_dir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            # Build output goes to stderr: stdout carries only results.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                log("build failed: " + " ".join(cmd))
                return None
    return os.path.join(tree, "swbench")


def revision():
    """Git revision when the checkout is a repository, else a digest of
    the program sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:12]


def check_result(line, trace):
    """Parses swbench's result line and checks it against
    BENCHMARK.json; returns an error message or None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last output line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"unexpected result keys {sorted(result)}"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return (f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"undeclared {extra}, unit mismatch {units}")
    if not trace:
        zero = [k for k, v in result["metrics"].items() if not v["value"]]
        if zero:
            return f"end-to-end metrics read 0: {zero}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out_dir, "perfbench-work"),
           "--revision", revision()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"swbench exceeded {RUN_TIMEOUT_S} s and was killed")
        return 4
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"swbench printed nothing (exit {proc.returncode})")
        return proc.returncode or 5
    for line in lines[:-1]:
        print(line)
    error = check_result(lines[-1], args.trace == 1)
    if error is not None:
        log(error)
        return 6
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
