#!/usr/bin/env python3
"""Repository benchmark: time-to-tolerance of the structured-multigrid solver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (the solver library from
src/ plus the perfbench binary) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only re-check the build.  The binary runs
the workload in one process with 2 OpenMP threads and checks every answer.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end_to_end metrics of BENCHMARK.json with --trace 0,
its per_layer metrics with --trace 1.  The exit code is non-zero when any
solve failed its check or the run could not be made.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = 2
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    """The run could not be made; the message says why."""


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def build_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def configured_source(bdir):
    """The source directory a CMake build tree was configured for, or None."""
    try:
        with open(os.path.join(bdir, "CMakeCache.txt"), encoding="utf-8") as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(root, targets):
    """Configure once, then build `targets`; returns the build directory."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise BenchError(f"no solver sources under {root}/src")
    bdir = build_dir(root)
    if configured_source(bdir) not in (None, HERE):
        shutil.rmtree(bdir)  # a build tree of another checkout location
    tmp = os.path.join(bdir, "tmp")  # compiler temporaries stay in the tree
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log = os.path.join(bdir, "build.log")
    with open(os.path.join(bdir, ".lock"), "w") as lock, \
            open(log, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", "4", "--target", *targets])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    env=env, timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step {cmd[:2]} failed: {e}") from e
            if rc != 0:
                with open(log, encoding="utf-8", errors="replace") as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError(f"build failed (exit {rc}); log in {log}")
    return bdir


def child_env():
    """The caller's environment without solver or OpenMP overrides."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("SMG_", "OMP_", "GOMP_"))}
    env["OMP_NUM_THREADS"] = str(THREADS)
    return env


def commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def validate(result, expected):
    """Problems with a perfbench result against the metric list `expected`
    (name -> unit).  An empty list means the result is well formed."""
    errors = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys are not {sorted(RESULT_KEYS)}"]
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted < 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return errors + ["metrics is not an object"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        errors.append(f"metric names differ: missing {missing}, extra {extra}")
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            errors.append(f"{name}: not a {{value, unit}} object")
            continue
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            errors.append(f"{name}: value {v!r} is not a finite number")
        if name in expected and m["unit"] != expected[name]:
            errors.append(f"{name}: unit {m['unit']!r}, expected "
                          f"{expected[name]!r}")
    return errors


def run(args):
    spec = load_spec(ROOT)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    bdir = build(ROOT, ["perfbench"])
    traces = os.path.join(bdir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    print(f"commit: {commit(ROOT)}", flush=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"workload run exceeded {RUN_TIMEOUT_S} s") from e
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        sys.stdout.write(proc.stdout)
        raise BenchError(f"perfbench exited {proc.returncode} without a "
                         "result line") from e
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    errors = validate(result, expected)
    if errors:
        raise BenchError("invalid result: " + "; ".join(errors))
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        print(f"perfbench: {result['failed']} of {result['attempted']} solves "
              "failed their answer check", file=sys.stderr)
        return 1
    return 0


def self_test():
    """Build and run the C++ self-tests, then the Python ones."""
    bdir = build(ROOT, ["perfbench_tests"])
    rc = subprocess.run([os.path.join(bdir, "perfbench_tests")],
                        env=child_env(), timeout=RUN_TIMEOUT_S).returncode
    py = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                         os.path.join(HERE, "tests"), "-p", "test_*.py"],
                        timeout=RUN_TIMEOUT_S).returncode
    return 0 if rc == 0 and py == 0 else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None or args.seed is None or args.seconds is None:
            p.error("--workload, --seed and --seconds are required")
        if args.seed < 0 or not args.seconds > 0:
            p.error("--seed must be >= 0 and --seconds > 0")
        return run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
