#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload serve-query --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench (and the repository's libraries and dmvi_serve from this
checkout's sources) in Release mode under $CARGO_TARGET_DIR (default
.bench_build), then runs one workload. The last stdout line is the run's
JSON result. Exit status: 0 when every operation succeeded and every output
matched; non-zero otherwise, or when the checkout cannot be built or the
machine-speed reference was compiled with other flags than REFERENCE_FLAGS
(then no result is printed).
"""

import argparse
import json
import os
import shlex
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-query", "offline")
RUN_TIMEOUT_S = 170
# The machine-speed reference's whole compile command apart from the
# compiler, its files and dependency-file options (reference/CMakeLists.txt).
REFERENCE_FLAGS = ["-O3", "-ffp-contract=off", "-std=c++17"]
FILE_OPTIONS = ("-o", "-c", "-MF", "-MT", "-MQ")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(path), "perfbench")


def build(out_dir, targets):
    """Configures (once) and builds `targets`; returns False on failure."""
    log_path = os.path.join(out_dir, "build.log")
    os.makedirs(out_dir, exist_ok=True)
    with open(log_path, "wb") as log:
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                log.close()
                with open(log_path, errors="replace") as failed:
                    sys.stderr.write(failed.read()[-2000:])
                # A failed configure must not be mistaken for a finished one.
                shutil.rmtree(out_dir, ignore_errors=True)
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        command = ["cmake", "--build", out_dir, "-j", jobs, "--target"] + targets
        return subprocess.call(command, stdout=log, stderr=log) == 0


def reference_flags(out_dir):
    """The flags the reference computation was compiled with, or None."""
    try:
        with open(os.path.join(out_dir, "compile_commands.json")) as f:
            entries = json.load(f)
    except (OSError, ValueError):
        return None
    for entry in entries:
        if entry["file"].endswith(os.path.join("reference", "reference.cc")):
            args = entry.get("arguments") or shlex.split(entry["command"])
            flags, skip = [], False
            for arg in args[1:]:
                if skip:
                    skip = False
                elif arg in FILE_OPTIONS:
                    skip = True
                elif arg != "-MD":
                    flags.append(arg)
            return flags
    return None


def run_child(command):
    """Runs `command` in its own process group; returns (code, stdout)."""
    child = subprocess.Popen(command, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3, b""
    return child.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out_dir = build_dir()
    target = "perfbench_selftest" if args.selftest else "perfbench_run"
    if not build(out_dir, [target]):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    flags = reference_flags(out_dir)
    if flags != REFERENCE_FLAGS:
        sys.stderr.write("perfbench: reference computation compiled with %s, "
                         "not %s\n" % (flags, REFERENCE_FLAGS))
        return 2
    if args.selftest:
        return subprocess.call([os.path.join(out_dir, target)])

    work_dir = os.path.join(out_dir, "runs", "%s-seed%d-trace%d"
                            % (args.workload, args.seed, args.trace))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [os.path.join(out_dir, target),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--serve-bin", os.path.join(out_dir, "dmvi", "tools", "dmvi_serve"),
               "--work-dir", work_dir]
    code, out = run_child(command)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
