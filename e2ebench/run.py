#!/usr/bin/env python3
"""Builds e2ebench from the checkout's sources and runs one benchmark run.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --test          # the benchmark's own tests
    python3 e2ebench/run.py --workload <name> --smoke --trace 1
    python3 e2ebench/run.py --workload <name> --reference 5   # fig7 figures

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench,
relative to the repository root). Every other argument is passed to the
e2ebench binary, whose stdout is echoed; its last line is the result JSON.
The runtime's `rfdet:` exit summaries on stderr are kept in a log file
under the build directory instead of flooding the terminal.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir, target):
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)


def main(argv):
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_root, "e2ebench")
    testing = "--test" in argv
    try:
        build(build_dir, "e2ebench_test" if testing else "e2ebench")
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    if testing:
        return subprocess.run([os.path.join(build_dir, "e2ebench_test")]).returncode

    workdir = os.path.join(build_dir, "run")
    os.makedirs(workdir, exist_ok=True)
    log_path = os.path.join(workdir, "stderr.log")
    with open(log_path, "w") as log:
        proc = subprocess.run(
            [os.path.join(build_dir, "e2ebench"), "--workdir", workdir] + argv,
            stdout=subprocess.PIPE, stderr=log, text=True)
    runtime_lines = 0
    with open(log_path) as log:
        for line in log:
            if line.startswith("rfdet: "):
                runtime_lines += 1
            else:
                sys.stderr.write(line)
    if runtime_lines:
        print(f"e2ebench: {runtime_lines} runtime stderr lines in {log_path}",
              file=sys.stderr)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        return proc.returncode
    if "--reference" in argv:
        return 0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("e2ebench: no result line", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS:
        print("e2ebench: malformed result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
