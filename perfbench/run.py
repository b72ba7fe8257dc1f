"""Line-chart search benchmark: builds the program from source (see
build.py), runs one workload in one JVM with Spark local[<=4], and prints the
run's result as the last line of stdout.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 12 --trace 0

Workloads: scan, search, ground-truth (see perfbench/README.md). Exits with a
non-zero code and prints no result if the build, the run or its output
checks fail.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("scan", "search", "ground-truth")
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        build_dir = build.ensure_built()
    except (build.BuildError, subprocess.TimeoutExpired, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2

    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--out", build.OUT]
    proc = subprocess.Popen(build.main_command(build_dir, args), cwd=build.ROOT,
                            stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"run exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("run printed no result", file=sys.stderr)
        return 4
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
