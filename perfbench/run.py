#!/usr/bin/env python3
"""Build and run the repository benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N [--seconds S]
                                [--trace 0|1]

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the simulator sources
under src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls only rebuild what changed. Build output goes to
<build dir>/build.log; its tail is shown only when the build fails.

The driver binary then checks the arguments, runs the workload and prints
its metrics; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics and writes the spans of the traced
run to <build dir>/traces/<workload>-seed<N>.json. perfbench/METRICS.md
describes the workloads and metrics.
"""

import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs],
    ]
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode:
                log.close()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return build_dir / "perfbench"


def main(argv):
    if "-h" in argv or "--help" in argv:
        print(__doc__.strip())
        return 0
    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    binary = build(root, build_dir)

    # The binary checks every argument before it writes anything.
    args = list(argv) + ["--trace-dir", str(build_dir / "traces")]
    try:
        return subprocess.run([str(binary)] + args, timeout=RUN_TIMEOUT_S,
                              cwd=root).returncode
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
