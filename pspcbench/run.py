"""Benchmark command: builds the program if needed, then runs one workload.

    python3 pspcbench/run.py --workload social --seed 1 --seconds 40 --trace 0
    python3 pspcbench/run.py --selftest

Run from the root of a checkout. The last line of standard output is the
result JSON; see pspcbench/README.md for the metrics and workloads.
"""

import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in pspcbench/
import build  # noqa: E402

# Heap of the measuring JVM; fixed so that GC behaviour does not depend on
# the machine's memory.
HEAP = "3g"
TIMEOUT_S = 170


def commit():
    if not (build.ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(build.ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown (git not found)"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="check that the checker sees failures")
    a = ap.parse_args()
    if not a.selftest and (a.workload is None or a.seed is None or a.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    classes, jars, digest = build.build()
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch",
           "-XX:+UseTransparentHugePages", "-XX:-UsePerfData",
           f"-Dpspcbench.commit={commit()}", f"-Dpspcbench.source={digest}",
           "-cp", os.pathsep.join([str(classes), str(jars / "*")])]
    if a.selftest:
        cmd += ["pspcbench.CheckerTest"]
    else:
        trace_out = build.OUT / f"trace-{a.workload}-{a.seed}.json"
        cmd += ["pspcbench.Main", "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace), "--trace-out", str(trace_out)]
    proc = subprocess.Popen(cmd, cwd=build.ROOT)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        print(f"pspcbench: run did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
