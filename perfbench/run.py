#!/usr/bin/env python3
"""Builds the DynaSoRe end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload live_feed --seed 1 --seconds 20 --trace 0

The arguments go to the benchmark binary (see perfbench/README.md), plus
`--clients <CPUs this script may use>` unless given. The build goes to
$CARGO_TARGET_DIR, or perfbench/target when it is unset, and uses every
CPU. The run itself is pinned to one CPU: on a shared two-vCPU machine,
unpinned runs of the same input varied by 15-30%, pinned ones by a few
percent. The durable tier of the live workloads lives in perfbench/work/
and is removed afterwards. The last line of standard output is the run's
JSON result. Exits nonzero, without a result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; set-up and the timed part take well under it.
RUN_TIMEOUT_S = 170


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    cpus = sorted(os.sched_getaffinity(0))
    if "--clients" not in args:
        args += ["--clients", str(len(cpus))]
    work = os.path.join(HERE, "work", "run-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        proc = subprocess.run(
            [os.path.join(target, "release", "perfbench"), *args, "--work-dir", work],
            preexec_fn=lambda: os.sched_setaffinity(0, {cpus[-1]}),
            timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
