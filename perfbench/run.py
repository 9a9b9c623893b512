#!/usr/bin/env python3
"""The repository benchmark: builds it from source and runs a workload.

Run from the repository root:

  python3 perfbench/run.py --workload dseq-nyt --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seconds 10

The first call configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later calls only rebuild what changed. The metric
table goes to stderr, and the last line of stdout is the result JSON
({"correct", "attempted", "failed", "metrics"}). `--workload all` runs every
workload untraced and traced, each in its own process, and prints one JSON
line with the metrics keyed "<workload>/<metric>".

Exit code: 0 when every job returned the expected result, 1 otherwise
(including a failed build or a missing source tree), 2 on a usage error.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
REFERENCE = os.path.join(HERE, "reference.txt")
WORKLOADS = ["dseq-nyt", "dcand-amzn", "seminaive-nyt", "seminaive-nyt-proc"]
# A run must end well within three minutes; the benchmark itself stops
# timing after --seconds, so this only catches a hang.
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns False on failure."""
    if not os.path.isdir(os.path.join(ROOT, "src")) or not os.path.isfile(
            os.path.join(ROOT, "bench", "common", "bench_util.cc")):
        log("no dseq sources next to perfbench/ — run it from a full "
            "checkout of the repository")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def run_workload(args, workload, trace):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    spill_dir = os.path.join(BUILD_ROOT, "spill-%d" % os.getpid())
    shutil.rmtree(spill_dir, ignore_errors=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--nyt-sentences", str(args.nyt_sentences),
           "--amzn-customers", str(args.amzn_customers),
           "--spill-dir", spill_dir, "--reference", REFERENCE]
    # A process group of its own, so a hung run is killed together with any
    # proc workers it forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            cwd=ROOT, text=True, process_group=0)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("%s timed out after %ds" % (workload, RUN_TIMEOUT_S))
        return 1, ""
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--nyt-sentences", type=int, default=10000)
    parser.add_argument("--amzn-customers", type=int, default=30000)
    args = parser.parse_args()

    if not build():
        return 1
    if args.workload != "all":
        code, out = run_workload(args, args.workload, args.trace)
        sys.stdout.write(out)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_workload(args, workload, trace)
            status = status or code
            lines = out.strip().splitlines()
            if not lines:
                combined["correct"] = False
                continue
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][workload + "/" + name] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
