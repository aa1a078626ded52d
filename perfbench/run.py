#!/usr/bin/env python3
"""Builds and runs the serving-stack benchmark (perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One benchmark run. Every metric is printed with its unit and sample
      count; the last stdout line is the JSON result. Exit 1 when the build
      fails or a correctness gate fails. --workload all runs every workload
      in turn.
  python3 perfbench/run.py --self-test [--seed N]
      Hosting parity: the serve-structure digest of the benchmark's
      in-process stack must equal the digest tcrowd_serverd prints when
      `tcrowd_cli client --drive` drives it with the same flags and seed.

The program is built from source with CMake into $CARGO_TARGET_DIR
(default .bench_build); build output goes to stderr.
"""

import argparse
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
BENCH = os.path.join(BUILD, "perfbench")
TOOLS = os.path.join(BUILD, "tcrowd", "tools")
RUN_TIMEOUT_S = 170


def build(targets):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no src/ next to perfbench/; run from a "
                         "full checkout\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    # Keep the compiler's temporary files inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.abspath(os.path.join(BUILD, "tmp")))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def run_benchmark(workload, args):
    cmd = [BENCH, "--workload=" + workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + os.path.join(BUILD, "perfbench-work")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


def parity(seed):
    flags = subprocess.run(
        [BENCH, "--workload=serve-structure", "--daemon-flags"],
        capture_output=True, text=True, check=True).stdout.split()
    world = flags + ["--seed=%d" % seed]
    daemon = subprocess.Popen(
        [os.path.join(TOOLS, "tcrowd_serverd"), "--listen=127.0.0.1:0"] + world,
        stdout=subprocess.PIPE, text=True)
    try:
        line = daemon.stdout.readline()
        port = re.search(r"listening on [^:]*:(\d+)", line)
        if port is None:
            sys.stderr.write("perfbench: tcrowd_serverd did not start: %s\n"
                             % line)
            return 1
        client = subprocess.run(
            [os.path.join(TOOLS, "tcrowd_cli"), "client",
             "--connect=127.0.0.1:" + port.group(1), "--drive",
             "--finalize"] + world,
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
    hosted = subprocess.run(
        [BENCH, "--workload=serve-structure", "--seed=%d" % seed, "--parity",
         "--work-dir=" + os.path.join(BUILD, "perfbench-work")],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    pattern = r"finalize: digest ([0-9a-f]{16}) over (\d+) answers"
    want = re.search(pattern, client.stdout)
    got = re.search(pattern, hosted.stdout)
    print("tcrowd_serverd + tcrowd_cli: %s" % (want.group(0) if want else
                                               client.stdout + client.stderr))
    print("perfbench in-process:        %s" % (got.group(0) if got else
                                               hosted.stdout + hosted.stderr))
    same = want is not None and got is not None and \
        want.groups() == got.groups()
    print("hosting parity: %s" % ("OK" if same else "MISMATCH"))
    return 0 if same else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        if not build(["perfbench", "tcrowd_serverd", "tcrowd_cli"]):
            return 1
        return parity(args.seed)
    if not args.workload:
        parser.error("--workload is required")
    if not build(["perfbench"]):
        return 1
    if args.workload != "all":
        return run_benchmark(args.workload, args)
    workloads = subprocess.run([BENCH, "--list-workloads"], capture_output=True,
                               text=True, check=True).stdout.split()
    return max(run_benchmark(w, args) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
