#!/usr/bin/env python3
"""Repository benchmark: builds the harness, builds the C references for the
seed, runs one workload and prints its result as the last line of stdout.

    python3 perfbench/run.py --workload run-doall --seed 0 --seconds 40 --trace 0

Run it from the repository root. The harness is configured with CMake from
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. References and traces go
to the same build directory. See perfbench/README.md.
"""

import argparse
import concurrent.futures
import json
import os
import re
import shutil
import subprocess
import sys
import time

WORKLOADS = ("compile", "run-doall", "run-doacross")
HOST_WORKERS = 4  # the most processes or threads the benchmark runs at once
DEADLINE_S = 170  # every run ends within this (the first run also builds)

# The MiniC built-ins as C: print_int takes a long, print_float a double,
# and malloc returns zeroed memory like the VM's.
C_PRELUDE = """#include <stdio.h>
#include <stdlib.h>
static void print_int(long long v) { printf("%lld\\n", v); }
static void print_float(double v) { printf("%.6g\\n", v); }
#define malloc(n) calloc(1, (n))
"""


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kw):
    """Runs cmd to completion; a timeout kills it and waits for it."""
    return subprocess.run(cmd, timeout=max(1.0, timeout), **kw)


def build(root, build_dir, deadline):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("GDSE sources (src/) not found; run from the repository root")
    if not shutil.which("cmake"):
        fail("cmake not found")
    log = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log, "w") as out:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cfg = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                   build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cfg += ["-G", "Ninja"]
            if run(cfg, deadline - time.monotonic(), stdout=out,
                   stderr=subprocess.STDOUT).returncode != 0:
                fail("cmake configure failed; see " + log)
        if run(["cmake", "--build", build_dir, "-j", str(HOST_WORKERS),
                "--target", "gdse_perfbench"],
               deadline - time.monotonic(), stdout=out,
               stderr=subprocess.STDOUT).returncode != 0:
            fail("build failed; see " + log)
    return os.path.join(build_dir, "gdse_perfbench")


def to_c(minic):
    """MiniC -> C: drop the @candidate markers, prepend the built-ins."""
    return C_PRELUDE + re.sub(r"@candidate\s+", "", minic)


def build_reference(cc, mc_path, deadline):
    """Compiles one program as C, runs it and writes its output to .out."""
    stem = mc_path[:-len(".mc")]
    with open(mc_path) as f:
        src = to_c(f.read())
    with open(stem + ".c", "w") as f:
        f.write(src)
    r = run([cc, "-std=gnu11", "-fwrapv", "-O1", "-w", "-o", stem + ".exe",
             stem + ".c"], deadline - time.monotonic(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise RuntimeError("cc failed on %s: %s" % (stem + ".c", r.stderr))
    r = run([stem + ".exe"], deadline - time.monotonic(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise RuntimeError("%s exited with %d" % (stem + ".exe", r.returncode))
    with open(stem + ".out", "w") as f:
        f.write(r.stdout)


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "perfbench")
    # The first run in a checkout compiles the libraries; give it the time.
    exe = build(root, build_dir, start + 900)
    deadline = time.monotonic() + DEADLINE_S

    cc = shutil.which("cc") or shutil.which("gcc")
    if not cc:
        fail("no C compiler for the reference outputs")
    ref_dir = os.path.join(build_dir, "ref-%d" % os.getpid())
    shutil.rmtree(ref_dir, ignore_errors=True)
    os.makedirs(ref_dir)
    try:
        r = run([exe, "emit", "--seed", str(args.seed), "--out", ref_dir],
                deadline - time.monotonic())
        if r.returncode != 0:
            fail("emitting the seeded sources failed")
        sources = sorted(os.path.join(ref_dir, f) for f in os.listdir(ref_dir)
                         if f.endswith(".mc"))
        with concurrent.futures.ThreadPoolExecutor(HOST_WORKERS) as pool:
            for fut in [pool.submit(build_reference, cc, s, deadline)
                        for s in sources]:
                try:
                    fut.result()
                except (RuntimeError, subprocess.TimeoutExpired) as e:
                    fail("reference build: %s" % e)

        trace_file = os.path.join(
            build_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))
        cmd = [exe, "run", "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               str(args.trace), "--ref", ref_dir]
        if args.trace:
            cmd += ["--trace-file", trace_file]
        r = run(cmd, deadline - time.monotonic(), stdout=subprocess.PIPE,
                text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded its %d s deadline" % DEADLINE_S)
    finally:
        shutil.rmtree(ref_dir, ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("harness exited with %d" % r.returncode)
    result = json.loads(lines[-1])
    if args.trace:
        print("perfbench: spans written to %s" % trace_file, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
