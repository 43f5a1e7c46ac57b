#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Configures and builds perfbench/ in Release
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
one workload in a fresh process with a fresh private JIT cache, checks the
result against BENCHMARK.json, writes the full result (with build type,
compiler, CPU, nproc, commit and seed) under <build>/results, and prints as
its last stdout line the contract object: correct, attempted, failed and
metrics (end-to-end metrics untraced, per-layer metrics traced).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("serve-open", "fhe-ctmul")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit_id():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(".git"):
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain", "--",
                                    "src", "perfbench"],
                                   capture_output=True, text=True, timeout=30)
            if head.returncode == 0:
                return head.stdout.strip() + ("-dirty" if dirty.stdout.strip()
                                              else "")
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def build(build_dir):
    """Configures (once) and builds the driver; build output goes to
    stderr so stdout keeps only the result."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=max(1, left))
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    # The library is built from source; without it there is nothing to
    # measure.
    for need in ("BENCHMARK.json", "perfbench/CMakeLists.txt",
                 "src/runtime/Dispatcher.h"):
        if not os.path.exists(need):
            fail("%s not found: run from the root of a full checkout" % need,
                 2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = [m["name"] for m in spec["per_layer" if args.trace else
                                     "end_to_end"]]

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench")

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    jit_dir = os.path.abspath(os.path.join(build_dir, "jit",
                                           "%s-%d" % (tag, os.getpid())))
    shutil.rmtree(jit_dir, ignore_errors=True)
    os.makedirs(jit_dir)
    trace_path = os.path.join(results, "trace-%s.json" % tag)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jit-dir", jit_dir]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    env = dict(os.environ, MOMA_JIT_CACHE_DIR=jit_dir)
    # Its own process group, so a timeout also stops the host compilers the
    # JIT has running.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, env=env, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(jit_dir, ignore_errors=True)
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        fail("%s printed no result (exit %d)" % (args.workload,
                                                 proc.returncode))
    try:
        res = json.loads(lines[-1])
    except ValueError:
        fail("unparseable result line: " + lines[-1][:200])

    meta = res["meta"]
    meta.update({
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_id(),
        "seed": args.seed,
        # Only optimized, assertion-free builds are ever compared.
        "comparable": meta.get("build_type") == "Release" and
                      meta.get("asserts") == "off",
    })
    if not meta["comparable"]:
        log("WARNING: %s build with asserts %s; never compare this result"
            % (meta.get("build_type"), meta.get("asserts")))

    metrics = res["metrics"]
    problems = []
    for name in want:
        m = metrics.get(name)
        if m is None or not isinstance(m.get("value"), (int, float)):
            problems.append("metric %s missing or not a number" % name)
    extra = sorted(set(metrics) - set(want))
    if extra:
        problems.append("metrics not in BENCHMARK.json: " + ", ".join(extra))
    if args.trace:
        try:
            with open(trace_path) as f:
                events = json.load(f)["traceEvents"]
            meta["trace_file"] = trace_path
            meta["trace_events"] = len(events)
        except (OSError, ValueError, KeyError) as e:
            problems.append("Chrome trace does not load: %s" % e)

    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)
    for p in problems:
        log(p)
    if problems:
        sys.exit(1)

    correct = bool(res["correct"]) and proc.returncode == 0
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {n: metrics[n] for n in want},
    }), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
