#!/usr/bin/env python3
"""The repo benchmark's command.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. It builds the repo's libraries, the
sacd daemon and the sacbench program in a Release tree of the
benchmark's own (.bench_build/, CMake project perfbench/), runs one
workload, and prints sacbench's output. The last line of standard
output is the result object: correct, attempted, failed and metrics.

Before it, a "fingerprint" line names the host and build, and a
"compare" line relates the result to the previous run of the same
workload in this checkout -- only when both fingerprints match; a
result from another host or build is labelled and not compared.

--self-test runs every workload briefly, and one traced run (whose
sacd session has its own oracle), each with one expected value
corrupted, and exits 0 only if every run reports the failure.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TREE = os.path.join(BUILD, "tree")
WORKLOADS = ("suite-exact", "lattice-stack", "hot-sampled")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the Release tree; serialised by a lock."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repo sources not found: src/CMakeLists.txt is missing")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(TREE, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", TREE,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", TREE, "-j",
                      str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.call(step, cwd=ROOT, stdout=log,
                               stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (see .bench_build/build.log)", 1)


def stop_group(pgid):
    """Kill what is left of the process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_sacbench(workload, seed, seconds, trace, inject_fault=False):
    """Run one workload; returns (stdout lines, result object)."""
    workdir = os.path.join(BUILD, "run-%d" % os.getpid())
    trace_file = os.path.join(BUILD, "traces",
                              "%s-seed%d.json" % (workload, seed))
    cmd = [os.path.join(TREE, "sacbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--sacd", os.path.relpath(os.path.join(TREE, "sacd"), ROOT),
           "--workdir", os.path.relpath(workdir, ROOT),
           "--trace-file", trace_file]
    if inject_fault:
        cmd.append("--inject-fault")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail("sacbench timed out after %d s" % RUN_TIMEOUT_S, 1)
    finally:
        stop_group(proc.pid)
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        fail("sacbench exited with code %d" % proc.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("sacbench printed no result line", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 1)
    return lines, result


def fingerprint_key(lines):
    """The fingerprint without the clock rate's jitter below 100 MHz."""
    for line in lines:
        if line.startswith("fingerprint "):
            fp = json.loads(line[len("fingerprint "):])
            fp["cpu_mhz"] = round(fp.get("cpu_mhz", 0) / 100.0) * 100
            return fp
    return None


def compare_line(workload, trace, fp, result):
    """Relate @result to the previous same-fingerprint run; log this one."""
    history = os.path.join(BUILD, "history.jsonl")
    previous = None
    if os.path.isfile(history):
        with open(history) as f:
            for line in f:
                entry = json.loads(line)
                if entry["workload"] == workload and entry["trace"] == trace:
                    previous = entry
    with open(history, "a") as f:
        f.write(json.dumps({"workload": workload, "trace": trace,
                            "fingerprint": fp,
                            "metrics": result["metrics"]}) + "\n")
    if previous is None:
        return "compare: no earlier %s run in this checkout" % workload
    if previous["fingerprint"] != fp:
        return ("compare: the earlier %s run has another fingerprint "
                "(%s); not compared" % (workload,
                                        json.dumps(previous["fingerprint"])))
    parts = []
    for name, now in result["metrics"].items():
        before = previous["metrics"].get(name, {}).get("value")
        if before:
            parts.append("%s %+.1f%%" % (name,
                                         100.0 * (now["value"] / before - 1)))
    return "compare: vs earlier %s run, same fingerprint: %s" % (
        workload, ", ".join(parts))


def self_test():
    """Every run must report a corrupted expected value as failed."""
    ok = True
    for workload, trace in [(w, 0) for w in WORKLOADS] + [(WORKLOADS[0], 1)]:
        _, result = run_sacbench(workload, 1, 2, trace, inject_fault=True)
        caught = result["failed"] > 0 and result["correct"] is False
        ok = ok and caught
        print("self-test %s --trace %d: failed=%d of %d -> %s" % (
            workload, trace, result["failed"], result["attempted"],
            "caught" if caught else "MISSED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.self_test and (args.seed < 0 or args.seconds < 1):
        parser.error("--seed must be >= 0 and --seconds >= 1")
    os.chdir(ROOT)
    build()
    if args.self_test:
        return self_test()
    lines, result = run_sacbench(args.workload, args.seed, args.seconds,
                                 args.trace)
    fp = fingerprint_key(lines)
    body = lines[:-1] + [compare_line(args.workload, args.trace, fp, result)]
    print("\n".join(body + [lines[-1]]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
