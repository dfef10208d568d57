#!/usr/bin/env python3
"""Builds jaal_perfbench from source and runs one workload (or all three).

    python3 perfbench/run.py --workload paper_k200 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  The build goes to .bench_build/perfbench
(configured once, then incremental); runs work under .bench_build/work.
The last line of standard output is the JSON result of the run
({"correct", "attempted", "failed", "metrics"}); --trace 1 also writes the
run's spans (<workload>-seed<n>.spans.jsonl) and a Perfetto-loadable trace
(<workload>-seed<n>.trace.json) next to it.  Every result carries a
provenance line: git SHA when the tree is a git checkout, a digest of the
sources either way, nproc, SIMD level, build type, seed and threads.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "jaal_perfbench")
WORKLOADS = ["paper_k200", "rules_wide", "replay_query"]
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "jaal_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (" + " ".join(cmd) + ")", 3)


def git_sha():
    # Only the checkout's own repository: git would otherwise search the
    # parent directories.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def references():
    with open(os.path.join(HERE, "references.json")) as f:
        return json.load(f)


def run_one(workload, seed, seconds, trace, extra):
    refs = references()
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", os.path.join(WORK, workload),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if seed == refs["seed"] and workload in refs["digests"]:
        cmd += ["--expect-digest", refs["digests"][workload]]
    cmd += extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(workload + ": run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(workload + ": benchmark exited with %d" % proc.returncode, 5)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = p.parse_known_args()
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    ok = True
    for w in workloads:
        if args.workload == "all":
            print("== " + w)
        res = run_one(w, args.seed, args.seconds, args.trace, extra)
        ok = ok and res["correct"] and res["failed"] == 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
