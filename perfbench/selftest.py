#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py                     # run every check
    python3 perfbench/selftest.py --write-references  # refresh references.json

Run from the repository root.  Checks, each on a fixed number of operations
rather than a timed loop:
  1. every workload at the reference seed reproduces its committed digest
     (references.json) with zero failed operations; replay_query's run also
     checks that the replayed alerts equal those of the feedback-off live
     run that wrote the history (the StoreReplayer contract);
  2. the traced run's digest equals the untraced digest on every epoch, at a
     seed other than the reference seed;
  3. rules_wide's digest is identical at threads 1 and 4;
  4. in a directory holding only BENCHMARK.json and perfbench/, run.py exits
     non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

import run

EPOCHS = "16"  # live digests cover the first 16 epochs (warm-up included)


def bench(workload, seed, trace=0, extra=()):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--epochs", EPOCHS,
           "--workdir", os.path.join(run.WORK, "selftest-" + workload)]
    cmd += list(extra)
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=run.RUN_TIMEOUT_S, check=True).stdout
    lines = out.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    return digest, json.loads(lines[-1]), out


def check(name, ok, detail=""):
    print(("PASS " if ok else "FAIL ") + name + (": " + detail if detail and not ok else ""))
    return ok


def main():
    run.build()
    refs = run.references()
    seed = refs["seed"]
    if "--write-references" in sys.argv:
        refs["digests"] = {w: bench(w, seed)[0] for w in run.WORKLOADS}
        with open(os.path.join(run.HERE, "references.json"), "w") as f:
            json.dump(refs, f, indent=2, sort_keys=True)
            f.write("\n")
        print(json.dumps(refs["digests"], indent=2))
        return

    ok = True
    for w in run.WORKLOADS:
        digest, res, _ = bench(w, seed, extra=["--expect-digest",
                                              refs["digests"][w]])
        ok &= check("%s reproduces the reference digest" % w,
                    res["correct"] and res["failed"] == 0,
                    "digest %s, result %s" % (digest, res))
    for w in run.WORKLOADS:
        plain, _, _ = bench(w, seed + 1)
        traced, res, _ = bench(w, seed + 1, trace=1)
        ok &= check("%s traced digest == untraced digest" % w,
                    plain == traced and res["correct"] and res["failed"] == 0,
                    "%s vs %s" % (plain, traced))
    one, _, _ = bench("rules_wide", seed, extra=["--threads", "1"])
    four, _, _ = bench("rules_wide", seed, extra=["--threads", "4"])
    ok &= check("rules_wide digest identical at threads 1 and 4", one == four,
                "%s vs %s" % (one, four))

    bare = os.path.join(run.ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "paper_k200", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    ok &= check("run.py fails without the library sources",
                p.returncode != 0 and '"correct"' not in p.stdout,
                "exit %d, stdout %r" % (p.returncode, p.stdout[-200:]))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
