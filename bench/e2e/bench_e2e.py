#!/usr/bin/env python3
"""Front end of the end-to-end benchmark. Run it from the repository root.

  bench_e2e.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]
      Builds bench_e2e from source (first use only) and runs one workload in
      a child process. The last line of standard output is its result.
  bench_e2e.py run --seed N [--out DIR] [--quick]
      Every workload, each in its own child process, after a discarded
      warm-up; writes one run JSON into DIR.
  bench_e2e.py trace --seed N [--out DIR] [--quick]
      The same with tracing on: the per-layer metrics.
  bench_e2e.py compare A B
      Compares two sets of run JSONs (directories or files) metric by metric
      against the bounds in BENCHMARK.json.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
# The compiler's and the program's temporary files stay in the checkout.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = TMP_DIR
    return env


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds bench_e2e under .bench_build/ from source."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("bench_e2e: the repository sources (src/) are not here; "
            "run from a full checkout")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=child_env())
        if done.returncode != 0:
            log("bench_e2e: build failed: " + " ".join(cmd))
            sys.exit(2)


def run_child(workload, seed, seconds, trace, quick):
    """Runs one workload in a child process; returns (exit code, stdout)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", WORK_DIR]
    if quick:
        cmd.append("--quick")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=CHILD_TIMEOUT_S,
                              env=child_env())
    except subprocess.TimeoutExpired:
        log("bench_e2e: %s did not finish within %d s" %
            (workload, CHILD_TIMEOUT_S))
        return 3, ""
    return done.returncode, done.stdout


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def next_path(out_dir, kind, seed):
    os.makedirs(out_dir, exist_ok=True)
    n = 1
    while True:
        path = os.path.join(out_dir, "%s-seed%d-%02d.json" % (kind, seed, n))
        if not os.path.exists(path):
            return path
        n += 1


def run_all(args, trace):
    build()
    spec = benchmark_spec()
    seconds = spec["run_seconds"]
    # The first process after an idle spell runs slow; its result is dropped.
    run_child("train-w1", args.seed, 2, False, True)
    results = {}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        code, stdout = run_child(name, args.seed, seconds, trace, args.quick)
        result = last_json(stdout)
        if code != 0 or result is None or not result["correct"]:
            log("bench_e2e: %s failed (exit %d)" % (name, code))
            ok = False
        results[name] = result
        if result and result["metrics"]:
            cells = ["%s=%.4g" % (k, v["value"])
                     for k, v in sorted(result["metrics"].items())]
            print("%-20s %s" % (name, " ".join(cells)))
    kind = "trace" if trace else "run"
    record = {"kind": kind, "seed": args.seed, "quick": args.quick,
              "seconds": seconds, "workloads": results}
    path = next_path(args.out, kind, args.seed)
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + os.path.relpath(path, ROOT))
    return 0 if ok else 1


def load_runs(where):
    paths = (sorted(glob.glob(os.path.join(where, "run-*.json")))
             if os.path.isdir(where) else [where])
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append(json.load(f))
    if not runs:
        sys.exit("bench_e2e: no run JSONs in " + where)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """The rules of the benchmark's method (see README.md, "Comparing")."""
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (mb - ma) / ma  # > 0: B is worse
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    spread = (qa3 - qa1) / ma
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if (wins >= 0.9 * len(pairs) and worse_by < 0 and
            abs(mb - ma) > qa3 - qa1):
        return "improved", wins, len(pairs), worse_by
    if worse_by > bound:
        return "regressed", wins, len(pairs), worse_by
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs), worse_by
    return "no worse", wins, len(pairs), worse_by


def values(runs, workload, metric):
    """The metric's value in every run where the workload passed its checks."""
    out = []
    for r in runs:
        result = r["workloads"].get(workload) or {}
        if metric in result.get("metrics", {}):
            out.append(result["metrics"][metric]["value"])
    return out


def compare(args):
    spec = benchmark_spec()
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    regressed = False
    for w in spec["workloads"]:
        name = w["name"]
        print(name)
        for m in spec["end_to_end"]:
            a = values(a_runs, name, m["name"])
            b = values(b_runs, name, m["name"])
            if not a or not b:
                print("  %-18s missing: a run of this workload failed" %
                      m["name"])
                regressed = True
                continue
            qa1, ma, qa3 = quartiles(a)
            qb1, mb, qb3 = quartiles(b)
            v, wins, pairs, worse_by = verdict(a, b, m["better"], m["bound"])
            regressed |= v == "regressed"
            print("  %-18s A %10.4g [%.4g, %.4g]  B %10.4g [%.4g, %.4g]  "
                  "%+6.1f%% worse  B wins %d/%d  bound %.0f%%  %s" %
                  (m["name"], ma, qa1, qa3, mb, qb1, qb3, 100 * worse_by,
                   wins, pairs, 100 * m["bound"], v))
    return 1 if regressed else 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("run", "trace", "compare"):
        parser = argparse.ArgumentParser(prog="bench_e2e.py " + argv[0])
        if argv[0] == "compare":
            parser.add_argument("a")
            parser.add_argument("b")
            return compare(parser.parse_args(argv[1:]))
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build",
                                                          "results"))
        parser.add_argument("--quick", action="store_true")
        return run_all(parser.parse_args(argv[1:]), argv[0] == "trace")

    parser = argparse.ArgumentParser(prog="bench_e2e.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    build()
    code, stdout = run_child(args.workload, args.seed, args.seconds,
                             args.trace == 1, args.quick)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
