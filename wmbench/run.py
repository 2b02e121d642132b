#!/usr/bin/env python3
"""Builds and runs the wafer-map benchmark, checks its result line.

    python3 wmbench/run.py --workload score_lot --seed 1 --seconds 10 --trace 0
    python3 wmbench/run.py --self-test
    python3 wmbench/run.py compare OLD.json NEW.json

Run from the root of a checkout. The harness is built from the checkout's
sources with the repository's own CMake build (see project_hook.cmake) into
.bench_build/cmake. An untraced run executes the named workload alone in
five harness processes in turn, each for a fifth of --seconds, and reports
each metric's median over them; a traced run (--trace 1) is one process and
reports the per-layer metrics of all three workloads. The program computes
on one thread (WM_THREADS=1, see harness_env). The last line of stdout is
the result object; the exit status is 0 only when every output check
passed. Each run's host stamp and result are saved under .bench_build/results
for `compare`.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
HARNESS = CMAKE_DIR / "wmbench_harness"
TESTS = CMAKE_DIR / "wmbench_tests"
WORKLOADS = ("score_lot", "serve_open", "train_pipeline")
HARNESS_TIMEOUT_S = 170  # for all the processes of one run
# Harness processes per untraced run. On a shared host each process settles
# into a speed of its own (its threads keep to vCPUs whose speed differs by
# up to half); the median over five drops two slow or fast ones.
PROCESSES = 5
# Fields that make two results comparable: the same host class and build.
HOST_KEYS = ("nproc", "build_threads", "isa", "build_type", "compiler")


def fail(msg, code=2):
    print(f"wmbench: {msg}", file=sys.stderr)
    sys.exit(code)


def clean_env():
    """The environment without any WM_* knob of the caller."""
    return {k: v for k, v in os.environ.items() if not k.startswith("WM_")}


def harness_env():
    """The harness computes on one thread. With worker threads the program's
    ThreadPool::parallel_chunks aborts runs now and then (a use-after-scope,
    ROADMAP item 1), and on a few shared vCPUs a worker pool beside the
    serving threads measures the scheduler more than the program."""
    return dict(clean_env(), WM_THREADS="1")


def source_id():
    """git HEAD when the checkout is a repository, else a hash of the tree
    the program is built from (the source of record for a bare checkout)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no program sources at {ROOT} (CMakeLists.txt and src/ needed)")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DCMAKE_PROJECT_INCLUDE={HERE / 'project_hook.cmake'}"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", jobs, "--target",
                  *targets])
    with open(log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log})")


def expected_metrics(trace):
    """Name -> unit of every metric a run must report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """Problems with a result object; empty when it meets the contract."""
    problems = []
    keys = set(result) if isinstance(result, dict) else set()
    if keys != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(keys)}"]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    got = set(result["metrics"])
    want = expected_metrics(trace)
    if got != set(want):
        missing = sorted(set(want) - got)
        extra = sorted(got - set(want))
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}"
                        f", unexpected {extra}")
    for name, m in sorted(result["metrics"].items()):
        value = m.get("value") if isinstance(m, dict) else None
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value) or value <= 0):
            problems.append(f"{name}: value {value!r} is not a finite "
                            "positive number")
        elif name in want and m.get("unit") != want[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, BENCHMARK.json "
                            f"says {want[name]!r}")
    return problems


def failed_result(reason):
    print(f"wmbench: {reason}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}))
    sys.exit(1)


def run_harness(cmd, deadline):
    """Runs one harness process until `deadline` (time.monotonic()), echoing
    its stdout; returns its stamp, its result object and its exit status."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=harness_env(), cwd=ROOT)
    lines = []
    # The run must end within its deadline even if the harness hangs.
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    watchdog.start()
    for line in proc.stdout:
        sys.stdout.write(line)
        sys.stdout.flush()
        lines.append(line.rstrip("\n"))
    proc.wait()
    watchdog.cancel()
    if timed_out.is_set():
        failed_result(f"harness exceeded the run's {HARNESS_TIMEOUT_S} s")
    if proc.returncode < 0:
        # A crash (for example an abort inside the program's thread pool) is
        # a failed run; it is reported, never retried.
        failed_result(f"harness died with signal {-proc.returncode}")
    stamp = next((json.loads(l[len("stamp: "):]) for l in lines
                  if l.startswith("stamp: ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        failed_result(f"harness exited {proc.returncode} without a result")
    return stamp, result, proc.returncode


def combine(results):
    """One result from the processes of a run: counts add up, and each
    metric is its median over the processes."""
    names = set.intersection(*(set(r.get("metrics", {})) for r in results))
    metrics = {}
    for name in sorted(names):
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": results[0]["metrics"][name]["unit"]}
    return {"correct": all(r.get("correct") is True for r in results),
            "attempted": sum(r.get("attempted", 0) for r in results),
            "failed": sum(r.get("failed", 0) for r in results),
            "metrics": metrics}


def run(args):
    build(["wmbench_harness"])
    deadline = time.monotonic() + HARNESS_TIMEOUT_S
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    # An untraced run is PROCESSES harness processes in turn, each measuring
    # for an equal share of --seconds; a traced run is one process.
    processes = 1 if args.trace else PROCESSES
    cmd = [str(HARNESS), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / processes),
           "--trace", str(args.trace), "--git-sha", source_id(),
           "--out-dir", str(traces)]
    stamp, results, codes = None, [], []
    for _ in range(processes):
        stamp, result, code = run_harness(cmd, deadline)
        results.append(result)
        codes.append(code)
    result = combine(results)
    problems = [p for r in results for p in validate(r, args.trace)]
    problems += validate(result, args.trace)
    results_dir = BUILD / "results"
    results_dir.mkdir(exist_ok=True)
    record = results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    record.write_text(json.dumps({"stamp": stamp, "result": result}, indent=1))
    if problems:
        for p in problems:
            print(f"wmbench: {p}", file=sys.stderr)
        result["correct"] = False
        print(json.dumps(result))
        sys.exit(1)
    print(json.dumps(result))
    sys.exit(0 if not any(codes) and result["correct"] else 1)


def compare(old_path, new_path):
    """Per-metric change from OLD to NEW; refuses different host stamps."""
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    differ = [k for k in HOST_KEYS
              if (old.get("stamp") or {}).get(k) != (new.get("stamp") or {}).get(k)]
    if differ:
        print("incomparable: host stamps differ in " + ", ".join(
            f"{k} ({old['stamp'].get(k)} vs {new['stamp'].get(k)})"
            if old.get("stamp") and new.get("stamp") else k for k in differ))
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m.get("better", "lower")
              for m in spec["end_to_end"] + spec["per_layer"]}
    for name, m in sorted(new["result"]["metrics"].items()):
        base = old["result"]["metrics"].get(name)
        if base is None:
            continue
        change = m["value"] / base["value"] - 1.0
        worse = change > 0 if better.get(name) == "lower" else change < 0
        print(f"{name:48s} {base['value']:14.6g} -> {m['value']:14.6g} "
              f"{change:+8.2%} {'worse' if worse and change else ''}")
    return 0


def self_test():
    build(["wmbench_tests"])
    rc = subprocess.run([str(TESTS)], env=clean_env()).returncode
    py = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                         str(HERE / "tests"), "-p", "test_*.py"]).returncode
    return rc or py


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare OLD.json NEW.json")
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
