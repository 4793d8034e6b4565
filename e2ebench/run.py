#!/usr/bin/env python3
"""End-to-end benchmark of the NeuroSelect system, as declared in BENCHMARK.json.

Builds ns_e2ebench from the checkout's own sources (Release, NS_CHECK=0,
through the root CMakeLists.txt), runs one workload and prints the
benchmark's typed report, then one JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list. The run
is split over FORKS processes started one after another, each timing whole
passes over the same inputs for its share of --seconds. A process keeps its
speed for its whole life, but that speed differs from one process to the
next by up to a sixth, so each timing metric is the best process's (JMH's
forks, with best-of in place of the mean). The processes must agree digest
for digest.

With --trace 1 the metrics are BENCHMARK.json's per_layer list, from one
traced process. A per-layer metric the workload must report (LAYERS below)
fails the run when it is missing; one of a layer the workload never calls
reads 0.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload select_easy --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench),
and traced runs write their spans to <build>/traces/.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # for all processes of one run together
BUILD_TIMEOUT_S = 850
FORKS = 3  # processes per timed run
# Timing metrics a timed run takes from its best process: True where
# higher is better.
TIMINGS = {"throughput_ops_per_s": True, "latency_ms.p50": False,
           "latency_ms.p90": False, "cpu_ms_per_op": False}

# Per-layer metrics each workload's traced run reports, by the layer calls
# the workload makes.
_COMMON = {"cnf.parse_ms", "cnf.parse_mb_per_s", "cnf.verify_ms",
           "runtime.threads", "solver.propagations", "bench.glue_ms",
           "trace.traced_ops_per_s", "trace.untraced_ops_per_s",
           "trace.overhead_frac"}
_SELECT = _COMMON | {
    "nn.graph_build_ms", "nn.graph_nodes", "nn.graph_edges", "nn.record_ms",
    "nn.infer_ms", "runtime.cpu_util", "solver.solve_ms",
    "solver.mticks_per_s", "solver.ticks", "solver.conflicts",
    "solver.analyze_ticks", "solver.minimize_ticks", "solver.decide_ticks",
    "solver.reduce_ticks", "solver.reductions", "policy.frequency_share"}
LAYERS = {
    "select_easy": _SELECT,
    "select_hard": _SELECT,
    "label_batch": _COMMON | {"core.label_ms", "core.classify_batch_ms",
                              "core.straggler_share", "runtime.cpu_util"},
}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at the checkout root: nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", "-DNS_CHECK=0",
                      "-DCMAKE_PROJECT_INCLUDE=" +
                      os.path.join(HERE, "build.cmake")])
    steps.append(["cmake", "--build", build_dir, "--target", "ns_e2ebench",
                  "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
        if done.returncode != 0:
            fail(f"build step exited with {done.returncode}: {' '.join(cmd)}")
    return os.path.join(build_dir, "ns_e2ebench")


def git_sha():
    """HEAD of the checkout when it is a git work tree of its own."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        top, sha = out.stdout.split()
        if out.returncode == 0 and os.path.samefile(top, ROOT):
            return sha
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_process(cmd, deadline):
    """Runs one benchmark process; returns its standard output."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"ns_e2ebench exited with {done.returncode}")
    return done.stdout


def parse(out):
    """The typed lines of one process's output, by kind."""
    report = {"metrics": {}}
    for line in out.splitlines():
        for kind in ("metric", "result", "determinism"):
            prefix = f"# {kind} "
            if line.startswith(prefix):
                value = json.loads(line[len(prefix):])
                if kind == "metric":
                    report["metrics"][value["name"]] = value
                else:
                    report[kind] = value
    for kind in ("result", "determinism"):
        if kind not in report:
            fail(f"ns_e2ebench printed no {kind}")
    return report


def aggregate(reports):
    """End-to-end metrics of a timed run from its processes' reports: the
    best process's timings, the median process's set-up time, the largest
    peak RSS, and the answer counts of all processes."""
    for i, r in enumerate(reports):
        for name in TIMINGS:
            if name not in r["metrics"]:
                fail(f"process {i} did not measure {name}")
    correct = all(r["result"]["correct"] for r in reports)
    for i, r in enumerate(reports[1:], start=1):
        if r["determinism"] != reports[0]["determinism"]:
            print(f"failure: determinism: process {i} differs from process 0",
                  file=sys.stderr)
            correct = False
    out = {}
    for name, higher in TIMINGS.items():
        pick = max if higher else min
        out[name] = pick((r["metrics"][name] for r in reports),
                         key=lambda m: m["value"])
    by_setup = sorted(reports, key=lambda r: r["metrics"]["setup_s"]["value"])
    out["setup_s"] = by_setup[len(by_setup) // 2]["metrics"]["setup_s"]
    out["peak_rss_mb"] = max((r["metrics"]["peak_rss_mb"] for r in reports),
                             key=lambda m: m["value"])
    out["decided_frac"] = reports[0]["metrics"]["decided_frac"]
    attempted = sum(r["result"]["attempted"] for r in reports)
    failed = sum(r["result"]["failed"] for r in reports)
    out["error_frac"] = {"name": "error_frac", "unit": "ratio",
                         "value": failed / attempted, "n": attempted}
    result = {"correct": correct, "attempted": attempted, "failed": failed}
    return out, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.workload not in LAYERS:
        fail(f"no per-layer metrics declared for {args.workload!r}")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2ebench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--git-sha", git_sha()]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        out = run_process(cmd + ["--seconds", str(args.seconds), "--trace-out",
                                 os.path.join(trace_dir, f"{args.workload}-"
                                              f"seed{args.seed}.jsonl")],
                          deadline)
        sys.stdout.write(out)
        report = parse(out)
        measured, result = report["metrics"], report["result"]
    else:
        reports = []
        for i in range(FORKS):
            out = run_process(
                cmd + ["--seconds", str(args.seconds / FORKS)], deadline)
            for line in out.splitlines():
                print(f"# fork {i}: {line}")
            reports.append(parse(out))
        measured, result = aggregate(reports)
        for m in measured.values():
            print("# metric " + json.dumps(m))

    metrics = {}
    for want in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = want["name"], want["unit"]
        m = measured.get(name)
        applies = not args.trace or name in LAYERS[args.workload]
        if applies and m is None:
            fail(f"metric {name} was not measured")
        if not applies and m is not None:
            fail(f"metric {name} was measured but is not declared for "
                 f"{args.workload}")
        if m is not None and m["unit"] != unit:
            fail(f"metric {name} measured in {m['unit']}, declared in {unit}")
        metrics[name] = {"value": m["value"] if m else 0.0, "unit": unit}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
