#!/usr/bin/env python3
"""Builds and runs the DPC client benchmark (perfbench/dpcbench.cpp).

Run from the repository root:

  python3 perfbench/run.py --workload kvfs-bigfile-dio --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload cache-hot-buffered --trace 1 --sabotage
  python3 perfbench/run.py --all --seconds 10     # registered workloads, both modes
  python3 perfbench/run.py --selftest             # seeded op streams repeat

The benchmark is built from ../src with CMake into $CARGO_TARGET_DIR
(default .bench_build). A single run prints every metric with its unit and
ends with one JSON line: correct, attempted, failed and the metrics that
BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer for
--trace 1). It exits nonzero when any call failed or any read returned bytes
other than those written.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build():
    """Configures (once) and builds the dpcbench target; returns its path."""
    src = BENCH_DIR.parent / "src" / "core" / "dpc_system.hpp"
    if not src.is_file():
        fail(f"DPC sources not found ({src}); run from a repository checkout", 2)
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", "dpcbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 3)
    return out / "dpcbench"


def load_spec():
    spec_path = Path("BENCHMARK.json")
    if not spec_path.is_file():
        fail("BENCHMARK.json not found in the working directory", 2)
    return json.loads(spec_path.read_text())


def run_one(binary, spec, workload, seed, seconds, trace, sabotage=False):
    """Runs one workload; returns (exit code, result dict restricted to spec)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = build_dir() / "spans" / f"{workload}.csv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    if sabotage:
        cmd.append("--sabotage")
    # A fixed address-space layout (no ASLR) removes one source of
    # run-to-run spread: where hot shared words land relative to cache lines.
    if shutil.which("setarch"):
        cmd = ["setarch", "-R"] + cmd
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 5)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{workload}: no result (exit code {proc.returncode})", 4)
    print("\n".join(lines[:-1]))
    raw = json.loads(lines[-1])
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in raw["metrics"]:
            fail(f"{workload}: metric {m['name']} missing from the output", 4)
        metrics[m["name"]] = raw["metrics"][m["name"]]
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    code = proc.returncode if proc.returncode != 0 else (0 if raw["correct"] else 1)
    return code, result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sabotage", action="store_true",
                    help="arm a 3x fail-slow site on every remote KV op")
    ap.add_argument("--all", action="store_true",
                    help="run every registered workload untraced and traced")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    binary = build()
    if args.selftest:
        sys.exit(subprocess.run([str(binary), "--selftest"],
                                timeout=RUN_TIMEOUT_S).returncode)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.all:
        worst = 0
        summary = {}
        for w in names:
            for trace in (0, 1):
                code, res = run_one(binary, spec, w, args.seed, seconds, trace,
                                    args.sabotage)
                worst = max(worst, code)
                summary.setdefault(w, {}).update(res["metrics"])
                summary[w]["fail_ratio"] = {
                    "value": res["failed"] / res["attempted"], "unit": "ratio"}
        print(json.dumps(summary))
        sys.exit(worst)
    if not args.workload:
        fail(f"--workload is required; registered workloads: {names}", 2)
    code, res = run_one(binary, spec, args.workload, args.seed, seconds,
                        args.trace, args.sabotage)
    print(json.dumps(res))
    sys.exit(code)


if __name__ == "__main__":
    main()
