#!/usr/bin/env python3
"""Seeded closed-loop benchmark of the BaCO stack: one command, three workloads.

    python3 perfbench/run.py --workload paper-serial --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds the library, baco_worker and the
perfbench binary from source into .bench_build/perfbench (cmake, Release),
then:

  --trace 0  measures the end-to-end metrics: setup_s is the median of
             several fresh set-up-only processes plus the measured run's own
             set-up; every other metric comes from one measured run.
  --trace 1  runs the workload twice with the same seed, untraced and then
             traced. The pair is the determinism self-check (quality,
             expert_reached and the named counts must be identical), the
             traced run gives the per-layer metrics and the reconciliation
             against wall time, and the pair's evals_per_s gap is the
             tracing overhead. Spans go to .bench_build/perfbench/spans-*.

Both modes also time a fixed CPU-only calibration loop (machine drift; it is
printed, never compared). The last stdout line is the JSON result; the exit
code is non-zero when any output check fails. See perfbench.cpp for the
workloads, the metrics and the checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper-serial", "serve-ckpt", "fleet-dispatch")

END_TO_END = (
    ("evals_per_s", "1/s"),
    ("turnaround_p50_ms", "ms"),
    ("turnaround_p95_ms", "ms"),
    ("quality_vs_expert", "ratio"),
    ("expert_reached", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Every per-layer metric, its unit, and the workload/end-to-end metric it
# should move. A layer a workload never enters reads 0 there.
PER_LAYER = (
    ("suite.registry_ms", "ms", "setup_s (all)"),
    ("api.build_ms", "ms", "setup_s (paper-serial, fleet-dispatch)"),
    ("serve.spawn_ms", "ms", "setup_s (fleet-dispatch)"),
    ("serve.open_ms", "ms", "setup_s (serve-ckpt)"),
    ("core.suggest_ms", "ms", "turnaround_p50_ms, evals_per_s (paper-serial)"),
    ("core.acquisition_ms", "ms", "turnaround_p50_ms, evals_per_s (paper-serial)"),
    ("core.observe_ms", "ms", "turnaround_p50_ms (paper-serial)"),
    ("gp.fit_ms", "ms", "turnaround_p95_ms (paper-serial)"),
    ("gp.refits", "count", "turnaround_p95_ms (paper-serial)"),
    ("gp.extends", "count", "turnaround_p95_ms (paper-serial)"),
    ("rf.fit_ms", "ms", "turnaround_p50_ms (paper-serial, hidden constraints)"),
    ("suite.evaluate_ms", "ms", "nothing (closes the reconciliation)"),
    ("exec.drive_ms", "ms", "evals_per_s (paper-serial, fleet-dispatch)"),
    ("serve.rpc_ms", "ms", "turnaround_p50_ms (serve-ckpt)"),
    ("serve.session_ms", "ms", "turnaround_p50_ms (serve-ckpt)"),
    ("serve.wire_ms", "ms", "turnaround_p50_ms (serve-ckpt)"),
    ("exec.checkpoint_ms", "ms", "evals_per_s, turnaround_p95_ms (serve-ckpt)"),
    ("exec.checkpoint_bytes", "bytes", "evals_per_s, turnaround_p95_ms (serve-ckpt)"),
    ("exec.checkpoint_records", "records", "evals_per_s, turnaround_p95_ms (serve-ckpt)"),
    ("serve.coord_ms", "ms", "evals_per_s, turnaround_p50_ms (fleet-dispatch)"),
    ("serve.dispatched", "count", "evals_per_s (fleet-dispatch)"),
    ("serve.redispatched", "count", "turnaround_p95_ms (fleet-dispatch)"),
    ("serve.worker_errors", "count", "evals_per_s (fleet-dispatch)"),
)

# The values two same-seed runs must reproduce exactly.
FINGERPRINT = ("quality_vs_expert", "expert_reached", "gp.refits",
               "gp.extends", "exec.checkpoint_records", "serve.dispatched")

SETUP_PROCESSES = 10  # fresh set-up-only processes per measured run
RUN_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def build(root, build_dir):
    """Configure once, then (re)build the targets the benchmark runs."""
    src = root / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(src), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    binary = build_dir / "perfbench"
    worker = build_dir / "baco" / "baco_worker"
    if not binary.exists() or not worker.exists():
        raise BenchError("build produced no perfbench/baco_worker binary")
    return binary, worker


def run_binary(cmd, work, allow_fail=False):
    """Run the perfbench binary in a fresh directory under work; return its
    RESULT object."""
    cwd = work / str(len(list(work.iterdir())))
    cwd.mkdir()
    try:
        proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if result is None:
        raise BenchError("no result (exit %d): %s" % (proc.returncode,
                                                       " ".join(cmd)))
    if proc.returncode != 0 and not allow_fail:
        raise BenchError("exit %d: %s" % (proc.returncode, " ".join(cmd)))
    return result


def print_checks(res):
    for problem in res.get("problems", []):
        print("CHECK FAILED: " + problem)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    build_dir = root / ".bench_build" / "perfbench"
    binary, worker = build(root, build_dir)

    # Scratch space (socket, checkpoints) lives in the checkout and goes
    # away with the run.
    work = build_dir / ("work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = [str(binary), "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", repr(args.seconds), "--worker",
            str(worker)]
    try:
        if args.trace:
            untraced = run_binary(base, work, allow_fail=True)
            spans = build_dir / ("spans-%s.jsonl" % args.workload)
            res = run_binary(base + ["--trace", "--spans", str(spans)], work,
                             allow_fail=True)
        else:
            setups = [run_binary(base + ["--setup-only"], work)["setup_s"]
                      for _ in range(SETUP_PROCESSES)]
            res = run_binary(base, work, allow_fail=True)
        calib = run_binary([str(binary), "--calibrate"], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = res["attempted"]
    failed = res["failed"]
    print_checks(res)
    print("workload %s seed %d: %d evaluations in %.3f s, %d chunks"
          % (args.workload, args.seed, res["evals"], res["wall_s"],
             res["chunks"]))
    if args.workload == "serve-ckpt":
        print("checkpoint directory: %s" % (
            "private tmpfs" if res["ckpt_tmpfs"]
            else "on disk (no permission to mount a private tmpfs)"))
    else:
        print("pinned to CPU %d" % res["cpu"] if res["cpu"] >= 0
              else "not pinned (no permission to set CPU affinity)")
    if args.trace:
        print_checks(untraced)
        failed += untraced["failed"]
        for key in FINGERPRINT:
            a = untraced["fingerprint"].get(key)
            b = res["fingerprint"].get(key)
            same = a == b
            print("determinism %-24s run1 %-22r run2 %-22r %s"
                  % (key, a, b, "same" if same else "DIFFERENT"))
            if not same:
                failed += 1
        layers = res["layers"]
        metrics = {}
        print("%-24s %14s %-8s %s" % ("per-layer metric", "value", "unit",
                                      "should move"))
        for name, unit, moves in PER_LAYER:
            value = layers.get(name, {}).get("value", 0.0)
            metrics[name] = {"value": value, "unit": unit}
            print("%-24s %14.6g %-8s %s" % (name, value, unit, moves))
        print("reconciliation (traced run):")
        for line in res["report"]:
            print("  " + line)
        print("  tracing overhead: traced %.2f evals/s vs untraced %.2f "
              "evals/s (%+.2f%%, run-to-run noise included), %d spans"
              % (res["evals_per_s"], untraced["evals_per_s"],
                 100.0 * (untraced["evals_per_s"] / res["evals_per_s"] - 1.0),
                 res["spans"]))
    else:
        setups.append(res["setup_s"])
        res["setup_s"] = statistics.median(setups)
        metrics = {}
        for name, unit in END_TO_END:
            metrics[name] = {"value": res[name], "unit": unit}
            extra = ""
            pooling = ("pooled over the run" if res["chunks"] == 1
                       else "median over %d chunks" % res["chunks"])
            if name == "evals_per_s":
                extra = " (%s)" % pooling
            elif name.startswith("turnaround"):
                extra = " (%d samples, %s)" % (res["turnaround_samples"],
                                               pooling)
            elif name == "setup_s":
                extra = " (median of %d processes)" % len(setups)
            elif name in ("quality_vs_expert", "expert_reached"):
                extra = " (%d studies/sessions scored)" % res["studies"]
            print("%-20s %14.6g %-8s%s" % (name, res[name], unit, extra))
    print("calibration: 5 x 256^3 matmul %.4f s (median rep %.4f s); "
          "machine drift only, not compared across commits"
          % (calib["calibration_s"], calib["median_rep_s"]))

    failed = min(failed, attempted)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        sys.exit(1)
