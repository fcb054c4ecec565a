#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload.

    python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/e2e
(default .bench_build/e2e) and is incremental, so only the first run
compiles; build output goes to stderr.

One run is PROCESSES bench_e2e processes in a row that together take
about T seconds after the build, set-up included: each process gets an
equal share of the time still left. Their samples are pooled. Each
process lands on different physical memory and a different moment of the
host's load, so pooling damps both. This is the one place the samples
become statistics.

stdout gets the pooled result line (bench_e2e's format, plus each
metric's value, which is the median of its pooled samples, its quartiles,
and the item_ms percentiles) and
then, last, the summary {"correct", "attempted", "failed", "metrics"}:
with --trace 0 every end_to_end metric of BENCHMARK.json, with --trace 1
every per_layer one. Exits non-zero, printing no result, when the build
or a run fails or the metric names disagree with BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
PROCESSES = 8
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "e2e")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "bench_e2e", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bench_e2e")


def quantile(samples, q):
    """The q-quantile, q a multiple of 0.01, linear between order statistics."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1]


def pool(results):
    """One result line from several bench_e2e processes' lines."""
    first = results[0]
    metrics = {}
    for name, m in first["metrics"].items():
        samples = [x for r in results for x in r["metrics"][name]["samples"]]
        median = quantile(samples, 0.50)
        metrics[name] = dict(m, value=median, median=median, q1=quantile(samples, 0.25),
                             q3=quantile(samples, 0.75), samples=samples)
    info = {k: statistics.median(x for r in results for x in r["info"][k])
            for k in first["info"]}
    items = [x for r in results for x in r["item_ms"]]
    if items:
        info.update(item_ms_p50=quantile(items, 0.50), item_ms_p99=quantile(items, 0.99),
                    item_samples=len(items))
    same_digest = len({r["sim_digest"] for r in results}) == 1
    attempted = sum(r["checks"]["attempted"] for r in results) + 1
    failed = sum(r["checks"]["failed"] for r in results) + (0 if same_digest else 1)
    failures = [f for r in results for f in r["checks"]["failures"]]
    if not same_digest:
        failures.append("sim_digest identical across processes")
    pooled = dict(first,
                  processes=len(results),
                  reps=sum(r["reps"] for r in results),
                  traced_reps=sum(r["traced_reps"] for r in results),
                  fingerprint=dict(first["fingerprint"],
                                   threads_peak=max(r["fingerprint"]["threads_peak"]
                                                    for r in results)),
                  metrics=metrics,
                  info=info,
                  checks={"attempted": attempted, "failed": failed,
                          "error_rate": failed / attempted, "failures": failures})
    del pooled["item_ms"]  # replaced by the item_ms_p50/p99 info fields
    return pooled


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")

    binary = build()
    start = time.monotonic()
    results = []
    for p in range(PROCESSES):
        share = max(0.0, start + args.seconds - time.monotonic()) / (PROCESSES - p)
        cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", f"{share:.3f}", "--reps", "1"]
        if args.trace:
            cmd.append("--traced")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, start + RUN_TIMEOUT_S - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            fail(f"bench_e2e exited with {proc.returncode}")
        results.append(json.loads(lines[-1]))
    result = pool(results)

    metrics = {}
    for d in declared:
        got = result["metrics"].get(d["name"])
        if got is None or got["unit"] != d["unit"]:
            fail(f"metric {d['name']} ({d['unit']}) missing or in another unit")
        metrics[d["name"]] = {"value": got["value"], "unit": got["unit"]}
    extra = set(result["metrics"]) - set(metrics)
    if extra:
        fail("metrics not in BENCHMARK.json: " + ", ".join(sorted(extra)))

    checks = result["checks"]
    print(json.dumps(result))
    print(json.dumps({"correct": checks["failed"] == 0,
                      "attempted": checks["attempted"],
                      "failed": checks["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
