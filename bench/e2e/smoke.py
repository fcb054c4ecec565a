#!/usr/bin/env python3
"""bench_e2e_smoke: every workload at a tiny size, one timed rep.

    python3 smoke.py BENCH_E2E BENCHMARK.json

Asserts, per workload: exit 0 and error_rate 0; the printed metric names
equal BENCHMARK.json's end_to_end names (untraced) and per_layer names
(--traced), in both directions; two same-seed invocations print the same
sim_digest. Also asserts that bench_e2e and BENCHMARK.json name the same
workloads.
"""
import json
import subprocess
import sys

SCALE = "0.01"


def check(ok, message):
    if not ok:
        sys.exit(f"bench_e2e_smoke: {message}")


def run(binary, *args):
    proc = subprocess.run([binary, "run", *args, "--scale", SCALE, "--reps", "1"],
                          stdout=subprocess.PIPE, text=True, timeout=60)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and lines, f"{args}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    check(result["checks"]["error_rate"] == 0, f"{args}: {result['checks']}")
    return result


def main():
    binary, bench_path = sys.argv[1], sys.argv[2]
    with open(bench_path) as f:
        bench = json.load(f)
    declared = [w["name"] for w in bench["workloads"]]
    usage = subprocess.run([binary], stderr=subprocess.PIPE, text=True).stderr
    listed = usage.split("workloads:")[1].split()
    check(sorted(listed) == sorted(declared), f"{listed} != {declared}")

    for name in declared:
        plain = run(binary, "--workload", name)
        again = run(binary, "--workload", name)
        traced = run(binary, "--workload", name, "--traced")
        for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
            want = {m["name"] for m in bench[section]}
            got = set(result["metrics"])
            check(got == want, f"{name} {section}: {sorted(got ^ want)}")
        digests = {plain["sim_digest"], again["sim_digest"], traced["sim_digest"]}
        check(len(digests) == 1, f"{name}: sim_digest differs: {digests}")
        print(f"ok {name} sim_digest {plain['sim_digest']}")


if __name__ == "__main__":
    main()
