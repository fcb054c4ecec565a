#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs against the BENCHMARK.json bounds.

    python3 bench/e2e/compare.py PARENT.jsonl CHANGE.jsonl [--bench FILE]

Each file holds the stdout of several run.py calls; only their untraced
pooled result lines are read, other lines are skipped. Run i of a
workload in PARENT pairs with run i of the same workload in CHANGE, so
alternate the two sides when collecting them.

Per workload and end-to-end metric it prints each side's median and
quartiles over runs (statistics.quantiles with its default method), the
change's win fraction over the pairs (ties count for neither
side) and a verdict:

  regressed   the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  either side's quartile spread exceeds the bound, and not
              every change run beats every parent run;
  improved    the change wins >= 9/10 of the pairs and the medians differ
              by more than the parent's quartile spread;
  worse       the same test the other way round: the change loses >= 9/10
              of the pairs. It is within the bound, so it is not a
              regression, but it is real;
  unchanged   otherwise.

The host's speed drifts by ~10% over tens of minutes (BASELINE.md),
which is why the bounds are wide; pairs taken close together in time see
little of that drift, so `worse` shows slowdowns smaller than the bound.

Exits 1 on any regression, on any failed output check (error_rate > 0)
and on a workload missing from one side; 2 on a usage error.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                result = json.loads(line)
            except ValueError:
                continue
            if (result.get("schema") != "numaio-e2e v1" or result.get("traced")
                    or "processes" not in result):
                continue
            runs.setdefault(result["workload"], []).append(result)
    return runs


def spread(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p_med, p_q1, p_q3 = spread(parent)
    c_med, c_q1, c_q3 = spread(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    loss_frac = losses / len(pairs) if pairs else 0.0
    worse = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    widest = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if worse > bound:
        word = "regressed"
    elif widest > bound and not all_better:
        word = "unresolved"
    elif win_frac >= 0.9 and abs(c_med - p_med) > p_q3 - p_q1:
        word = "improved"
    elif loss_frac >= 0.9 and abs(c_med - p_med) > p_q3 - p_q1:
        word = "worse"
    else:
        word = "unchanged"
    return (p_med, p_q1, p_q3), (c_med, c_q1, c_q3), win_frac, worse, word


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--bench",
                        default=os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    parent, change = load_runs(args.parent), load_runs(args.change)

    bad = 0
    machines = set()
    for side, runs in (("parent", parent), ("change", change)):
        for workload, results in sorted(runs.items()):
            failed = sum(r["checks"]["failed"] for r in results)
            if failed:
                print(f"FAIL {side} {workload}: {failed} output check(s) failed")
                bad += 1
            machines |= {json.dumps({k: v for k, v in r["fingerprint"].items()
                                     if k not in ("git_rev", "threads_peak")},
                                    sort_keys=True) for r in results}
    if len(machines) > 1:
        print("WARNING: the runs come from different machines or build types; "
              "a comparison across them means nothing")

    print(f"{'workload':<19} {'metric':<15} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'win':>5} {'worse':>7}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        if name not in parent or name not in change:
            print(f"FAIL {name}: missing from {'parent' if name not in parent else 'change'}")
            bad += 1
            continue
        for m in bench["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in parent[name]]
            c = [r["metrics"][m["name"]]["value"] for r in change[name]]
            ps, cs, win, worse, word = verdict(p, c, m["better"], m["bound"])
            fmt = lambda s: f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}]"
            print(f"{name:<19} {m['name']:<15} {fmt(ps):<36} {fmt(cs):<36} "
                  f"{win:>5.2f} {worse:>+7.1%}  {word}")
            if word == "regressed":
                bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
