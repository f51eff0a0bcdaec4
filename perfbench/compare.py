"""Compare a parent result file with a change result file.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Both files hold records written by `run.py --record` (or `suite.py
--record`), made with the same benchmark code and run length.  Runs are
paired by seed.  For each (workload, end-to-end metric) the verdict is:

- improved: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ, in the better direction, by more than the
  parent's quartile distance;
- unresolved: the relative quartile distance of either side exceeds the
  metric's bound, unless every change run beats every parent run;
- worse: the change median is worse than the parent median by more than
  the bound in BENCHMARK.json;
- unchanged: otherwise.

Each workload row also gives the ops_failed_frac of both sides.  Traced
records, when both sides have them, are shown as per-layer medians.
Exit code 1 when any verdict is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load(path: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """{(workload, trace): {seed: record}}, the last record per seed winning."""
    runs: dict[tuple[str, int], dict[int, dict]] = defaultdict(dict)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            runs[(record["workload"], record["trace"])][record["seed"]] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> str:
    sign = -1.0 if better == "lower" else 1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1_p, q3_p = quartiles(parent)
    q1_c, q3_c = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gap = sign * (med_c - med_p)
    if pairs and wins >= 0.9 * len(pairs) and gap > q3_p - q1_p:
        return "improved"
    spread = max((q3_p - q1_p) / abs(med_p), (q3_c - q1_c) / abs(med_c))
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    if -gap / abs(med_p) > bound:
        return "worse"
    return "unchanged"


def failed_frac(records) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads(args.benchmark.read_text(encoding="utf-8"))
    parent, change = load(args.parent), load(args.change)

    any_worse = False
    for workload in [w["name"] for w in bench["workloads"]]:
        p_runs, c_runs = parent.get((workload, 0)), change.get((workload, 0))
        if not p_runs or not c_runs:
            print(f"{workload}: missing on one side, not compared")
            continue
        seeds = sorted(set(p_runs) & set(c_runs))
        fp, fc = failed_frac(p_runs.values()), failed_frac(c_runs.values())
        print(f"{workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs, "
              f"{len(seeds)} pairs; ops_failed_frac {fp:.4f} -> {fc:.4f} "
              f"(delta {fc - fp:+.4f})")
        if len(seeds) < MIN_PAIRS:
            print(f"  fewer than {MIN_PAIRS} pairs: a gain cannot be claimed")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs.values()]
            cv = [r["metrics"][name]["value"] for r in c_runs.values()]
            pairs = [(p_runs[s]["metrics"][name]["value"],
                      c_runs[s]["metrics"][name]["value"]) for s in seeds]
            result = verdict(pv, cv, pairs, metric["better"], metric["bound"])
            any_worse |= result == "worse"
            q1, q3 = quartiles(pv)
            print(f"  {name:<12} {result:<10} parent {statistics.median(pv):.6g} "
                  f"[{q1:.6g}, {q3:.6g}]  change {statistics.median(cv):.6g} "
                  f"[{quartiles(cv)[0]:.6g}, {quartiles(cv)[1]:.6g}] {metric['unit']}")
        p_traced, c_traced = parent.get((workload, 1)), change.get((workload, 1))
        if p_traced and c_traced:
            for metric in bench["per_layer"]:
                name = metric["name"]
                pm = statistics.median(r["metrics"][name]["value"] for r in p_traced.values())
                cm = statistics.median(r["metrics"][name]["value"] for r in c_traced.values())
                print(f"    layer {name:<28} {pm:.6g} -> {cm:.6g} {metric['unit']}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
