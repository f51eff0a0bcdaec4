"""Run every workload of the benchmark and print its metrics per workload.

    python3 perfbench/suite.py                      # one run per workload
    python3 perfbench/suite.py --runs 10 --record runs.jsonl
    python3 perfbench/suite.py --workloads lp-direct --runs 5 --trace

Each run is `run.py` with its own seed (first seed + run index), so the
correctness gate runs every time.  For each workload the table gives every
end-to-end metric's median, quartiles and spread (quartile distance over
median, as statistics.quantiles computes it) against the bound in
BENCHMARK.json, plus ops_failed_frac over all runs.  `--trace` adds one
traced run per workload and prints its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int,
             record: Path | None, notes: set[str]) -> dict:
    """One run.py invocation; its failure and dual-bound lines go to `notes`."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if record is not None:
        command += ["--record", str(record)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {done.returncode}")
    notes.update(line.strip() for line in done.stdout.splitlines()
                 if line.startswith(("  failed", "  below")))
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile distance over median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first run")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for workload in args.workloads.split(","):
        print(f"{workload}: {args.runs} run(s) of {args.seconds} s")
        notes: set[str] = set()
        results = [run_once(workload, args.seed + i, args.seconds, 0, args.record, notes)
                   for i in range(args.runs)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"  correct {all(r['correct'] for r in results)}  attempted {attempted}  "
              f"failed {failed}  ops_failed_frac {failed / attempted:.4f}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            median, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and len(values) > 1:
                verdict = "ok" if rel < bound / 3 else "SPREAD ABOVE BOUND/3"
                steady &= name == "setup_s" or rel < bound / 3
            print(f"  {name:<14} {median:12.6g} {unit:<6} q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {rel:.4f}  bound {bound}  {verdict}")
        if args.trace:
            traced = run_once(workload, args.seed, args.seconds, 1, args.record, notes)
            print(f"  traced run: correct {traced['correct']}")
            for name, metric in traced["metrics"].items():
                print(f"    {name:<28} {metric['value']:.6g} {metric['unit']}")
        for note in sorted(notes):
            print(f"  {note}")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
