"""lplab benchmark: run one workload for one seed and print one result line.

    python3 perfbench/run.py --workload exact-homotopy --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  The program is imported from `src/` of
that checkout, never from an installed copy, and driven from outside through
`lplab.cli.main`.  Every process it starts is a fresh single-threaded Python
(`worker.py`) with the BLAS thread count pinned to BLAS_THREADS:

- untraced: SETUP_PROBES set-up-only processes, after one warm-up that
  fills the bytecode cache, each between two starts of a bare interpreter
  (calibrate.spawn_sample); `setup_s` is the median of their set-up times
  in reference seconds;
- one measuring process that times passes over the workload's ops for
  `--seconds` and gates every op (see gate.py).

With `--trace 0` the metrics are wall_s (median pass, reference seconds),
setup_s, peak_rss_mb and ops_ok_frac, and the raw wall-clock times are
printed above the result line and recorded; with `--trace 1` they are
the per-layer figures of tracing.LAYER_METRICS from a traced run.  The
last line of standard output is `{"correct", "attempted", "failed",
"metrics"}`.  `--record FILE` appends the full result, environment
included, as one JSON line for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """A benchmark process failed; no result can be reported."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # String hashes decide set iteration order inside the program; fixing
    # them keeps the work per pass the same from process to process.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, args, workdir: Path, deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if args.smoke:
        command.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the measuring process started")
    command += ["--spawned", repr(time.monotonic())]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=worker_env(),
                              text=True, timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the time limit") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with code {done.returncode}")
    return json.loads(lines[-1])


def end_to_end(result: dict, setup_s: float) -> dict:
    attempted = result["attempted"]
    return {
        "wall_s": {"value": result["wall_s"], "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "ops_ok_frac": {"value": (attempted - result["failed"]) / attempted,
                        "unit": "ratio"},
    }


def summary(args, result: dict, setup: dict, metrics: dict) -> list[str]:
    attempted, failed = result["attempted"], result["failed"]

    def seconds(values):
        return " ".join(f"{s:.3f}" for s in values)

    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(result['pass_s'])} timed passes, {attempted} ops attempted, "
        f"{failed} failed, ops_failed_frac {failed / attempted:.4f}",
        f"pass seconds, raw (median {result['raw_wall_s']:.4f}): {seconds(result['pass_s'])}",
        f"pass seconds, reference: {seconds(result['pass_ref_s'])}",
        f"setup seconds, raw: {seconds(setup['raw'])}",
        f"setup seconds, reference: {seconds(setup['ref'])}",
    ]
    lines += [f"  {name:<28} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [f"  failed {line}" for line in result["failures"]]
    for op, gaps in result["dual_gaps"].items():
        lines.append(f"  below dual bound (not gated) {op}: " + "; ".join(gaps))
    lines.append("env " + json.dumps(result["env"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny op per workload, one pass, one set-up")
    parser.add_argument("--record", type=Path,
                        help="append the full result as a JSON line to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lplab" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'lplab'}", file=sys.stderr)
        return 2
    import calibrate    # imports numpy; only once the source is known to be there

    deadline = time.monotonic() + TIME_LIMIT_S
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup = {"raw": [], "ref": []}
        warmups, probes = (0, 0) if args.trace else (0, 1) if args.smoke else (1, SETUP_PROBES)
        before = calibrate.spawn_sample(worker_env())
        for k in range(warmups + probes):
            probe = spawn("setup", args, run_dir / f"setup-{k}", deadline)
            after = calibrate.spawn_sample(worker_env())
            if k >= warmups:
                setup["raw"].append(probe["setup_s"])
                setup["ref"].append(calibrate.to_reference(
                    probe["setup_s"], before, after, calibrate.REFERENCE_SPAWN_S))
            before = after
        mode = "trace" if args.trace else "measure"
        result = spawn(mode, args, run_dir / mode, deadline)
        if args.trace:
            shutil.copy(run_dir / mode / "spans.jsonl",
                        WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        metrics = result["layers"]
    else:
        metrics = end_to_end(result, statistics.median(setup["ref"]))
    print("\n".join(summary(args, result, setup, metrics)))
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    if args.record is not None:
        record = dict(line, workload=args.workload, seed=args.seed, trace=args.trace,
                      seconds=args.seconds, setup_raw_s=setup["raw"],
                      setup_ref_s=setup["ref"],
                      **{k: result[k] for k in ("pass_s", "pass_ref_s", "raw_wall_s",
                                                "op_s", "failures", "dual_gaps", "env")})
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
