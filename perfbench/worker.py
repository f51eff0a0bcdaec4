"""One benchmark process: set up, time passes over a workload's ops, gate them.

run.py starts this script in a fresh interpreter with the BLAS thread count
pinned in its environment.  Modes:

- `setup`: import the program, write the configs, report the set-up time;
- `measure`: then run passes over the ops with tracing off until the time
  budget is spent, and gate every op;
- `trace`: run untraced passes for half the budget, traced passes for the
  other half, gate both and check that they wrote the same bytes.

A pass runs every op of the workload once, in order, in its own directory,
with a calibration sample (calibrate.py) before its first op and after
each op; a pass's reference time is the sum of its ops' times converted by
the samples around each.  The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Pass(NamedTuple):
    directory: Path
    seconds: float      # sum of the ops' wall times
    ref_seconds: float  # the same in reference seconds (calibrate.py)
    results: list       # per op: (exit code or None, seconds, stdout)


def write_configs(workdir: Path, ops):
    (workdir / "configs").mkdir(parents=True, exist_ok=True)
    for op in ops:
        if op.cfg is not None:
            (workdir / "configs" / f"{op.name}.cfg").write_text(op.config_text(),
                                                               encoding="utf-8")


def run_op(cli, op):
    """Call the program once from a pass directory; an op that raises counts
    as failed."""
    argv = ["verify-all"] if op.cfg is None else ["run", f"../configs/{op.name}.cfg"]
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(argv)
    except Exception:
        code = None
        captured.write(traceback.format_exc())
    return code, time.perf_counter() - start, captured.getvalue()


def run_passes(cli, ops, workdir: Path, tag: str, budget: float) -> list[Pass]:
    """At least one pass over all ops, then more while another one of the
    last pass's length still fits in `budget` seconds."""
    import calibrate    # after set-up: it imports numpy

    passes = []
    start = time.perf_counter()
    while True:
        directory = workdir / f"{tag}-{len(passes)}"
        directory.mkdir()
        os.chdir(directory)
        gc.collect()
        begin = time.perf_counter()
        before = calibrate.sample()
        results, ref_seconds = [], 0.0
        for op in ops:
            results.append(run_op(cli, op))
            after = calibrate.sample()
            ref_seconds += calibrate.to_reference(results[-1][1], before, after)
            before = after
        passes.append(Pass(directory, sum(r[1] for r in results), ref_seconds, results))
        os.chdir(workdir)
        if time.perf_counter() - start + (time.perf_counter() - begin) > budget:
            return passes


def outputs_of(directory: Path, op, stdout: str) -> dict[str, str]:
    files = {path.name: path.read_text(encoding="utf-8")
             for path in sorted((directory / "out").glob(f"{op.name}.*"))}
    files["stdout"] = stdout
    return files


def gate_passes(ops, passes: list[Pass], seed: int) -> dict:
    """Gate every op of every pass; later passes must repeat the bytes of the first."""
    import gate

    refs = gate.CurveReferences()
    first: dict[str, tuple[dict, str | None]] = {}
    attempted = failed = misses = 0
    failures, dual_gaps = [], {}
    for run in passes:
        for op, (code, _, stdout) in zip(ops, run.results):
            attempted += 1
            if code != 0:
                failed += 1
                detail = stdout.strip().splitlines()[-1] if stdout.strip() else ""
                failures.append(f"{op.name}: exit {code}: {detail}")
                continue
            outputs = outputs_of(run.directory, op, stdout)
            if op.name not in first:
                first[op.name] = (outputs, gate.check_op(op, outputs, seed, refs))
                csv_text = outputs.get(f"{op.name}.csv")
                if op.experiment == "distance-curve" and csv_text is not None:
                    gaps = gate.dual_gaps(op.cfg, csv_text, refs)
                    if gaps:
                        dual_gaps[op.name] = gaps
                reason = first[op.name][1]
            elif outputs != first[op.name][0]:
                reason = "output bytes differ from an earlier pass"
            else:
                reason = first[op.name][1]
            if reason is not None:
                failed += 1
                misses += 1
                failures.append(f"{op.name}: gate: {reason}")
    return {"attempted": attempted, "failed": failed, "gate_misses": misses,
            "failures": sorted(set(failures)), "dual_gaps": dual_gaps}


def environment(blas_threads: str) -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except Exception:     # older releases print instead of returning a dict
            return "unknown"

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from lplab import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported lplab from {cli.__file__}, not from {ROOT / 'src'}")
    import workloads

    ops = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload](args.seed)
    workdir = args.workdir.resolve()
    write_configs(workdir, ops)
    setup_s = time.monotonic() - args.spawned
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Lazy imports and first-call set-up inside numpy/scipy happen here, untimed.
    warm = workloads.SMOKE[args.workload](args.seed)
    write_configs(workdir, warm)
    run_passes(cli, warm, workdir, "warm", 0.0)

    result = {"setup_s": setup_s}
    if args.mode == "measure":
        timed = passes = run_passes(cli, ops, workdir, "pass", args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        import tracing

        timed = run_passes(cli, ops, workdir, "plain", args.seconds / 2)
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            traced = run_passes(cli, ops, workdir, "traced", args.seconds / 2)
        finally:
            uninstall()
        overhead = (statistics.median(p.ref_seconds for p in traced)
                    - statistics.median(p.ref_seconds for p in timed))
        values = tracing.layer_values(tracer, len(traced), overhead)
        result["layers"] = {name: {"value": values[name], "unit": unit}
                            for name, unit, _ in tracing.LAYER_METRICS}
        with open(workdir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
        # The gate below also requires every traced output to repeat the
        # bytes of the first untraced pass.
        passes = timed + traced
        result["traced_codes_match"] = all(
            [r[0] for r in p.results] == [r[0] for r in timed[0].results] for p in traced)
    result["pass_s"] = [p.seconds for p in timed]
    result["pass_ref_s"] = [p.ref_seconds for p in timed]
    result["raw_wall_s"] = statistics.median(result["pass_s"])
    result["wall_s"] = statistics.median(result["pass_ref_s"])
    result["op_s"] = {op.name: statistics.median(p.results[i][1] for p in timed)
                      for i, op in enumerate(ops)}
    result.update(gate_passes(ops, passes, args.seed))
    result["correct"] = (result["gate_misses"] == 0
                         and result.get("traced_codes_match", True))
    result["env"] = environment(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
