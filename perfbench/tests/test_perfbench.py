"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import compare
import gate
import tracing
from workloads import DEFAULT_SEED, SMOKE, WORKLOADS, Op, exact_homotopy, lp_irls

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300, check=False)


def run_program(op: Op, directory: Path) -> str:
    """Run one op through the program in `directory`; return its CSV text."""
    from lplab import cli

    config = directory / f"{op.name}.cfg"
    config.write_text(op.config_text(), encoding="utf-8")
    with contextlib.chdir(directory), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(config)]) == 0
    return (directory / "out" / f"{op.name}.csv").read_text(encoding="utf-8")


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        list(tracing.LAYER_METRICS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(SMOKE))
def test_smoke_run_reports_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}


def test_reference_seconds_follow_the_host_speed():
    ref = calibrate.REFERENCE_S
    assert calibrate.to_reference(2.0, ref, ref) == pytest.approx(2.0)
    # A host twice as slow doubles both the call and the samples.
    assert calibrate.to_reference(4.0, 1.5 * ref, 2.5 * ref) == pytest.approx(2.0)
    assert calibrate.sample() > 0


def test_without_program_source_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("--workload", "verify-all", "--seed", "0", "--seconds", "1",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_gate_rejects_a_nonzero_residual(tmp_path):
    op = Op("h", {"experiment": "verify-homotopy", "group": "Z^1", "degree": 1,
                  "R": 2, "count": 2, "seed": 5})
    text = run_program(op, tmp_path)
    assert gate.check_homotopy(op.cfg, text) is None
    lines = text.splitlines()
    lines[-1] = lines[-1].rsplit(",", 2)[0] + ",1,3"
    assert "not literal 0/1" in gate.check_homotopy(op.cfg, "\n".join(lines) + "\n")


def test_gate_checks_class_sums_against_the_committed_table(tmp_path):
    op = next(o for o in exact_homotopy(DEFAULT_SEED)
              if o.experiment == "class-sum-homotopy")
    committed = gate.committed_table(op, DEFAULT_SEED)
    assert gate.check_class_sum(op.cfg, committed, committed) is None
    tampered = committed.replace(",0,1\n", ",1,2\n", 1)
    assert "committed" in gate.check_class_sum(op.cfg, tampered, committed)
    assert gate.committed_table(op, DEFAULT_SEED + 1) is None


def test_gate_rejects_a_wrong_p2_value(tmp_path):
    op = SMOKE["lp-direct"](DEFAULT_SEED)[0]
    text = run_program(op, tmp_path)
    refs = gate.CurveReferences()
    assert gate.check_curve(op.cfg, text, None, refs) is None
    row = text.splitlines()[1].split(",")
    row[7] = repr(float(row[7]) * (1 + 1e-6))
    tampered = text.splitlines()[0] + "\n" + ",".join(row) + "\n"
    assert "SVD reference" in gate.check_curve(op.cfg, tampered, None, refs)


def test_gate_caps_irls_values_at_the_committed_table():
    op = lp_irls(DEFAULT_SEED)[-1]
    committed = gate.committed_table(op, DEFAULT_SEED + 7)
    refs = gate.CurveReferences()
    assert gate.check_curve(op.cfg, committed, committed, refs) is None
    header, first, *rest = committed.splitlines()
    row = first.split(",")
    row[7] = repr(float(row[7]) * (1 + 2 * gate.IRLS_REL_TOL))
    tampered = "\n".join([header, ",".join(row), *rest]) + "\n"
    assert "exceeds the committed value" in gate.check_curve(op.cfg, tampered,
                                                              committed, refs)


def test_gate_rejects_missing_rows():
    op = lp_irls(DEFAULT_SEED)[-1]
    committed = gate.committed_table(op, DEFAULT_SEED)
    shortened = "\n".join(committed.splitlines()[:-1]) + "\n"
    assert "expected" in gate.check_curve(op.cfg, shortened, committed,
                                          gate.CurveReferences())


def record(workload, seed, wall, failed=0, attempted=10):
    metrics = {"wall_s": wall, "setup_s": 0.5, "peak_rss_mb": 60.0,
               "ops_ok_frac": (attempted - failed) / attempted}
    return {"workload": workload, "seed": seed, "trace": 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}


def write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


@pytest.mark.parametrize("change_walls, expected", [
    ([8.0 + 0.01 * i for i in range(10)], "improved"),
    ([10.0 + 0.01 * i for i in range(10)], "unchanged"),
    ([14.0 + 0.01 * i for i in range(10)], "worse"),
    ([6.0 + 1.0 * i for i in range(10)], "unresolved"),
])
def test_compare_verdicts(tmp_path, capsys, change_walls, expected):
    parent = [record("lp-irls", s, 10.0 + 0.01 * s) for s in range(10)]
    change = [record("lp-irls", s, w) for s, w in enumerate(change_walls)]
    write_records(tmp_path / "p.jsonl", parent)
    write_records(tmp_path / "c.jsonl", change)
    status = compare.main([str(tmp_path / "p.jsonl"), str(tmp_path / "c.jsonl")])
    out = capsys.readouterr().out
    wall_line = next(line for line in out.splitlines() if "wall_s" in line)
    assert wall_line.split()[1] == expected
    assert status == (1 if expected == "worse" else 0)


def test_compare_reports_the_failed_fraction_delta(tmp_path, capsys):
    write_records(tmp_path / "p.jsonl", [record("lp-direct", s, 9.0, failed=3, attempted=7)
                                         for s in range(10)])
    write_records(tmp_path / "c.jsonl", [record("lp-direct", s, 9.0, failed=0, attempted=7)
                                         for s in range(10)])
    compare.main([str(tmp_path / "p.jsonl"), str(tmp_path / "c.jsonl")])
    assert "ops_failed_frac 0.4286 -> 0.0000 (delta -0.4286)" in capsys.readouterr().out
