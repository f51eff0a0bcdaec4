"""Every demo script runs standalone; demo 05 prints the golden homotopy
residuals and demo 06 writes the golden distance curve."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).parent / "golden"
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(tmp_path, script):
    # a copy, so the demos that write next to themselves leave the tree alone
    demos = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", demos,
                    ignore=shutil.ignore_patterns("*.csv", "*.svg"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demos / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if script.startswith("05_"):
        assert done.stdout == (GOLDEN_DIR / "demo05_homotopy.txt").read_text(
            encoding="utf-8")
    if script.startswith("06_"):
        # the printed paths do not depend on where the demos are
        assert str(demos) not in done.stdout
        for name in ("distance_curve.csv", "distance_curve.svg"):
            assert (demos / name).read_bytes() == \
                (GOLDEN_DIR / name).read_bytes(), name
