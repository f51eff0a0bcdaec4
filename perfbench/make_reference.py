"""Regenerate the committed default-seed tables in perfbench/reference/.

    python3 perfbench/make_reference.py

Runs, at DEFAULT_SEED with one BLAS thread, the class-sum ops of
exact-homotopy (exact residual tables) and every op of lp-irls (p != 2
values, used by gate.py as ceilings), and copies their CSVs.  Regenerate
only for a change that is meant to move these values, and say so.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from lplab import cli  # noqa: E402
from workloads import DEFAULT_SEED, exact_homotopy, lp_irls  # noqa: E402


def main() -> int:
    ops = [op for op in exact_homotopy(DEFAULT_SEED)
           if op.experiment == "class-sum-homotopy"] + lp_irls(DEFAULT_SEED)
    target = HERE / "reference"
    target.mkdir(exist_ok=True)
    work = HERE.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        os.chdir(tmp)
        for op in ops:
            Path(f"{op.name}.cfg").write_text(op.config_text(), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["run", f"{op.name}.cfg"]) != 0:
                    print(f"{op.name}: the program failed", file=sys.stderr)
                    return 1
            shutil.copy(f"out/{op.name}.csv", target / f"{op.name}.csv")
            print(f"wrote reference/{op.name}.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
