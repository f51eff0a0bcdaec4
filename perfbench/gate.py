"""Correctness gate for the output of one op.

`check_op` returns None when an output passes and a one-line reason when it
does not.  The references do not share the solver under test:

- homotopy residuals of central multipliers must read literally `0/1`;
- class-sum rows must equal the committed exact table at the default seed;
- p = 2 distances must match the norm of the residual of an SVD projection
  with an explicit rank threshold;
- p != 2 values may not exceed the committed default-seed value by more than
  IRLS_REL_TOL.  Each value is the norm of a feasible point, so a correct fix
  can only lower it.

Float CSV bytes are never pinned.  Boundary matrices come from the library's
assembly: the gate checks the solvers, not the assembly.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, Op

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Singular values below this share of the largest count as zero.  The
# boundary matrices here have a gap from about 0.1 down to about 1e-15.
RANK_RTOL = 1e-10
P2_ABS_TOL = 1e-8
# Measured spread of IRLS values over OpenBLAS core types: 0.8% upward.
IRLS_REL_TOL = 0.03


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def committed_table(op: Op, seed: int) -> str | None:
    """Committed default-seed CSV for ops that are compared with one.

    `distance-curve` ignores its seed, so its table holds at every seed.
    """
    if op.experiment == "class-sum-homotopy" and seed != DEFAULT_SEED:
        return None
    path = REFERENCE_DIR / f"{op.name}.csv"
    return path.read_text(encoding="utf-8") if path.is_file() else None


def check_homotopy(cfg: dict, text: str) -> str | None:
    rows = _rows(text)
    if len(rows) != int(cfg["count"]):
        return f"expected {cfg['count']} rows, got {len(rows)}"
    for row in rows:
        if (row["degree"], row["R"]) != (str(cfg["degree"]), str(cfg["R"])):
            return f"row for degree {row['degree']} R {row['R']} does not match the config"
        if (row["residual_num"], row["residual_den"]) != ("0", "1"):
            return (f"residual {row['residual_num']}/{row['residual_den']} is "
                    f"not literal 0/1")
    return None


def check_class_sum(cfg: dict, text: str, committed: str | None) -> str | None:
    rows = _rows(text)
    if len(rows) != int(cfg["count"]):
        return f"expected {cfg['count']} rows, got {len(rows)}"
    for row in rows:
        try:
            den = int(row["residual_den"])
            Fraction(int(row["residual_num"]), den)
        except (ValueError, ZeroDivisionError):
            return f"residual {row['residual_num']}/{row['residual_den']} is not an exact rational"
        if den <= 0:
            return f"residual denominator {den} is not positive"
    if committed is not None and rows != _rows(committed):
        return "rows differ from the committed default-seed table"
    return None


def curve_operator(resolution: str, degree: int, radius: int):
    """Boundary matrix T and the default chain x (identity delta, copy 0)."""
    from lplab.lp_complex import assemble_boundary
    from lplab.resolutions import resolution_from_name

    res = resolution_from_name(resolution)
    op = assemble_boundary(res, degree + 1, radius)
    x = np.zeros(op.codomain.dim)
    x[op.codomain.index_of(0, res.group.identity)] = 1.0
    return op.matrix, x


def orthogonal_residual(T: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x minus its projection onto the column space of T, by SVD."""
    U, s, _ = np.linalg.svd(T, full_matrices=False)
    rank = int(np.sum(s > RANK_RTOL * s[0])) if s.size else 0
    basis = U[:, :rank]
    return x - basis @ (basis.T @ x)


def dual_lower_bound(y: np.ndarray, x: np.ndarray, p: float) -> float:
    """<y, x> / ||y||_q, a lower bound on every p-distance when T^t y = 0."""
    q = p / (p - 1.0)
    return float(y @ x) / float(np.sum(np.abs(y) ** q) ** (1.0 / q))


class CurveReferences:
    """Orthogonal residuals per (resolution, degree, radius), computed once."""

    def __init__(self):
        self._cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def residual(self, resolution: str, degree: int, radius: int):
        key = (resolution, degree, radius)
        if key not in self._cache:
            T, x = curve_operator(resolution, degree, radius)
            self._cache[key] = (orthogonal_residual(T, x), x)
        return self._cache[key]


def _radii(text: str) -> list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def _curve_values(cfg: dict, text: str):
    """{(p, R): value} from a curve CSV, or a reason it is malformed."""
    values = {}
    for row in _rows(text):
        value = float(row["value"])
        if not math.isfinite(value) or value < 0:
            return f"value {row['value']} at p={row['p']} R={row['index']} is not a distance"
        values[(float(row["p"]), int(row["index"]))] = value
    expected = {(float(p), r) for p in str(cfg["p"]).split(",")
                for r in _radii(str(cfg["R"]))}
    if set(values) != expected:
        return f"rows cover {sorted(values)}, expected {sorted(expected)}"
    return values


def check_curve(cfg: dict, text: str, committed: str | None,
                refs: CurveReferences) -> str | None:
    values = _curve_values(cfg, text)
    if isinstance(values, str):
        return values
    ceiling = {}
    if committed is not None:
        ceiling = {(float(row["p"]), int(row["index"])): float(row["value"])
                   for row in _rows(committed)}
    degree = int(cfg["degree"])
    for (p, radius), value in sorted(values.items()):
        if p == 2.0:
            y, _ = refs.residual(cfg["resolution"], degree, radius)
            ref = float(np.linalg.norm(y))
            if abs(value - ref) > P2_ABS_TOL * max(1.0, ref):
                return (f"p=2 value {value!r} at R={radius} differs from the "
                        f"SVD reference {ref!r}")
        elif (p, radius) in ceiling:
            bound = ceiling[(p, radius)] * (1.0 + IRLS_REL_TOL)
            if value > bound:
                return (f"p={p:g} value {value!r} at R={radius} exceeds the "
                        f"committed value {ceiling[(p, radius)]!r} by more "
                        f"than {IRLS_REL_TOL:.0%}")
    return None


def dual_gaps(cfg: dict, text: str, refs: CurveReferences) -> list[str]:
    """p != 2 values that read below the dual certificate <y,x>/||y||_q.

    No feasible point has a smaller p-norm, so such a value was computed from
    coefficients large enough to lose precision.  Reported, not gated.
    """
    values = _curve_values(cfg, text)
    if isinstance(values, str):
        return []
    found = []
    for (p, radius), value in sorted(values.items()):
        if p == 2.0:
            continue
        y, x = refs.residual(cfg["resolution"], int(cfg["degree"]), radius)
        lower = dual_lower_bound(y, x, p)
        if value < lower * (1.0 - 1e-9):
            found.append(f"p={p:g} R={radius}: {value:.9g} < {lower:.9g}")
    return found


def check_verify_all(text: str) -> str | None:
    from lplab.checks import ALL_CHECKS

    lines = [line for line in text.splitlines() if line.strip()]
    failing = [line for line in lines if not line.rstrip().endswith("PASS")]
    if failing:
        return f"check failed: {failing[0].strip()}"
    if len(lines) != len(ALL_CHECKS):
        return f"expected {len(ALL_CHECKS)} check lines, got {len(lines)}"
    return None


def check_op(op: Op, outputs: dict[str, str], seed: int,
             refs: CurveReferences) -> str | None:
    """Gate one op from its output files (by name) and captured stdout."""
    if op.cfg is None:
        return check_verify_all(outputs["stdout"])
    text = outputs.get(f"{op.name}.csv")
    if text is None:
        return "no CSV written"
    committed = committed_table(op, seed)
    if op.experiment == "verify-homotopy":
        return check_homotopy(op.cfg, text)
    if op.experiment == "class-sum-homotopy":
        return check_class_sum(op.cfg, text, committed)
    return check_curve(op.cfg, text, committed, refs)
