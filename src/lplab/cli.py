"""Batch experiment driver: flat key=value configs in, CSV and SVG out.

One config file describes one experiment.  Runs are deterministic: a fixed
seed reproduces every output byte for byte.  Exit codes: 0 on success, 2 when
a structural invariant fails while running, 3 for configuration errors,
among them a config that cannot be read and an output that cannot be
written.
Float modules are imported inside the float runners, so ``list`` and the
exact experiments never load numpy or scipy.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from random import Random
from typing import TYPE_CHECKING

from .groups import (DEFAULT_BALL_CAP, GROUP_CATALOG, BallCapError, Group,
                     InvariantViolation, group_from_name)
from .group_ring import (
    DEFAULT_CLASS_CAP,
    RingElement,
    conjugacy_class,
    format_ring_element,
    parse_ring_element,
)
from .resolutions import (
    BAR_DEGREE_CAP,
    RESOLUTION_CATALOG,
    relator_words,
    resolution_from_name,
    validate,
)
from .homotopy import (ResidualForm, random_cochain, require_central,
                       zero_cochain)
from . import checks

if TYPE_CHECKING:
    from .vanishing import DecayCurve

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_CONFIG = 3

DECAY_HEADER = ["experiment", "group", "resolution", "degree", "p", "index_kind",
                "index", "value", "iterations", "converged"]
DISTANCE_HEADER = DECAY_HEADER + ["lower"]
HOMOTOPY_HEADER = ["group", "h_or_class", "degree", "R", "residual_num",
                   "residual_den"]
RESOLUTION_HEADER = ["resolution", "group", "check", "index", "ok", "detail"]
ADJOINTNESS_HEADER = ["group", "resolution", "degree", "R", "nonzeros"]
FINITE_HOMOLOGY_HEADER = ["group", "n", "N", "p", "degree", "dimension"]
FINITE_INDEX_HEADER = ["n", "m", "p", "degree", "dim_full", "dim_subgroup",
                       "equal"]

_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                "#8c564b")


class ConfigError(ValueError):
    """A config file names something unknown or inconsistent."""


def fmt_float(value: float) -> str:
    return f"{float(value):.17g}"


def fmt_bool(value: bool) -> str:
    return "true" if value else "false"


# -- config parsing ---------------------------------------------------------------

_KNOWN_KEYS = (
    "experiment", "group", "resolution", "degree", "p", "R", "indices", "x",
    "y", "h", "class", "n", "m", "N", "count", "seed", "output", "max_ball",
    "max_iter", "radius", "cap",
)


def parse_config(path: str | Path) -> dict[str, str]:
    cfg: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in cfg:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
        cfg[key] = value.strip()
    if "experiment" not in cfg:
        raise ConfigError(f"{path}: missing required key 'experiment'")
    return cfg


def _int_list(text: str, field: str) -> list[int]:
    """Parse "1..8" or "1,2,3" (ranges are inclusive)."""
    text = text.strip()
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError
            values = list(range(lo_i, hi_i + 1))
        else:
            values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"field {field}: cannot parse integer list {text!r}") \
            from None
    if not values:
        raise ConfigError(f"field {field}: empty list")
    return values


@contextmanager
def _field(key: str):
    """Report a ValueError raised inside as a config error on field key; a
    ConfigError passes through unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"field {key}: {exc}") from None


def _require(cfg: dict, key: str) -> str:
    if key not in cfg:
        raise ConfigError(f"field {key}: required for experiment "
                          f"{cfg.get('experiment')!r}")
    return cfg[key]


def _int_field(cfg: dict, key: str, default=None, *, low=None,
               high=None) -> int:
    """Field key as an integer within the inclusive bounds low and high; a
    field without a default is required."""
    text = _require(cfg, key) if default is None else cfg.get(key, default)
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"field {key}: not an integer: {text!r}") from None
    if high is not None and not low <= value <= high:
        raise ConfigError(f"field {key}: must lie in {low}..{high}, got {value}")
    if low is not None and value < low:
        raise ConfigError(f"field {key}: must be at least {low}, got {value}")
    return value


def _p_list(cfg: dict) -> list[float]:
    text = cfg.get("p", "2")
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"field p: cannot parse number list {text!r}") \
            from None
    if not values:
        raise ConfigError("field p: empty list")
    for p in values:
        if not 1.0 < p < math.inf:
            raise ConfigError(f"field p: p must exceed 1 and be finite, got {p}")
    return values


def _ball_cap(cfg: dict) -> int:
    """The max_ball field: the ball cap a run assigns on each group it
    builds."""
    return _int_field(cfg, "max_ball", DEFAULT_BALL_CAP, low=1)


def _group(cfg: dict):
    name, cap = _require(cfg, "group"), _ball_cap(cfg)
    with _field("group"):
        group = group_from_name(name)
    group.ball_cap = cap
    return group


def _resolution(cfg: dict):
    name, cap = _require(cfg, "resolution"), _ball_cap(cfg)
    with _field("resolution"):
        res = resolution_from_name(name)
    res.group.ball_cap = cap
    return res


# -- output writers ----------------------------------------------------------------


def _atomic_write(path: Path, data: str):
    """Write data to path through a temporary sibling, which a failed
    replace removes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(data, encoding="utf-8")
    try:
        os.replace(tmp, path)
    except OSError:
        tmp.unlink()
        raise


def write_csv(path: Path, header: list[str], rows: list[list[str]]):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buffer.getvalue())


def svg_line_plot(series: list[tuple[str, list[tuple[float, float]]]],
                  title: str, xlabel: str, ylabel: str) -> str:
    """Self-contained polyline plot: one line per series, fixed palette."""
    width, height = 640, 420
    left, right, top, bottom = 70, 150, 40, 50
    xs = [pt[0] for _, pts in series for pt in pts]
    ys = [pt[1] for _, pts in series for pt in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def sy(y: float) -> float:
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" '
        f'stroke="black"/>',
        f'<text x="{(left + width - right) // 2}" y="{height - 12}" '
        f'text-anchor="middle" font-family="monospace" font-size="12">'
        f'{xlabel}</text>',
        f'<text x="18" y="{(top + height - bottom) // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 18 {(top + height - bottom) // 2})">'
        f'{ylabel}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x_val = x_lo + frac * (x_hi - x_lo)
        y_val = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{sx(x_val):.2f}" y="{height - bottom + 16}" '
            f'text-anchor="middle" font-family="monospace" font-size="10">'
            f'{x_val:.4g}</text>')
        parts.append(
            f'<text x="{left - 6}" y="{sy(y_val):.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{y_val:.4g}</text>')
    for k, (label, pts) in enumerate(series):
        color = _SVG_PALETTE[k % len(_SVG_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        y_leg = top + 14 * (k + 1)
        parts.append(f'<line x1="{width - right + 8}" y1="{y_leg - 4}" '
                     f'x2="{width - right + 28}" y2="{y_leg - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - right + 32}" y="{y_leg}" '
                     f'font-family="monospace" font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def curve_table(curve: DecayCurve) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a curve's CSV.  Distance rows carry a dual bound,
    written as a final `lower` column; pairing rows carry none."""
    with_lower = any(row.lower is not None for row in curve.rows)
    rows = []
    for row in curve.rows:
        cells = [curve.experiment, curve.group, curve.resolution,
                 str(curve.degree), fmt_float(row.p), row.index_kind,
                 str(row.index), fmt_float(row.value), str(row.iterations),
                 fmt_bool(row.converged)]
        if with_lower:
            cells.append(fmt_float(row.lower))
        rows.append(cells)
    return (DISTANCE_HEADER if with_lower else DECAY_HEADER), rows


def _write_curve(curve: DecayCurve, out_path: Path, xlabel: str):
    """Write the curve's CSV to out_path and its plot beside it as .svg; a
    plot that cannot be written removes the CSV, so a failed run leaves
    neither file."""
    write_csv(out_path, *curve_table(curve))
    series = {}
    for row in curve.rows:
        series.setdefault(f"p={row.p:g}", []).append((float(row.index), row.value))
    svg = svg_line_plot(sorted(series.items()),
                        f"{curve.experiment} {curve.group}", xlabel, "value")
    try:
        _atomic_write(out_path.with_suffix(".svg"), svg)
    except OSError:
        out_path.unlink()
        raise


# -- experiment runners ---------------------------------------------------------


def _run_verify_resolutions(cfg: dict, out_path: Path):
    cap = _ball_cap(cfg)
    rows = []
    failures = 0
    for name in checks.CATALOG_RESOLUTIONS:
        res = resolution_from_name(name)
        res.group.ball_cap = cap
        report = validate(res)
        for check in report.checks:
            rows.append([name, res.group.name, check.name, str(check.index),
                         fmt_bool(check.ok), check.detail])
            failures += 0 if check.ok else 1
    for gname in checks.FOX_GROUPS:
        group = group_from_name(gname)
        group.ball_cap = cap
        for idx, word in enumerate(relator_words(group)):
            defect = checks.fox_defect(group, word)
            ok = defect.is_zero()
            rows.append([f"fox:{gname}", group.name, "fox_identity", str(idx),
                         fmt_bool(ok), "" if ok else str(defect)])
            failures += 0 if ok else 1
    write_csv(out_path, RESOLUTION_HEADER, rows)
    if failures:
        raise InvariantViolation(f"{failures} resolution checks failed")


def _central_multiplier(cfg: dict, group: Group) -> tuple[list, str]:
    """verify-homotopy's multiplier: field h, which must be central, or the
    group's declared central element."""
    if "h" in cfg:
        with _field("h"):
            h = group.parse_element(cfg["h"])
            require_central(h)
    elif group.central_element is None:
        raise ConfigError(
            f"field h: required for {group.name} (no declared central element)")
    else:
        h = group.central_element
    return [h], str(h)


def _class_multipliers(cfg: dict, group: Group) -> tuple[frozenset, str]:
    """class-sum-homotopy's multipliers: the finite conjugacy class of field
    class, labelled by its class sum."""
    cap = _int_field(cfg, "cap", DEFAULT_CLASS_CAP, low=1)
    with _field("class"):
        representative = group.parse_element(_require(cfg, "class"))
    orbit = conjugacy_class(representative, cap)
    if orbit is None:
        raise ConfigError(
            f"field class: conjugacy class of {representative} is not finite "
            f"within cap {cap}")
    return orbit, "class:" + format_ring_element(
        RingElement(group, [(g, 1) for g in orbit]))


def _run_homotopy_scan(cfg: dict, out_path: Path, default_count: int,
                       multipliers_of):
    """Residual rows of the homotopy identity for count random cochains.  A
    single multiplier is central (a class of one element commutes with every
    conjugator), so its residual must vanish; a larger class is measured.

    A form with no surviving rows certifies residual 0 for every cochain, so
    then nothing is drawn from the seed and each of the count rows evaluates
    the zero cochain, which reads 0/1."""
    group = _group(cfg)
    degree = _int_field(cfg, "degree", 1, low=1, high=BAR_DEGREE_CAP)
    radius = _int_field(cfg, "R", 3, low=0)
    count = _int_field(cfg, "count", default_count, low=1)
    seed = _int_field(cfg, "seed", 0)
    multipliers, label = multipliers_of(cfg, group)
    form = ResidualForm(group, degree, radius, multipliers)
    rng = Random(seed)
    rows = []
    worst = 0
    for _ in range(count):
        phi = (random_cochain(group, degree, radius, rng) if form.rows
               else zero_cochain(group, degree, radius))
        residual = form.evaluate(phi).max_abs
        rows.append([group.name, label, str(degree), str(radius),
                     str(residual.numerator), str(residual.denominator)])
        worst = max(worst, residual)
    write_csv(out_path, HOMOTOPY_HEADER, rows)
    if len(multipliers) == 1 and worst != 0:
        raise InvariantViolation(
            f"homotopy residual must vanish for central {label}, got {worst}")


def _run_verify_homotopy(cfg: dict, out_path: Path):
    _run_homotopy_scan(cfg, out_path, 5, _central_multiplier)


def _run_class_sum_homotopy(cfg: dict, out_path: Path):
    _run_homotopy_scan(cfg, out_path, 3, _class_multipliers)


def _run_pairing_adjointness(cfg: dict, out_path: Path):
    """The dual of boundary degree at radius R checked against the
    coboundary, entry for entry; the row counts the nonzeros compared."""
    res = _resolution(cfg)
    degree = _int_field(cfg, "degree", 1, low=1, high=res.length)
    radius = _int_field(cfg, "R", 3, low=0)
    nonzeros = checks.check_dual_is_coboundary(res, degree, radius)
    write_csv(out_path, ADJOINTNESS_HEADER, [[
        res.group.name, res.name, str(degree), str(radius), str(nonzeros)]])


def _parse_ring_parts(cfg: dict, key: str, group, rank: int):
    if key not in cfg:
        parts = [RingElement.one(group)]
        parts.extend(RingElement.zero(group) for _ in range(rank - 1))
        return parts
    pieces = [piece.strip() for piece in cfg[key].split(";")]
    if len(pieces) != rank:
        raise ConfigError(
            f"field {key}: expected {rank} part(s) separated by ';', got "
            f"{len(pieces)}")
    with _field(key):
        return [parse_ring_element(group, piece) for piece in pieces]


def _run_distance_curve(cfg: dict, out_path: Path):
    from .lp_complex import (TruncatedSpace, boundary_growth,
                             vector_from_ring_parts)
    from .vanishing import boundary_distance_curve

    res = _resolution(cfg)
    degree = _int_field(cfg, "degree", 0, low=0, high=res.length - 1)
    radii = _int_list(_require(cfg, "R"), "R")
    if min(radii) < 0:
        raise ConfigError(f"field R: radii must be nonnegative, got {min(radii)}")
    if any(later < earlier for earlier, later in zip(radii, radii[1:])):
        raise ConfigError("field R: radii must be nondecreasing")
    p_values = _p_list(cfg)
    max_iter = _int_field(cfg, "max_iter", 500, low=1)
    # the chain is fixed, so a seed changes no output; it is only checked
    _int_field(cfg, "seed", 0)
    x_parts = _parse_ring_parts(cfg, "x", res.group, res.ranks[degree])
    # the same chain is embedded in the codomain ball at every radius, so it
    # must fit the one of the smallest, first radius
    reach = radii[0] + boundary_growth(res, degree + 1)
    space = TruncatedSpace(res.group, res.ranks[degree], reach)
    with _field("x"):
        vector_from_ring_parts(space, x_parts)
    curve = boundary_distance_curve(res, degree, x_parts, p_values, radii,
                                    max_iterations=max_iter)
    _write_curve(curve, out_path, "R")


def _run_translation_decay(cfg: dict, out_path: Path):
    import numpy as np
    from .lp_complex import TruncatedSpace, Vector, vector_from_ring_parts
    from .vanishing import central_catalog, translation_pairing_decay

    group = _group(cfg)
    radius = _int_field(cfg, "radius", 4, low=0)
    seed = _int_field(cfg, "seed", 0, low=0)
    indices = _int_list(_require(cfg, "indices"), "indices")
    with _field("group"):
        sequence = central_catalog(group, max(1, *(abs(i) for i in indices)))
    if sequence.kind == "class-sums" and min(indices) < 0:
        raise ConfigError("field indices: class-sum indices must be >= 0")
    p_values = _p_list(cfg)
    space = TruncatedSpace(group, 1, radius)
    rng = np.random.default_rng(seed)
    vectors = []
    for key in ("x", "y"):
        if key in cfg:
            with _field(key):
                vectors.append(vector_from_ring_parts(
                    space, _parse_ring_parts(cfg, key, group, 1)))
        else:
            vectors.append(Vector(space, rng.standard_normal(space.dim)))
    x, y = vectors
    # the pairing does not depend on p: compute it once, label it per p
    curve = translation_pairing_decay(y, x, sequence, indices, p_values[0])
    _write_curve(replace(curve, rows=tuple(
        replace(row, p=p) for p in p_values for row in curve.rows)),
        out_path, "translation index")


def _run_finite_homology(cfg: dict, out_path: Path):
    from .vanishing import finite_group_homology_ranks

    n = _int_field(cfg, "n", low=2)
    length = _int_field(cfg, "N", 3, low=1)
    p_values = _p_list(cfg)
    dims = finite_group_homology_ranks(n, length)
    rows = [[f"cyclic:{n}", str(n), str(length), fmt_float(p), str(degree),
             str(dim)]
            for p in p_values for degree, dim in enumerate(dims)]
    write_csv(out_path, FINITE_HOMOLOGY_HEADER, rows)


def _run_finite_index(cfg: dict, out_path: Path):
    from .vanishing import finite_index_compare

    n = _int_field(cfg, "n", low=2)
    m = _int_field(cfg, "m", low=2)
    length = _int_field(cfg, "N", 3, low=1)
    p_values = _p_list(cfg)
    with _field("m"):
        report = finite_index_compare(n, m, length=length)
    if not report.equal:
        raise InvariantViolation(
            f"dimensions differ between cyclic:{n} and cyclic:{m}")
    rows = [[str(n), str(m), fmt_float(p), str(degree),
             str(report.dims_group[degree]), str(report.dims_subgroup[degree]),
             fmt_bool(report.equal)]
            for p in p_values for degree in range(length + 1)]
    write_csv(out_path, FINITE_INDEX_HEADER, rows)


_HOMOTOPY_KEYS = ("group", "max_ball", "degree", "R", "count", "seed")

# Each experiment's runner and the keys it reads besides experiment and
# output; a config that gives it any other key is a config error.  The
# finite experiments build their groups inside the computation, where no
# ball cap reaches, so they take no max_ball.
_RUNNERS = {
    "verify-resolutions": (_run_verify_resolutions, ("max_ball",)),
    "verify-homotopy": (_run_verify_homotopy, _HOMOTOPY_KEYS + ("h",)),
    "class-sum-homotopy": (_run_class_sum_homotopy,
                           _HOMOTOPY_KEYS + ("class", "cap")),
    "pairing-adjointness": (_run_pairing_adjointness,
                            ("resolution", "max_ball", "degree", "R")),
    "distance-curve": (_run_distance_curve,
                       ("resolution", "max_ball", "degree", "R", "p",
                        "max_iter", "x", "seed")),
    "translation-decay": (_run_translation_decay,
                          ("group", "max_ball", "radius", "seed", "indices",
                           "p", "x", "y")),
    "finite-homology": (_run_finite_homology, ("n", "N", "p")),
    "finite-index": (_run_finite_index, ("n", "m", "N", "p")),
}


def run_config(path: str | Path) -> Path:
    """Execute one experiment config; returns the CSV output path."""
    cfg = parse_config(path)
    experiment = cfg["experiment"]
    if experiment not in _RUNNERS:
        raise ConfigError(
            f"field experiment: unknown experiment {experiment!r}; choose one "
            f"of {', '.join(_RUNNERS)}")
    runner, keys = _RUNNERS[experiment]
    for key in cfg:
        if key not in ("experiment", "output", *keys):
            raise ConfigError(f"field {key}: not read by experiment "
                              f"{experiment!r}")
    out_path = Path(cfg.get("output", f"{experiment}.csv"))
    runner(cfg, out_path)
    return out_path


def list_catalog() -> str:
    lines = []
    for heading, catalog in (("groups", GROUP_CATALOG),
                             ("resolutions", RESOLUTION_CATALOG)):
        lines.append(f"{heading}:")
        lines.extend(f"  {entry.form:<18} {entry.description}"
                     for entry in catalog)
    lines.append("experiments:")
    lines.extend(f"  {name}" for name in _RUNNERS)
    lines.append("config keys: " + " ".join(_KNOWN_KEYS))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="run catalog verifications and vanishing experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run one or more experiment configs")
    run_parser.add_argument("configs", nargs="+", help="key=value config files")
    sub.add_parser("list", help="print the group/resolution/experiment catalog")
    sub.add_parser("verify-all", help="run every invariant suite")
    args = parser.parse_args(argv)

    if args.command == "list":
        print(list_catalog())
        return EXIT_OK
    if args.command == "verify-all":
        outcomes = checks.run_all()
        return EXIT_OK if all(o.ok for o in outcomes) else EXIT_INVARIANT
    status = EXIT_OK
    for config_path in args.configs:
        try:
            out = run_config(config_path)
            print(f"{config_path}: wrote {out}")
        except (ConfigError, OSError, UnicodeDecodeError) as exc:
            # a config that cannot be read or an output that cannot be
            # written is the config's fault
            print(f"{config_path}: config error: {exc}", file=sys.stderr)
            status = max(status, EXIT_CONFIG)
        except (InvariantViolation, BallCapError) as exc:
            print(f"{config_path}: invariant failure: {exc}", file=sys.stderr)
            status = max(status, EXIT_INVARIANT)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
