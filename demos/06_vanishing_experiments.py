"""Numerical witnesses of vanishing: distance decay, translation decay,
finite-group ranks.  Writes CSV and SVG next to this script.

Run as: python3 demos/06_vanishing_experiments.py
"""

from pathlib import Path

import numpy as np

from lplab import (
    RingElement,
    TruncatedSpace,
    Vector,
    boundary_distance_curve,
    central_catalog,
    finite_group_homology_ranks,
    finite_index_compare,
    group_from_name,
    resolution_from_name,
    translation_pairing_decay,
)
from lplab.cli import curve_table, svg_line_plot, write_csv

OUT = Path(__file__).parent

print("=" * 64)
print("Distance from the point mass to the truncated boundary image")
print("=" * 64)
res = resolution_from_name("cyclic-inf")
one = RingElement.one(res.group)
curve = boundary_distance_curve(res, 0, [one], [1.5, 2.0, 3.0], range(1, 13))
for p in (1.5, 2.0, 3.0):
    values = [row.value for row in curve.rows if row.p == p]
    print(f"  p={p}: d(R) = " + ", ".join(f"{v:.4f}" for v in values))
print("  (p=2 obeys the closed form 1/sqrt(2R+2); all columns sink toward 0)")

free2 = resolution_from_name("fox:free:2")
control = boundary_distance_curve(free2, 0, [RingElement.one(free2.group)],
                                  [2.0], range(1, 5))
print("  free:2 control, p=2: " +
      ", ".join(f"{row.value:.4f}" for row in control.rows) +
      "  (no claim attached; reported as observed)")

write_csv(OUT / "distance_curve.csv", *curve_table(curve))
series = {}
for row in curve.rows:
    series.setdefault(f"p={row.p:g}", []).append((row.index, row.value))
(OUT / "distance_curve.svg").write_text(
    svg_line_plot(sorted(series.items()), "distance to boundary image", "R",
                  "distance"), encoding="utf-8")
print("  wrote distance_curve.csv and the matching SVG next to this script")

print()
print("=" * 64)
print("Pairing decay under translation along a central family")
print("=" * 64)
rng = np.random.default_rng(7)
lattice = group_from_name("Z^1")
space = TruncatedSpace(lattice, 1, 5)
x = Vector(space, rng.standard_normal(space.dim))
y = Vector(space, rng.standard_normal(space.dim))
decay = translation_pairing_decay(y, x, central_catalog(lattice, 1),
                                  range(0, 13), 2.0)
print("  Z^1, powers of t:", ", ".join(f"{row.value:+.3f}"
                                       for row in decay.rows))
print("  (exactly zero once supports separate, beyond index 10)")

dihedral = group_from_name("dihedral-inf")
d_space = TruncatedSpace(dihedral, 1, 4)
xd = Vector(d_space, rng.standard_normal(d_space.dim))
yd = Vector(d_space, rng.standard_normal(d_space.dim))
d_decay = translation_pairing_decay(yd, xd, central_catalog(dihedral, 12),
                                    range(1, 13), 2.0)
print("  dihedral class sums:", ", ".join(f"{row.value:+.3f}"
                                          for row in d_decay.rows))

print()
print("=" * 64)
print("Finite cyclic groups: dimensions collapse to 1, 0, ..., 0")
print("=" * 64)
print("  (the boundaries carry no exponent, so the ranks hold for every p)")
for n in (4, 6):
    print(f"  order {n}: {finite_group_homology_ranks(n, 3)}")
report = finite_index_compare(4, 2)
print(f"  order 4 versus its index-two subgroup: equal = {report.equal}")
