"""Truncated boundary operators, the evaluation pairing, and duality checks.

Run as: python3 demos/04_duality_and_pairing.py
"""

import numpy as np

from lplab import (
    TruncatedSpace,
    Vector,
    annihilator_residual,
    assemble_boundary,
    conjugate_exponent,
    dual_boundary,
    group_from_name,
    pairing,
    resolution_from_name,
    translate,
)
from lplab.checks import adjoint_gap

print("=" * 64)
print("Assembled boundaries grow the codomain ball; nothing is clipped")
print("=" * 64)

res = resolution_from_name("cyclic-inf")
op = assemble_boundary(res, 1, 1)
print(f"boundary over Z^1 at R=1: {op.domain.dim} -> {op.codomain.dim} "
      f"(radius 1 -> {op.codomain.radius})")
print("matrix (rows = target ball, columns = source ball):")
print(op.matrix)

inner = assemble_boundary(resolution_from_name("lattice:2"), 2, 2)
outer = assemble_boundary(resolution_from_name("lattice:2"), 1,
                          inner.codomain.radius)
print(f"composite of consecutive boundaries is exactly zero: "
      f"{bool(np.all(outer.matrix @ inner.matrix == 0.0))}")

print()
print("The dual operator is the transpose, and duality is numerically tight:")
dual = dual_boundary(res, 1, 3)
print(f"dual shape {dual.matrix.shape}; adjointness gap on random vectors:")
rng = np.random.default_rng(0)
op3 = assemble_boundary(res, 1, 3)
gaps = []
for _ in range(200):
    x = rng.standard_normal(op3.domain.dim)
    y = rng.standard_normal(op3.codomain.dim)
    gaps.append(adjoint_gap(op3.matrix, x, y)[0])
print(f"  max over 200 draws: {max(gaps):.3e}")

print()
print("Pairing bound |b(y, x)| <= |y|_q |x|_p on random draws:")
plane = group_from_name("Z^2")
space = TruncatedSpace(plane, 1, 3)
for p in (1.5, 2.0, 3.0):
    worst = 0.0
    for _ in range(500):
        x = Vector(space, rng.standard_normal(space.dim))
        y = Vector(space, rng.standard_normal(space.dim))
        worst = max(worst, abs(pairing(y, x))
                    / (y.norm(conjugate_exponent(p)) * x.norm(p)))
    print(f"  p={p}: max ratio {worst:.4f} (never above 1)")

print()
print("Translation permutes coefficients, so every p-norm is preserved:")
space = TruncatedSpace(plane, 1, 2)
x = Vector(space, rng.standard_normal(space.dim))
moved = translate(x, plane.element((1, 1)))
print(f"  before {x.norm(1.5):.12f}, after {moved.norm(1.5):.12f}")

print()
print("Kernel of the transpose annihilates the image (rank-revealing bases):")
for name, i, radius in (("cyclic-inf", 1, 3), ("cyclic:4:2", 1, 4),
                        ("cyclic:4:2", 2, 4)):
    value = annihilator_residual(resolution_from_name(name), i, radius)
    print(f"  {name} boundary {i} at R={radius}: residual {value:.3e}")
