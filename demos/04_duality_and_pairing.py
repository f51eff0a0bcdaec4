"""Truncated boundary operators, the evaluation pairing, and the exact duality
check.

Run as: python3 demos/04_duality_and_pairing.py
"""

import numpy as np

from lplab import (
    TruncatedSpace,
    Vector,
    assemble_boundary,
    conjugate_exponent,
    group_from_name,
    pairing,
    resolution_from_name,
    translate,
)
from lplab.checks import check_dual_is_coboundary

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
print("The dual operator is the coboundary, the boundary read through g -> g^-1;")
print("its integer entries are compared exactly:")
for name, i, radius in (("cyclic-inf", 1, 3), ("cyclic:4:2", 1, 4),
                        ("cyclic:4:2", 2, 4), ("fox:dihedral-inf", 2, 3)):
    check_dual_is_coboundary(resolution_from_name(name), i, radius)
    print(f"  {name} boundary {i} at R={radius}: dual equals the coboundary")

print()
print("Hoelder's bound |b(y, x)| <= |y|_q |x|_p is attained by the norming")
print("functional y = sgn(x)|x|^(p-1), on which the l^p / l^q duality rests:")
rng = np.random.default_rng(0)
plane = group_from_name("Z^2")
space = TruncatedSpace(plane, 1, 3)
x = Vector(space, rng.standard_normal(space.dim))
for p in (1.5, 2.0, 3.0):
    y = Vector(space, np.sign(x.coefficients) * np.abs(x.coefficients) ** (p - 1))
    ratio = pairing(y, x) / (y.norm(conjugate_exponent(p)) * x.norm(p))
    print(f"  p={p}: b(y, x) / (|y|_q |x|_p) = {ratio:.12f}")

print()
print("Translation permutes coefficients, so every p-norm is preserved:")
space = TruncatedSpace(plane, 1, 2)
x = Vector(space, rng.standard_normal(space.dim))
moved = translate(x, plane.element((1, 1)))
print(f"  before {x.norm(1.5):.12f}, after {moved.norm(1.5):.12f}")
