"""Tour of the group catalog: normal forms, products, and Cayley balls.

Run as: python3 demos/01_groups_and_balls.py
"""

from lplab import group_from_name
from lplab.checks import CHECK_GROUPS

print("=" * 64)
print("Catalog groups, their generators, and small balls")
print("=" * 64)

for name in CHECK_GROUPS:
    group = group_from_name(name)
    gens = ", ".join(f"{label}={g}" for label, g in
                     zip(group.generator_labels, group.generators))
    sizes = [len(group.ball(radius)) for radius in range(5)]
    print(f"{name:<14} generators: {gens}")
    print(f"{'':<14} ball sizes R=0..4: {sizes}")

print()
print("Exact normal forms make multiplication collision-free.")
heis = group_from_name("heisenberg")
x, y = heis.generators
print(f"Heisenberg: x*y = {x * y}, y*x = {y * x}  (they differ by the")
print(f"central commutator z = {(x * y) * (y * x).inverse()})")

z = heis.element((0, 0, 1))
print(f"z has word length {z.word_length()}: it needs a full commutator.")

dihedral = group_from_name("dihedral-inf")
r, s = dihedral.generators
print(f"Infinite dihedral: s*r = {s * r}, s*r*s = {s * r * s}")

print()
print("Balls are breadth-first and closed under inversion:")
lattice = group_from_name("Z^2")
print("Z^2 ball(1):", ", ".join(str(g) for g in lattice.ball(1)))
print("Z^2 ball(2) size:", len(lattice.ball(2)), "(= 2R^2 + 2R + 1 at R=2)")
