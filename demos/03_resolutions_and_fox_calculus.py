"""The resolution catalog and the free differential calculus.

Run as: python3 demos/03_resolutions_and_fox_calculus.py
"""

from lplab import (
    fox_derivative,
    group_from_name,
    lattice_resolution,
    relator_words,
    resolution_from_name,
    validate,
)
from lplab.checks import fox_defect
from lplab.resolutions import evaluate_word, parse_word

print("=" * 64)
print("Catalog resolutions and their validation reports")
print("=" * 64)

for name in ("cyclic-inf", "cyclic:4:4", "lattice:2", "lattice:3", "fox:Z^2",
             "fox:dihedral-inf", "fox:heisenberg"):
    res = resolution_from_name(name)
    report = validate(res)
    print(f"{name:<18} ranks {res.ranks}  complex-property: "
          f"{'ok' if report.ok else report.first_failure}")

print()
print("Degree-two boundary of the rank-two lattice (exterior signs):")
res = lattice_resolution(2)
for row in res.boundary(2):
    print("  [", ", ".join(str(entry) for entry in row), "]")

print()
print("Free derivatives of the commutator relator x y x^-1 y^-1 over Z^2:")
plane = res.group
word = parse_word("x*y*x^-1*y^-1", ("x", "y"))
for j, label in enumerate(("x", "y")):
    print(f"  d/d{label}: {fox_derivative(plane, word, j)}")

print()
print("The derivative identity closes every presentation complex:")
for group_name in ("dihedral-inf", "heisenberg", "S3"):
    group = group_from_name(group_name)
    for k, word in enumerate(relator_words(group)):
        holds = fox_defect(group, word).is_zero()
        # r - 1 is zero exactly when the relator evaluates to the identity
        rhs_zero = evaluate_word(group, word).is_identity()
        print(f"  {group_name} relator {k}: "
              f"sum_j (dr/dx_j)(x_j - 1) == r - 1 is {holds} "
              f"(both {'zero' if rhs_zero else 'nonzero'})")
