"""Partial free resolutions of the trivial module over catalog group rings.

A resolution is stored as explicit boundary matrices with group-ring entries.
Basis coefficients act from the left, so the composite of two boundaries has
entries sum_b inner[b][c] * outer[a][b]; the factor order matters over
noncommutative group rings and is what makes the free-differential identity
close the complexes built from presentations.

validate() checks the complex property (vanishing composites) and that every
degree-one entry has augmentation zero; exactness of the catalog resolutions
holds by construction and is not machine-checked.

`RESOLUTION_CATALOG` holds one row per resolution name form (its `lab list`
description, pattern and constructor).  A `fox:` resolution is built from the
relators its group class declares, read once by `relator_words` through
`parse_word`, which evaluates the pieces of `groups.word_pieces` in the free
group on the generator labels, whose normal form is the freely reduced word;
nothing here depends on the group's kind.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

from .groups import (
    BallCapError,
    CatalogEntry,
    CyclicGroup,
    FreeGroup,
    Group,
    GroupElement,
    LatticeGroup,
    evaluate_word,
    from_catalog,
    group_from_name,
    word_pieces,
)
from .group_ring import RingElement

BAR_DEGREE_CAP = 3

Matrix = tuple[tuple[RingElement, ...], ...]
Word = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Resolution:
    """Free ranks plus boundary matrices; boundary(i) maps rank i to rank i-1."""

    group: Group
    name: str
    ranks: tuple[int, ...]
    boundaries: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.ranks) != len(self.boundaries) + 1:
            raise ValueError("ranks must have one more entry than boundaries")
        for i, mat in enumerate(self.boundaries, start=1):
            rows, cols = self.ranks[i - 1], self.ranks[i]
            if len(mat) != rows or any(len(row) != cols for row in mat):
                raise ValueError(f"boundary {i} has the wrong shape")

    @property
    def length(self) -> int:
        return len(self.boundaries)

    def boundary(self, i: int) -> Matrix:
        if not 1 <= i <= self.length:
            raise ValueError(f"boundary index {i} out of range 1..{self.length}")
        return self.boundaries[i - 1]


@dataclass(frozen=True)
class CheckResult:
    name: str
    index: int
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    checks: tuple[CheckResult, ...]

    @property
    def first_failure(self) -> CheckResult | None:
        return next((check for check in self.checks if not check.ok), None)


def compose_boundary_matrices(outer: Matrix, inner: Matrix, group: Group) -> Matrix:
    """Entries of (outer boundary) applied after (inner boundary).

    With left coefficient action, the composite on a basis column c is
    sum_b inner[b][c] * outer[a][b] in slot a.
    """
    rows = len(outer)
    mid = len(inner)
    if any(len(row) != mid for row in outer):
        raise ValueError("boundary shapes do not compose")
    cols = len(inner[0]) if inner else 0
    out = []
    for a in range(rows):
        row = []
        for c in range(cols):
            entry = RingElement.zero(group)
            for b in range(mid):
                entry = entry + inner[b][c] * outer[a][b]
            row.append(entry)
        out.append(tuple(row))
    return tuple(out)


def validate(res: Resolution) -> ValidationReport:
    """Check all composites vanish and degree-one entries have augmentation
    zero; a failed check's detail names its first bad entry, in row-major
    order."""
    checks: list[CheckResult] = []
    for i in range(1, res.length):
        composite = compose_boundary_matrices(res.boundary(i), res.boundary(i + 1),
                                              res.group)
        bad = next((f"composite of boundaries {i} and {i + 1} is nonzero at "
                    f"({a},{c}): {entry}"
                    for a, row in enumerate(composite)
                    for c, entry in enumerate(row) if not entry.is_zero()), "")
        checks.append(CheckResult("boundary_composition", i, not bad, bad))
    if res.length >= 1:
        augmentations = (entry.augment() for entry in res.boundary(1)[0])
        bad = next((f"degree-1 entry {j} has augmentation {aug}"
                    for j, aug in enumerate(augmentations) if aug != 0), "")
        checks.append(CheckResult("augmentation", 1, not bad, bad))
    ok = all(c.ok for c in checks)
    return ValidationReport(ok, tuple(checks))


# -- catalog resolutions -------------------------------------------------------


def cyclic_infinite_resolution() -> Resolution:
    """The two-term resolution over the infinite cyclic group, boundary
    t - 1: the rank-1 lattice resolution under its own name."""
    return replace(lattice_resolution(1), name="cyclic-inf")


def periodic_cyclic_resolution(n: int, length: int) -> Resolution:
    """Period-two resolution over a finite cyclic group.

    Odd boundaries are t - 1, even boundaries the norm element
    1 + t + ... + t^(n-1); all ranks are 1.
    """
    if n < 2:
        raise ValueError(f"cyclic order must be at least 2, got {n}")
    if length < 1:
        raise ValueError(f"resolution length must be at least 1, got {length}")
    group = CyclicGroup(n)
    t = group.generators[0]
    minus = RingElement.from_element(t) - RingElement.one(group)
    norm = RingElement(group, [(t ** k, Fraction(1)) for k in range(n)])
    boundaries = tuple(((minus if i % 2 == 1 else norm,),)
                       for i in range(1, length + 1))
    return Resolution(group, f"cyclic:{n}:{length}", (1,) * (length + 1), boundaries)


def lattice_resolution(d: int) -> Resolution:
    """Tensor-product resolution over the rank-d lattice, length d.

    Degree-i basis vectors are the i-element subsets S of {1..d}; the boundary
    sends e_S to sum over j in S of sign(j, S) (t_j - 1) e_(S minus j) with
    sign(j, S) = (-1)^(number of i in S below j).
    """
    if not 1 <= d <= 3:
        raise ValueError(f"lattice resolution supports 1 <= d <= 3, got {d}")
    group = LatticeGroup(d)
    gens = group.generators
    bases = [list(combinations(range(1, d + 1), i)) for i in range(d + 1)]
    boundaries = []
    for i in range(1, d + 1):
        rows = {S: r for r, S in enumerate(bases[i - 1])}
        mat = [[RingElement.zero(group) for _ in bases[i]] for _ in bases[i - 1]]
        for c, S in enumerate(bases[i]):
            for j in S:
                smaller = tuple(x for x in S if x != j)
                sign = (-1) ** sum(1 for x in S if x < j)
                entry = RingElement.from_element(gens[j - 1]) - RingElement.one(group)
                mat[rows[smaller]][c] = entry.scale(sign)
        boundaries.append(tuple(tuple(row) for row in mat))
    ranks = tuple(len(b) for b in bases)
    return Resolution(group, f"lattice:{d}", ranks, tuple(boundaries))


# -- relators and the free differential calculus -------------------------------


def parse_word(text: str, labels: tuple[str, ...]) -> Word:
    """Parse "x*y*x^-1*y^-1" into freely reduced letters over the given
    labels: the word's normal form in the free group on them, read back as
    letters (label index, +1 or -1)."""
    key = evaluate_word(FreeGroup(len(labels)), word_pieces(text, labels)).key
    return tuple((abs(letter) - 1, 1 if letter > 0 else -1) for letter in key)


def relator_words(group: Group) -> tuple[Word, ...]:
    """The relators the group's class declares, as freely reduced nonempty
    words of letters (generator index, +1 or -1)."""
    if group.relators is None:
        raise ValueError(f"no catalog presentation for group {group.name!r}")
    words = tuple(parse_word(text, group.generator_labels)
                  for text in group.relators)
    if not all(words):
        raise ValueError("relators must be nonempty words")
    return words


def fox_derivative(group: Group, word: Word, gen_index: int) -> RingElement:
    """Free derivative of a word with respect to one generator.

    Rules: d(x)/dx = 1, d(x^-1)/dx = -x^-1, d(uv)/dx = du/dx + u dv/dx, with
    prefixes evaluated in the target group.
    """
    gens = group.generators
    result = RingElement.zero(group)
    prefix = group.identity
    for idx, exp in word:
        if exp == 1:
            if idx == gen_index:
                result = result + RingElement.from_element(prefix)
            prefix = prefix * gens[idx]
        else:
            ginv = gens[idx].inverse()
            if idx == gen_index:
                result = result - RingElement.from_element(prefix * ginv)
            prefix = prefix * ginv
    return result


def fox_partial_resolution(group: Group) -> Resolution:
    """Length-2 partial resolution from the group's relators.

    Ranks are (1, k, m); the degree-1 entries are x_j - 1 and the degree-2
    entries are the free derivatives of the relators.  The identity
    sum_j (dr/dx_j)(x_j - 1) = r - 1 makes the composite vanish whenever each
    relator evaluates to the identity, which is checked and enforced.
    """
    words = relator_words(group)
    for word in words:
        value = evaluate_word(group, word)
        if not value.is_identity():
            raise ValueError(
                f"presentation mismatch: relator evaluates to {value} in {group.name}")
    gens = group.generators
    d1 = (tuple(RingElement.from_element(g) - RingElement.one(group) for g in gens),)
    d2 = tuple(tuple(fox_derivative(group, word, j) for word in words)
               for j in range(len(gens)))
    return Resolution(group, f"fox:{group.name}", (1, len(gens), len(words)),
                      (d1, d2))


# -- bar resolution slice -------------------------------------------------------


def bar_slice_ball(group: Group, degree: int, radius: int) -> list[GroupElement]:
    """The radius ball whose degree-fold product indexes the equivariant
    slice of the degree-n piece of the standard (bar) resolution: the tuples
    (1, x_1, ..., x_n) with every x_i in the ball, on which a cochain is
    determined.  The degree is checked, and the number of tuples,
    len(ball) ** degree, must stay within the group's ball_cap."""
    if not 0 <= degree <= BAR_DEGREE_CAP:
        raise ValueError(f"degree must lie in 0..{BAR_DEGREE_CAP}, got {degree}")
    ball = group.ball(radius)
    count = len(ball) ** degree
    if count > group.ball_cap:
        raise BallCapError(
            f"{count} bar tuples would exceed the cap of {group.ball_cap}")
    return ball


RESOLUTION_CATALOG = (
    CatalogEntry("cyclic-inf", "length 1 over Z^1, boundary t - 1",
                 "cyclic-inf", cyclic_infinite_resolution),
    CatalogEntry("cyclic:<n>:<N>", "period-two over cyclic:n, length N",
                 r"cyclic:(\d+):(\d+)",
                 lambda n, length: periodic_cyclic_resolution(int(n), int(length))),
    CatalogEntry("lattice:<d>", "tensor resolution over Z^d, d <= 3",
                 r"lattice:(\d+)",
                 lambda d: lattice_resolution(int(d))),
    CatalogEntry("fox:<group>", "length 2 from the catalog presentation",
                 r"fox:(.*)",
                 lambda group: fox_partial_resolution(group_from_name(group))),
)


def resolution_from_name(name: str) -> Resolution:
    """Resolve a catalog resolution name of a `RESOLUTION_CATALOG` form."""
    return from_catalog(RESOLUTION_CATALOG, "resolution", name)
