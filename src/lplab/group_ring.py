"""Exact group-ring arithmetic: convolution, the involution g -> g^-1,
augmentation, centers, class sums.

A ring element is a finitely supported map from group elements to rationals,
held in the group's interned form: integer numerators keyed by the element
ids of `group.table`, over one positive denominator.  The fraction is always
reduced and stores no zero numerator, so equal elements store equal data and
algebraic identities hold on the nose.  Convolution reads the table's cached
products.  Center membership is decided against the generators, which
suffices because the generators generate; conjugacy classes are grown by
orbit closure under a hard cap so that infinite classes terminate with a
definite answer.

Validation happens once, where values enter: the public constructors
(``RingElement(group, coeffs)``, ``one``, ``from_element``, parsing, class sums)
intern every support element through ``Group.intern``, which checks that it
belongs to the group, read an ``int`` or ``Fraction`` coefficient as its
integer numerator and denominator, and coerce any other coefficient once with
``Fraction``.  One integer path, ``_sum_terms``, sums (id, numerator,
denominator) terms over the lcm of their denominators; the constructor feeds
it the validated terms, and the sampled checks feed it their draws directly.
Arithmetic between validated elements checks only that both operands share a
ring and builds its result without checking each term again.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .groups import Group, GroupElement


class RingElement:
    """Finitely supported map from group elements to exact rationals:
    `numerators[id]` over `denominator` is the coefficient of the element
    with that id in `group.table`."""

    __slots__ = ("group", "numerators", "denominator")

    def __init__(self, group: Group, coeffs):
        """coeffs: (element, coefficient) pairs; repeated elements add up."""
        terms = []
        for g, c in coeffs:
            i = group.intern(g)
            if not isinstance(c, (int, Fraction)):
                c = Fraction(c)
            terms.append((i, c.numerator, c.denominator))
        self._reduce(group, *_sum_terms(terms))

    def _reduce(self, group: Group, numerators: dict[int, int], denominator: int):
        """Keep numerators over a positive denominator, without zeros and
        reduced by their common factor."""
        common = gcd(denominator, *numerators.values())
        if common != 1 or 0 in numerators.values():
            numerators = {i: c // common for i, c in numerators.items() if c}
            denominator //= common
        self.group = group
        self.numerators = numerators
        self.denominator = denominator

    @classmethod
    def _trusted(cls, group: Group, numerators: dict[int, int],
                 denominator: int) -> "RingElement":
        """Wrap numerators on ids of group over a positive denominator; the
        fraction is reduced here."""
        u = object.__new__(cls)
        u._reduce(group, numerators, denominator)
        return u

    @classmethod
    def zero(cls, group: Group) -> "RingElement":
        return cls._trusted(group, {}, 1)

    @classmethod
    def one(cls, group: Group) -> "RingElement":
        return cls(group, [(group.identity, 1)])

    @classmethod
    def from_element(cls, g: GroupElement, coeff=1) -> "RingElement":
        return cls(g.group, [(g, coeff)])

    def coefficient(self, g: GroupElement) -> Fraction:
        return Fraction(self.numerators.get(self.group.intern(g), 0),
                        self.denominator)

    def items_sorted(self) -> list[tuple[GroupElement, Fraction]]:
        """Support with coefficients, sorted by normal form for reproducibility."""
        elements = self.group.table.elements
        return sorted(((elements[i], Fraction(c, self.denominator))
                       for i, c in self.numerators.items()),
                      key=lambda item: item[0].key)

    def support_size(self) -> int:
        return len(self.numerators)

    def is_zero(self) -> bool:
        return not self.numerators

    def _merge(self, other: "RingElement", sign: int) -> "RingElement":
        """self + sign * other over the lcm of the denominators, without
        validating the terms of either operand again."""
        _require_same_group(self.group, other.group)
        denominator = lcm(self.denominator, other.denominator)
        mine = denominator // self.denominator
        theirs = sign * (denominator // other.denominator)
        out = (dict(self.numerators) if mine == 1
               else {i: c * mine for i, c in self.numerators.items()})
        get = out.get
        for i, c in other.numerators.items():
            out[i] = get(i, 0) + c * theirs
        return RingElement._trusted(self.group, out, denominator)

    def __add__(self, other: "RingElement") -> "RingElement":
        return self._merge(other, 1)

    def __neg__(self) -> "RingElement":
        return self.scale(-1)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self._merge(other, -1)

    def scale(self, factor) -> "RingElement":
        factor = Fraction(factor)
        return RingElement._trusted(
            self.group, {i: c * factor.numerator for i, c in self.numerators.items()},
            self.denominator * factor.denominator)

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return self.convolve(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def convolve(self, other: "RingElement") -> "RingElement":
        """Product extending group multiplication: (u*v)(g) = sum u(a) v(b) over ab = g."""
        _require_same_group(self.group, other.group)
        products = self.group.table.products
        out: dict[int, int] = {}
        get = out.get
        theirs = other.numerators.items()
        for a, ca in self.numerators.items():
            for b, cb in theirs:
                g = products[a, b]
                out[g] = get(g, 0) + ca * cb
        return RingElement._trusted(self.group, out,
                                    self.denominator * other.denominator)

    def star(self) -> "RingElement":
        """The involution u* = sum of c_g g^-1: additive, (uv)* = v* u*,
        u** = u, and it keeps the augmentation."""
        inverses = self.group.table.inverses
        return RingElement._trusted(
            self.group, {inverses[i]: c for i, c in self.numerators.items()},
            self.denominator)

    def augment(self) -> Fraction:
        """Sum of coefficients; a ring homomorphism onto the rationals."""
        return Fraction(sum(self.numerators.values()), self.denominator)

    def is_central(self) -> bool:
        """True iff this element commutes with every generator."""
        for gen in self.group.generators:
            d = RingElement.from_element(gen)
            if self * d != d * self:
                return False
        return True

    def max_word_length(self) -> int:
        """Largest word length in the support (0 for the zero element)."""
        lengths = self.group.table.lengths
        return max((lengths[i] for i in self.numerators), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return (self.group is other.group
                and self.denominator == other.denominator
                and self.numerators == other.numerators)

    __hash__ = None

    def __str__(self) -> str:
        return format_ring_element(self)

    __repr__ = __str__


def _sum_terms(terms) -> tuple[dict[int, int], int]:
    """Integer numerators keyed by id over the lcm of the positive
    denominators of terms (id, numerator, denominator), summed per id; the
    fraction is not yet reduced."""
    denominator = lcm(*(d for _, _, d in terms))
    numerators: dict[int, int] = {}
    for i, n, d in terms:
        numerators[i] = numerators.get(i, 0) + n * (denominator // d)
    return numerators, denominator


def _require_same_group(left: Group, right: Group):
    if left is not right:
        raise ValueError(f"cross-group ring operands: {left.name} vs {right.name}")


def format_ring_element(u: RingElement) -> str:
    """Render as "3*t^2 + 1*t^-1"; the zero element renders as "0"."""
    if u.is_zero():
        return "0"
    terms = [f"{c}*{g}" for g, c in u.items_sorted()]
    return " + ".join(terms)


def parse_ring_element(group: Group, text: str) -> RingElement:
    """Parse "3*t^2 + 1*t^-1" style notation.

    Terms are joined by " + "; each term is "<rational>*<element>" with the
    coefficient before the first "*".  A bare element means coefficient 1 and
    a bare rational means a multiple of the identity.
    """
    text = text.strip()
    if text == "0" or not text:
        return RingElement.zero(group)
    pairs = []
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ValueError(f"empty term in ring-element text {text!r}")
        head, star, tail = term.partition("*")
        try:
            coeff = Fraction(head.strip())
        except ValueError:
            pairs.append((group.parse_element(term), Fraction(1)))
            continue
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {term!r}") from None
        g = group.parse_element(tail.strip()) if star else group.identity
        pairs.append((g, coeff))
    return RingElement(group, pairs)


DEFAULT_CLASS_CAP = 10_000


def conjugacy_class(g: GroupElement, cap: int):
    """Orbit of g under conjugation, or None when it exceeds the cap.

    The orbit is closed under conjugation by the symmetric generators, hence
    under the whole group.  Returning None is the definite "not finite within
    this cap" answer, not an error.
    """
    if cap < 1:
        raise ValueError(f"conjugacy cap must be at least 1, got {cap}")
    group = g.group
    seen = {g}
    frontier = [g]
    while frontier:
        new: list[GroupElement] = []
        for x in frontier:
            for s in group.symmetric_generators:
                y = s * x * s.inverse()
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        return None
                    new.append(y)
        frontier = new
    return frozenset(seen)


def class_sum(g: GroupElement, cap: int) -> RingElement:
    """Sum of the conjugacy class of g, coefficients 1; always central."""
    orbit = conjugacy_class(g, cap)
    if orbit is None:
        raise ValueError(
            f"not a finite conjugacy class at cap {cap}: element {g} of {g.group.name}"
        )
    return RingElement(g.group, [(h, 1) for h in sorted(orbit)])
