"""Exact group-ring arithmetic: convolution, augmentation, centers, class sums.

Ring elements are finitely supported maps from group elements to rationals,
stored without zero coefficients, so algebraic identities hold on the nose.
Center membership is decided against the generators, which suffices because
the generators generate; conjugacy classes are grown by orbit closure under a
hard cap so that infinite classes terminate with a definite answer.

Validation happens once, where values enter: the public constructors
(``RingElement(group, coeffs)``, ``one``, ``from_element``, parsing, class sums)
check that every support element belongs to the group and coerce every
coefficient to ``Fraction``.  Arithmetic between validated elements checks only
that both operands share a ring and builds its result without checking each
term again.
"""

from __future__ import annotations

from fractions import Fraction

from .groups import Group, GroupElement


class RingElement:
    """Finitely supported map from group elements to exact rationals."""

    __slots__ = ("group", "_coeffs")

    def __init__(self, group: Group, coeffs=()):
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        acc: dict[GroupElement, Fraction] = {}
        for g, c in items:
            group._require_member(g)
            c = Fraction(c)
            if g in acc:
                acc[g] += c
            else:
                acc[g] = c
        self.group = group
        self._coeffs = {g: c for g, c in acc.items() if c != 0}

    @classmethod
    def _trusted(cls, group: Group, coeffs: dict) -> "RingElement":
        """Wrap coefficients that are already valid: keys are members of group
        and values are Fractions.  Only zero coefficients are dropped."""
        u = object.__new__(cls)
        u.group = group
        u._coeffs = {g: c for g, c in coeffs.items() if c}
        return u

    @classmethod
    def zero(cls, group: Group) -> "RingElement":
        return cls._trusted(group, {})

    @classmethod
    def one(cls, group: Group) -> "RingElement":
        return cls(group, [(group.identity, Fraction(1))])

    @classmethod
    def from_element(cls, g: GroupElement, coeff=1) -> "RingElement":
        return cls(g.group, [(g, Fraction(coeff))])

    def coefficient(self, g: GroupElement) -> Fraction:
        self.group._require_member(g)
        return self._coeffs.get(g, Fraction(0))

    def items_sorted(self) -> list[tuple[GroupElement, Fraction]]:
        """Support with coefficients, sorted by normal form for reproducibility."""
        return sorted(self._coeffs.items(), key=lambda item: item[0].key)

    def support(self) -> tuple[GroupElement, ...]:
        return tuple(g for g, _ in self.items_sorted())

    def support_size(self) -> int:
        return len(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def _merge(self, other: "RingElement", negate: bool) -> "RingElement":
        """self + other, or self - other when negate, without validating the
        terms of either operand again."""
        _require_same_group(self.group, other.group)
        out = dict(self._coeffs)
        for g, c in other._coeffs.items():
            if negate:
                c = -c
            prev = out.get(g)
            out[g] = c if prev is None else prev + c
        return RingElement._trusted(self.group, out)

    def __add__(self, other: "RingElement") -> "RingElement":
        return self._merge(other, False)

    def __neg__(self) -> "RingElement":
        return RingElement._trusted(self.group, {g: -c for g, c in self._coeffs.items()})

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self._merge(other, True)

    def scale(self, factor) -> "RingElement":
        factor = Fraction(factor)
        return RingElement._trusted(
            self.group, {g: c * factor for g, c in self._coeffs.items()})

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
        out: dict[GroupElement, Fraction] = {}
        for a, ca in self._coeffs.items():
            for b, cb in other._coeffs.items():
                g = a * b
                prev = out.get(g)
                out[g] = ca * cb if prev is None else prev + ca * cb
        return RingElement._trusted(self.group, out)

    def augment(self) -> Fraction:
        """Sum of coefficients; a ring homomorphism onto the rationals."""
        return sum(self._coeffs.values(), Fraction(0))

    def is_central(self) -> bool:
        """True iff this element commutes with every generator."""
        for gen in self.group.generators:
            d = RingElement.from_element(gen)
            if self * d != d * self:
                return False
        return True

    def max_word_length(self) -> int:
        """Largest word length in the support (0 for the zero element)."""
        return max((g.word_length() for g in self._coeffs), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return (self.group == other.group
                and self._coeffs == other._coeffs)

    __hash__ = None

    def __str__(self) -> str:
        return format_ring_element(self)

    def __repr__(self) -> str:
        return format_ring_element(self)


def _require_same_group(left: Group, right: Group):
    if left != right:
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
    return RingElement(g.group, [(h, Fraction(1)) for h in sorted(orbit)])
