"""Group-ring arithmetic: convolution, the involution, augmentation, centers,
class sums."""

from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lplab.checks import CHECK_GROUPS
from lplab.groups import group_from_name
from lplab.group_ring import (
    RingElement,
    _sum_terms,
    class_sum,
    conjugacy_class,
    format_ring_element,
    parse_ring_element,
)

from oracles import fraction_sum_form, naive_convolve


def _rng_element(group, rng, radius=4, terms=3):
    ball = group.ball(radius)
    pairs = [(ball[rng.randrange(len(ball))],
              Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
             for _ in range(rng.randint(1, terms))]
    return RingElement(group, pairs)


def test_add_and_scale():
    lattice = group_from_name("Z^1")
    t = lattice.generators[0]
    one = RingElement.one(lattice)
    dt = RingElement.from_element(t)
    dti = RingElement.from_element(t.inverse())
    assert (dt + one) + (-one + dti) == dt + dti
    assert dt.scale(0).is_zero()
    dihedral = group_from_name("dihedral-inf")
    r = dihedral.generators[0]
    u = RingElement.from_element(r) + RingElement.from_element(r.inverse())
    assert u + u == u.scale(2)


def test_convolution_examples():
    lattice = group_from_name("Z^1")
    t = lattice.generators[0]
    one = RingElement.one(lattice)
    dt = RingElement.from_element(t)
    u = dt + RingElement.from_element(t.inverse())
    v = one + dt
    product = u * v
    expected = RingElement(lattice, [(t ** -1, 1), (lattice.identity, 1),
                                     (t, 1), (t ** 2, 1)])
    assert product == expected

    c2 = group_from_name("cyclic:2")
    tc = c2.generators[0]
    assert ((RingElement.one(c2) + RingElement.from_element(tc))
            * (RingElement.from_element(tc) - RingElement.one(c2))).is_zero()

    telescoping = (dt - one) * (one + dt + RingElement.from_element(t ** 2))
    assert telescoping == RingElement.from_element(t ** 3) - one


def test_convolution_matches_naive_oracle():
    rng = Random(2)
    for name in ("dihedral-inf", "heisenberg", "S3"):
        group = group_from_name(name)
        for _ in range(30):
            u = _rng_element(group, rng)
            v = _rng_element(group, rng)
            expected = naive_convolve(u, v)
            product = u * v
            assert dict(product.items_sorted()) == expected


def test_augmentation():
    lattice = group_from_name("Z^1")
    t = lattice.generators[0]
    assert (RingElement.from_element(t) - RingElement.one(lattice)).augment() == 0
    c4 = group_from_name("cyclic:4")
    tc = c4.generators[0]
    norm = RingElement(c4, [(tc ** k, 1) for k in range(4)])
    assert norm.augment() == 4
    s3 = group_from_name("S3")
    transpositions = class_sum(s3.parse_element("(12)"), 10)
    assert transpositions.augment() == 3


def test_is_central_examples():
    heis = group_from_name("heisenberg")
    assert RingElement.from_element(heis.element((0, 0, 1))).is_central()
    dihedral = group_from_name("dihedral-inf")
    r = dihedral.generators[0]
    assert not RingElement.from_element(r).is_central()
    symmetric = RingElement.from_element(r) + RingElement.from_element(r.inverse())
    assert symmetric.is_central()


def test_conjugacy_classes():
    s3 = group_from_name("S3")
    transposition_class = conjugacy_class(s3.parse_element("(12)"), 10)
    assert len(transposition_class) == 3
    dihedral = group_from_name("dihedral-inf")
    r, s = dihedral.generators
    square_class = conjugacy_class(r ** 2, 10)
    assert square_class == frozenset({r ** 2, r ** -2})
    assert conjugacy_class(s, 64) is None  # infinite class, cap marker
    plane = group_from_name("Z^2")
    g = plane.element((3, -1))
    assert conjugacy_class(g, 5) == frozenset({g})


def test_class_sums():
    dihedral = group_from_name("dihedral-inf")
    r, s = dihedral.generators
    for n in range(1, 4):
        expected = RingElement(dihedral, [(r ** n, 1), (r ** -n, 1)])
        assert class_sum(r ** n, 100) == expected
    s3 = group_from_name("S3")
    cycles = class_sum(s3.parse_element("(123)"), 10)
    assert cycles == RingElement(s3, [(s3.parse_element("(123)"), 1),
                                      (s3.parse_element("(132)"), 1)])
    heis = group_from_name("heisenberg")
    z = heis.element((0, 0, 1))
    assert class_sum(z, 10) == RingElement.from_element(z)
    with pytest.raises(ValueError, match="not a finite conjugacy class"):
        class_sum(s, 64)


def test_every_class_sum_is_central():
    for name, radius in (("S3", 3), ("dihedral-inf", 3), ("heisenberg", 2)):
        group = group_from_name(name)
        for g in group.ball(radius):
            orbit = conjugacy_class(g, 2000)
            if orbit is None:
                continue
            assert class_sum(g, 2000).is_central()


def test_abelian_rings_are_central():
    rng = Random(3)
    for name in ("trivial", "cyclic:4", "Z^1", "Z^2"):
        group = group_from_name(name)
        for _ in range(20):
            assert _rng_element(group, rng).is_central()


def test_ring_axioms_random():
    rng = Random(4)
    for name in CHECK_GROUPS:
        group = group_from_name(name)
        for _ in range(125):
            u = _rng_element(group, rng)
            v = _rng_element(group, rng)
            w = _rng_element(group, rng)
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            assert (u + v) * w == u * w + v * w
            assert (u * v).augment() == u.augment() * v.augment()


@pytest.mark.parametrize("name", CHECK_GROUPS)
def test_star_is_an_involution_that_reverses_products(name):
    group = group_from_name(name)
    rng = Random(9)
    for _ in range(60):
        u = _rng_element(group, rng)
        v = _rng_element(group, rng)
        assert u.star() == RingElement(
            group, [(g.inverse(), c) for g, c in u.items_sorted()])
        assert (u * v).star() == v.star() * u.star()
        assert (u + v).star() == u.star() + v.star()
        assert u.star().star() == u
        assert u.star().augment() == u.augment()


def test_convolution_support_bound():
    rng = Random(5)
    group = group_from_name("heisenberg")
    for _ in range(40):
        u = _rng_element(group, rng, radius=3)
        v = _rng_element(group, rng, radius=2)
        bound = u.max_word_length() + v.max_word_length()
        assert (u * v).max_word_length() <= bound


def test_cross_group_ring_rejection():
    u = RingElement.one(group_from_name("cyclic:4"))
    v = RingElement.one(group_from_name("Z^1"))
    with pytest.raises(ValueError, match="cross-group"):
        u + v
    with pytest.raises(ValueError, match="cross-group"):
        u * v
    # A foreign element with the same normal form as a member.
    lattice = group_from_name("Z^3")
    foreign = group_from_name("heisenberg").element((1, 0, 0))
    with pytest.raises(ValueError, match="cross-group"):
        RingElement(lattice, [(foreign, 1)])
    w = RingElement.from_element(lattice.element((1, 0, 0)))
    x = RingElement.from_element(foreign)
    for op in (lambda: w + x, lambda: w - x, lambda: w * x):
        with pytest.raises(ValueError, match="cross-group"):
            op()


def test_constructor_checks_the_element_before_its_coefficient():
    # Z^3 shares the key (1,0,0) with the Heisenberg generator x
    lattice = group_from_name("Z^3")
    foreign = group_from_name("heisenberg").element((1, 0, 0))
    for bad in ("not a number", object()):
        with pytest.raises(ValueError, match="cross-group operand"):
            RingElement(lattice, [(foreign, bad)])
    # terms are read in order: a bad coefficient ahead of a foreign element
    with pytest.raises(TypeError):
        RingElement(lattice, [(lattice.identity, object()), (foreign, 1)])
    with pytest.raises(ValueError, match="Invalid literal"):
        RingElement(lattice, [(lattice.identity, "x"), (foreign, 1)])


def test_coefficient_rejects_foreign_elements_and_non_elements():
    # Z^3 shares the key (1,0,0) with the Heisenberg generator x
    heis = group_from_name("heisenberg")
    u = RingElement.from_element(heis.generators[0])
    foreign = group_from_name("Z^3").element((1, 0, 0))
    with pytest.raises(ValueError, match="cross-group operand"):
        u.coefficient(foreign)
    with pytest.raises(ValueError, match="cross-group operand"):
        u.coefficient((1, 0, 0))
    assert u.coefficient(heis.element((1, 0, 0))) == 1
    assert u.coefficient(heis.identity) == 0


def test_ring_arithmetic_rejects_another_instance_of_one_group():
    # element ids are numbered per Group instance, so two builds of one name
    # are different groups
    first = group_from_name("heisenberg")
    second = group_from_name("heisenberg")
    assert first != second
    x1, x2 = first.generators[0], second.generators[0]
    assert x1 != x2
    u = RingElement.from_element(x1) + RingElement.one(first)
    v = RingElement.from_element(x2, 2)
    for op in (lambda: u + v, lambda: u - v, lambda: u * v, lambda: v * u):
        with pytest.raises(ValueError,
                           match="cross-group ring operands: heisenberg vs heisenberg"):
            op()
    with pytest.raises(ValueError, match="cross-group operand"):
        RingElement(first, [(x2, 1)])
    with pytest.raises(ValueError, match="cross-group operand"):
        u.coefficient(x2)
    assert u != RingElement(second, [(x2, 1), (second.identity, 1)])


def test_arithmetic_results_keep_invariants():
    c2 = group_from_name("cyclic:2")
    t = c2.generators[0]
    one = RingElement.one(c2)
    u = one - RingElement.from_element(t)
    for zero in (u + (-u), u.scale(0), u * (one + RingElement.from_element(t))):
        assert zero.is_zero()
        assert zero == RingElement.zero(c2)
    half = RingElement(c2, [(t, 0.5)]).coefficient(t)
    assert type(half) is Fraction and half == Fraction(1, 2)


def test_format_examples():
    lattice = group_from_name("Z^1")
    t = lattice.generators[0]
    u = RingElement(lattice, [(t ** 2, 3), (t ** -1, 1)])
    assert format_ring_element(u) == "1*t^-1 + 3*t^2"
    heis = group_from_name("heisenberg")
    assert format_ring_element(RingElement.from_element(
        heis.element((0, 0, 1)))) == "1*(0,0,1)"
    dihedral = group_from_name("dihedral-inf")
    r = dihedral.generators[0]
    u = RingElement(dihedral, [(r ** 2, 1), (r ** -2, 1)])
    assert format_ring_element(u) == "1*r^-2 + 1*r^2"
    assert format_ring_element(RingElement.zero(lattice)) == "0"


def test_parse_round_trip_catalog_notation():
    lattice = group_from_name("Z^1")
    u = parse_ring_element(lattice, "3*t^2 + 1*t^-1")
    t = lattice.generators[0]
    assert u == RingElement(lattice, [(t ** 2, 3), (t ** -1, 1)])
    heis = group_from_name("heisenberg")
    assert parse_ring_element(heis, "1*(0,0,1)") == RingElement.from_element(
        heis.element((0, 0, 1)))
    dihedral = group_from_name("dihedral-inf")
    u = parse_ring_element(dihedral, "1*r^2 + 1*r^-2")
    r = dihedral.generators[0]
    assert u == RingElement(dihedral, [(r ** 2, 1), (r ** -2, 1)])
    assert parse_ring_element(lattice, "-1/2*t + 1").coefficient(t) == \
        Fraction(-1, 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4),
                          st.fractions(min_value=-5, max_value=5,
                                       max_denominator=6)),
                min_size=0, max_size=5))
def test_format_parse_round_trip_random(pairs):
    lattice = group_from_name("Z^1")
    t = lattice.generators[0]
    u = RingElement(lattice, [(t ** k, c) for k, c in pairs])
    assert parse_ring_element(lattice, format_ring_element(u)) == u


_coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_dihedral_terms = st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 1),
                                     _coefficients), max_size=5)


def _is_canonical(u):
    """Positive denominator, coprime to the numerators, no zero numerator."""
    return (u.denominator > 0 and all(u.numerators.values())
            and gcd(u.denominator, *u.numerators.values()) == 1)


@settings(max_examples=80, deadline=None)
@given(_dihedral_terms, _dihedral_terms,
       _coefficients.filter(lambda f: f != 0))
def test_arithmetic_keeps_the_canonical_form(u_terms, v_terms, factor):
    dihedral = group_from_name("dihedral-inf")
    u, v = (RingElement(dihedral, [(dihedral.element((a, e)), c)
                                   for a, e, c in terms])
            for terms in (u_terms, v_terms))
    assert (u + v) - v == u
    assert u.scale(factor).scale(1 / factor) == u
    for w in (u, v, u + v, u - v, u * v, -u, u.scale(factor)):
        assert _is_canonical(w)
        # equal elements store equal data
        rebuilt = RingElement(dihedral, w.items_sorted())
        assert (rebuilt.numerators, rebuilt.denominator) == \
            (w.numerators, w.denominator)
    for zero in (u - u, u.scale(0), RingElement.zero(dihedral)):
        assert (zero.numerators, zero.denominator) == ({}, 1)


# Every coefficient type the constructor takes: int and Fraction are read as
# integers, the others are coerced by Fraction.
_any_coefficient = st.one_of(
    st.integers(-6, 6),
    _coefficients,
    st.booleans(),
    st.floats(min_value=-8, max_value=8, allow_nan=False),
    _coefficients.map(str),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), _any_coefficient), max_size=6),
       st.booleans())
def test_constructor_stores_the_fraction_sum(terms, cancel):
    heis = group_from_name("heisenberg")
    # four elements, so support elements repeat
    ball = heis.ball(1)
    pairs = [(ball[k], c) for k, c in terms]
    if cancel:
        # the negated terms cancel every coefficient to zero
        pairs += [(g, -Fraction(c)) for g, c in pairs]
    u = RingElement(heis, pairs)
    assert (u.numerators, u.denominator) == fraction_sum_form(pairs)
    assert _is_canonical(u)
    if cancel:
        assert (u.numerators, u.denominator) == ({}, 1)


@pytest.mark.parametrize("terms", [
    [],
    [(1, 1, 2), (1, 1, 3), (2, -2, 1), (1, 1, 6)],  # repeated ids
    [(1, 3, 4), (2, 1, 1), (1, -3, 4)],  # one id cancels
    [(1, 3, 4), (3, -1, 1), (1, -6, 8), (3, 2, 2)],  # everything cancels
    [(0, 2, 4), (1, 0, 3), (2, 6, 4), (3, 4, 2)],  # reducible n/d
    [(4, -5, 2), (2, -4, 3), (4, -1, 2)],  # negative numerators
])
def test_summed_terms_equal_the_constructor(terms):
    # the sampled checks sum (id, n, d) draws without building a Fraction;
    # the canonical form makes unreduced n/d store the same data
    heis = group_from_name("heisenberg")
    ball = heis.ball(1)
    triples = [(ball[k].id, n, d) for k, n, d in terms]
    summed = RingElement._trusted(heis, *_sum_terms(triples))
    built = RingElement(heis, [(ball[k], Fraction(n, d)) for k, n, d in terms])
    assert (summed.numerators, summed.denominator) == \
        (built.numerators, built.denominator)
    assert _is_canonical(summed)
