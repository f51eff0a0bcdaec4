"""Resolution catalog: boundary data, free-derivative identities, validation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lplab import checks
from lplab.groups import Group, group_from_name
from lplab.group_ring import RingElement
from lplab.resolutions import (
    bar_slice_ball,
    compose_boundary_matrices,
    cyclic_infinite_resolution,
    fox_derivative,
    fox_partial_resolution,
    lattice_resolution,
    parse_word,
    periodic_cyclic_resolution,
    relator_words,
    Resolution,
    resolution_from_name,
    validate,
)

def test_cyclic_infinite_entries():
    res = cyclic_infinite_resolution()
    assert res.ranks == (1, 1)
    entry = res.boundary(1)[0][0]
    t = res.group.generators[0]
    assert entry == RingElement.from_element(t) - RingElement.one(res.group)
    assert entry.augment() == 0
    assert validate(res).ok


def test_periodic_cyclic_composition_and_augment():
    res2 = periodic_cyclic_resolution(2, 2)
    composite = compose_boundary_matrices(res2.boundary(1), res2.boundary(2),
                                          res2.group)
    assert composite[0][0].is_zero()

    res4 = periodic_cyclic_resolution(4, 2)
    assert res4.boundary(2)[0][0].augment() == 4

    report = validate(periodic_cyclic_resolution(3, 3))
    assert report.ok
    # direct expansion oracle: (t - 1)(1 + t + t^2) telescopes to t^3 - 1 = 0
    res3 = periodic_cyclic_resolution(3, 3)
    t = res3.group.generators[0]
    norm = res3.boundary(2)[0][0]
    minus = res3.boundary(1)[0][0]
    by_hand = {}
    for g, cg in norm.items_sorted():
        for h, ch in minus.items_sorted():
            key = g * h
            by_hand[key] = by_hand.get(key, Fraction(0)) + cg * ch
    assert all(c == 0 for c in by_hand.values())


def test_fox_derivative_commutator_example():
    plane = group_from_name("Z^2")
    word = parse_word("x*y*x^-1*y^-1", ("x", "y"))
    t1, t2 = plane.generators
    one = RingElement.one(plane)
    # prefix products: 1 and t1 t2 t1^-1 = t2
    dx = fox_derivative(plane, word, 0)
    assert dx == one - RingElement.from_element(t2)
    dy = fox_derivative(plane, word, 1)
    assert dy == RingElement.from_element(t1) - one


def test_fox_free2_shape():
    res = resolution_from_name("fox:free:2")
    assert res.ranks == (1, 2, 0)
    free = res.group
    x, y = free.generators
    one = RingElement.one(free)
    assert res.boundary(1)[0][0] == RingElement.from_element(x) - one
    assert res.boundary(1)[0][1] == RingElement.from_element(y) - one


@pytest.mark.parametrize("name", checks.FOX_GROUPS)
def test_fox_fundamental_identity(name):
    checks.check_fox_identity(name)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))),
                min_size=1, max_size=8))
def test_fox_identity_arbitrary_words_dihedral(letters):
    # the identity holds for every word, not only relators
    group = group_from_name("dihedral-inf")
    labels = group.generator_labels
    text = "*".join(f"{labels[idx]}^{exp}" for idx, exp in letters)
    assert checks.fox_defect(group, parse_word(text, labels)).is_zero()


def test_fox_rejects_presentation_mismatch():
    heis = group_from_name("heisenberg")
    heis.relators = ("x*y*x^-1*y^-1",)  # the commutator is central, not 1
    with pytest.raises(ValueError, match="presentation mismatch"):
        fox_partial_resolution(heis)


class KleinFourGroup(Group):
    """Z/2 x Z/2 on keys (a, b) mod 2: a kind outside the catalog, written
    as one class."""

    relators = ("a*a", "b*b", "a*b*a^-1*b^-1")

    def __init__(self):
        super().__init__("klein-four", ("a", "b"), (0, 0), [(1, 0), (0, 1)])

    def _mul_keys(self, a, b):
        return ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)

    def _inv_key(self, a):
        return a

    def _check_key(self, key):
        if key not in ((0, 0), (0, 1), (1, 0), (1, 1)):
            raise ValueError(f"invalid normal form {key!r} for {self.name}")

    def format_key(self, key) -> str:
        return f"({key[0]},{key[1]})"


def test_fox_resolution_of_a_kind_outside_the_catalog():
    group = KleinFourGroup()
    res = fox_partial_resolution(group)
    assert res.ranks == (1, 2, 3)
    assert validate(res).ok
    for word in relator_words(group):
        assert checks.fox_defect(group, word).is_zero()
    with pytest.raises(ValueError, match="2 generator labels but 1 generator keys"):
        Group("klein-four", ("a", "b"), (0, 0), [(1, 0)])


def test_lattice_rank_one_matches_cyclic_infinite():
    res = lattice_resolution(1)
    reference = cyclic_infinite_resolution()

    def entries(r):
        # each build has its own group, so entries compare by normal forms
        return [[[(g.key, c) for g, c in entry.items_sorted()] for entry in row]
                for mat in r.boundaries for row in mat]

    assert res.ranks == reference.ranks
    assert str(res.boundary(1)[0][0]) == str(reference.boundary(1)[0][0])
    assert entries(res) == entries(reference)
    # the two differ only in their names
    assert res.group.name == reference.group.name == "Z^1"
    assert (res.name, reference.name) == ("lattice:1", "cyclic-inf")


def test_lattice_two_signs():
    res = lattice_resolution(2)
    assert res.ranks == (1, 2, 1)
    t1, t2 = res.group.generators
    one = RingElement.one(res.group)
    d2 = res.boundary(2)
    assert d2[0][0] == (RingElement.from_element(t2) - one).scale(-1)
    assert d2[1][0] == RingElement.from_element(t1) - one
    composite = compose_boundary_matrices(res.boundary(1), d2, res.group)
    assert composite[0][0].is_zero()


def test_lattice_three_all_compositions_zero():
    res = lattice_resolution(3)
    assert res.ranks == (1, 3, 3, 1)
    for i in (1, 2):
        composite = compose_boundary_matrices(res.boundary(i),
                                              res.boundary(i + 1), res.group)
        for row in composite:
            for entry in row:
                assert entry.is_zero()


def test_lattice_ranks_sum():
    with pytest.raises(ValueError):
        lattice_resolution(4)


@pytest.mark.parametrize("name", checks.CATALOG_RESOLUTIONS)
def test_catalog_validates(name):
    checks.check_resolution_validates(name)


def test_validate_detects_injected_sign_flip():
    res = lattice_resolution(2)
    d2 = [list(row) for row in res.boundary(2)]
    d2[0][0] = d2[0][0].scale(-1)  # flip one sign
    corrupted = Resolution(res.group, "corrupted", res.ranks,
                           (res.boundary(1), tuple(tuple(r) for r in d2)))
    report = validate(corrupted)
    assert not report.ok
    failure = report.first_failure
    assert failure.name == "boundary_composition"
    assert failure.index == 1
    assert failure.detail == (
        "composite of boundaries 1 and 2 is nonzero at (0,0): "
        "2*(0,0) + -2*(0,1) + -2*(1,0) + 2*(1,1)")


def test_validate_reports_the_first_nonzero_entry_in_row_major_order():
    group = group_from_name("Z^1")
    one, zero = RingElement.one(group), RingElement.zero(group)
    # boundary 2 is the identity, so the composite with boundary 3 is
    # boundary 3 itself: nonzero at (0,1) and (1,0)
    res = Resolution(group, "corrupted", (1, 2, 2, 2),
                     (((zero, zero),),
                      ((one, zero), (zero, one)),
                      ((zero, one.scale(2)), (one.scale(3), zero))))
    report = validate(res)
    assert [(c.name, c.index, c.ok) for c in report.checks] == [
        ("boundary_composition", 1, True),
        ("boundary_composition", 2, False),
        ("augmentation", 1, True)]
    assert report.first_failure.detail == (
        "composite of boundaries 2 and 3 is nonzero at (0,1): 2*1")


def test_validate_detects_a_degree_one_augmentation():
    res = lattice_resolution(2)
    first, second = res.boundary(1)[0]
    # x - 1 keeps augmentation 0; (y - 1) + 3 has augmentation 3
    row = (first, second + RingElement.one(res.group).scale(3))
    report = validate(Resolution(res.group, "corrupted", res.ranks[:2],
                                 ((row,),)))
    assert not report.ok
    failure = report.first_failure
    assert (failure.name, failure.index) == ("augmentation", 1)
    assert failure.detail == "degree-1 entry 1 has augmentation 3"


def test_bar_resolution_basis_counts():
    # the degree-n slice is (1, x_1, ..., x_n) with every x_i in the ball
    # bar_slice_ball returns, so it holds len(ball) ** degree tuples
    from lplab.homotopy import _slice_tuples

    for name, degree, radius, count in (("Z^1", 0, 2, 1), ("Z^1", 1, 2, 5),
                                        ("cyclic:2", 2, 1, 4)):
        group = group_from_name(name)
        assert len(bar_slice_ball(group, degree, radius)) ** degree == count
        tuples = list(_slice_tuples(group, degree, radius))
        assert len(tuples) == count
        assert all(group.table.elements[t[0]].is_identity() for t in tuples)
    with pytest.raises(ValueError):
        bar_slice_ball(group_from_name("Z^1"), 4, 1)


def test_resolution_from_name_errors():
    with pytest.raises(ValueError, match="unknown resolution name"):
        resolution_from_name("nope")


def test_presentation_validation():
    group = group_from_name("free:1")
    group.relators = ("x*x^-1",)  # reduces to the empty word
    with pytest.raises(ValueError, match="relators must be nonempty words"):
        relator_words(group)
    with pytest.raises(ValueError, match=r"no catalog presentation for group 'Z\^4'"):
        fox_partial_resolution(group_from_name("Z^4"))


def test_bar_basis_respects_ball_cap():
    from random import Random

    from lplab.groups import BallCapError
    from lplab.homotopy import homotopy_residual, random_cochain
    group = group_from_name("free:2")
    group.ball_cap = 30
    with pytest.raises(BallCapError):
        bar_slice_ball(group, 3, 2)
    # the radius-2 ball fits the cap, its 17**2 = 289 degree-2 slice does not
    assert len(group.ball(2)) == 17
    with pytest.raises(BallCapError):
        random_cochain(group, 2, 2, Random(0))
    group.ball_cap = 300
    phi = random_cochain(group, 2, 2, Random(0))
    group.ball_cap = 30
    with pytest.raises(BallCapError):
        homotopy_residual(phi, group.identity)
