"""Group catalog: normal forms, multiplication, balls, word lengths."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lplab.checks import (CATALOG_RESOLUTIONS, CHECK_GROUPS, FACT_GROUPS,
                          FOX_GROUPS)
from lplab.groups import DEFAULT_BALL_CAP, BallCapError, Group, group_from_name
from lplab.resolutions import resolution_from_name

from oracles import (product_set_ball, product_set_layers,
                     product_set_word_length)


def test_make_group_trivial_and_cyclic():
    trivial = group_from_name("trivial")
    assert len(trivial.ball(5)) == 1
    c4 = group_from_name("cyclic:4")
    assert len(c4.ball(4)) == 4


def test_make_group_heisenberg_generators():
    heis = group_from_name("heisenberg")
    assert [g.key for g in heis.generators] == [(1, 0, 0), (0, 1, 0)]
    assert len(heis.generators) == 2


@pytest.mark.parametrize("name", ["cyclic:0", "Z^0", "free:0"],
                         ids=["cyclic-0", "lattice-0", "free-0"])
def test_make_group_rejects_bad_parameters(name):
    with pytest.raises(ValueError):
        group_from_name(name)


def test_heisenberg_products():
    heis = group_from_name("heisenberg")
    x, y = heis.generators
    assert (x * y).key == (1, 1, 1)
    assert (y * x).key == (1, 1, 0)


def test_dihedral_relation():
    dihedral = group_from_name("dihedral-inf")
    r, s = dihedral.generators
    assert (s * r).key == (-1, 1)
    assert str(s * r) == "r^-1*s"


def test_cross_group_rejection():
    a = group_from_name("cyclic:4").generators[0]
    b = group_from_name("Z^1").generators[0]
    with pytest.raises(ValueError, match="cross-group"):
        a * b


def test_equal_keys_in_different_groups_stay_distinct():
    a = group_from_name("Z^3").element((1, 0, 0))
    b = group_from_name("heisenberg").element((1, 0, 0))
    assert a != b
    assert len({a, b}) == 2
    table = {a: "lattice", b: "heisenberg"}
    assert table[a] == "lattice" and table[b] == "heisenberg"


def test_each_element_is_built_once():
    heis = group_from_name("heisenberg")
    x, y = heis.generators
    assert x * y is x * y
    assert heis.parse_element("x*y") is x * y
    assert heis.element((1, 1, 1)) is x * y
    assert x ** 3 is x * x * x
    for g in heis.ball(2):
        assert hash(g) == g.id
        assert heis.table.elements[g.id] is g


def test_table_fills_products_and_inverses_without_group_mul(monkeypatch):
    heis = group_from_name("heisenberg")
    x, y = heis.generators

    def refuse(self, a, b):
        raise AssertionError("Group.mul called by a table fill")

    monkeypatch.setattr(type(heis), "mul", refuse)
    table = heis.table
    product = table.elements[table.products[x.id, y.id]]
    assert product.key == (1, 1, 1)
    assert table.elements[table.inverses[product.id]].key == (-1, -1, 0)


def test_word_length_grows_the_ball_to_an_element_met_earlier():
    heis = group_from_name("heisenberg")
    g = heis.generators[0] ** 5
    assert g.id not in heis.table.lengths
    assert g not in heis.ball(4)
    assert g.id not in heis.table.lengths
    assert g.word_length() == 5
    assert heis.table.lengths[g.id] == 5 and g in heis.ball(5)


def test_inverses():
    lattice = group_from_name("Z^1")
    t = lattice.generators[0]
    assert (t ** 3).inverse() == t ** -3
    heis = group_from_name("heisenberg")
    g = heis.element((2, 3, 1))
    assert g.inverse().key == (-2, -3, 2 * 3 - 1)
    assert (g * g.inverse()).is_identity()
    s3 = group_from_name("S3")
    three_cycle = s3.parse_element("(123)")
    assert three_cycle.inverse() == s3.parse_element("(132)")


def test_powers_multiply_once_per_bit(monkeypatch):
    heis = group_from_name("heisenberg")
    g = heis.element((2, 3, 1))
    calls = []
    mul = type(heis).mul
    monkeypatch.setattr(type(heis), "mul",
                        lambda self, a, b: calls.append(1) or mul(self, a, b))
    for n, expected, cost in ((2, g * g, 1), (5, g * g * g * g * g, 3)):
        calls.clear()
        assert g ** n == expected
        assert len(calls) == cost
    calls.clear()
    assert g ** 1 is g and (g ** 0).is_identity() and not calls


def test_ball_counts_lattice():
    assert len(group_from_name("Z^1").ball(3)) == 7
    # rank-2 count: 2R^2 + 2R + 1
    assert len(group_from_name("Z^2").ball(2)) == 13


def test_ball_matches_product_set_oracle():
    heis = group_from_name("heisenberg")
    for radius in range(4):
        bfs = {g.key for g in heis.ball(radius)}
        assert bfs == product_set_ball(heis, radius)


@pytest.mark.parametrize("name", CHECK_GROUPS + ("Z^3", "free:3"))
def test_ball_is_the_oracle_layers_each_in_normal_form_order(name):
    # the oracle meets each product against every shorter one, the ball
    # growth only against the last two layers
    group = group_from_name(name)
    # an element built before the ball reaches it joins the ball as it is
    early = group.parse_element("x^4" if name.startswith("free") else "1")
    layers = product_set_layers(group, 5)
    ball = group.ball(5)
    assert [g.key for g in ball] == [
        key for layer in layers for key in sorted(layer)]
    assert any(g is early for g in ball)
    for length, layer in enumerate(layers):
        for key in layer:
            assert group.table.lengths[group.table.ids[key]] == length


def test_ball_ordering_is_bfs_then_lexicographic():
    lattice = group_from_name("Z^1")
    assert [g.key for g in lattice.ball(2)] == [(0,), (-1,), (1,), (-2,), (2,)]


def test_word_lengths():
    lattice = group_from_name("Z^1")
    assert (lattice.generators[0] ** -5).word_length() == 5
    plane = group_from_name("Z^2")
    assert plane.element((2, -1)).word_length() == 3
    heis = group_from_name("heisenberg")
    z = heis.element((0, 0, 1))
    assert z.word_length() == product_set_word_length(heis, z)
    assert heis.identity.word_length() == 0


def test_word_length_symmetric_under_inverse():
    rng = Random(0)
    for name in CHECK_GROUPS:
        group = group_from_name(name)
        ball = group.ball(3)
        for _ in range(50):
            g = ball[rng.randrange(len(ball))]
            assert g.word_length() == g.inverse().word_length()


def test_group_axioms_random_triples():
    rng = Random(1)
    for name in CHECK_GROUPS:
        group = group_from_name(name)
        ball = group.ball(4)
        e = group.identity
        for _ in range(1000):
            a = ball[rng.randrange(len(ball))]
            b = ball[rng.randrange(len(ball))]
            c = ball[rng.randrange(len(ball))]
            assert (a * b) * c == a * (b * c)
            assert a * e == a
            assert a * a.inverse() == e


def test_ball_nesting_and_inverse_closure():
    for name in CHECK_GROUPS:
        group = group_from_name(name)
        previous_size = 0
        for radius in range(5):
            ball = group.ball(radius)
            keys = {g.key for g in ball}
            assert len(ball) >= previous_size
            assert group.identity.key in keys
            assert all(g.inverse().key in keys for g in ball)
            if radius:
                smaller = group.ball(radius - 1)
                assert [g.key for g in ball[:len(smaller)]] == \
                    [g.key for g in smaller]
            previous_size = len(ball)


def test_heisenberg_central_elements_commute():
    heis = group_from_name("heisenberg")
    for c in (1, -2):
        z = heis.element((0, 0, c))
        for g in heis.ball(4):
            assert z * g == g * z


def test_ball_cap_guard():
    free = group_from_name("free:2")
    free.ball_cap = 50
    with pytest.raises(BallCapError):
        free.ball(5)


def test_no_constructor_grows_the_ball():
    # so a cap assigned straight after construction, as lab run assigns
    # max_ball, bounds every ball the group grows
    groups = [group_from_name(name) for name in FACT_GROUPS + FOX_GROUPS]
    groups += [resolution_from_name(name).group for name in CATALOG_RESOLUTIONS]
    assert [len(group.table.lengths) for group in groups] == [1] * len(groups)
    assert Group.ball_cap == DEFAULT_BALL_CAP
    groups[0].ball_cap = 5  # one group's cap, not its kind's
    assert {group.ball_cap for group in groups[1:]} == {DEFAULT_BALL_CAP}


def test_group_from_name_errors():
    with pytest.raises(ValueError, match="unknown group name"):
        group_from_name("nonsense")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("xy"), st.integers(-3, 3)),
                max_size=6))
def test_free_group_format_parse_round_trip(pieces):
    free = group_from_name("free:2")
    g = free.identity
    for label, exp in pieces:
        g = g * free.parse_element(label) ** exp
    assert free.parse_element(str(g)) == g


@settings(max_examples=60, deadline=None)
@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))
def test_heisenberg_format_parse_round_trip(a, b, c):
    heis = group_from_name("heisenberg")
    g = heis.element((a, b, c))
    assert heis.parse_element(str(g)) == g


def test_element_constructor_validates_normal_forms():
    heis = group_from_name("heisenberg")
    with pytest.raises(ValueError):
        heis.element((1, 2))
    cyclic = group_from_name("cyclic:4")
    with pytest.raises(ValueError):
        cyclic.element(7)
    free = group_from_name("free:2")
    with pytest.raises(ValueError, match="reduced"):
        free.element((1, -1))
    s3 = group_from_name("S3")
    with pytest.raises(ValueError):
        s3.element((0, 0, 1))


@pytest.mark.parametrize("name", CHECK_GROUPS)
def test_format_parse_round_trip_on_ball(name):
    group = group_from_name(name)
    for g in group.ball(3):
        assert group.parse_element(str(g)) == g


@pytest.mark.parametrize("name, word, expected", [
    ("dihedral-inf", "s*r", "r^-1*s"),
    ("dihedral-inf", "s*s", "1"),
    ("cyclic:4", "t*t", "t^2"),
    ("heisenberg", "x*y*x^-1*y^-1", "(0,0,1)"),
    ("Z^2", "t2*t1^-1", "(-1,1)"),
    ("S3", "s1*s2", "(123)"),
    ("trivial", "e^3", "1"),
])
def test_words_in_the_generator_labels_parse(name, word, expected):
    group = group_from_name(name)
    assert group.parse_element(word) == group.parse_element(expected)


def test_word_exponents_are_not_expanded():
    lattice = group_from_name("Z^1")
    assert lattice.parse_element("t^1000000").key == (1000000,)
    heis = group_from_name("heisenberg")
    assert heis.parse_element("x^1000000*y").key == (1000000, 1, 1000000)


@pytest.mark.parametrize("name, token", [
    ("Z^2", "u"), ("heisenberg", "x*z"), ("dihedral-inf", "r^"),
    ("S3", "s3"), ("cyclic:4", ""), ("free:2", "x**y"),
])
def test_unknown_labels_do_not_parse(name, token):
    group = group_from_name(name)
    with pytest.raises(ValueError, match="cannot parse"):
        group.parse_element(token)


def test_parse_element_catalog_tokens():
    assert group_from_name("cyclic:4").parse_element("t^-1").key == 3
    assert group_from_name("Z^2").parse_element("(2,-1)").key == (2, -1)
    dihedral = group_from_name("dihedral-inf")
    assert dihedral.parse_element("r^2*s").key == (2, 1)
    assert dihedral.parse_element("1").is_identity()
    s3 = group_from_name("S3")
    assert s3.parse_element("(12)").key == (1, 0, 2)
