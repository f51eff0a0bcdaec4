"""Exact bar-complex checks: coboundary, homotopy identity, class sums."""

from fractions import Fraction
from random import Random

import pytest

from lplab.groups import group_from_name
from lplab.group_ring import RingElement, conjugacy_class
from lplab.homotopy import (
    EquivariantCochain,
    ResidualForm,
    ResidualReport,
    class_sum_homotopy_residual,
    coboundary,
    equivariance_defect,
    homotopy_residual,
    multiplier_homotopy,
    random_cochain,
    zero_cochain,
)

from oracles import naive_homotopy_residual


def test_degree_zero_coboundary_formula():
    group = group_from_name("Z^1")
    t = group.generators[0]
    value = RingElement(group, [(t, Fraction(2, 3)), (group.identity, 1)])
    phi = EquivariantCochain(group, 0, 0, {(): value})
    d_phi = coboundary(phi, radius=2)
    for x in group.ball(2):
        expected = RingElement.from_element(x) * value - value
        assert d_phi.value_at_tail((x,)) == expected


def test_equivariant_evaluation_shift():
    group = group_from_name("heisenberg")
    x, y = group.generators
    value = RingElement.one(group)
    phi = EquivariantCochain(group, 1, 1, {(y,): value})
    shifted = phi.eval((x, x * y))
    assert shifted == RingElement.from_element(x)


@pytest.mark.parametrize("name", ["heisenberg", "dihedral-inf"])
def test_equivariant_evaluation_translates_on_the_left(name):
    # phi(h, h x_1, h x_2) = h . phi(1, x_1, x_2); on a non-abelian group the
    # right translate phi(1, x_1, x_2) . h differs somewhere
    group = group_from_name(name)
    phi = random_cochain(group, 2, 1, Random(14))
    ball = group.ball(1)
    sides_differ = False
    for h in ball:
        for x1 in ball:
            for x2 in ball:
                value = phi.value_at_tail((x1, x2))
                left = RingElement.from_element(h) * value
                assert phi.eval((h, h * x1, h * x2)) == left
                sides_differ |= left != value * RingElement.from_element(h)
    assert sides_differ


def test_coboundary_squares_to_zero():
    rng = Random(0)
    for name in ("Z^1", "cyclic:4", "dihedral-inf"):
        group = group_from_name(name)
        for degree in (0, 1):
            phi = random_cochain(group, degree, 4, rng)
            dd = coboundary(coboundary(phi, radius=4), radius=2)
            assert all(v.is_zero() for v in dd.values.values())


def test_coboundary_linearity():
    rng = Random(1)
    group = group_from_name("cyclic:4")
    phi = random_cochain(group, 1, 2, rng)
    psi = random_cochain(group, 1, 2, rng)
    a, b = Fraction(2, 7), Fraction(-3)
    lhs = coboundary(a * phi + b * psi, radius=2)
    rhs = a * coboundary(phi, radius=2) + b * coboundary(psi, radius=2)
    assert lhs == rhs


def test_cochain_arithmetic_rejects_another_instance_of_one_group():
    # each Group instance numbers its elements in the order it meets them, so
    # cochains on two builds of one group cannot be combined or compared
    first, second = group_from_name("Z^1"), group_from_name("Z^1")
    t, u = first.generators[0], second.generators[0]
    phi = EquivariantCochain(first, 1, 1, {(t,): RingElement.from_element(t)})
    psi = EquivariantCochain(second, 1, 1, {(u,): RingElement.from_element(u)})
    for op in (lambda: phi + psi, lambda: psi - phi, lambda: phi == psi):
        with pytest.raises(ValueError,
                           match=r"cochains belong to different groups: Z\^1 vs Z\^1"):
            op()
    with pytest.raises(ValueError, match="value belongs to a different group ring"):
        EquivariantCochain(first, 1, 1, {(t,): RingElement.from_element(u)})
    with pytest.raises(ValueError, match="cross-group operand"):
        EquivariantCochain(first, 1, 1, {(u,): RingElement.from_element(t)})


def test_cochain_rejects_foreign_tail_elements():
    lattice = group_from_name("Z^3")
    foreign = group_from_name("heisenberg").element((1, 0, 0))
    with pytest.raises(ValueError, match="cross-group"):
        EquivariantCochain(lattice, 1, 1, {(foreign,): RingElement.one(lattice)})


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_materialized_coboundary_is_its_restriction_to_the_window(seed):
    # d(d phi) = 0, and d phi restricted to the radius-2 window is exact
    # there and zero outside it: d of the restriction at (1, x1, x2) reads
    # d phi at the tails (x2), (x1) and (x1^-1 x2), so it vanishes where
    # x1^-1 x2 stays in the window (every tail in ball(1)^2) and is nonzero
    # where it leaves it
    group = group_from_name("Z^1")
    phi = random_cochain(group, 0, 2, Random(seed))
    dd = coboundary(coboundary(phi, radius=2), radius=2)
    assert dd.radius == 2
    ball = group.ball(2)
    nonzero = {(x1, x2) for x1 in ball for x2 in ball
               if not dd.value_at_tail((x1, x2)).is_zero()}
    assert nonzero == {(x1, x2) for x1 in ball for x2 in ball
                       if (x1.inverse() * x2).word_length() > 2}
    assert len(nonzero) == 6


def test_homotopy_single_term_examples():
    group = group_from_name("Z^1")
    t = group.generators[0]
    rng = Random(3)
    phi = random_cochain(group, 1, 3, rng)
    j_phi = multiplier_homotopy(phi, t)
    assert j_phi.degree == 0
    # single term at the lone slice tuple: minus the value at (1, t)
    assert j_phi.value_at_tail(()) == -phi.value_at_tail((t,))

    psi = random_cochain(group, 2, 3, rng)
    j_psi = multiplier_homotopy(psi, t, radius=1)
    for x in group.ball(1):
        expected = (psi.eval((group.identity, x, t * x))
                    - psi.eval((group.identity, t, t * x)))
        assert j_psi.value_at_tail((x,)) == expected


def test_homotopy_linearity():
    rng = Random(4)
    group = group_from_name("cyclic:4")
    t = group.generators[0]
    phi = random_cochain(group, 2, 2, rng)
    a = Fraction(5, 3)
    assert multiplier_homotopy(a * phi, t) == a * multiplier_homotopy(phi, t)


def test_homotopy_rejects_non_central():
    group = group_from_name("dihedral-inf")
    r = group.generators[0]
    rng = Random(5)
    phi = random_cochain(group, 1, 2, rng)
    with pytest.raises(ValueError, match="not central"):
        multiplier_homotopy(phi, r)
    with pytest.raises(ValueError, match="not central"):
        homotopy_residual(phi, r)


def test_homotopy_identity_exact_zero():
    rng = Random(6)
    cases = [("Z^1", "t", 3), ("heisenberg", "(0,0,1)", 2), ("cyclic:4", "t", 2)]
    for name, token, radius in cases:
        group = group_from_name(name)
        h = group.parse_element(token)
        for degree in (1, 2):
            phi = random_cochain(group, degree, radius, rng)
            report = homotopy_residual(phi, h)
            assert report.max_abs == 0
            assert report.tuples_checked == len(group.ball(radius)) ** degree
            assert report.tuples_skipped == 0


def test_homotopy_identity_all_short_central_elements():
    rng = Random(7)
    for name, radius in (("Z^1", 3), ("Z^2", 2), ("cyclic:4", 2),
                         ("dihedral-inf", 2), ("heisenberg", 2), ("S3", 2)):
        group = group_from_name(name)
        central = [g for g in group.ball(2)
                   if RingElement.from_element(g).is_central()]
        assert central, f"{name} must at least contain the identity"
        for h in central:
            for degree in (1, 2):
                phi = random_cochain(group, degree, radius, rng)
                assert homotopy_residual(phi, h).max_abs == 0


def test_residual_of_a_materialized_operator_is_exact_zero():
    # a materialized operator is a finitely supported cochain, so the
    # homotopy identity holds for it on the nose at every tuple
    rng = Random(8)
    group = group_from_name("Z^1")
    t = group.generators[0]
    phi = random_cochain(group, 1, 6, rng)
    restricted = coboundary(multiplier_homotopy(phi, t))
    assert restricted.radius == 6
    assert homotopy_residual(restricted, t, eval_radius=1) == ResidualReport(
        Fraction(0), 3, 0, None)
    assert homotopy_residual(restricted, t) == ResidualReport(
        Fraction(0), 13, 0, None)


def test_class_sum_abelian_singletons():
    rng = Random(10)
    group = group_from_name("cyclic:4")
    t = group.generators[0]
    phi = random_cochain(group, 1, 2, rng)
    report = class_sum_homotopy_residual(phi, conjugacy_class(t, 10))
    assert report.max_abs == 0


def test_class_sum_dihedral_rotation_class():
    rng = Random(11)
    group = group_from_name("dihedral-inf")
    r = group.generators[0]
    orbit = conjugacy_class(r, 10)
    assert orbit == frozenset({r, r.inverse()})
    phi = random_cochain(group, 1, 3, rng)
    report = class_sum_homotopy_residual(phi, orbit)
    # measured, deterministic; the observed value happens to vanish exactly
    again = class_sum_homotopy_residual(phi, orbit)
    assert report == again
    assert report.max_abs == 0


def test_class_sum_residual_reports_worst_tail():
    group = group_from_name("dihedral-inf")
    r, s = group.generators
    phi = random_cochain(group, 1, 2, Random(0))
    report = class_sum_homotopy_residual(phi, [r])
    assert report.max_abs == 4
    assert report.worst_tail == (s,)
    # The scan runs in ball order: the radius-0 prefix stays below the
    # maximum and the radius-1 prefix, which contains s, reaches it.
    assert class_sum_homotopy_residual(phi, [r], eval_radius=0).max_abs < 4
    assert class_sum_homotopy_residual(phi, [r], eval_radius=1) == ResidualReport(
        Fraction(4), 4, 0, (s,))
    assert class_sum_homotopy_residual(phi, [r, r.inverse()]).worst_tail is None


def test_class_sum_is_equivariant_but_single_element_is_not():
    rng = Random(12)
    group = group_from_name("dihedral-inf")
    r, s = group.generators
    phi = random_cochain(group, 2, 2, rng)
    shifts = (r, s, r * s)
    full_class = (r, r.inverse())
    assert equivariance_defect(phi, full_class, shifts, eval_radius=1) == 0
    assert equivariance_defect(phi, (r,), shifts, eval_radius=1) == 10


@pytest.mark.parametrize("name, token, degree, radius, seed, max_abs, worst_tail", [
    ("dihedral-inf", "r", 2, 2, 2, Fraction(51, 4), ("s", "1")),
    ("heisenberg", "x", 1, 2, 3, Fraction(4), ("y^-1",)),
    ("heisenberg", "(0,0,1)", 2, 1, 4, Fraction(0), None),
    ("dihedral-inf", "r", 3, 1, 5, Fraction(9), ("s", "s", "s")),
    ("heisenberg", "x", 3, 1, 6, Fraction(9), ("y", "1", "y")),
])
def test_residual_matches_naive_oracle(name, token, degree, radius, seed,
                                       max_abs, worst_tail):
    group = group_from_name(name)
    multiplier = group.parse_element(token)
    phi = random_cochain(group, degree, radius, Random(seed))
    report = class_sum_homotopy_residual(phi, [multiplier])
    assert report == ResidualReport(
        *naive_homotopy_residual(phi, [multiplier], radius))
    assert report.max_abs == max_abs
    assert report.worst_tail == (
        None if worst_tail is None
        else tuple(group.parse_element(x) for x in worst_tail))


@pytest.mark.parametrize("name, token, degree, radius", [
    ("dihedral-inf", "r", 1, 2),
    ("dihedral-inf", "r", 2, 2),
    ("dihedral-inf", "s", 1, 2),
    ("dihedral-inf", "s", 2, 2),
    ("heisenberg", "x", 1, 2),
    ("heisenberg", "x", 2, 1),
])
def test_one_form_evaluates_successive_cochains(name, token, degree, radius):
    group = group_from_name(name)
    multiplier = group.parse_element(token)
    form = ResidualForm(group, degree, radius, [multiplier])
    rng = Random(14)
    reports = []
    for _ in range(3):
        phi = random_cochain(group, degree, radius, rng)
        reports.append(form.evaluate(phi))
        assert reports[-1] == ResidualReport(
            *naive_homotopy_residual(phi, [multiplier], radius))
    assert len({report.max_abs for report in reports}) > 1


def _rows_with_symbols(form):
    return sum(1 for _, symbols in form.rows if symbols)


@pytest.mark.parametrize("name", ["Z^1", "cyclic:4", "heisenberg"])
@pytest.mark.parametrize("degree", [1, 2])
def test_central_form_cancels_every_symbol(name, degree):
    group = group_from_name(name)
    form = ResidualForm(group, degree, 3, [group.central_element])
    assert len(form.rows) == len(group.ball(3)) ** degree
    assert _rows_with_symbols(form) == 0


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_dihedral_rotation_class_form_cancels_every_symbol(power, degree):
    group = group_from_name("dihedral-inf")
    rotation = group.generators[0] ** power
    form = ResidualForm(group, degree, 3, [rotation, rotation.inverse()])
    assert _rows_with_symbols(form) == 0


@pytest.mark.parametrize("degree, kept, rows", [(2, 24, 64), (3, 192, 512)])
def test_single_rotation_form_keeps_symbols(degree, kept, rows):
    group = group_from_name("dihedral-inf")
    form = ResidualForm(group, degree, 2, [group.generators[0]])
    assert len(form.rows) == rows
    assert _rows_with_symbols(form) == kept


def test_form_grows_no_ball_for_a_finitely_supported_cochain():
    # the 289 slice tuples fit a cap of 400; the tails the formula reads
    # reach length 6, and the radius-6 ball (593 elements) would not
    group = group_from_name("heisenberg", ball_cap=400)
    phi = random_cochain(group, 2, 2, Random(16))
    form = ResidualForm(group, 2, 2, [group.central_element])
    assert form.evaluate(phi) == ResidualReport(Fraction(0), 289, 0, None)
    assert max(group.table.lengths.values()) == 2


def test_form_evaluation_checks_its_cochain():
    group = group_from_name("heisenberg")
    form = ResidualForm(group, 1, 2, [group.parse_element("x")])
    phi = random_cochain(group, 1, 2, Random(15))
    report = form.evaluate(phi)
    assert report == ResidualReport(
        *naive_homotopy_residual(phi, [group.parse_element("x")], 2))
    assert report.max_abs != 0
    with pytest.raises(ValueError, match="cochain has degree 2, the form 1"):
        form.evaluate(random_cochain(group, 2, 1, Random(15)))
    # each instance numbers its elements in the order it meets them, so a
    # form reads no cochain built on another instance of its group
    with pytest.raises(ValueError,
                       match="different groups: heisenberg vs heisenberg"):
        form.evaluate(random_cochain(group_from_name("heisenberg"), 1, 2,
                                     Random(15)))
    with pytest.raises(ValueError, match="different groups"):
        form.evaluate(zero_cochain(group_from_name("Z^3"), 1, 2))


def _heisenberg_cochain_and_foreign_element():
    group = group_from_name("heisenberg")
    phi = random_cochain(group, 1, 1, Random(13))
    lattice = group_from_name("Z^3")
    return group, phi, lattice, lattice.element((1, 0, 0))


def test_eval_rejects_elements_of_another_group():
    _, phi, lattice, foreign = _heisenberg_cochain_and_foreign_element()
    with pytest.raises(ValueError, match="expected an element of heisenberg"):
        phi.eval((lattice.identity, foreign))


def test_value_at_tail_rejects_elements_of_another_group():
    _, phi, _, foreign = _heisenberg_cochain_and_foreign_element()
    with pytest.raises(ValueError, match="expected an element of heisenberg"):
        phi.value_at_tail((foreign,))


@pytest.mark.parametrize("length", [0, 2])
def test_value_at_tail_rejects_wrong_length(length):
    group, phi, _, _ = _heisenberg_cochain_and_foreign_element()
    with pytest.raises(ValueError, match=f"expected 1 arguments, got {length}"):
        phi.value_at_tail((group.generators[0],) * length)


def test_equivariance_defect_rejects_foreign_multiplier_and_shift():
    group, phi, _, foreign = _heisenberg_cochain_and_foreign_element()
    x = group.generators[0]
    with pytest.raises(ValueError, match="expected an element of heisenberg"):
        equivariance_defect(phi, (foreign,), (x,))
    with pytest.raises(ValueError, match="expected an element of heisenberg"):
        equivariance_defect(phi, (x,), (foreign,))


def test_zero_cochain_residual():
    group = group_from_name("Z^1")
    t = group.generators[0]
    phi = zero_cochain(group, 1, 3)
    assert homotopy_residual(phi, t).max_abs == 0


def test_degree_zero_rejected():
    group = group_from_name("Z^1")
    t = group.generators[0]
    phi = zero_cochain(group, 0, 2)
    with pytest.raises(ValueError, match="degree"):
        homotopy_residual(phi, t)
    with pytest.raises(ValueError, match="degree"):
        multiplier_homotopy(phi, t)
    with pytest.raises(ValueError,
                       match=r"the homotopy lowers degree; need degree >= 1"):
        equivariance_defect(phi, (t,), (t,))
