"""Exact bar-complex checks: coboundary, homotopy identity, class sums."""

from fractions import Fraction
from random import Random

import pytest

from lplab.groups import group_from_name
from lplab.group_ring import RingElement, conjugacy_class
from lplab.homotopy import (
    EquivariantCochain,
    ResidualReport,
    WindowUnderflowError,
    class_sum_homotopy_residual,
    coboundary,
    equivariance_defect,
    homotopy_residual,
    multiplier_homotopy,
    random_cochain,
    zero_cochain,
)


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


def test_cochain_rejects_foreign_tail_elements():
    lattice = group_from_name("Z^3")
    foreign = group_from_name("heisenberg").element((1, 0, 0))
    with pytest.raises(ValueError, match="cross-group"):
        EquivariantCochain(lattice, 1, 1, {(foreign,): RingElement.one(lattice)})


def test_window_underflow_reports_required_radius():
    rng = Random(2)
    group = group_from_name("Z^1")
    phi = random_cochain(group, 0, 2, rng)
    truncated = coboundary(phi, radius=2)  # degree 1, truncated window 2
    with pytest.raises(WindowUnderflowError) as err:
        coboundary(truncated, radius=2)
    assert err.value.required_radius == 4
    assert coboundary(truncated).radius == 1


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


def test_residual_on_truncated_cochain_skips_out_of_window():
    rng = Random(8)
    group = group_from_name("Z^1")
    t = group.generators[0]
    phi = random_cochain(group, 1, 6, rng)
    narrowed = coboundary(multiplier_homotopy(phi, t))  # degree 1, truncated
    report = homotopy_residual(narrowed, t, eval_radius=1)
    assert report.tuples_checked >= 1


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
    assert equivariance_defect(phi, (r,), shifts, eval_radius=1) != 0


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
