"""Minimization, decay curves, finite homology, and central families."""

import numpy as np
import pytest

from lplab import vanishing
from lplab.cli import EXIT_INVARIANT, main
from lplab.groups import InvariantViolation, group_from_name
from lplab.group_ring import RingElement
from lplab.resolutions import resolution_from_name
from lplab.lp_complex import (
    TruncatedSpace,
    Vector,
    assemble_boundary,
    pairing,
    vector_from_ring_parts,
)
from lplab.vanishing import (
    boundary_distance_curve,
    central_catalog,
    finite_group_homology_ranks,
    finite_index_compare,
    lp_distance,
    translation_pairing_decay,
)

from oracles import (
    degree_zero_distance,
    dense_normal_equations_distance,
    exact_rank,
    translated_pairing_by_summation,
)


def test_feasible_point_has_zero_distance():
    rng = np.random.default_rng(0)
    T = rng.standard_normal((40, 15))
    c0 = rng.standard_normal(15)
    x = T @ c0
    for p in (1.5, 2.0, 3.0):
        result = lp_distance(x, T, p)
        assert result.value <= 1e-9
    # a zero residual gives the zero dual vector, and no division by its norm
    T = np.eye(6)[:, :3]
    with np.errstate(all="raise"):
        for p in (1.5, 2.0, 3.0):
            result = lp_distance(T @ [1.0, -2.0, 3.0], T, p)
            assert result.value <= 1e-9
            assert result.lower == 0.0 and result.converged


def test_zero_operator_distance_is_the_norm():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(25)
    for p in (1.5, 2.0, 3.0):
        result = lp_distance(x, np.zeros((25, 0)), p)
        assert abs(result.value
                   - float(np.sum(np.abs(x) ** p) ** (1 / p))) < 1e-12
        assert result.lower == result.value
        result = lp_distance(x, np.zeros((25, 4)), p)
        assert abs(result.value
                   - float(np.sum(np.abs(x) ** p) ** (1 / p))) < 1e-9


def test_least_squares_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for trial in range(50):
        rows = int(rng.integers(5, 60)) if trial < 49 else 500
        cols = int(rng.integers(1, max(2, rows // 2)))
        T = rng.standard_normal((rows, cols))
        x = rng.standard_normal(rows)
        ours = lp_distance(x, T, 2.0)
        reference = dense_normal_equations_distance(T, x)
        assert abs(ours.value - reference) <= 1e-8
        assert ours.method == "least-squares"


def test_truncated_boundary_distance_matches_oracle():
    res = resolution_from_name("cyclic-inf")
    for radius in range(1, 9):
        op = assemble_boundary(res, 1, radius)
        x = vector_from_ring_parts(op.codomain, [RingElement.one(res.group)])
        ours = lp_distance(x.coefficients, op.matrix, 2.0)
        reference = dense_normal_equations_distance(op.matrix, x.coefficients)
        assert abs(ours.value - reference) <= 1e-8


@pytest.mark.parametrize("name, i, radius, rank", [
    ("fox:heisenberg", 1, 4, 230),
    ("fox:heisenberg", 1, 5, 480),
    ("fox:heisenberg", 2, 3, 96),
    ("lattice:3", 2, 4, 321),
    ("lattice:2", 1, 8, 170),
    ("fox:dihedral-inf", 1, 6, 26),
])
def test_rank_deficient_boundary_distance_matches_svd_projection(
        name, i, radius, rank):
    # these boundaries have singular values of rounding size next to ones
    # near 4; the solve must drop them, as the projection onto the leading
    # left singular vectors does, and its residual must pass the
    # orthogonality gate
    op = assemble_boundary(resolution_from_name(name), i, radius)
    rows = op.matrix.shape[0]
    u, s, _ = np.linalg.svd(op.matrix, full_matrices=False)
    basis = u[:, s > 1e-10 * s[0]]
    assert basis.shape[1] == rank < min(op.matrix.shape)
    delta = np.zeros(rows)
    delta[0] = 1.0
    for x in (delta, np.random.default_rng(0).standard_normal(rows)):
        expected = float(np.linalg.norm(x - basis @ (basis.T @ x)))
        assert abs(lp_distance(x, op.matrix, 2.0).value - expected) <= 1e-8


def _svd_projection_distance(T, x):
    u, s, _ = np.linalg.svd(T, full_matrices=False)
    basis = u[:, s > 1e-10 * s[0]]
    return float(np.linalg.norm(x - basis @ (basis.T @ x)))


def _gate_scale(T, x):
    return (1.0 + float(np.linalg.norm(x))) * (1.0 + float(np.abs(T).max()))


def _curve_problem(name, degree, radius):
    res = resolution_from_name(name)
    op = assemble_boundary(res, degree + 1, radius)
    parts = [RingElement.one(res.group)]
    parts += [RingElement.zero(res.group)] * (res.ranks[degree] - 1)
    return op.matrix, vector_from_ring_parts(op.codomain, parts).coefficients


def _rank_deficient_random(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    return T, rng.standard_normal(rows)


@pytest.mark.parametrize("problem", [
    # the seven single-radius p = 2 problems of the lp-direct benchmark
    ("fox:free:2", 0, 4),
    ("fox:heisenberg", 0, 4),
    ("fox:heisenberg", 0, 5),
    ("fox:heisenberg", 1, 4),
    ("lattice:3", 0, 6),
    ("lattice:3", 1, 4),
    ("lattice:2", 0, 16),
    # a path of 257 edges: CGLS needs all 257 steps
    ("cyclic-inf", 0, 128),
    ("random", 80, 40, 12),
    ("random", 40, 80, 12),
], ids=lambda problem: "-".join(map(str, problem)))
def test_least_squares_distance_matches_svd_projection(problem):
    if problem[0] == "random":
        T, x = _rank_deficient_random(*problem[1:], seed=12)
        assert np.linalg.matrix_rank(T) == problem[3]
    else:
        T, x = _curve_problem(*problem)
    result = lp_distance(x, T, 2.0)
    expected = _svd_projection_distance(T, x)
    assert abs(result.value - expected) <= 1e-12 * expected
    # <r, x>/||r|| trails ||r|| by <T^t r, c>/||r||: 1.2e-11 relative at
    # fox:free:2, where CGLS stopped at gradient 3.6e-14 scale
    assert 0.0 <= result.value - result.lower <= 1e-10 * result.value
    gradient = np.max(np.abs(T.T @ (x - T @ result.coefficients)))
    assert gradient <= 1e-10 * _gate_scale(T, x)
    assert (result.method, result.iterations, result.converged) == (
        "least-squares", 1, True)


def test_least_squares_solve_that_misses_the_gate_raises(monkeypatch,
                                                         tmp_path):
    # fox:heisenberg degree 0 at R=4 needs about a hundred CGLS steps; capped
    # at one, the residual is far from orthogonal to the column space
    T, x = _curve_problem("fox:heisenberg", 0, 4)
    uncapped = vanishing._cgls

    def one_step(T, x, tol, max_steps):
        return uncapped(T, x, tol, 1)

    tol = vanishing._CG_TOL * _gate_scale(T, x)
    for steps in (1, 50):
        c = uncapped(T, x, tol, steps)
        gradient = np.max(np.abs(T.T @ (x - T @ c)))
        assert gradient > vanishing._GATE_TOL * _gate_scale(T, x)
    monkeypatch.setattr(vanishing, "_cgls", one_step)
    with pytest.raises(InvariantViolation, match="not orthogonal"):
        lp_distance(x, T, 2.0)
    # the failure aborts the curve, and the run writes no CSV
    config = tmp_path / "curve.cfg"
    config.write_text("experiment=distance-curve\nresolution=fox:heisenberg\n"
                      f"degree=0\np=2\nR=4\noutput={tmp_path / 'curve.csv'}\n",
                      encoding="utf-8")
    assert main(["run", str(config)]) == EXIT_INVARIANT
    assert not (tmp_path / "curve.csv").exists()


def test_irls_objective_never_increases_and_is_stable():
    rng = np.random.default_rng(3)
    T = rng.standard_normal((30, 10))
    x = rng.standard_normal(30)
    for p in (1.5, 3.0):
        short = lp_distance(x, T, p, max_iterations=500)
        long = lp_distance(x, T, p, max_iterations=5000)
        assert short.converged
        assert abs(short.value - long.value) <= 1e-6


def test_dual_bound_brackets_the_value():
    rng = np.random.default_rng(4)
    for trial in range(20):
        rows = int(rng.integers(5, 40))
        T = rng.standard_normal((rows, int(rng.integers(1, rows))))
        x = rng.standard_normal(rows)
        for p in (1.5, 3.0):
            result = lp_distance(x, T, p)
            assert 0.0 < result.lower <= result.value * (1 + 1e-12)
            assert result.converged
            assert result.value - result.lower <= 1e-9 * result.value


@pytest.mark.parametrize("name, radius, reached", [
    ("cyclic-inf", 16, 34),
    ("lattice:2", 8, 171),
    ("fox:heisenberg", 3, 100),
    ("fox:free:2", 2, 35),
])
def test_degree_zero_distance_has_closed_form(name, radius, reached):
    res = resolution_from_name(name)
    op = assemble_boundary(res, 1, radius)
    x = vector_from_ring_parts(op.codomain, [RingElement.one(res.group)])
    for p in (1.5, 3.0):
        count, expected = degree_zero_distance(res.group, radius, p)
        assert count == reached
        result = lp_distance(x.coefficients, op.matrix, p)
        assert abs(result.value - expected) <= 1e-12
        assert abs(result.lower - expected) <= 1e-12
        assert result.iterations == 0  # the least-squares start is certified


def test_dual_point_must_lie_in_the_kernel():
    # y = sgn(r)|r|^(p-1) off ker T^t is no dual point: on lattice:2 degree 1
    # at p = 3 it "bounds" the distance from above, while every bound
    # lp_distance reports, already after one IRLS step, stays below it
    res = resolution_from_name("lattice:2")
    op = assemble_boundary(res, 2, 3)
    T = op.matrix
    parts = [RingElement.one(res.group), RingElement.zero(res.group)]
    x = vector_from_ring_parts(op.codomain, parts).coefficients
    for p in (1.5, 3.0):
        reference = lp_distance(x, T, p, max_iterations=5000)
        assert reference.converged
        for steps in (1, 2, 3):
            result = lp_distance(x, T, p, max_iterations=steps)
            assert not result.converged
            assert 0.0 < result.lower <= reference.value * (1 + 1e-12)
    p, q = 3.0, 1.5
    r = x - T @ lp_distance(x, T, 2.0).coefficients
    y = np.sign(r) * np.abs(r) ** (p - 1)
    bound = float(y @ x) / float(np.sum(np.abs(y) ** q) ** (1 / q))
    assert bound > 1.5 * reference.value


def test_dual_bound_on_a_wide_rank_deficient_operator():
    # 10 x 30 of rank 5: the least-squares solve cuts the rank and T has more
    # columns than rows
    rng = np.random.default_rng(11)
    T = rng.standard_normal((10, 5)) @ rng.standard_normal((5, 30))
    x = rng.standard_normal(10)
    for p in (1.5, 3.0):
        reference = lp_distance(x, T, p, max_iterations=5000)
        result = lp_distance(x, T, p)
        assert result.converged
        assert abs(result.value - reference.value) <= 1e-9 * reference.value
        for steps in (1, 2, 3, 500):
            lower = lp_distance(x, T, p, max_iterations=steps).lower
            assert 0.0 < lower <= reference.value * (1 + 1e-12)


def test_distance_curve_assembles_each_radius_once(monkeypatch):
    calls = []

    def counting(res, i, radius):
        calls.append(radius)
        return assemble_boundary(res, i, radius)

    res = resolution_from_name("lattice:2")
    parts = [RingElement.one(res.group)]
    monkeypatch.setattr(vanishing, "assemble_boundary", counting)
    curve = boundary_distance_curve(res, 0, parts, [1.5, 3.0], range(2, 5))
    assert calls == [2, 3, 4]
    # rows stay grouped by p, as two one-p curves would give them
    assert curve.rows == tuple(
        row for p in (1.5, 3.0)
        for row in boundary_distance_curve(res, 0, parts, [p],
                                           range(2, 5)).rows)


def test_distance_threshold_radius():
    res = resolution_from_name("cyclic-inf")
    one = RingElement.one(res.group)
    curve = boundary_distance_curve(res, 0, [one], [2.0], range(1, 17))
    crossing = min(row.index for row in curve.rows if row.value < 0.2)
    assert crossing == 12


def test_finite_cyclic_kernel_vector_is_reached():
    # order four, degree 1: the kernel of the first boundary is spanned by the
    # constant vector, which the norm element hits exactly
    res = resolution_from_name("cyclic:4:3")
    op = assemble_boundary(res, 2, 4)
    constant = np.ones(op.codomain.dim)
    result = lp_distance(constant, op.matrix, 2.0)
    assert result.value <= 1e-9
    first = assemble_boundary(res, 1, 4)
    assert np.max(np.abs(first.matrix @ constant)) == 0.0


def test_lattice_two_curve_nonincreasing():
    res = resolution_from_name("lattice:2")
    one = RingElement.one(res.group)
    curve = boundary_distance_curve(res, 0, [one], [2.0], range(1, 5))
    values = [row.value for row in curve.rows]
    assert all(later <= earlier + 1e-12
               for earlier, later in zip(values, values[1:]))


def test_degree_one_lattice_curve_falls_to_the_closed_image_distance():
    # x is the delta on copy 0 of the 1-chains, not a cycle, so the curve
    # falls to d_B = dist_2(x, closure of im d_2) = 1/sqrt(2): the energy of
    # the unit current through an edge of Z^2, whose effective resistance
    # is 1/2.  A truncated image lies inside the closed one, so no value
    # can drop below d_B.
    res = resolution_from_name("lattice:2")
    parts = [RingElement.one(res.group), RingElement.zero(res.group)]
    curve = boundary_distance_curve(res, 1, parts, [2.0], range(2, 9))
    values = [row.value for row in curve.rows]
    floor = 1.0 / np.sqrt(2.0)
    assert all(value >= floor - 1e-12 for value in values)
    assert values[-1] - floor < 0.003


def test_translation_decay_exact_zero_tail():
    group = group_from_name("Z^1")
    space = TruncatedSpace(group, 1, 5)
    rng = np.random.default_rng(4)
    x = Vector(space, rng.standard_normal(space.dim))
    y = Vector(space, rng.standard_normal(space.dim))
    sequence = central_catalog(group, 1)
    curve = translation_pairing_decay(y, x, sequence, range(-12, 13), 2.0)
    values = {row.index: row.value for row in curve.rows}
    assert values[0] == pairing(y, x)
    for index, value in values.items():
        if abs(index) > 10:
            assert value == 0.0


def test_dihedral_class_sum_decay_matches_direct_summation():
    group = group_from_name("dihedral-inf")
    space = TruncatedSpace(group, 1, 4)
    rng = np.random.default_rng(5)
    x = Vector(space, rng.standard_normal(space.dim))
    y = Vector(space, rng.standard_normal(space.dim))
    sequence = central_catalog(group, 12)
    curve = translation_pairing_decay(y, x, sequence, range(1, 13), 2.0)

    x_map = {(0, g): float(x.coefficients[i])
             for i, g in enumerate(space.elements)}
    y_map = {(0, g): float(y.coefficients[i])
             for i, g in enumerate(space.elements)}
    for row in curve.rows:
        reference = translated_pairing_by_summation(
            y_map, x_map, sequence.ring_element(row.index))
        assert abs(row.value - reference) <= 1e-12
        if row.index > 8:
            assert row.value == 0.0

    # cut-off bound: translating by a two-element class sum scales the
    # pairing bound by at most the class size, and the tail realizes the
    # epsilon = 0 case exactly once the supports separate
    bound = 2.0 * y.norm(2.0) * x.norm(2.0)
    assert all(abs(row.value) <= bound * (1 + 1e-12) for row in curve.rows)


def test_finite_group_homology_ranks():
    assert finite_group_homology_ranks(4, 3) == (1, 0, 0, 0)
    assert finite_group_homology_ranks(2, 2) == (1, 0, 0)
    assert finite_group_homology_ranks(3, 1) == (1, 0)


def test_homology_ranks_match_exact_rank_oracle():
    res = resolution_from_name("cyclic:6:4")
    size = 6
    mats = [assemble_boundary(res, i, size).matrix for i in range(1, 5)]
    dims = [size - exact_rank(mats[0])]
    for i in range(1, 4):
        dims.append((size - exact_rank(mats[i - 1])) - exact_rank(mats[i]))
    assert tuple(dims) == finite_group_homology_ranks(6, 3)


def test_homology_ranks_independent_of_p_and_threshold():
    # no exponent enters the ranks: the boundaries are p-free matrices
    for threshold in (1e-9, 1e-8, 1e-7):
        assert finite_group_homology_ranks(
            4, 3, rank_threshold=threshold) == (1, 0, 0, 0)


def test_finite_index_compare():
    report = finite_index_compare(4, 2)
    assert report.equal and report.dims_group == (1, 0, 0, 0)
    report = finite_index_compare(6, 3)
    assert report.equal
    report = finite_index_compare(4, 4)
    assert report.equal
    with pytest.raises(ValueError, match="does not divide"):
        finite_index_compare(4, 3)


def test_central_catalog_families():
    heis = group_from_name("heisenberg")
    seq = central_catalog(heis, 5)
    assert seq.kind == "powers"
    powers = [seq.ring_element(i) for i in range(-2, 3)]
    assert powers[2] == RingElement.one(heis)
    assert all(u.is_central() for u in powers)
    assert len({str(u) for u in powers}) == 5

    dihedral = group_from_name("dihedral-inf")
    seq = central_catalog(dihedral, 3)
    r = dihedral.generators[0]
    assert [seq.ring_element(n) for n in (1, 2, 3)] == [
        RingElement(dihedral, [(r ** n, 1), (r ** -n, 1)]) for n in (1, 2, 3)]

    with pytest.raises(ValueError, match="no infinite central family"):
        central_catalog(group_from_name("free:2"), 3)
    with pytest.raises(ValueError, match="finite"):
        central_catalog(group_from_name("cyclic:4"), 3)


@pytest.mark.parametrize("name, order", [
    ("trivial", 1), ("cyclic:4", 4), ("cyclic:64", 64), ("cyclic:65", 65),
    ("cyclic:100", 100)])
def test_central_catalog_rejects_finite_groups_with_the_exact_order(name,
                                                                    order):
    with pytest.raises(ValueError, match=f"of finite order {order} "):
        central_catalog(group_from_name(name), 3)


def test_non_convergence_is_flagged_not_raised():
    rng = np.random.default_rng(7)
    T = rng.standard_normal((30, 10))
    x = rng.standard_normal(30)
    result = lp_distance(x, T, 1.5, max_iterations=3)
    assert not result.converged
    assert result.iterations == 3
    assert result.value > 0.0  # value still reported


def test_argmin_exports_in_vector_csv_format(tmp_path):
    res = resolution_from_name("cyclic-inf")
    op = assemble_boundary(res, 1, 2)
    result = lp_distance(np.ones(op.codomain.dim), op.matrix, 2.0)
    vec = Vector(op.domain, result.coefficients)
    from lplab.lp_complex import export_vector_csv
    out = tmp_path / "argmin.csv"
    export_vector_csv(vec, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "copy,element,value"
    assert len(lines) == 1 + op.domain.dim


def test_monotonicity_violation_is_reported():
    rng = np.random.default_rng(6)
    T = rng.standard_normal((10, 3))
    x = rng.standard_normal(11)
    with pytest.raises(ValueError, match="dimension mismatch"):
        lp_distance(x, T, 2.0)
    with pytest.raises(ValueError, match="exponent"):
        lp_distance(x[:10], T, 1.0)
    with pytest.raises(ValueError, match="max_iterations"):
        lp_distance(x[:10], T, 1.5, max_iterations=0)
    with pytest.raises(ValueError):
        lp_distance(np.full(10, np.nan), T, 1.5)
    bad_T = T.copy()
    bad_T[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite input: T"):
        lp_distance(x[:10], bad_T, 2.0)
    bad_x = x[:10].copy()
    bad_x[4] = np.inf
    with pytest.raises(ValueError, match="non-finite input: x"):
        lp_distance(bad_x, T, 1.5)


def test_free_group_control_curve_runs_without_decay_claim():
    # the control group carries no decay claim; only the structural
    # monotonicity from nested feasible sets is checked
    res = resolution_from_name("fox:free:2")
    one = RingElement.one(res.group)
    curve = boundary_distance_curve(res, 0, [one], [2.0], range(1, 5))
    values = [row.value for row in curve.rows]
    assert all(later <= earlier + 1e-12
               for earlier, later in zip(values, values[1:]))
    assert all(value >= 0.0 for value in values)
