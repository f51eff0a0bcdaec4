"""Truncated operators and their duals, norms, pairing, translation."""

import tracemalloc

import numpy as np
import pytest

from lplab import checks, lp_complex
from lplab.groups import BallCapError, InvariantViolation, group_from_name
from lplab.group_ring import RingElement
from lplab.resolutions import resolution_from_name
from lplab.lp_complex import (
    TruncatedSpace,
    Vector,
    assemble_boundary,
    conjugate_exponent,
    delta_chain,
    dual_boundary,
    embed,
    export_matrix_coordinate,
    export_vector_csv,
    lp_norm,
    pairing,
    translate,
    translate_ring,
    vector_from_ring_parts,
)

from oracles import naive_boundary_matrix, naive_p_norm, naive_pairing


def test_conjugate_exponent():
    for p in (1.5, 2.0, 3.0):
        q = conjugate_exponent(p)
        assert abs(1 / p + 1 / q - 1.0) < 1e-15
    group = group_from_name("Z^1")
    vec = delta_chain(TruncatedSpace(group, 1, 2), 0, group.identity)
    for bad in (0.5, float("inf")):
        with pytest.raises(ValueError, match="exponent"):
            vec.norm(bad)


def test_assemble_shape_and_column_pattern():
    res = resolution_from_name("cyclic-inf")
    op = assemble_boundary(res, 1, 1)
    assert op.domain.dim == 3 and op.codomain.dim == 5
    t = res.group.generators[0]
    for pos, h in enumerate(op.domain.elements):
        column = op.matrix[:, pos]
        plus = op.codomain.index_of(0, h * t)
        minus = op.codomain.index_of(0, h)
        expected = np.zeros(op.codomain.dim)
        expected[plus] += 1.0
        expected[minus] -= 1.0
        assert np.array_equal(column, expected)


def test_assemble_norm_element_columns():
    res = resolution_from_name("cyclic:4:2")
    op = assemble_boundary(res, 2, 4)
    # every column of the norm convolution has four entries equal to one
    for col in range(op.matrix.shape[1]):
        column = op.matrix[:, col]
        assert np.sum(column == 1.0) == 4
        assert np.sum(np.abs(column)) == 4


@pytest.mark.parametrize("name", checks.CATALOG_RESOLUTIONS)
def test_assembled_composition_is_exactly_zero(name):
    checks.check_composition_zero(name)


@pytest.mark.parametrize("name", checks.CATALOG_RESOLUTIONS)
def test_assembly_matches_the_naive_oracle(name):
    res = resolution_from_name(name)
    for i in range(1, res.length + 1):
        for radius in range(4):
            assert np.array_equal(assemble_boundary(res, i, radius).matrix,
                                  naive_boundary_matrix(res, i, radius))


@pytest.mark.parametrize("name", checks.CATALOG_RESOLUTIONS)
def test_stored_nonzeros_are_the_naive_matrix_read_row_by_row(name):
    # in order and value, for the boundary and for its dual, the transpose
    res = resolution_from_name(name)
    for i in range(1, res.length + 1):
        for radius in range(4):
            reference = naive_boundary_matrix(res, i, radius)
            for nonzeros, dense in (
                    (assemble_boundary(res, i, radius).nonzeros, reference),
                    (dual_boundary(res, i, radius).nonzeros, reference.T)):
                rows, cols = np.nonzero(dense)
                assert nonzeros.shape == dense.shape
                assert np.array_equal(nonzeros.rows, rows)
                assert np.array_equal(nonzeros.cols, cols)
                assert np.array_equal(nonzeros.values, dense[rows, cols])


@pytest.mark.parametrize("name", checks.CATALOG_RESOLUTIONS)
def test_restricting_the_largest_operator_assembles_each_radius(name):
    res = resolution_from_name(name)
    for i in range(1, res.length + 1):
        full = assemble_boundary(res, i, 5)
        assert full.restricted(5) is full
        with pytest.raises(ValueError, match="exceeds the assembled radius 5"):
            full.restricted(6)
        for radius in range(6):
            cut, op = full.restricted(radius), assemble_boundary(res, i, radius)
            for space, expected in ((cut.domain, op.domain),
                                    (cut.codomain, op.codomain)):
                assert (space.rank, space.radius, space.elements) == \
                    (expected.rank, expected.radius, expected.elements)
            assert cut.nonzeros.shape == op.nonzeros.shape
            for got, expected in zip(cut.nonzeros[:3], op.nonzeros[:3]):
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)


def test_reading_a_matrix_over_the_dense_cap_raises_before_allocating():
    # fox:free:2 i=1 at R=7 has 17492 nonzeros and would be 0.92 GB dense
    op = assemble_boundary(resolution_from_name("fox:free:2"), 1, 7)
    assert op.nonzeros.shape == (13121, 8746)
    assert op.nonzeros.values.size == 17492
    size = 13121 * 8746 * 8
    assert size > lp_complex.DENSE_BYTE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(BallCapError,
                           match=f"dense 13121x8746 matrix needs {size} bytes"):
            op.matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_assembly_raises_when_a_product_escapes_the_ball(monkeypatch):
    # with no room for growth the codomain ball is the domain ball, and the
    # boundary's entries carry its outer layer beyond it
    res = resolution_from_name("fox:heisenberg")
    monkeypatch.setattr(lp_complex, "boundary_growth", lambda res, i: 0)
    for i in (1, 2):
        with pytest.raises(RuntimeError, match="escaped the enlarged ball"):
            assemble_boundary(res, i, 2)


def test_rank_zero_boundary_assembles():
    res = resolution_from_name("fox:free:2")
    op = assemble_boundary(res, 2, 2)
    assert op.domain.rank == 0
    assert op.matrix.shape[1] == 0


def test_dual_is_transpose():
    res = resolution_from_name("cyclic-inf")
    op = assemble_boundary(res, 1, 2)
    dual = dual_boundary(res, 1, 2)
    assert np.array_equal(dual.matrix, op.matrix.T)
    assert dual.domain is not op.domain  # spaces swap roles
    assert dual.matrix.shape == (op.matrix.shape[1], op.matrix.shape[0])


def test_dual_on_order_two_group_is_involution_pattern():
    res = resolution_from_name("cyclic:2:1")
    op = assemble_boundary(res, 1, 2)
    # t = t^-1 in order two, so the convolution matrix is symmetric
    assert np.array_equal(op.matrix, op.matrix.T)


@pytest.mark.parametrize("name", checks.CATALOG_RESOLUTIONS)
def test_dual_is_the_coboundary(name):
    res = resolution_from_name(name)
    for i in range(1, res.length + 1):
        for radius in range(4):
            checks.check_dual_is_coboundary(res, i, radius)


def _corrupted_dual(corrupt):
    """dual_boundary with corrupt applied to a copy of its nonzero values."""
    def wrong(res, i, radius):
        dual = dual_boundary(res, i, radius)
        values = dual.nonzeros.values.copy()
        corrupt(dual.nonzeros, values)
        return lp_complex.BoundaryOperator(dual.domain, dual.codomain,
                                           dual.nonzeros._replace(values=values))
    return wrong


def _scale_column_one(nonzeros, values):
    values[nonzeros.cols == 1] *= 4.0


def _flip_first_sign(nonzeros, values):
    values[0] = -values[0]


@pytest.mark.parametrize("corrupt", [_scale_column_one, _flip_first_sign],
                         ids=["scaled-column", "flipped-sign"])
def test_a_corrupted_dual_is_not_the_coboundary(monkeypatch, corrupt):
    monkeypatch.setattr(lp_complex, "dual_boundary", _corrupted_dual(corrupt))
    res = resolution_from_name("cyclic:4:2")
    with pytest.raises(InvariantViolation, match="^the dual of boundary 1 of "
                       "cyclic:4:2 at R=4 is not its coboundary$"):
        checks.check_dual_is_coboundary(res, 1, 4)


def test_a_star_without_inversion_is_not_the_coboundary(monkeypatch):
    monkeypatch.setattr(RingElement, "star", lambda u: u)
    res = resolution_from_name("cyclic-inf")
    with pytest.raises(InvariantViolation, match="^the dual of boundary 1 of "
                       "cyclic-inf at R=3 is not its coboundary$"):
        checks.check_dual_is_coboundary(res, 1, 3)


def test_norms():
    space = TruncatedSpace(group_from_name("Z^1"), 1, 2)
    for copy_g in [(0, space.elements[0]), (0, space.elements[3])]:
        assert delta_chain(space, *copy_g).norm(3.0) == 1.0
    two = np.zeros(space.dim)
    two[0] = two[1] = 1.0
    assert abs(Vector(space, two).norm(2.0) - np.sqrt(2)) < 1e-15

    rng = np.random.default_rng(1)
    coords = rng.standard_normal(space.dim)
    vec = Vector(space, coords)
    assert abs(vec.norm(3.0) - naive_p_norm(coords, 3.0)) < 1e-12
    assert abs(vec.norm(conjugate_exponent(3.0))
               - naive_p_norm(coords, 1.5)) < 1e-12
    # |v|^p under- and overflows, and the norm is taken on v / max |v|
    assert lp_norm(np.array([0.1, 0.05]), 400.0) == 0.1
    with np.errstate(over="ignore"):
        assert lp_norm(np.array([1e200, 1.0]), 2.0) == 1e200


def test_vector_rejects_non_finite():
    space = TruncatedSpace(group_from_name("Z^1"), 1, 1)
    bad = np.zeros(space.dim)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        Vector(space, bad)


def test_pairing_examples():
    group = group_from_name("Z^1")
    space = TruncatedSpace(group, 1, 1)
    t = group.generators[0]
    x = vector_from_ring_parts(space, [RingElement(group, [
        (group.identity, 1), (t, 2)])])
    y = vector_from_ring_parts(space, [RingElement(group, [
        (group.identity, 3), (t, -1)])])
    assert pairing(y, x) == 1.0
    zero = Vector(space, np.zeros(space.dim))
    assert pairing(y, zero) == 0.0


def test_pairing_aligns_different_radii():
    group = group_from_name("Z^1")
    small = TruncatedSpace(group, 1, 1)
    large = TruncatedSpace(group, 1, 3)
    t = group.generators[0]
    x = vector_from_ring_parts(large, [RingElement(group, [(t, 5)])])
    y = vector_from_ring_parts(small, [RingElement(group, [(t, 2)])])
    assert pairing(y, x) == 10.0

    x_map = {(0, t): 5.0}
    y_map = {(0, t): 2.0}
    assert naive_pairing(y_map, x_map) == 10.0


def test_pairing_rejects_rank_mismatch():
    group = group_from_name("Z^1")
    x = Vector(TruncatedSpace(group, 1, 1), np.zeros(3))
    y = Vector(TruncatedSpace(group, 2, 1), np.zeros(6))
    with pytest.raises(ValueError, match="rank mismatch"):
        pairing(y, x)


def test_translate_examples():
    group = group_from_name("Z^1")
    t = group.generators[0]
    space = TruncatedSpace(group, 1, 1)
    x = vector_from_ring_parts(space, [RingElement.from_element(t)])
    shifted = translate(x, t ** 2)
    assert shifted.coefficient(0, t ** 3) == 1.0
    assert np.sum(shifted.coefficients != 0.0) == 1

    same = translate(x, group.identity)
    assert np.array_equal(same.coefficients[:space.dim], x.coefficients)

    dihedral = group_from_name("dihedral-inf")
    r = dihedral.generators[0]
    d_space = TruncatedSpace(dihedral, 1, 0)
    delta_e = vector_from_ring_parts(d_space, [RingElement.one(dihedral)])
    u = RingElement(dihedral, [(r, 1), (r.inverse(), 1)])
    spread = translate_ring(delta_e, u)
    assert spread.coefficient(0, r) == 1.0
    assert spread.coefficient(0, r.inverse()) == 1.0
    assert np.sum(spread.coefficients != 0.0) == 2


def test_translate_preserves_coefficient_multiset():
    rng = np.random.default_rng(3)
    group = group_from_name("heisenberg")
    space = TruncatedSpace(group, 1, 2)
    g = group.element((1, -1, 0))
    for _ in range(10):
        x = Vector(space, rng.standard_normal(space.dim))
        moved = translate(x, g)
        before = sorted(c for c in x.coefficients if c != 0.0)
        after = sorted(c for c in moved.coefficients if c != 0.0)
        assert before == after
        assert abs(moved.norm(1.5) - x.norm(1.5)) < 1e-14


def test_embed_rejects_support_escape():
    group = group_from_name("Z^1")
    big = TruncatedSpace(group, 1, 3)
    small = TruncatedSpace(group, 1, 1)
    t = group.generators[0]
    x = vector_from_ring_parts(big, [RingElement.from_element(t ** 3)])
    with pytest.raises(ValueError, match="escapes"):
        embed(x, small)
    with pytest.raises(ValueError, match="escapes"):
        delta_chain(small, 0, t ** 2)
    with pytest.raises(ValueError, match="escapes"):
        vector_from_ring_parts(small, [RingElement.from_element(t ** -2)])


def test_translate_rejects_element_of_another_group():
    space = TruncatedSpace(group_from_name("Z^1"), 1, 2)
    x = delta_chain(space, 0, space.elements[0])
    s = group_from_name("dihedral-inf").generators[1]
    with pytest.raises(ValueError):
        translate(x, s)
    with pytest.raises(ValueError):
        translate_ring(x, RingElement.from_element(s))


def test_spaces_reject_elements_of_another_group():
    # Z^3 shares the key (1,0,0) with the Heisenberg generator x
    space = TruncatedSpace(group_from_name("heisenberg"), 1, 2)
    foreign = group_from_name("Z^3").generators[0]
    with pytest.raises(ValueError, match="cross-group operand"):
        vector_from_ring_parts(space, [RingElement.from_element(foreign)])
    with pytest.raises(ValueError, match="cross-group operand"):
        delta_chain(space, 0, foreign)
    x = delta_chain(space, 0, space.group.generators[0])
    with pytest.raises(ValueError, match="cross-group operand"):
        x.coefficient(0, foreign)
    assert x.coefficient(0, space.group.generators[0]) == 1.0


def test_index_of_rejects_a_copy_outside_the_rank():
    group = group_from_name("Z^2")
    space = TruncatedSpace(group, 2, 1)
    e = group.identity
    assert space.index_of(1, e) == len(space.elements)
    assert space.index_of(1, group.parse_element("(2,0)")) is None
    for copy in (2, -1):
        with pytest.raises(ValueError, match=f"copy {copy} outside 0..1"):
            space.index_of(copy, e)


def test_delta_chain_rejects_a_copy_outside_the_rank():
    group = group_from_name("Z^2")
    space = TruncatedSpace(group, 2, 1)
    with pytest.raises(ValueError, match="copy 5 outside 0..1"):
        delta_chain(space, 5, group.identity)
    with pytest.raises(ValueError, match="escapes radius 1"):
        delta_chain(space, 1, group.parse_element("(2,0)"))


def test_coefficient_rejects_a_copy_outside_the_rank():
    group = group_from_name("Z^2")
    x = delta_chain(TruncatedSpace(group, 2, 1), 1, group.identity)
    for copy in (7, -1):
        with pytest.raises(ValueError, match=f"copy {copy} outside 0..1"):
            x.coefficient(copy, group.identity)
    assert x.coefficient(1, group.identity) == 1.0
    assert x.coefficient(1, group.parse_element("(2,0)")) == 0.0


def test_export_formats(tmp_path):
    res = resolution_from_name("cyclic-inf")
    op = assemble_boundary(res, 1, 1)
    matrix_path = tmp_path / "matrix.txt"
    export_matrix_coordinate(op, matrix_path, resolution="cyclic-inf", index=1)
    lines = matrix_path.read_text().splitlines()
    assert lines[0] == "# group=Z^1 resolution=cyclic-inf i=1 R=1"
    assert all(len(line.split()) == 3 for line in lines[2:])

    vec = delta_chain(op.codomain, 0, res.group.identity)
    vector_path = tmp_path / "vector.csv"
    export_vector_csv(vec, vector_path)
    lines = vector_path.read_text().splitlines()
    assert lines[0] == "copy,element,value"
    assert len(lines) == 1 + op.codomain.dim


def test_matrix_export_lists_the_nonzeros_row_by_row(tmp_path):
    res = resolution_from_name("fox:heisenberg")
    op = assemble_boundary(res, 2, 2)
    path = tmp_path / "matrix.txt"
    export_matrix_coordinate(op, path, resolution="fox:heisenberg", index=2)
    dense = naive_boundary_matrix(res, 2, 2)
    rows, cols = np.nonzero(dense)
    expected = ["# group=heisenberg resolution=fox:heisenberg i=2 R=2",
                f"# shape={dense.shape[0]}x{dense.shape[1]}"]
    expected += [f"{r} {c} {dense[r, c]:.17g}" for r, c in zip(rows, cols)]
    assert path.read_text() == "\n".join(expected) + "\n"
