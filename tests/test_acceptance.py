"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here exactly as stated; exact checks use rational
arithmetic and literal zero.  Runtime budgets are asserted alongside the
mathematical content.
"""

import time
from pathlib import Path
from random import Random

import numpy as np

from lplab.checks import (CATALOG_RESOLUTIONS, check_dual_is_coboundary,
                          fox_defect)
from lplab.groups import group_from_name
from lplab.group_ring import RingElement, conjugacy_class
from lplab.resolutions import (
    relator_words,
    resolution_from_name,
    validate,
)
from lplab.lp_complex import (
    TruncatedSpace,
    Vector,
    assemble_boundary,
    conjugate_exponent,
    pairing,
    vector_from_ring_parts,
)
from lplab.homotopy import (
    class_sum_homotopy_residual,
    homotopy_residual,
    random_cochain,
)
from lplab.vanishing import (
    boundary_distance_curve,
    central_catalog,
    finite_group_homology_ranks,
    finite_index_compare,
    lp_distance,
    translation_pairing_decay,
)
from lplab.cli import main as lab_main

from oracles import (
    dense_normal_equations_distance,
    translated_pairing_by_summation,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def _report(number: int, name: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def test_criterion_1_homotopy_identity():
    started = time.monotonic()
    rng = Random(20260809)
    cases = [("Z^1", "t"), ("heisenberg", "(0,0,1)"), ("cyclic:4", "t")]
    for name, token in cases:
        group = group_from_name(name)
        h = group.parse_element(token)
        for degree in (1, 2):
            for _ in range(20):
                phi = random_cochain(group, degree, 3, rng)
                report = homotopy_residual(phi, h)
                assert report.max_abs == 0, (name, degree)
                assert report.tuples_checked > 0
    _report(1, "homotopy-identity", started, 60.0)


def test_criterion_2_complex_property():
    started = time.monotonic()
    for name in CATALOG_RESOLUTIONS:
        report = validate(resolution_from_name(name))
        assert report.ok, (name, report.first_failure)
    for group_name in ("Z^2", "free:2", "dihedral-inf", "heisenberg"):
        group = group_from_name(group_name)
        for word in relator_words(group):
            assert fox_defect(group, word).is_zero(), group_name
    _report(2, "complex-property", started, 10.0)


def test_criterion_3_finite_group_vanishing():
    started = time.monotonic()
    assert finite_group_homology_ranks(4, 3) == (1, 0, 0, 0)
    assert finite_index_compare(4, 2).equal
    for threshold in (1e-7, 1e-8, 1e-9):  # stability under x10 and /10
        assert finite_group_homology_ranks(
            4, 3, rank_threshold=threshold) == (1, 0, 0, 0)
    _report(3, "finite-group-vanishing", started, 5.0)


def test_criterion_4_duality_plumbing():
    started = time.monotonic()
    plane = group_from_name("Z^2")
    space = TruncatedSpace(plane, 2, 3)
    for p in (1.5, 2.0, 3.0):
        rng = np.random.default_rng(int(p * 1000))
        for _ in range(1000):
            xv = Vector(space, rng.standard_normal(space.dim))
            yv = Vector(space, rng.standard_normal(space.dim))
            assert abs(pairing(yv, xv)) <= \
                yv.norm(conjugate_exponent(p)) * xv.norm(p)
    res_z = resolution_from_name("cyclic-inf")
    res_c4 = resolution_from_name("cyclic:4:2")
    for radius in (1, 2, 3, 4):
        check_dual_is_coboundary(res_z, 1, radius)
        check_dual_is_coboundary(res_c4, 1, radius)
    _report(4, "duality-plumbing", started, 30.0)


def test_criterion_5_distance_decay():
    started = time.monotonic()
    res = resolution_from_name("cyclic-inf")
    one = RingElement.one(res.group)
    radii = range(1, 17)
    curve2 = boundary_distance_curve(res, 0, [one], [2.0], radii)
    values = [row.value for row in curve2.rows]
    assert all(later < earlier for earlier, later in zip(values, values[1:]))
    for row in curve2.rows:
        op = assemble_boundary(res, 1, row.index)
        x = vector_from_ring_parts(op.codomain, [one])
        reference = dense_normal_equations_distance(op.matrix, x.coefficients)
        assert abs(row.value - reference) <= 1e-8
    for p in (1.5, 3.0):
        curve = boundary_distance_curve(res, 0, [one], [p], radii)
        vals = [row.value for row in curve.rows]
        assert all(later <= earlier + 1e-12
                   for earlier, later in zip(vals, vals[1:]))
        for row in curve.rows:
            op = assemble_boundary(res, 1, row.index)
            x = vector_from_ring_parts(op.codomain, [one])
            long_run = lp_distance(x.coefficients, op.matrix, p,
                                   max_iterations=5000)
            assert abs(row.value - long_run.value) <= 1e-6
    _report(5, "distance-decay", started, 120.0)


def test_criterion_6_translation_decay():
    started = time.monotonic()
    lattice = group_from_name("Z^1")
    space = TruncatedSpace(lattice, 1, 5)
    rng = np.random.default_rng(99)
    x = Vector(space, rng.standard_normal(space.dim))
    y = Vector(space, rng.standard_normal(space.dim))
    curve = translation_pairing_decay(y, x, central_catalog(lattice, 1),
                                      range(-14, 15), 2.0)
    for row in curve.rows:
        if abs(row.index) > 10:
            assert row.value == 0.0

    dihedral = group_from_name("dihedral-inf")
    d_space = TruncatedSpace(dihedral, 1, 4)
    xd = Vector(d_space, rng.standard_normal(d_space.dim))
    yd = Vector(d_space, rng.standard_normal(d_space.dim))
    sequence = central_catalog(dihedral, 12)
    d_curve = translation_pairing_decay(yd, xd, sequence, range(1, 13), 2.0)
    x_map = {(0, g): float(xd.coefficients[i])
             for i, g in enumerate(d_space.elements)}
    y_map = {(0, g): float(yd.coefficients[i])
             for i, g in enumerate(d_space.elements)}
    for row in d_curve.rows:
        if row.index > 8:
            assert row.value == 0.0
        else:
            reference = translated_pairing_by_summation(
                y_map, x_map, sequence.ring_element(row.index))
            assert abs(row.value - reference) <= 1e-12
    _report(6, "translation-decay", started, 10.0)


def test_criterion_7_class_sum_homotopy(tmp_path):
    started = time.monotonic()
    rng = Random(505)
    heis = group_from_name("heisenberg")
    z = heis.element((0, 0, 1))
    phi = random_cochain(heis, 1, 2, rng)
    assert class_sum_homotopy_residual(phi, [z]).max_abs == 0
    c4 = group_from_name("cyclic:4")
    t = c4.generators[0]
    phi4 = random_cochain(c4, 1, 3, rng)
    assert class_sum_homotopy_residual(
        phi4, conjugacy_class(t, 10)).max_abs == 0

    golden = GOLDEN_DIR / "class_sum_dihedral.csv"
    out = tmp_path / "class_sum_dihedral.csv"
    cfg = tmp_path / "cs.cfg"
    cfg.write_text(
        "experiment=class-sum-homotopy\ngroup=dihedral-inf\nclass=r\n"
        f"degree=1\nR=3\ncount=3\nseed=2026\noutput={out}\n",
        encoding="utf-8")
    assert lab_main(["run", str(cfg)]) == 0
    assert out.read_bytes() == golden.read_bytes()
    _report(7, "class-sum-homotopy", started, 60.0)


def test_criterion_8_determinism(tmp_path):
    started = time.monotonic()
    configs = [
        dict(experiment="verify-homotopy", group="heisenberg", degree=1,
             R=2, count=3, seed=1),
        dict(experiment="verify-homotopy", group="Z^1", degree=2, R=3,
             count=3, seed=1),
        dict(experiment="class-sum-homotopy", group="dihedral-inf", degree=1,
             R=3, count=2, seed=1, **{"class": "r"}),
        dict(experiment="pairing-adjointness", resolution="cyclic-inf",
             degree=1, R=3),
        dict(experiment="distance-curve", resolution="cyclic-inf", degree=0,
             p="1.5,2,3", R="1..8", seed=1),
        dict(experiment="translation-decay", group="dihedral-inf", radius=4,
             indices="1..12", p=2, seed=1),
        dict(experiment="finite-homology", n=4, N=3, p="1.5,2,3"),
        dict(experiment="finite-index", n=4, m=2, p=2),
    ]
    for idx, base in enumerate(configs):
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{attempt}{idx}.csv"
            cfg = tmp_path / f"{attempt}{idx}.cfg"
            lines = [f"{k}={v}" for k, v in base.items()]
            lines.append(f"output={out}")
            cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert lab_main(["run", str(cfg)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], base["experiment"]
    _report(8, "determinism", started, 120.0)
