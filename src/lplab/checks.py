"""The invariant registry: every checked invariant and catalog is written here.

Each check exercises one structural property the library promises: group and
ring axioms on random samples, inverse-closed balls, complex validation, the
dual boundary as the coboundary read through the ring involution,
certificates of the homotopy identity, and monotonicity of the minimization
routines.  Each invariant is checked once; a property that holds by
construction, such as the nesting of balls, is not checked at all.  Checks
return quietly or raise ``InvariantViolation``, never through a bare assert,
which ``python -O`` strips; the runner turns that into one line per check.

Three consumers share the registry:

- ``lab verify-all`` runs ``ALL_CHECKS`` through ``run_all``;
- the ``verify-resolutions`` runner in ``lplab.cli`` iterates the catalogs
  and calls the per-case measurement ``fox_defect``, which the tests and
  demos that measure a free-derivative defect call too, and the
  ``pairing-adjointness`` runner runs ``check_dual_is_coboundary`` on its
  own operator;
- ``tests/test_checks.py`` runs every entry of ``ALL_CHECKS``, and the other
  tests take their group and resolution lists from the catalogs; the
  per-resolution and per-group tests call the per-case checks
  (``check_resolution_validates``, ``check_fox_identity``,
  ``check_composition_zero``, ``check_dual_is_coboundary``,
  ``check_homotopy_certificate``) that the catalog-wide checks loop over.

Float modules are imported inside the float checks, so exact runs, which
import this module for its catalogs, never load numpy or scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .groups import InvariantViolation, group_from_name
from .group_ring import (DEFAULT_CLASS_CAP, RingElement, _sum_terms,
                         class_sum, conjugacy_class)
from .resolutions import (
    Resolution,
    evaluate_word,
    fox_derivative,
    relator_words,
    resolution_from_name,
    validate,
)
from .homotopy import ResidualForm

CHECK_GROUPS = ("trivial", "cyclic:4", "Z^1", "Z^2", "free:2", "dihedral-inf",
                "heisenberg", "S3")
# Groups whose declared per-kind facts are checked: those of every catalog
# kind, and the lattice and free ranks where the declarations change.
FACT_GROUPS = CHECK_GROUPS + ("Z^3", "Z^4", "free:1")
CATALOG_RESOLUTIONS = (
    ["cyclic-inf"]
    + [f"cyclic:{n}:{N}" for n in (2, 3, 4, 6) for N in (1, 2, 3, 4)]
    + [f"lattice:{d}" for d in (1, 2, 3)]
    + ["fox:Z^2", "fox:free:2", "fox:dihedral-inf", "fox:heisenberg"]
)
# Groups whose catalog presentation is checked against the free-derivative
# formula; the verify-resolutions CSV lists them in this order.
FOX_GROUPS = ("Z^2", "Z^3", "free:2", "dihedral-inf", "heisenberg", "cyclic:4",
              "S3")
# (group, central multiplier, degree, radius) of each homotopy certificate.
HOMOTOPY_CASES = (("Z^1", "t", 1, 3), ("cyclic:4", "t", 1, 3),
                  ("heisenberg", "(0,0,1)", 1, 2))


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    detail: str = ""


# -- per-case measurements --------------------------------------------------------


def fox_defect(group, word) -> RingElement:
    """lhs - rhs of the fundamental formula sum_j (dw/dx_j)(x_j - 1) = w - 1."""
    one = RingElement.one(group)
    lhs = RingElement.zero(group)
    for j, g in enumerate(group.generators):
        lhs = lhs + fox_derivative(group, word, j) * \
            (RingElement.from_element(g) - one)
    rhs = RingElement.from_element(evaluate_word(group, word)) - one
    return lhs - rhs


# -- checks ----------------------------------------------------------------------


def _ensure(condition, message: str):
    """Raise InvariantViolation(message) unless condition holds."""
    if not condition:
        raise InvariantViolation(message)


def _random_ring_element(ball, rng: Random):
    """A ring element on up to three random elements of a ball, with small
    rational coefficients n/d.  The draws are summed as integer terms
    (id, n, d) by the constructor's own summing path, without interning the
    ball's elements again or building a Fraction per term."""
    terms = [(rng.choice(ball).id, rng.randint(-5, 5), rng.randint(1, 4))
             for _ in range(rng.randint(1, 3))]
    return RingElement._trusted(ball[0].group, *_sum_terms(terms))


def check_group_axioms():
    rng = Random(0)
    for name in CHECK_GROUPS:
        group = group_from_name(name)
        e = group.identity
        ball = group.ball(4)
        for _ in range(126):
            a = rng.choice(ball)
            b = rng.choice(ball)
            c = rng.choice(ball)
            _ensure((a * b) * c == a * (b * c), f"associativity fails in {name}")
            _ensure(a * e == a and e * a == a, f"identity fails in {name}")
            _ensure(a * a.inverse() == e, f"inverse fails in {name}")


def check_ball_geometry():
    """Balls are inverse closed.  That they nest and grow holds by
    construction, since `Group.ball` concatenates the word-length layers."""
    for name in CHECK_GROUPS:
        group = group_from_name(name)
        for radius in range(5):
            ball = group.ball(radius)
            _ensure(set(ball) >= {g.inverse() for g in ball},
                    f"ball of {name} is not inverse closed")


def check_ring_axioms():
    rng = Random(1)
    for name in CHECK_GROUPS:
        ball = group_from_name(name).ball(4)
        for _ in range(126):
            u = _random_ring_element(ball, rng)
            v = _random_ring_element(ball, rng)
            w = _random_ring_element(ball, rng)
            uv = u * v
            _ensure(uv * w == u * (v * w), f"ring associativity fails in {name}")
            _ensure(u * (v + w) == uv + u * w, f"distributivity fails in {name}")
            _ensure(uv.augment() == u.augment() * v.augment(),
                    f"augmentation is not multiplicative in {name}")


def check_convolution_support_bound():
    rng = Random(2)
    group = group_from_name("dihedral-inf")
    ball3, ball2 = group.ball(3), group.ball(2)
    for _ in range(60):
        u = _random_ring_element(ball3, rng)
        v = _random_ring_element(ball2, rng)
        bound = u.max_word_length() + v.max_word_length()
        _ensure((u * v).max_word_length() <= bound, "convolution support escaped")


def check_class_sums_central():
    dihedral = group_from_name("dihedral-inf")
    r = dihedral.generators[0]
    for n in range(1, 5):
        _ensure(class_sum(r ** n, 100).is_central(),
                f"the class sum of r^{n} is not central")
    s3 = group_from_name("S3")
    for g in s3.ball(3):
        _ensure(class_sum(g, 24).is_central(),
                f"the class sum of {g} in S3 is not central")
    heis = group_from_name("heisenberg")
    _ensure(class_sum(heis.element((0, 0, 1)), 10).support_size() == 1,
            "the class of the central (0,0,1) is not a singleton")
    _ensure(conjugacy_class(dihedral.generators[1], 50) is None,
            "the flip class must exceed the cap")
    lattice_ball = group_from_name("Z^2").ball(4)
    for u in (_random_ring_element(lattice_ball, Random(5)) for _ in range(10)):
        _ensure(u.is_central(), "abelian group rings are their own center")


def check_resolution_validates(name: str):
    report = validate(resolution_from_name(name))
    _ensure(report.ok, f"{name}: {report.first_failure}")


def check_resolutions_validate():
    for name in CATALOG_RESOLUTIONS:
        check_resolution_validates(name)


def check_fox_identity(name: str):
    group = group_from_name(name)
    for word in relator_words(group):
        _ensure(fox_defect(group, word).is_zero(),
                f"free-derivative identity fails for {name}")
        # a relator evaluates to the identity, so both sides vanish
        _ensure(evaluate_word(group, word).is_identity(),
                f"a relator of {name} is not the identity")


def check_fox_identities():
    for name in FOX_GROUPS:
        check_fox_identity(name)


def check_composition_zero(name: str):
    from .lp_complex import assemble_boundary

    res = resolution_from_name(name)
    for i in range(1, res.length):
        inner = assemble_boundary(res, i + 1, 2)
        outer = assemble_boundary(res, i, inner.codomain.radius)
        # each column of inner mapped through outer's stored nonzeros; every
        # partial sum is a small integer, so the zero is exact
        _ensure(not any(outer.nonzeros.image(column).any()
                        for column in inner.matrix.T),
                f"assembled composite is nonzero for {name} at {i}")


def check_assembled_composition_zero():
    for name in CATALOG_RESOLUTIONS:
        check_composition_zero(name)


def check_dual_is_coboundary(res: Resolution, i: int, radius: int):
    """The dual of the i-th boundary at a radius is the coboundary, the
    boundary read through the involution g -> g^-1: the cochain delta at
    codomain slot (a, k) maps to the sum over b of k (d_ab)* on domain copy
    b, kept where it lands in the domain ball.  The boundary's entries are
    integers, and so must be the dual's nonzeros, equal with no tolerance.
    Returns the number of nonzeros compared."""
    from .lp_complex import TruncatedSpace, dual_boundary

    dual = dual_boundary(res, i, radius)
    cochains = dual.domain
    chains = TruncatedSpace(res.group, res.ranks[i], radius)
    elements = res.group.table.elements
    stars = [[entry.star() for entry in row] for row in res.boundary(i)]
    _ensure(all(star.denominator == 1 for row in stars for star in row),
            f"boundary {i} of {res.name} has an entry that is not integral")
    expected = []
    for k in cochains.elements:
        delta = RingElement.from_element(k)
        for a, row in enumerate(stars):
            col = cochains.index_of(a, k)
            for b, star in enumerate(row):
                for h, c in (delta * star).numerators.items():
                    slot = chains.index_of(b, elements[h])
                    if slot is not None:
                        expected.append((slot, col, c))
    expected.sort()
    rows, cols, values, shape = dual.nonzeros
    _ensure(shape == (chains.dim, cochains.dim) and expected == list(
        zip(rows.tolist(), cols.tolist(), values.tolist())),
            f"the dual of boundary {i} of {res.name} at R={radius} is not its "
            f"coboundary")
    return len(expected)


def check_coboundary_involution():
    for name in ("cyclic-inf", "cyclic:4:2", "lattice:2", "fox:dihedral-inf"):
        res = resolution_from_name(name)
        for i in range(1, res.length + 1):
            check_dual_is_coboundary(res, i, 3)


def _require_certified(form: ResidualForm, label: str):
    """A form with no surviving row over every slice tuple of its window
    certifies that the homotopy residual is 0 for every cochain there."""
    _ensure(not form.rows,
            f"homotopy residual survives at {len(form.rows)} of "
            f"{form.tuples_checked} tuples for {label}")
    expected = len(form.group.ball(form.radius)) ** form.degree
    _ensure(form.tuples_checked == expected,
            f"{label}: {form.tuples_checked} tuples checked, expected {expected}")


def check_homotopy_certificate(name: str, token: str, degree: int, radius: int):
    group = group_from_name(name)
    form = ResidualForm(group, degree, radius, [group.parse_element(token)])
    _require_certified(form, f"{name} with multiplier {token}")


def check_homotopy_exact():
    for case in HOMOTOPY_CASES:
        check_homotopy_certificate(*case)


def check_minimization():
    import numpy as np
    from .vanishing import lp_distance

    rng = np.random.default_rng(8)
    T = rng.standard_normal((30, 12))
    c0 = rng.standard_normal(12)
    feasible = T @ c0
    for p in (1.5, 2.0, 3.0):
        result = lp_distance(feasible, T, p)
        _ensure(result.value <= 1e-9,
                f"feasible point must have distance 0 at p={p}")
    x = rng.standard_normal(30)
    for p in (1.5, 3.0):
        result = lp_distance(x, T, p)
        _ensure(0.0 < result.lower <= result.value,
                f"dual bound {result.lower} must not exceed {result.value} "
                f"at p={p}")
        # IRLS may stop before the gap closes: it stalls at p near 1.  At
        # p = 3 on a full-rank problem it has always closed the gap.
        _ensure(p != 3.0 or result.value - result.lower <= 1e-9 * result.value,
                f"duality gap above 1e-9 at p={p}")
    zero_cols = np.zeros((30, 0))
    res = lp_distance(x, zero_cols, 3.0)
    _ensure(abs(res.value - float(np.sum(np.abs(x) ** 3) ** (1 / 3))) < 1e-12,
            "the distance to an empty image must be the 3-norm")


def check_distance_curve():
    from .vanishing import boundary_distance_curve

    res = resolution_from_name("cyclic-inf")
    one = RingElement.one(res.group)
    curve = boundary_distance_curve(res, 0, [one], [2.0], range(1, 9))
    values = [row.value for row in curve.rows]
    _ensure(all(b < a for a, b in zip(values, values[1:])),
            "distance must strictly decrease here")
    # closed form: projecting the point mass onto the zero-sum subspace of an
    # interval with 2R + 2 sites leaves mass 1 / sqrt(2R + 2)
    for row in curve.rows:
        exact = (2 * row.index + 2) ** -0.5
        _ensure(abs(row.value - exact) <= 1e-10,
                f"distance at R={row.index} is {row.value}, expected {exact}")


def check_finite_homology():
    from .vanishing import finite_group_homology_ranks

    dims = finite_group_homology_ranks(4, 3)
    _ensure(dims == (1, 0, 0, 0), f"unexpected dimensions {dims}")


def check_central_catalog():
    from .vanishing import central_catalog

    for name in FACT_GROUPS:
        group = group_from_name(name)
        z = group.central_element
        if z is not None:
            _ensure(all(z * g == g * z for g in group.generators),
                    f"declared central element {z} of {name} is not central")
        if group.order is not None:
            # a finite group's ball saturates by radius order - 1
            size = len(group.ball(group.order))
            _ensure(size == group.order,
                    f"{name} declares order {group.order} but holds {size} "
                    f"elements")
        elif z is not None:
            _ensure(not any((z ** k).is_identity() for k in range(1, 65)),
                    f"declared central element {z} of infinite {name} has "
                    f"finite order")
        g = group.finite_class_element
        if g is not None:
            _ensure(conjugacy_class(g, DEFAULT_CLASS_CAP) is not None,
                    f"declared finite-class element {g} of {name} has an "
                    f"infinite class")
    heis = group_from_name("heisenberg")
    seq = central_catalog(heis, 5)
    _ensure(seq.kind == "powers" and seq.base == heis.element((0, 0, 1)),
            "the catalog of heisenberg must be the powers of (0,0,1)")
    dihedral = group_from_name("dihedral-inf")
    seq = central_catalog(dihedral, 3)
    _ensure(seq.kind == "class-sums" and len(seq.sums) == 3,
            "the catalog of dihedral-inf must be three class sums")
    for u in seq.sums:
        _ensure(u.is_central(), f"catalog class sum {u} is not central")
    try:
        central_catalog(group_from_name("free:2"), 3)
    except ValueError:
        pass
    else:
        raise InvariantViolation("free:2 must be rejected")


ALL_CHECKS = (
    ("group-axioms", check_group_axioms),
    ("ball-geometry", check_ball_geometry),
    ("ring-axioms", check_ring_axioms),
    ("convolution-support", check_convolution_support_bound),
    ("class-sums-central", check_class_sums_central),
    ("resolutions-validate", check_resolutions_validate),
    ("fox-identities", check_fox_identities),
    ("assembled-composition", check_assembled_composition_zero),
    ("coboundary-involution", check_coboundary_involution),
    ("homotopy-exact", check_homotopy_exact),
    ("minimization", check_minimization),
    ("distance-curve", check_distance_curve),
    ("finite-homology", check_finite_homology),
    ("central-catalog", check_central_catalog),
)


def run_all() -> list[CheckOutcome]:
    """Run every check, print one PASS/FAIL line each, return the outcomes."""
    outcomes = []
    for name, fn in ALL_CHECKS:
        try:
            fn()
            outcomes.append(CheckOutcome(name, True))
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            outcomes.append(CheckOutcome(name, False, str(exc)))
        last = outcomes[-1]
        status = "PASS" if last.ok else f"FAIL  {last.detail}"
        print(f"{last.name:<26} {status}")
    return outcomes
