"""Numerical witnesses for vanishing of reduced homology on finite balls.

Membership of a class in the closure of a boundary image cannot be decided at
finite radius; what can be certified is the trend of the p-norm distance from
a representative to the image on the ball as the ball grows, together with the
decay of the duality pairing under translation along a central family.  Both
are computed here, alongside exact-dimension homology ranks for finite cyclic
groups where reduced and unreduced agree.  The central family is read off the
group's declared `order`, `central_element` and `finite_class_element`, never
off its kind.

The `TruncatedSpace`s and boundary matrices carry no exponent: p enters only
as the norm a distance minimizes, so a curve over several p assembles each
radius once and solves every p on that one matrix.  At p = 2 the distance
is the norm of x's projection on ker T^t, computed by conjugate gradients
on the normal equations (CGLS) over the nonzeros of T.  Other p use
iteratively reweighted least squares, whose start and weighted solves are
a rank-revealing QR solve with column pivoting; the IRLS iteration is
damped so that the true p-objective never increases.  Every distance comes
with a lower bound from the dual side, dist_p(x, im T) = max <y, x> over y
in ker T^t with ||y||_q <= 1, and IRLS stops once that bound certifies the
value to a relative gap of _GAP_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as _sla

from .groups import Group, GroupElement, InvariantViolation
from .group_ring import DEFAULT_CLASS_CAP, RingElement, class_sum
from .resolutions import Resolution, periodic_cyclic_resolution
from .lp_complex import (
    Vector,
    assemble_boundary,
    conjugate_exponent,
    lp_norm,
    pairing,
    translate_ring,
    vector_from_ring_parts,
)

_EPS_START = 1e-3
_EPS_FLOOR = 1e-12
_IMPROVEMENT_TOL = 1e-10
# Relative duality gap at which IRLS stops; the nesting slack of
# boundary_distance_curve is the same size.
_GAP_TOL = 1e-9
# The p = 2 orthogonality gate: max |T^t r| <= _GATE_TOL * scale, with
# scale = (1 + ||x||_2)(1 + max |T|).  CGLS stops a thousand times inside it.
_GATE_TOL = 1e-10
_CG_TOL = 1e-13
# CGLS step cap per unit of min(m, n).  In exact arithmetic CG ends within
# rank T <= min(m, n) steps; rounding delays it, on the catalog boundaries
# to at most 1.06 min(m, n) steps and on an ill-conditioned random 500 x 249
# matrix to 3.3 min(m, n).  A solve that hits the cap fails the gate.
_CG_STEP_FACTOR = 10


@dataclass
class MinimizationResult:
    """Outcome of a p-norm distance minimization: `value` is the p-norm of
    the residual at `coefficients`, `lower` a dual lower bound on the
    distance, so lower <= distance <= value."""

    value: float
    lower: float
    coefficients: np.ndarray
    iterations: int
    method: str
    converged: bool


def _cgls(T: np.ndarray, x: np.ndarray, tol: float,
          max_steps: int) -> np.ndarray:
    """Coefficients c minimizing ||x - T c||_2, by conjugate gradients on
    the normal equations T^t T c = T^t x (CGLS, Hestenes & Stiefel 1952).

    Starting from c = 0 the iterates stay in the row space of T, so a
    rank-deficient T gives the minimum-norm solution.  The products with T
    and T^t run over its nonzeros only.  The iteration stops once the
    recurred gradient T^t r has max-norm at most tol, or after max_steps.
    """
    m, n = T.shape
    rows, cols = np.nonzero(T)
    values = T[rows, cols]

    def image(v):
        return np.bincount(rows, weights=values * v[cols], minlength=m)

    def coimage(u):
        return np.bincount(cols, weights=values * u[rows], minlength=n)

    c = np.zeros(n)
    r = x.copy()
    gradient = coimage(r)
    direction = gradient.copy()
    gamma = float(gradient @ gradient)
    steps = 0
    while steps < max_steps and np.max(np.abs(gradient)) > tol:
        steps += 1
        q = image(direction)
        alpha = gamma / float(q @ q)
        c += alpha * direction
        r -= alpha * q
        gradient = coimage(r)
        gamma, previous = float(gradient @ gradient), gamma
        direction = gradient + (gamma / previous) * direction
    return c


def _solve_lstsq(T: np.ndarray, x: np.ndarray) -> np.ndarray:
    # The IRLS start and every weighted IRLS step.  gelsy is LAPACK's
    # rank-revealing QR with column pivoting.  On every catalog boundary
    # (radii up to 4-32, a delta and a random x) it chose the rank an SVD
    # chooses and matched the distance of the SVD projection to 7e-15, at a
    # fifth of the cost of a full SVD solve.  On a small path operator it is
    # also faster than CGLS (0.2 against 2.0 ms at cyclic-inf R=32), and
    # CGLS in its place made the lattice:2 degree-1 IRLS curve (R=2..8,
    # p=1.5,3) 1.6x slower.  gelsd, scipy's default, solves by SVD too: it
    # chose that rank at this cutoff but took 1.1-1.3x as long as gelsy.
    # The cutoff is numpy's lstsq default rcond.
    # At scipy's default each driver misjudges the rank of some of these
    # matrices: it keeps directions of rounding size (about 1e-15 against a
    # largest singular value near 4), inverts them into coefficients of
    # order 1e13, and the residual is no longer orthogonal to the column
    # space.  lp_distance has checked that the input is finite.
    solution, *_ = _sla.lstsq(T, x, cond=max(T.shape) * np.finfo(float).eps,
                              check_finite=False, lapack_driver="gelsy")
    return solution


def _weighted_lstsq(T: np.ndarray, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    sw = np.sqrt(weights)
    return _solve_lstsq(sw[:, None] * T, sw * x)


def _dual_bound(x: np.ndarray, y: np.ndarray, q: float) -> float:
    """<y, x> / ||y||_q: for y in ker T^t a lower bound on dist_p(x, im T),
    p and q conjugate.  A zero y gives the trivial bound 0."""
    norm = lp_norm(y, q)
    return float(y @ x) / norm if norm > 0.0 else 0.0


def lp_distance(x: np.ndarray, T: np.ndarray, p: float, *,
                max_iterations: int = 500) -> MinimizationResult:
    """Minimize the p-norm of x - T c over coefficient vectors c.

    p = 2 solves by CGLS on the nonzeros of T and certifies optimality by
    residual orthogonality, max |T^t r| <= _GATE_TOL * scale; a solve that
    misses it raises InvariantViolation.  Its lower bound is <r, x>/||r||_2.
    Other p > 1 start from a rank-revealing least-squares solution and run
    damped IRLS.  Each weighted solve leaves T^t (w * (x - T candidate)) = 0,
    so y = w * (x - T candidate) is a point of ker T^t, as the least-squares
    residual is at the start, and gives the dual bound <y, x>/||y||_q.  The
    largest bound so far is `lower`; the result is converged, and the
    iteration stops, once value - lower <= _GAP_TOL * value.  Meanwhile the
    smoothing parameter is quartered each step from _EPS_START down to
    _EPS_FLOOR, and a step at the floor that gains less than
    _IMPROVEMENT_TOL stops the iteration unconverged, as does the iteration
    cap; the value and its bound are still reported.  The objective is
    asserted nonincreasing at every step.  A NaN or inf in x or T is
    rejected here, so the solves skip scipy's finiteness scan.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != x.shape[0]:
        raise ValueError(
            f"dimension mismatch: T is {T.shape}, x has length {x.shape[0]}")
    for name, array in (("x", x), ("T", T)):
        if not np.isfinite(array).all():
            raise ValueError(f"non-finite input: {name} holds NaN or inf")
    if not 1.0 < p < float("inf"):
        raise ValueError(f"exponent p must lie in (1, inf), got {p}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")

    if T.shape[1] == 0:
        value = lp_norm(x, p)
        return MinimizationResult(value, value, np.zeros(0), 0,
                                  "least-squares" if p == 2.0 else "IRLS", True)

    if p == 2.0:
        scale = (1.0 + float(np.linalg.norm(x))) * (1.0 + float(np.abs(T).max()))
        c = _cgls(T, x, _CG_TOL * scale, _CG_STEP_FACTOR * min(T.shape))
        residual = x - T @ c
        gradient = np.max(np.abs(T.T @ residual)) if residual.size else 0.0
        if gradient > _GATE_TOL * scale:
            raise InvariantViolation(
                f"least-squares residual is not orthogonal to the column "
                f"space: gradient {gradient:.3e}")
        value = lp_norm(residual, p)
        return MinimizationResult(value, min(_dual_bound(x, residual, 2.0), value),
                                  c, 1, "least-squares", True)

    c = _solve_lstsq(T, x)
    residual = x - T @ c
    q = conjugate_exponent(p)
    objective = lp_norm(residual, p)
    lower = _dual_bound(x, residual, q)
    converged = objective - lower <= _GAP_TOL * objective
    eps = _EPS_START
    iterations = 0
    while not converged and iterations < max_iterations:
        iterations += 1
        weights = (residual * residual + eps) ** ((p - 2.0) / 2.0)
        candidate = _weighted_lstsq(T, x, weights)
        lower = max(lower, _dual_bound(x, weights * (x - T @ candidate), q))
        direction = candidate - c
        best = objective
        best_c = c
        scale_factor = 1.0
        for _ in range(60):
            trial = c + scale_factor * direction
            trial_obj = lp_norm(x - T @ trial, p)
            if trial_obj <= best:
                best = trial_obj
                best_c = trial
                break
            scale_factor *= 0.5
        if best > objective + 1e-12 * (1.0 + objective):
            raise InvariantViolation(
                f"IRLS objective increased from {objective} to {best}")
        step = objective - best
        c = best_c
        residual = x - T @ c
        objective = best
        converged = objective - lower <= _GAP_TOL * objective
        if eps > _EPS_FLOOR:
            eps = max(_EPS_FLOOR, eps * 0.25)
        elif step < _IMPROVEMENT_TOL:
            break
    # T^t y vanishes only to the solver's rounding, which can lift the bound
    # a little above a value it agrees with to that order, or above a value
    # of rounding size when x lies in im T.
    return MinimizationResult(objective, min(lower, objective), c, iterations,
                              "IRLS", converged)


@dataclass(frozen=True)
class CurveRow:
    p: float
    index_kind: str
    index: int
    value: float
    iterations: int
    converged: bool
    lower: float | None = None  # dual bound of a distance; None for a pairing


@dataclass(frozen=True)
class DecayCurve:
    """Measured values of one experiment across an index family."""

    experiment: str
    group: str
    resolution: str
    degree: int
    rows: tuple[CurveRow, ...]


def boundary_distance_curve(res: Resolution, degree: int, x_parts,
                            p_values, radii, *,
                            max_iterations: int = 500) -> DecayCurve:
    """Distance from a fixed chain to the image of the next boundary on a ball.

    The same underlying chain is embedded at every radius, so the feasible
    sets nest and the curve of each p must be nonincreasing; that is asserted.
    Each radius is assembled once and solved for every p; the rows come out
    grouped by p, in the order of p_values, each group in the order of radii.
    """
    i = degree + 1
    if not 1 <= i <= res.length:
        raise ValueError(
            f"degree {degree} needs boundary {i}, but {res.name} has length "
            f"{res.length}")
    x_parts = list(x_parts)
    p_values = list(p_values)
    rows: list[list[CurveRow]] = [[] for _ in p_values]
    for radius in radii:
        op = assemble_boundary(res, i, radius)
        x = vector_from_ring_parts(op.codomain, x_parts).coefficients
        for p, p_rows in zip(p_values, rows):
            result = lp_distance(x, op.matrix, p,
                                 max_iterations=max_iterations)
            previous = p_rows[-1].value if p_rows else float("inf")
            if result.value > previous + 1e-9 * (1.0 + previous):
                raise InvariantViolation(
                    f"distance increased from {previous} to {result.value} "
                    f"at radius {radius} (p={p})")
            p_rows.append(CurveRow(float(p), "R", int(radius), result.value,
                                   result.iterations, result.converged,
                                   result.lower))
    return DecayCurve("distance-curve", res.group.name, res.name, degree,
                      tuple(row for p_rows in rows for row in p_rows))


@dataclass(frozen=True)
class CentralSequence:
    """Inverse-closed family used to translate chains: powers of a central
    element of infinite order, or sums of finite conjugacy classes."""

    group: Group
    kind: str  # "powers" | "class-sums"
    base: GroupElement | None = None
    sums: tuple[RingElement, ...] = ()

    def ring_element(self, index: int) -> RingElement:
        if self.kind == "powers":
            return RingElement.from_element(self.base ** index)
        if index == 0:
            return RingElement.one(self.group)
        if not 1 <= index <= len(self.sums):
            raise ValueError(
                f"class-sum index {index} out of range 1..{len(self.sums)}")
        return self.sums[index - 1]

    def index_kind(self) -> str:
        return "i" if self.kind == "powers" else "n"


def central_catalog(group: Group, count: int) -> CentralSequence:
    """Central family of a group, read off its declared elements.

    The powers of its central element when the group declares no finite
    `order` (a declared central element of an infinite kind has infinite
    order, which `checks.check_central_catalog` tests); otherwise the class
    sums of the first count powers of its finite-class element; otherwise a
    rejection naming why, with the exact order of a finite group's central
    element.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    base = group.central_element
    if base is None:
        reason = "no central element"
    elif group.order is None:
        if not RingElement.from_element(base).is_central():
            raise InvariantViolation(f"declared element {base} is not central")
        return CentralSequence(group, "powers", base=base)
    else:
        order = next(k for k in range(1, group.order + 1)
                     if (base ** k).is_identity())
        reason = f"central element {base} of finite order {order}"
    g = group.finite_class_element
    if g is None:
        raise ValueError(
            f"{group.name}: no infinite central family: {reason} and no "
            f"finite conjugacy class declared")
    sums = tuple(class_sum(g ** n, DEFAULT_CLASS_CAP)
                 for n in range(1, count + 1))
    for u in sums:
        if not u.is_central():
            raise InvariantViolation(f"class sum {u} is not central")
    if len({str(u) for u in sums}) != len(sums):
        raise InvariantViolation("class sums are not pairwise distinct")
    return CentralSequence(group, "class-sums", sums=sums)


def translation_pairing_decay(y: Vector, x: Vector, sequence: CentralSequence,
                              indices, p: float) -> DecayCurve:
    """Pairing of a fixed cochain against translates of a chain.

    For finitely supported vectors the value is exactly zero once the
    translated support no longer meets the cochain support.  The pairing
    does not depend on p; p only labels the rows, as the exponent the chain
    is measured with.
    """
    rows = []
    kind = sequence.index_kind()
    for index in indices:
        u = sequence.ring_element(int(index))
        shifted = translate_ring(x, u)
        value = pairing(y, shifted)
        rows.append(CurveRow(float(p), kind, int(index), value, 0, True))
    return DecayCurve("translation-decay", sequence.group.name, "-", 0,
                      tuple(rows))


def _numerical_rank(matrix: np.ndarray, threshold: float) -> int:
    if matrix.size == 0:
        return 0
    singular = _sla.svdvals(matrix)
    if singular.size == 0 or singular[0] <= 0.0:
        return 0
    return int(np.sum(singular > threshold * singular[0]))


def finite_group_homology_ranks(n: int, length: int, *,
                                rank_threshold: float = 1e-8) -> tuple[int, ...]:
    """Homology dimensions of a finite cyclic group through the given degree.

    The coefficient space is n-dimensional, so no truncation is involved and
    reduced equals unreduced; every p-norm gives the same spaces at finite
    dimension, so the dimensions hold for every p.  They are kernel minus
    image ranks with a singular-value threshold, and the expected answer is
    1, 0, ..., 0.
    """
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    res = periodic_cyclic_resolution(n, length + 1)
    radius = n  # saturates the ball: the whole group
    matrices = [assemble_boundary(res, i, radius).matrix
                for i in range(1, length + 2)]
    dims = []
    size = matrices[0].shape[1]
    dims.append(size - _numerical_rank(matrices[0], rank_threshold))
    for i in range(1, length + 1):
        kernel_dim = size - _numerical_rank(matrices[i - 1], rank_threshold)
        image_rank = _numerical_rank(matrices[i], rank_threshold)
        dims.append(kernel_dim - image_rank)
    return tuple(dims)


@dataclass(frozen=True)
class FiniteIndexReport:
    n: int
    m: int
    dims_group: tuple[int, ...]
    dims_subgroup: tuple[int, ...]
    equal: bool


def finite_index_compare(n: int, m: int, *, length: int = 3) -> FiniteIndexReport:
    """Compare homology dimensions of a cyclic group and a finite-index
    cyclic subgroup; the lists must agree degreewise."""
    if n < 2 or m < 2:
        raise ValueError("both orders must be at least 2")
    if n % m != 0:
        raise ValueError(
            f"{m} does not divide {n}: no subgroup of finite index there")
    dims_group = finite_group_homology_ranks(n, length)
    dims_sub = finite_group_homology_ranks(m, length)
    return FiniteIndexReport(n, m, dims_group, dims_sub, dims_group == dims_sub)
