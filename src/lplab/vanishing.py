"""Numerical witnesses for vanishing of reduced homology on finite balls.

Membership of a class in the closure of a boundary image cannot be decided at
finite radius; what can be certified is the trend of the p-norm distance from
a representative to the image on the ball as the ball grows, together with the
decay of the duality pairing under translation along a central family.  Both
are computed here, alongside the homology dimensions of finite cyclic groups,
where reduced and unreduced agree, from numerical ranks: the counts of
singular values above a relative threshold.  The central family is read off
the group's declared `order`, `central_element` and `finite_class_element`,
never off its kind.

The `TruncatedSpace`s and boundary operators carry no exponent: p enters
only as the norm a distance minimizes.  A distance problem x ~ T c is
checked once, as a `_Problem`, at the API boundary: its shape, and
finiteness on T's `Nonzeros`, the one scan of T.  A curve assembles its
boundary once, at its largest radius, and cuts every radius's operator out
of those nonzeros (`BoundaryOperator.restricted`); it checks each radius
once and solves every p on that one problem, and every p != 2 there shares
the least-squares start and the weighted step the problem builds on first
use.  The steps that sum over T, CGLS and the weighted step, read only its
`Nonzeros`.  At p = 2 the distance is the norm of x's projection on ker T^t,
computed by conjugate gradients on the normal equations (CGLS) over the
nonzeros of T, the `Nonzeros` a `BoundaryOperator` stores, so a p = 2 curve
never forms a dense matrix.  Other p use iteratively reweighted least
squares on the dense matrix.  Its start is a rank-revealing QR solve with
column pivoting, which also picks a basis of T's columns; each weighted step
solves the weighted normal equations on those columns, summed from the
nonzeros of T, by Cholesky: LAPACK potrf and potrs, called directly.  The
IRLS iteration is damped so that the true p-objective never increases.
Every distance comes with a lower bound from the dual side,
dist_p(x, im T) = max <y, x> over y in ker T^t with ||y||_q <= 1, and IRLS
stops once that bound certifies the value to a relative gap of _GAP_TOL.  scipy is imported
only inside the lookups of the LAPACK drivers of the IRLS start and weighted
step, so a p = 2 solve and the finite-group ranks load numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .groups import Group, GroupElement, InvariantViolation
from .group_ring import DEFAULT_CLASS_CAP, RingElement, class_sum
from .resolutions import Resolution, periodic_cyclic_resolution
from .lp_complex import (
    Nonzeros,
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


def _cgls(nonzeros: Nonzeros, x: np.ndarray, tol: float,
          max_steps: int) -> np.ndarray:
    """Coefficients c minimizing ||x - T c||_2, by conjugate gradients on
    the normal equations T^t T c = T^t x (CGLS, Hestenes & Stiefel 1952).

    Starting from c = 0 the iterates stay in the row space of T, so a
    rank-deficient T gives the minimum-norm solution.  The products with T
    and T^t run over its `nonzeros` only.  The iteration stops once the
    recurred gradient T^t r has max-norm at most tol, or after max_steps.
    """
    image, coimage = nonzeros.image, nonzeros.coimage
    c = np.zeros(nonzeros.shape[1])
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


@cache
def _gelsy_drivers():
    """LAPACK gelsy and its workspace query, looked up on the first start."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("gelsy", "gelsy_lwork"), dtype=np.float64)


def _solve_lstsq(T: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients c for x ~ T c, and the columns they use.

    The IRLS start, and the basis of its weighted steps: LAPACK gelsy, a
    rank-revealing QR with column pivoting, called with the cutoff and
    workspace scipy.linalg.lstsq would pass.  Returns c and basis, the
    sorted columns the QR kept; T[:, basis] has full column rank and spans
    the column space of T to the cutoff.  _Problem has checked that the
    input is finite.
    """
    # On every catalog boundary (radii up to 4-32, a delta and a random x)
    # gelsy chose the rank an SVD chooses and matched the distance of the SVD
    # projection to 7e-15, at a fifth of the cost of a full SVD solve.  On a
    # small path operator it is also faster than CGLS (0.2 against 2.0 ms at
    # cyclic-inf R=32).  gelsd, scipy's default, solves by SVD too: it chose
    # that rank at this cutoff but took 1.1-1.3x as long as gelsy.  The
    # cutoff is numpy's lstsq default rcond.  At scipy's default each driver
    # misjudges the rank of some of these matrices: it keeps directions of
    # rounding size (about 1e-15 against a largest singular value near 4),
    # inverts them into coefficients of order 1e13, and the residual is no
    # longer orthogonal to the column space.
    gelsy, gelsy_lwork = _gelsy_drivers()
    m, n = T.shape
    cond = max(m, n) * np.finfo(float).eps
    work, _ = gelsy_lwork(m, n, 1, cond)
    rhs = x if m >= n else np.concatenate([x, np.zeros(n - m)])
    _, solution, pivots, rank, _ = gelsy(
        T, rhs, np.zeros(n, dtype=np.int32), cond, int(work), False, False)
    return solution[:n], np.sort(pivots[:rank] - 1)


@cache
def _cholesky_drivers():
    """LAPACK potrf and potrs, looked up on the first weighted step."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def _weighted_solver(nonzeros: Nonzeros, x: np.ndarray, basis: np.ndarray):
    """The weighted IRLS step: a function of weights w > 0 that returns the
    coefficients c, zero off basis, minimizing ||w^(1/2) (x - T c)||_2, T
    given by its `nonzeros`.

    T_B = T[:, basis] has full column rank, so the normal equations
    T_B^t W T_B c_B = T_B^t W x are positive definite and are solved by
    Cholesky: LAPACK potrf and potrs, called with the arguments
    scipy.linalg.cho_factor and cho_solve pass, without their wrappers.  An
    empty basis gives c = 0 with no LAPACK call.  Both sides are summed from
    the nonzeros of T_B with np.bincount; the matrix from every pair of
    nonzeros that share a row.  The pair arrays, built here once, hold
    sum_i k_i^2 entries, k_i the number of nonzeros in row i of T_B, so at
    most max_i k_i times its nnz; the catalog boundaries have at most 8 nonzeros
    in a row, and up to radius 8 at most 6 nnz pairs (the norm rows of
    cyclic:6).  A factorization that fails raises InvariantViolation, in the
    words of scipy's LinAlgError: there is no second solver.  An illegal
    argument reported by either driver raises ValueError.
    """
    potrf, potrs = _cholesky_drivers()
    m, n = nonzeros.shape
    size = basis.size
    position = np.full(n, -1)
    position[basis] = np.arange(size)
    rows, cols, values, _ = nonzeros
    kept = position[cols] >= 0
    rows, cols, values = rows[kept], position[cols[kept]], values[kept]
    # each nonzero pairs with every nonzero of its row, a contiguous run
    per_row = np.bincount(rows, minlength=m)
    repeats = per_row[rows]
    first = np.repeat(np.arange(rows.size), repeats)
    run_start = np.cumsum(per_row) - per_row
    offset = np.arange(first.size) - np.repeat(np.cumsum(repeats) - repeats,
                                               repeats)
    pair_rows = rows[first]
    second = run_start[pair_rows] + offset
    pair_index = cols[first] * size + cols[second]
    pair_products = values[first] * values[second]
    rhs_terms = values * x[rows]

    def solve(weights: np.ndarray) -> np.ndarray:
        gram = np.bincount(pair_index, weights=weights[pair_rows] * pair_products,
                           minlength=size * size).reshape(size, size)
        rhs = np.bincount(cols, weights=weights[rows] * rhs_terms,
                          minlength=size)
        candidate = np.zeros(n)
        if size == 0:  # potrs rejects an empty system
            return candidate
        factor, info = potrf(gram, lower=False, overwrite_a=True, clean=False)
        if info > 0:
            raise InvariantViolation(
                f"IRLS weighted normal equations are not positive definite "
                f"({info}-th leading minor of the array is not positive "
                f"definite)")
        if info < 0:
            raise ValueError(f"LAPACK potrf: illegal value in argument {-info}")
        solution, info = potrs(factor, rhs, lower=False, overwrite_b=True)
        if info < 0:
            raise ValueError(f"LAPACK potrs: illegal value in argument {-info}")
        candidate[basis] = solution
        return candidate

    return solve


def _dual_bound(x: np.ndarray, y: np.ndarray, q: float) -> float:
    """<y, x> / ||y||_q: for y in ker T^t a lower bound on dist_p(x, im T),
    p and q conjugate.  A zero y gives the trivial bound 0."""
    norm = lp_norm(y, q)
    return float(y @ x) / norm if norm > 0.0 else 0.0


class _Problem:
    """The problem x ~ T c of lp_distance, checked once: x as a float vector
    and T, a dense matrix or its `Nonzeros`, with one row per entry of x,
    both finite; anything else raises ValueError.  T is checked finite on
    `nonzeros`, its own when the caller holds them and otherwise read from
    a dense T here, the only scan of it; every step that sums over T reads
    them.  The dense matrix, the least-squares start with its basis, and the
    weighted step on that basis are built on first use, so every p solved
    on one problem shares them.  `sources` are the x and T it was built
    from, the only ones lp_distance accepts it with."""

    __slots__ = ("sources", "x", "nonzeros", "_dense", "_start", "_step")

    def __init__(self, x, T, nonzeros: Nonzeros | None = None):
        self.sources = (x, T)
        x = np.asarray(x, dtype=float).reshape(-1)
        if isinstance(T, Nonzeros):
            dense, nonzeros = None, T
        else:
            T = dense = np.asarray(T, dtype=float)
        if len(T.shape) != 2 or T.shape[0] != x.shape[0]:
            raise ValueError(
                f"dimension mismatch: T is {T.shape}, x has length {x.shape[0]}")
        if not np.isfinite(x).all():
            raise ValueError("non-finite input: x holds NaN or inf")
        if nonzeros is None:
            nonzeros = Nonzeros.of(dense)
        if not np.isfinite(nonzeros.values).all():
            raise ValueError("non-finite input: T holds NaN or inf")
        self.x, self.nonzeros, self._dense = x, nonzeros, dense
        self._start = self._step = None

    def dense(self) -> np.ndarray:
        """T as a dense matrix (`Nonzeros.dense`, under its byte cap)."""
        if self._dense is None:
            self._dense = self.nonzeros.dense()
        return self._dense

    def start(self) -> tuple[np.ndarray, np.ndarray]:
        """The IRLS start and its basis, from _solve_lstsq."""
        if self._start is None:
            self._start = _solve_lstsq(self.dense(), self.x)
        return self._start

    def weighted_step(self):
        if self._step is None:
            self._step = _weighted_solver(self.nonzeros, self.x, self.start()[1])
        return self._step


def lp_distance(x: np.ndarray, T, p: float, *,
                max_iterations: int = 500,
                start: _Problem | None = None) -> MinimizationResult:
    """Minimize the p-norm of x - T c over coefficient vectors c.

    T is a dense matrix or its `Nonzeros`, such as a `BoundaryOperator`'s.
    p = 2 solves by CGLS on the nonzeros of T and certifies optimality by
    residual orthogonality, max |T^t r| <= _GATE_TOL * scale, with the
    residual r = x - T c and T^t r both summed from the nonzeros; a solve
    that misses it raises InvariantViolation.  Its lower bound is
    <r, x>/||r||_2, or 0 if that is negative.  Given nonzeros, p = 2 never
    forms the dense matrix.
    Other p > 1 run on the dense matrix, built from nonzeros if need be
    (`Nonzeros.dense`, which refuses one over its byte cap).  They start
    from a rank-revealing least-squares solution and run damped IRLS,
    whose weighted steps are Cholesky solves on the columns the start kept;
    a factorization that fails raises InvariantViolation.  Each weighted
    solve leaves T^t (w * (x - T candidate)) = 0,
    so y = w * (x - T candidate) is a point of ker T^t, as the least-squares
    residual is at the start, and gives the dual bound <y, x>/||y||_q.  The
    largest of 0 and these bounds is `lower`; the result is converged, and the
    iteration stops, once value - lower <= _GAP_TOL * value.  Meanwhile the
    smoothing parameter is quartered each step from _EPS_START down to
    _EPS_FLOOR, and a step at the floor that gains less than
    _IMPROVEMENT_TOL stops the iteration unconverged, as does the iteration
    cap; the value and its bound are still reported.  The objective is
    nonincreasing by construction: the line search accepts a trial only if
    it does not raise the objective, and keeps c otherwise.  A NaN or inf
    in x or T is rejected here, checked on the values of nonzeros, so the
    solves skip scipy's finiteness scan.

    `start`, a _Problem(x, T) on these very x and T, is the problem already
    checked, with the p-independent part of the solve it has built, so
    that several p share it.  A problem built from other arrays raises
    ValueError.  The result is the same with or without it.
    """
    if start is None:
        problem = _Problem(x, T)
    elif start.sources[0] is not x or start.sources[1] is not T:
        raise ValueError("the IRLS start was built for another x or T")
    else:
        problem = start
    x, nonzeros = problem.x, problem.nonzeros
    if not 1.0 < p < float("inf"):
        raise ValueError(f"exponent p must lie in (1, inf), got {p}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")

    if nonzeros.shape[1] == 0:
        value = lp_norm(x, p)
        return MinimizationResult(value, value, np.zeros(0), 0,
                                  "least-squares" if p == 2.0 else "IRLS", True)

    if p == 2.0:
        scale = ((1.0 + float(np.linalg.norm(x)))
                 * (1.0 + float(np.abs(nonzeros.values).max(initial=0.0))))
        c = _cgls(nonzeros, x, _CG_TOL * scale, _CG_STEP_FACTOR * min(nonzeros.shape))
        residual = x - nonzeros.image(c)
        gradient = np.max(np.abs(nonzeros.coimage(residual)))
        if gradient > _GATE_TOL * scale:
            raise InvariantViolation(
                f"least-squares residual is not orthogonal to the column "
                f"space: gradient {gradient:.3e}")
        value = lp_norm(residual, p)
        lower = max(0.0, _dual_bound(x, residual, 2.0))
        return MinimizationResult(value, min(lower, value), c, 1,
                                  "least-squares", True)

    T = problem.dense()
    c, _ = problem.start()
    residual = x - T @ c
    q = conjugate_exponent(p)
    objective = lp_norm(residual, p)
    # 0 is always a bound; the start's own can fall below it when x lies in
    # im T and its residual is rounding noise
    lower = max(0.0, _dual_bound(x, residual, q))
    converged = objective - lower <= _GAP_TOL * objective
    eps = _EPS_START
    iterations = 0
    if not converged:  # most starts are certified and take no weighted step
        weighted_step = problem.weighted_step()
    while not converged and iterations < max_iterations:
        iterations += 1
        weights = (residual * residual + eps) ** ((p - 2.0) / 2.0)
        candidate = weighted_step(weights)
        lower = max(lower, _dual_bound(x, weights * (x - T @ candidate), q))
        direction = candidate - c
        scale_factor = 1.0
        for _ in range(60):
            trial = c + scale_factor * direction
            trial_residual = x - T @ trial
            trial_obj = lp_norm(trial_residual, p)
            if trial_obj <= objective:
                step = objective - trial_obj
                c, residual, objective = trial, trial_residual, trial_obj
                break
            scale_factor *= 0.5
        else:
            step = 0.0
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
    The boundary is assembled once, at the largest radius; each radius's
    operator is cut out of its nonzeros (`BoundaryOperator.restricted`)
    and checked once, as one _Problem that every p solves: p = 2 on the
    operator's nonzeros, so a curve of p = 2 alone never forms a dense
    matrix, and the p != 2 solves on its dense matrix from the one
    least-squares start they share.  The rows come out grouped by p, in the
    order of p_values, each group in the order of radii.
    """
    i = degree + 1
    if not 1 <= i <= res.length:
        raise ValueError(
            f"degree {degree} needs boundary {i}, but {res.name} has length "
            f"{res.length}")
    x_parts = list(x_parts)
    p_values = list(p_values)
    rows: list[list[CurveRow]] = [[] for _ in p_values]
    irls = any(p != 2.0 for p in p_values)
    radii = list(radii)
    full = assemble_boundary(res, i, max(radii)) if radii else None
    for radius in radii:
        op = full.restricted(radius)
        x = vector_from_ring_parts(op.codomain, x_parts).coefficients
        # the p != 2 solves need the dense matrix, and the benchmark's
        # tracer reads it off their calls
        T = op.matrix if irls else op.nonzeros
        problem = _Problem(x, T, op.nonzeros)
        for p, p_rows in zip(p_values, rows):
            result = lp_distance(x, T, p, max_iterations=max_iterations,
                                 start=problem)
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
    singular = np.linalg.svd(matrix, compute_uv=False)
    if singular[0] <= 0.0:
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
