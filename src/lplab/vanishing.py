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
only as the norm a distance minimizes.  A distance problem x ~ T c is checked
once, as a `_Problem`, at the API boundary: its shape, and finiteness on T's
`Nonzeros`, the one scan of T.  A curve assembles its boundary once, at its
largest radius, and cuts every radius's operator out of those nonzeros
(`BoundaryOperator.restricted`); it checks each radius once and solves every
p on that one problem, and every p != 2 there shares the least-squares start
and the weighted step the problem builds on first use.  Every solve reads T
only through its `Nonzeros`, the ones a `BoundaryOperator` stores: products
with T and T^t, and the Gram matrices summed from them; no solve forms a
dense matrix of T.  A curve with some p != 2 still builds each radius's
dense matrix, which only the benchmark's tracer reads.  At p = 2 the
distance is the norm of x's projection on ker T^t, computed by conjugate
gradients on the normal equations (CGLS).  Other p use iteratively
reweighted least squares, whose residuals, dual points and line search are
products with the nonzeros too.  Its start solves the normal equations
T^t T c = T^t x, summed from the nonzeros of T, by a Cholesky
factorization with complete pivoting (LAPACK pstrf), which also picks a
basis of T's columns, and its residual must pass the same orthogonality
gate as p = 2; squaring T's condition number, it resolves singular values
down to about sqrt(n u) of the largest, n the number of columns and u the
unit roundoff.  Each weighted step solves the weighted normal equations on
those columns, summed the same way, by Cholesky: LAPACK potrf and potrs,
called directly.  The IRLS iteration is
damped so that the true p-objective never increases.  Every distance comes
with a lower bound from the dual side, dist_p(x, im T) = max <y, x> over y
in ker T^t with ||y||_q <= 1, and IRLS stops once that bound certifies the
value to a relative gap of _GAP_TOL.  scipy is imported only by the loader
of those LAPACK drivers (_lapack_drivers), which loads scipy's compiled
_flapack extension and not the scipy.linalg package, so a p != 2 solve
loads numpy, top-level scipy and that extension, and a p = 2 solve and the
finite-group ranks load numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import lp_complex
from .groups import BallCapError, Group, GroupElement, InvariantViolation
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
# The orthogonality gate of a least-squares residual, at p = 2 and at the
# IRLS start: max |T^t r| <= _GATE_TOL * scale, with
# scale = (1 + ||x||_2)(1 + max |T|).  CGLS stops a thousand times inside it.
_GATE_TOL = 1e-10
_CG_TOL = 1e-13
# CGLS step cap per unit of min(m, n).  In exact arithmetic CG ends within
# rank T <= min(m, n) steps; rounding delays it, on the catalog boundaries
# to at most 1.06 min(m, n) steps and on an ill-conditioned random 500 x 249
# matrix to 3.3 min(m, n).  A solve that hits the cap fails the gate.
_CG_STEP_FACTOR = 10
# The relative singular-value threshold of the finite-group ranks.
_RANK_THRESHOLD = 1e-8


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


def _normal_equations(nonzeros: Nonzeros, x: np.ndarray,
                      columns: np.ndarray):
    """The normal equations of x ~ T_B c_B, T_B = T[:, columns] and T given
    by its `nonzeros`: a function of row weights w that returns the matrix
    T_B^t W T_B and the right-hand side T_B^t W x, W = diag(w).

    Both are summed from the nonzeros of T_B with np.bincount; the matrix
    from every pair of nonzeros that share a row.  The pair arrays, built
    here once, hold sum_i k_i^2 entries each, k_i the number of nonzeros in
    row i of T_B, so at most max_i k_i times its nnz; the catalog boundaries
    have at most 8 nonzeros in a row, and up to radius 8 at most 6 nnz pairs
    (the norm rows of cyclic:6).  Three of them are kept, but building them
    takes more at once.  A matrix, or the arrays of that construction, over
    `lp_complex.DENSE_BYTE_CAP` bytes raises BallCapError before either is
    allocated.
    """
    m, n = nonzeros.shape
    size = columns.size
    position = np.full(n, -1)
    position[columns] = np.arange(size)
    rows, cols, values, _ = nonzeros
    kept = position[cols] >= 0
    rows, cols, values = rows[kept], position[cols[kept]], values[kept]
    per_row = np.bincount(rows, minlength=m)
    cap = lp_complex.DENSE_BYTE_CAP
    item = np.dtype(float).itemsize
    gram_bytes = size * size * item
    if gram_bytes > cap:
        raise BallCapError(
            f"a dense {size}x{size} Gram matrix needs {gram_bytes} bytes, "
            f"over the cap of {cap} bytes")
    pairs = int(per_row @ per_row)
    # building the pairs holds at most five arrays of an 8-byte entry per
    # pair, seven per nonzero, three per row and one per column at once
    build_bytes = (5 * pairs + 7 * rows.size + 3 * m + n) * item
    if build_bytes > cap:
        raise BallCapError(
            f"building {pairs} pairs of {rows.size} nonzeros needs "
            f"{build_bytes} bytes, over the cap of {cap} bytes")
    # each nonzero pairs with every nonzero of its row, a contiguous run
    repeats = per_row[rows]
    run_start = np.cumsum(per_row) - per_row
    first = np.repeat(np.arange(rows.size), repeats)
    second = np.arange(first.size)
    second -= np.repeat(np.cumsum(repeats) - repeats - run_start[rows],
                        repeats)
    pair_index = cols[first]
    pair_index *= size
    pair_index += cols[second]
    pair_products = values[first]
    pair_products *= values[second]
    del second
    pair_rows = rows[first]
    del first
    rhs_terms = values * x[rows]

    def summed(weights: np.ndarray):
        gram = np.bincount(pair_index, weights=weights[pair_rows] * pair_products,
                           minlength=size * size).reshape(size, size)
        rhs = np.bincount(cols, weights=weights[rows] * rhs_terms,
                          minlength=size)
        return gram, rhs

    return summed


@cache
def _lapack_drivers():
    """LAPACK dpstrf, dpotrf and dpotrs, loaded on the first IRLS start from
    scipy's compiled extension scipy/linalg/_flapack.

    The extension is loaded from its file, after the top-level scipy package
    (whose _distributor_init prepares any shared libraries a scipy build
    ships), so neither
    scipy.linalg's package nor any of its Python modules runs: they would
    add some 310 modules and 27 MB to a process.  The drivers are the same
    compiled routines scipy.linalg.lapack exports.  The extension registers
    itself in sys.modules as it loads; it is removed again, so that a later
    import of scipy.linalg runs that package's own imports.  A scipy without
    the extension raises ImportError naming the folder searched.
    """
    import importlib.machinery
    import importlib.util
    import sys
    from pathlib import Path

    import scipy

    folder = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(
                "scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(spec.name, None)
            return module.dpstrf, module.dpotrf, module.dpotrs
    raise ImportError(f"no LAPACK extension _flapack in {folder}")


def _gate_scale(nonzeros: Nonzeros, x: np.ndarray) -> float:
    """The scale of the orthogonality gate, (1 + ||x||_2)(1 + max |T|)."""
    return ((1.0 + float(np.linalg.norm(x)))
            * (1.0 + float(np.abs(nonzeros.values).max(initial=0.0))))


def _gated_residual(nonzeros: Nonzeros, x: np.ndarray, c: np.ndarray,
                    scale: float) -> np.ndarray:
    """The least-squares residual r = x - T c, T given by its `nonzeros`,
    checked orthogonal to the columns of T: max |T^t r| <= _GATE_TOL * scale,
    with r and T^t r summed from the nonzeros.  A residual that misses the
    gate raises InvariantViolation."""
    residual = x - nonzeros.image(c)
    gradient = np.max(np.abs(nonzeros.coimage(residual)))
    if gradient > _GATE_TOL * scale:
        raise InvariantViolation(
            f"least-squares residual is not orthogonal to the column "
            f"space: gradient {gradient:.3e}")
    return residual


def _least_squares_start(
        nonzeros: Nonzeros,
        x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares coefficients c for x ~ T c, T given by its `nonzeros`,
    the columns they use and the residual x - T c: the IRLS start, the basis
    of its weighted steps and its first dual point.

    T^t T and T^t x are summed from the nonzeros (_normal_equations), and
    LAPACK pstrf, a Cholesky factorization with complete pivoting, factors
    T^t T at its default tolerance: it stops, and reports the rank reached,
    once the largest remaining pivot is at most n u max_j (T^t T)_jj, u the
    unit roundoff.  A remaining pivot is the squared distance of a column
    from the span of the columns kept before it, so a column is dropped once
    that distance is at most about sqrt(n u) times the largest column norm,
    and directions of T with singular values below about sqrt(n u) of the
    largest are not resolved: the normal equations square T's condition
    number.  The pivoted columns up to that rank are the basis, of full
    column rank.  potrs solves T_B^t T_B c_B = T_B^t x on the leading
    rank x rank block of the factor, and c is zero off the basis.  The
    residual x - T c must then pass the p = 2 orthogonality gate
    (_gated_residual), or InvariantViolation is raised: a basis that misses
    a direction x leans on would leave a residual outside ker T^t, whose
    dual bound is not a bound.  A lean below the gate passes it, and can
    still move a p != 2 value and its bound by more than _GAP_TOL, as a
    column of T scaled by 1e-10 does.  Returns c, the sorted basis and the
    gated residual.  pstrf stopping short of n (info > 0) is the
    rank-deficient case, not a failure; an illegal argument reported by
    either driver raises ValueError.  _Problem has checked that the input is finite.
    """
    # On every catalog boundary of tests/test_vanishing.py's rank test the
    # basis has exactly the rank of T, and the start residual is orthogonal
    # to the columns of T to rounding, max |T^t r| <= 12.3 u ||x||_2 max |T|,
    # far inside the gate.
    pstrf, _, potrs = _lapack_drivers()
    m, n = nonzeros.shape
    gram, rhs = _normal_equations(nonzeros, x, np.arange(n))(np.ones(m))
    # T^t T is symmetric: its transpose is the same matrix in the column
    # order LAPACK reads, so pstrf factors it in place, with no copy
    factor, pivots, rank, info = pstrf(gram.T, lower=False, overwrite_a=True)
    if info < 0:
        raise ValueError(f"LAPACK pstrf: illegal value in argument {-info}")
    basis = pivots[:rank] - 1
    c = np.zeros(n)
    if rank > 0:  # potrs rejects an empty system
        solution, info = potrs(factor[:rank, :rank], rhs[basis], lower=False,
                               overwrite_b=True)
        if info < 0:
            raise ValueError(f"LAPACK potrs: illegal value in argument {-info}")
        c[basis] = solution
    residual = _gated_residual(nonzeros, x, c, _gate_scale(nonzeros, x))
    return c, np.sort(basis), residual


def _weighted_solver(nonzeros: Nonzeros, x: np.ndarray, basis: np.ndarray):
    """The weighted IRLS step: a function of weights w > 0 that returns the
    coefficients c, zero off basis, minimizing ||w^(1/2) (x - T c)||_2, T
    given by its `nonzeros`.

    T_B = T[:, basis] has full column rank, so the normal equations
    T_B^t W T_B c_B = T_B^t W x, summed from the nonzeros of T_B
    (_normal_equations), are positive definite and are solved by Cholesky:
    LAPACK potrf and potrs, called with the arguments
    scipy.linalg.cho_factor and cho_solve pass, without their wrappers.  An
    empty basis gives c = 0 with no LAPACK call.  A factorization that fails
    raises InvariantViolation, in the words of scipy's LinAlgError: there is
    no second solver.  An illegal argument reported by either driver raises
    ValueError.
    """
    _, potrf, potrs = _lapack_drivers()
    n = nonzeros.shape[1]
    normal_equations = _normal_equations(nonzeros, x, basis)

    def solve(weights: np.ndarray) -> np.ndarray:
        candidate = np.zeros(n)
        if basis.size == 0:  # potrs rejects an empty system
            return candidate
        gram, rhs = normal_equations(weights)
        # gram is symmetric, so potrf factors its transpose, in the column
        # order LAPACK reads, in place, as the start's pstrf does
        factor, info = potrf(gram.T, lower=False, overwrite_a=True,
                             clean=False)
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
    a dense T here, the only scan of it and the only read of a dense T;
    every step of the solve reads the nonzeros alone.  The start with its
    basis and residual, and the weighted step on that basis, are built on
    first use, so every p solved on one problem shares them.  `sources`
    are the x and T it was built from, the only ones lp_distance accepts
    it with."""

    __slots__ = ("sources", "x", "nonzeros", "_start", "_step")

    def __init__(self, x, T, nonzeros: Nonzeros | None = None):
        self.sources = (x, T)
        x = np.asarray(x, dtype=float).reshape(-1)
        if not isinstance(T, Nonzeros):
            T = np.asarray(T, dtype=float)
        if len(T.shape) != 2 or T.shape[0] != x.shape[0]:
            raise ValueError(
                f"dimension mismatch: T is {T.shape}, x has length {x.shape[0]}")
        if not np.isfinite(x).all():
            raise ValueError("non-finite input: x holds NaN or inf")
        if nonzeros is None:
            nonzeros = T if isinstance(T, Nonzeros) else Nonzeros.of(T)
        if not np.isfinite(nonzeros.values).all():
            raise ValueError("non-finite input: T holds NaN or inf")
        self.x, self.nonzeros = x, nonzeros
        self._start = self._step = None

    def start(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The IRLS start, its basis and its residual, from
        _least_squares_start on the nonzeros alone."""
        if self._start is None:
            self._start = _least_squares_start(self.nonzeros, self.x)
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
    Every p reads T only through its nonzeros, read from a dense T once,
    and never forms a dense matrix of T.
    p = 2 solves by CGLS on the nonzeros of T and certifies optimality by
    residual orthogonality, max |T^t r| <= _GATE_TOL * scale, with the
    residual r = x - T c and T^t r both summed from the nonzeros; a solve
    that misses it raises InvariantViolation.  Its lower bound is
    <r, x>/||r||_2, or 0 if that is negative.
    Other p > 1 evaluate every residual x - T c on the nonzeros.
    They start from a least-squares solution by pivoted Cholesky on the
    normal equations summed from the nonzeros, whose pivots pick a basis of
    T's columns, and run damped IRLS, whose weighted steps are Cholesky
    solves on that basis; a start residual that misses the orthogonality
    gate, as when x leans on a direction of T whose singular value is below
    about sqrt(n u) of the largest, or a factorization that fails raises
    InvariantViolation, and a Gram matrix over the dense byte cap, n x n at
    the start, raises BallCapError.  Each weighted solve leaves
    T^t (w * (x - T candidate)) = 0, so y = w * (x - T candidate) is a
    point of ker T^t, as the least-squares residual is at the start, and
    gives the dual bound <y, x>/||y||_q.  The largest of 0 and these bounds
    is `lower`; the result is converged, and the iteration stops, once
    value - lower <= _GAP_TOL * value.  Meanwhile the smoothing parameter
    is quartered each step from _EPS_START down to _EPS_FLOOR, and a step
    at the floor that gains less than _IMPROVEMENT_TOL stops the iteration
    unconverged, as does the iteration cap; the value and its bound are
    still reported.  The objective is
    nonincreasing by construction: the line search accepts a trial only if
    it does not raise the objective, and keeps c otherwise.  A NaN or inf
    in x or T is rejected here, checked on the values of nonzeros, so the
    solves skip scipy's finiteness scan.

    `start`, a _Problem(x, T) on these very x and T, is the problem already
    checked, with the p-independent part of the solve it has built, so
    that several p share it.  A problem built from other arrays raises
    ValueError.  The result is the same with or without it.
    """
    problem = _Problem(x, T) if start is None else start
    if problem.sources[0] is not x or problem.sources[1] is not T:
        raise ValueError("the IRLS start was built for another x or T")
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
        scale = _gate_scale(nonzeros, x)
        c = _cgls(nonzeros, x, _CG_TOL * scale, _CG_STEP_FACTOR * min(nonzeros.shape))
        residual = _gated_residual(nonzeros, x, c, scale)
        value = lp_norm(residual, p)
        lower = max(0.0, _dual_bound(x, residual, 2.0))
        return MinimizationResult(value, min(lower, value), c, 1,
                                  "least-squares", True)

    c, _, residual = problem.start()
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
        lower = max(lower, _dual_bound(
            x, weights * (x - nonzeros.image(candidate)), q))
        direction = candidate - c
        scale_factor = 1.0
        for _ in range(60):
            trial = c + scale_factor * direction
            trial_residual = x - nonzeros.image(trial)
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
    and checked once, as one _Problem that every p solves on the operator's
    nonzeros, the p != 2 solves from the one least-squares start they
    share.  A curve with some p != 2 still builds each radius's dense
    matrix and passes it as T, which the solves read only through that
    problem's nonzeros.  The rows come out grouped by p, in the order of
    p_values, each group in the order of radii.
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
        # no solve reads op.matrix; only the benchmark's tracer does, off
        # the T of each p != 2 call (perfbench/tracing.py _kkt_residual,
        # pinned by tests/test_bench_hooks.py).  Passing op.nonzeros
        # belongs with the tracer's change (ROADMAP item 8).
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


def _numerical_rank(matrix: np.ndarray) -> int:
    """The number of singular values above _RANK_THRESHOLD of the largest."""
    if matrix.size == 0:
        return 0
    singular = np.linalg.svd(matrix, compute_uv=False)
    if singular[0] <= 0.0:
        return 0
    return int(np.sum(singular > _RANK_THRESHOLD * singular[0]))


def finite_group_homology_ranks(n: int, length: int) -> tuple[int, ...]:
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
    size = matrices[0].shape[1]
    dims = [size - _numerical_rank(matrices[0])]
    for i in range(1, length + 1):
        kernel_dim = size - _numerical_rank(matrices[i - 1])
        image_rank = _numerical_rank(matrices[i])
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
