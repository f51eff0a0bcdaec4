"""Independent reference computations used to pin expected test values.

Everything here is deliberately naive: exhaustive product sets instead of
breadth-first search, scalar loops instead of vectorized sums, dense normal
equations instead of factorizations, and exact fraction elimination instead of
singular values.  The oracles must not share code paths with the library.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def product_set_ball(group, radius):
    """All products of at most `radius` symmetric generators, as a key set."""
    gens = [g.key for g in group.symmetric_generators]
    current = {group.identity.key}
    seen = set(current)
    for _ in range(radius):
        nxt = set()
        for key in current:
            for gk in gens:
                nxt.add(group._mul_keys(key, gk))
        current = nxt - seen
        seen |= nxt
    return seen


def product_set_word_length(group, element, cap=32):
    """Smallest number of generator factors producing the element."""
    gens = [g.key for g in group.symmetric_generators]
    if element.key == group.identity.key:
        return 0
    current = {group.identity.key}
    seen = set(current)
    for distance in range(1, cap + 1):
        nxt = set()
        for key in current:
            for gk in gens:
                out = group._mul_keys(key, gk)
                if out not in seen:
                    nxt.add(out)
        if element.key in nxt:
            return distance
        seen |= nxt
        current = nxt
    raise RuntimeError(f"element {element} not reached within {cap} factors")


def degree_zero_distance(group, radius, p):
    """p-distance from the identity delta to the truncated first boundary.

    The first boundary sends the generator cell of s to s - 1, so the column
    of h in the ball reaches h and h*s.  Those columns span every zero-sum
    vector on the N elements they reach (the ball is connected), and the
    nearest point leaves the residual 1/N on each: N^(1/p - 1).
    """
    ball = product_set_ball(group, radius)
    reached = ball | {group._mul_keys(h, s.key)
                      for h in ball for s in group.generators}
    return len(reached), len(reached) ** (1.0 / p - 1.0)


def naive_convolve(u, v):
    """Coefficient dictionary of the ring product, computed by double loop."""
    out = {}
    for a, ca in u.items_sorted():
        for b, cb in v.items_sorted():
            g = a * b
            out[g] = out.get(g, Fraction(0)) + ca * cb
    return {g: c for g, c in out.items() if c != 0}


def naive_p_norm(values, p):
    """Scalar-loop p-norm of an iterable of floats."""
    total = 0.0
    for value in values:
        total += abs(float(value)) ** p
    return total ** (1.0 / p)


def naive_pairing(y_coeffs, x_coeffs):
    """Pairing of two {(copy, element key): value} dictionaries."""
    total = 0.0
    for label, value in y_coeffs.items():
        total += value * x_coeffs.get(label, 0.0)
    return total


def dense_normal_equations_distance(T, x):
    """Euclidean distance via an LU solve of the normal equations.

    Requires T to have full column rank; independent of the SVD-based
    least-squares route in the library.
    """
    T = np.asarray(T, dtype=float)
    x = np.asarray(x, dtype=float)
    if T.shape[1] == 0:
        return float(np.linalg.norm(x))
    gram = T.T @ T
    c = np.linalg.solve(gram, T.T @ x)
    return float(np.linalg.norm(x - T @ c))


def exact_rank(matrix):
    """Rank of an integer (or rational) matrix by fraction elimination."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead = rows[pivot_row][col]
        for r in range(pivot_row + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def translated_pairing_by_summation(y, x, u):
    """b(y, u . x) by direct summation over exact supports.

    y and x are {(copy, element): float} maps, u a ring element; the translate
    of x by a group element g has value x[(j, g^-1 h)] at (j, h).
    """
    total = 0.0
    for g, coeff in u.items_sorted():
        weight = float(coeff)
        for (copy, h), value in y.items():
            shifted = g.inverse() * h
            total += weight * value * x.get((copy, shifted), 0.0)
    return total
