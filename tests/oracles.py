"""Independent reference computations used to pin expected test values.

Everything here is deliberately naive: exhaustive product sets instead of
breadth-first search, scalar loops instead of vectorized sums, dense normal
equations instead of factorizations, and exact fraction elimination instead of
singular values.  The oracles must not share code paths with the library.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np


def product_set_layers(group, radius):
    """Key sets by word length: layer i holds the products of i symmetric
    generators that no shorter product reaches."""
    gens = [g.key for g in group.symmetric_generators]
    layers = [{group.identity.key}]
    seen = set(layers[0])
    for _ in range(radius):
        nxt = {group._mul_keys(key, gk) for key in layers[-1] for gk in gens}
        layers.append(nxt - seen)
        seen |= nxt
    return layers


def product_set_ball(group, radius):
    """All products of at most `radius` symmetric generators, as a key set."""
    return set().union(*product_set_layers(group, radius))


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

    Requires T to have full column rank; independent of the library's
    least-squares routes, conjugate gradients on the normal equations at
    p = 2 and a column-pivoted QR solve (LAPACK gelsy) inside IRLS.
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


def naive_homotopy_residual(phi, multipliers, radius):
    """(max_abs, tuples_checked, tuples_skipped, worst_tail) of
    dJphi + Jdphi - (k*phi - u*phi) over the slice tuples (1, x_1, ..., x_n)
    with every x_i in the radius ball, for a finitely supported cochain phi.

    J sums the homotopy formula over the k distinct multipliers and u is
    their sum.  Everything is evaluated on raw normal forms with Fraction
    dictionaries, straight from the definitions: a cochain's value at a
    general tuple is g_0 times its value at the tuple moved by g_0^-1, d is
    the alternating sum over omissions and J the signed sum over duplicated
    arguments.  The tails run in ball order (word length, then normal form),
    so worst_tail is the first tail whose residual reaches max_abs.
    """
    group = phi.group
    mul, inv = group._mul_keys, group._inv_key
    e = group.identity.key
    keys = sorted({g.key for g in multipliers})
    stored = {tuple(x.key for x in tail): {g.key: c for g, c in value.items_sorted()}
              for tail, value in phi.values.items()}

    def accumulate(out, sign, value):
        for g, c in value.items():
            out[g] = out.get(g, Fraction(0)) + sign * c

    def equivariant(at_slice):
        def at(args):
            h = args[0]
            moved = tuple(mul(inv(h), x) for x in args)
            return {mul(h, g): c for g, c in at_slice(moved).items()}
        return at

    def d(f):
        def at(args):
            out = {}
            for i in range(len(args)):
                accumulate(out, (-1) ** i, f(args[:i] + args[i + 1:]))
            return out
        return at

    def j(f):
        def at_slice(args):
            out = {}
            for g in keys:
                for k in range(len(args)):
                    duplicated = args[:k + 1] + tuple(mul(g, x) for x in args[k:])
                    accumulate(out, 1 if k % 2 else -1, f(duplicated))
            return out
        return equivariant(at_slice)

    phi_at = equivariant(lambda args: stored.get(args[1:], {}))
    d_j_phi, j_d_phi = d(j(phi_at)), j(d(phi_at))
    ball = [key for layer in product_set_layers(group, radius) for key in sorted(layer)]
    worst, worst_tail, checked = Fraction(0), None, 0
    for tail in product(ball, repeat=phi.degree):
        args = (e,) + tail
        value = phi_at(args)
        residual = {}
        accumulate(residual, 1, d_j_phi(args))
        accumulate(residual, 1, j_d_phi(args))
        accumulate(residual, -len(keys), value)
        for g in keys:
            accumulate(residual, 1, {mul(g, x): c for x, c in value.items()})
        checked += 1
        for c in residual.values():
            if abs(c) > worst:
                worst, worst_tail = abs(c), tail
    if worst_tail is not None:
        worst_tail = tuple(group.element(key) for key in worst_tail)
    return worst, checked, 0, worst_tail
