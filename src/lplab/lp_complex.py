"""Truncated chain and cochain spaces over catalog groups.

A `TruncatedSpace` carries coefficient families indexed by (copy, ball element)
with the deterministic ball order.  Boundary operators act by right
convolution with the group-ring entries of a resolution; the codomain ball is
enlarged by the largest word length in those entries, so supports grow and are
never clipped.  Spaces, operators and vectors carry no exponent: one complex
of finitely supported chains serves every p.  The exponent enters only where
a norm is taken, ``Vector.norm(exponent)`` and ``lp_norm``; a chain is
measured with p and a cochain with the conjugate exponent q.  The evaluation
pairing aligns coefficients by basis label so vectors living at different
radii can be paired.

Point masses, embedded ring elements, re-embeddings on larger balls and
translates are all built by one scatter, ``_scatter``: it adds each
(copy, element, value) entry at its basis slot and raises ValueError for an
element outside the target ball.  ``index_of`` raises ValueError for a copy
outside the space's rank.  Elements and ring elements from callers are
checked to belong to the space's group where they enter (``delta_chain``,
``vector_from_ring_parts``, ``Vector.coefficient``); the scatter trusts its
entries.  Boundary assembly fills its matrix columns with its own loop.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg as _sla

from .groups import Group, GroupElement
from .group_ring import RingElement
from .resolutions import Resolution


def conjugate_exponent(p: float) -> float:
    """The q with 1/p + 1/q = 1."""
    return p / (p - 1.0)


def lp_norm(values: np.ndarray, exponent: float) -> float:
    """(sum of |value|^exponent)^(1/exponent)."""
    return float(np.sum(np.abs(values) ** exponent) ** (1.0 / exponent))


class TruncatedSpace:
    """Coefficient space on (copy, ball element) pairs."""

    __slots__ = ("group", "rank", "radius", "elements", "_positions")

    def __init__(self, group: Group, rank: int, radius: int):
        if rank < 0:
            raise ValueError(f"rank must be nonnegative, got {rank}")
        self.group = group
        self.rank = int(rank)
        self.radius = int(radius)
        self.elements = tuple(group.ball(radius))
        self._positions = {g: i for i, g in enumerate(self.elements)}

    @property
    def dim(self) -> int:
        return self.rank * len(self.elements)

    def index_of(self, copy: int, g: GroupElement) -> int | None:
        """Coefficient slot of (copy, g), or None for g outside the ball; a
        copy outside 0..rank-1 raises ValueError."""
        if not 0 <= copy < self.rank:
            raise ValueError(
                f"copy {copy} outside 0..{self.rank - 1} of a rank-{self.rank} space")
        pos = self._positions.get(g)
        return None if pos is None else copy * len(self.elements) + pos

    def basis_labels(self):
        """Iterate (copy, element) in coefficient order."""
        for copy in range(self.rank):
            for g in self.elements:
                yield copy, g

    def compatible_with(self, other: "TruncatedSpace") -> bool:
        return self.group is other.group and self.rank == other.rank


class Vector:
    """Coefficient family on a `TruncatedSpace`: a chain or a cochain, told
    apart only by the exponent its norm is taken with."""

    __slots__ = ("space", "coefficients")

    def __init__(self, space: TruncatedSpace, coefficients):
        arr = np.array(coefficients, dtype=float).reshape(-1)
        if arr.shape[0] != space.dim:
            raise ValueError(
                f"expected {space.dim} coefficients, got {arr.shape[0]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        self.space = space
        self.coefficients = arr

    def norm(self, exponent: float) -> float:
        """(sum of |coefficient|^exponent)^(1/exponent), copies summed flat."""
        if not 1.0 <= exponent < math.inf:
            raise ValueError(f"exponent must lie in [1, inf), got {exponent}")
        return lp_norm(self.coefficients, exponent)

    def coefficient(self, copy: int, g: GroupElement) -> float:
        self.space.group._require_member(g)
        idx = self.space.index_of(copy, g)
        return 0.0 if idx is None else float(self.coefficients[idx])


def _scatter(space: TruncatedSpace, entries) -> Vector:
    """Vector on space, adding each (copy, element, value) entry at its basis
    slot; an element outside the ball raises ValueError."""
    arr = np.zeros(space.dim)
    for copy, g, value in entries:
        idx = space.index_of(copy, g)
        if idx is None:
            raise ValueError(f"support element {g} escapes radius {space.radius}")
        arr[idx] += value
    return Vector(space, arr)


def _nonzero_entries(vec):
    """(copy, element, value) for each nonzero coefficient, in basis order."""
    for (copy, g), c in zip(vec.space.basis_labels(), vec.coefficients):
        if c != 0.0:
            yield copy, g, c


def delta_chain(space: TruncatedSpace, copy: int, g: GroupElement) -> Vector:
    space.group._require_member(g)
    return _scatter(space, [(copy, g, 1.0)])


def vector_from_ring_parts(space: TruncatedSpace, parts) -> Vector:
    """Embed one exact group-ring element per copy into float coefficients."""
    parts = list(parts)
    if len(parts) != space.rank:
        raise ValueError(f"expected {space.rank} parts, got {len(parts)}")
    entries = []
    for copy, part in enumerate(parts):
        if part is None:
            continue
        if part.group is not space.group:
            raise ValueError(f"cross-group operand: expected a ring element of "
                             f"{space.group.name}, got one of {part.group.name}")
        entries.extend((copy, g, float(coeff)) for g, coeff in part.items_sorted())
    return _scatter(space, entries)


class BoundaryOperator:
    """Dense matrix of a boundary on finite balls together with its two spaces."""

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: TruncatedSpace, codomain: TruncatedSpace,
                 matrix: np.ndarray):
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix


def boundary_growth(res: Resolution, i: int) -> int:
    """Largest word length among the entries of the i-th boundary: how far
    beyond its domain ball the boundary carries a chain."""
    return max((entry.max_word_length() for row in res.boundary(i)
                for entry in row), default=0)


def assemble_boundary(res: Resolution, i: int, radius: int) -> BoundaryOperator:
    """Finite matrix of the i-th boundary tensored with coefficient functions.

    Columns are indexed by (copy, ball element) at the given radius; each
    column carries the right convolution of its basis delta with the matching
    group-ring entries, landing in the ball enlarged by the largest entry word
    length.  Entries are exact integers embedded in doubles, and the matrix
    is the same for every exponent.
    """
    mat = res.boundary(i)
    group = res.group
    domain = TruncatedSpace(group, res.ranks[i], radius)
    codomain = TruncatedSpace(group, res.ranks[i - 1],
                              radius + boundary_growth(res, i))
    out = np.zeros((codomain.dim, domain.dim))
    n_dom = len(domain.elements)
    terms = [[[(g, float(coeff)) for g, coeff in entry.items_sorted()]
              for entry in row] for row in mat]
    for b in range(domain.rank):
        for h_pos, h in enumerate(domain.elements):
            col = b * n_dom + h_pos
            for a in range(codomain.rank):
                for g, coeff in terms[a][b]:
                    row_idx = codomain.index_of(a, h * g)
                    if row_idx is None:
                        raise RuntimeError(
                            "convolution support escaped the enlarged ball")
                    out[row_idx, col] += coeff
    return BoundaryOperator(domain, codomain, out)


def dual_boundary(res: Resolution, i: int, radius: int) -> BoundaryOperator:
    """Transpose of the assembled boundary, acting on cochain coefficients."""
    op = assemble_boundary(res, i, radius)
    return BoundaryOperator(op.codomain, op.domain, op.matrix.T.copy())


def embed(vec, target: TruncatedSpace):
    """Re-express a vector on a larger (or equal) ball, padding with zeros."""
    if not vec.space.compatible_with(target):
        raise ValueError("spaces differ in group or rank")
    return _scatter(target, _nonzero_entries(vec))


def pairing(y: Vector, x: Vector) -> float:
    """Evaluation pairing: sum over copies and elements of products of
    coefficients, aligned by basis label; missing slots count as zero."""
    ys, xs = y.space, x.space
    if ys.group is not xs.group:
        raise ValueError("pairing needs vectors over the same group")
    if ys.rank != xs.rank:
        raise ValueError(f"rank mismatch: {ys.rank} vs {xs.rank}")
    if ys.radius == xs.radius:
        return float(np.dot(y.coefficients, x.coefficients))
    if xs.radius < ys.radius:
        x = embed(x, ys)
    else:
        y = embed(y, xs)
    return float(np.dot(y.coefficients, x.coefficients))


def translate(x, g: GroupElement):
    """Left translation: the new coefficient at h is the old one at g^-1 h."""
    return translate_ring(x, RingElement.from_element(g))


def translate_ring(x, u: RingElement):
    """Weighted sum of left translations over the support of a ring element."""
    space = x.space
    if u.group is not space.group:
        raise ValueError("ring element belongs to a different group")
    if u.is_zero():
        return Vector(space, np.zeros(space.dim))
    new_space = TruncatedSpace(space.group, space.rank,
                               space.radius + u.max_word_length())
    entries = list(_nonzero_entries(x))
    return _scatter(new_space, ((copy, g * h, float(coeff) * c)
                                for g, coeff in u.items_sorted()
                                for copy, h, c in entries))


def annihilator_residual(res: Resolution, i: int, radius: int) -> float:
    """Largest inner product between orthonormal bases of ker(T^t) and im(T).

    Both bases come from rank-revealing factorizations; the kernel of the
    transpose annihilates the image, so the residual should vanish up to
    rounding.
    """
    T = assemble_boundary(res, i, radius).matrix
    kernel = _sla.null_space(T.T)
    image = _sla.orth(T)
    if kernel.size == 0 or image.size == 0:
        return 0.0
    return float(np.max(np.abs(kernel.T @ image)))


def export_matrix_coordinate(op: BoundaryOperator, path, *, resolution: str,
                             index: int, radius: int):
    """Write nonzero entries as "row col value" lines under a naming header."""
    lines = [
        f"# group={op.domain.group.name} resolution={resolution} "
        f"i={index} R={radius}",
        f"# shape={op.matrix.shape[0]}x{op.matrix.shape[1]}",
    ]
    rows, cols = np.nonzero(op.matrix)
    for r, c in zip(rows.tolist(), cols.tolist()):
        lines.append(f"{r} {c} {op.matrix[r, c]:.17g}")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def export_vector_csv(vec, path):
    """Write all coefficients as CSV rows (copy, element, value)."""
    lines = ["copy,element,value"]
    for pos, (copy, g) in enumerate(vec.space.basis_labels()):
        token = str(g)
        if "," in token:
            token = f'"{token}"'
        lines.append(f"{copy},{token},{vec.coefficients[pos]:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
