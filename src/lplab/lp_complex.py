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
entries.  Boundary assembly works on table ids instead: it reads each product
of a domain ball element and an entry element once from the group's
`ElementTable`, maps ids to codomain slots through one position array, and
places each entry term in every domain column at once.

A `BoundaryOperator` stores its matrix as `Nonzeros`, one row-major
(rows, cols, values) triple and the shape, the one representation the
solvers read: `vanishing` checks a distance problem once, on these
nonzeros, and its CGLS and weighted IRLS steps read nothing else of T.
Only the least-squares start of IRLS and its line search need the dense
`matrix`, built from the nonzeros on first read; it raises `BallCapError`
instead when it would take more than `DENSE_BYTE_CAP` bytes, so an
operator out of dense reach fails loudly where dense work is asked of it
rather than exhausting memory.  Ball order is (layer, normal form), so the
operator at a smaller radius is a per-copy prefix of the larger one's
nonzeros: `BoundaryOperator.restricted` cuts it out of them, and a curve
over growing radii assembles once, at its largest.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .groups import BallCapError, Group, GroupElement, InvariantViolation
from .group_ring import RingElement
from .resolutions import Resolution


def conjugate_exponent(p: float) -> float:
    """The q with 1/p + 1/q = 1."""
    return p / (p - 1.0)


def lp_norm(values: np.ndarray, exponent: float) -> float:
    """(sum of |value|^exponent)^(1/exponent)."""
    return float((np.abs(values) ** exponent).sum() ** (1.0 / exponent))


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


class Vector:
    """Coefficient family on a `TruncatedSpace`: a chain or a cochain, told
    apart only by the exponent its norm is taken with."""

    __slots__ = ("space", "coefficients")

    def __init__(self, space: TruncatedSpace, coefficients):
        arr = np.array(coefficients, dtype=float).reshape(-1)
        if arr.shape[0] != space.dim:
            raise ValueError(
                f"expected {space.dim} coefficients, got {arr.shape[0]}")
        if not np.isfinite(arr).all():
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
        if part.group is not space.group:
            raise ValueError(f"cross-group operand: expected a ring element of "
                             f"{space.group.name}, got one of {part.group.name}")
        entries.extend((copy, g, float(coeff)) for g, coeff in part.items_sorted())
    return _scatter(space, entries)


# The largest dense matrix `Nonzeros.dense` builds: 256 MiB of doubles.  A
# boundary past it (fox:free:2 i=1 at R=7 is 13121 x 8746, 0.92 GB dense)
# is solved at p = 2 on its nonzeros; reading it densely raises.
DENSE_BYTE_CAP = 1 << 28


class Nonzeros(NamedTuple):
    """The nonzero entries of a matrix, row by row, and its shape: `rows`,
    `cols` and `values` in row-major order, the order np.nonzero gives."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def of(cls, matrix: np.ndarray) -> "Nonzeros":
        """The nonzeros of a dense matrix, read in one scan."""
        rows, cols = np.nonzero(matrix)
        return cls(rows, cols, matrix[rows, cols], matrix.shape)

    def image(self, v: np.ndarray) -> np.ndarray:
        """T v."""
        return np.bincount(self.rows, weights=self.values * v[self.cols],
                           minlength=self.shape[0])

    def coimage(self, u: np.ndarray) -> np.ndarray:
        """T^t u."""
        return np.bincount(self.cols, weights=self.values * u[self.rows],
                           minlength=self.shape[1])

    def transpose(self) -> "Nonzeros":
        """The nonzeros of T^t, row by row."""
        m, n = self.shape
        order = np.argsort(self.cols * m + self.rows)
        return Nonzeros(self.cols[order], self.rows[order], self.values[order],
                        (n, m))

    def dense(self) -> np.ndarray:
        """The dense matrix; one over DENSE_BYTE_CAP bytes raises BallCapError
        before anything is allocated."""
        m, n = self.shape
        size = m * n * np.dtype(float).itemsize
        if size > DENSE_BYTE_CAP:
            raise BallCapError(
                f"a dense {m}x{n} matrix needs {size} bytes, over the cap of "
                f"{DENSE_BYTE_CAP} bytes")
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.values
        return out


class BoundaryOperator:
    """A boundary on finite balls, stored as its nonzeros, together with its
    two spaces.  `matrix`, the dense form, is built on first read and kept;
    an operator over DENSE_BYTE_CAP raises BallCapError there instead."""

    __slots__ = ("domain", "codomain", "nonzeros", "_matrix")

    def __init__(self, domain: TruncatedSpace, codomain: TruncatedSpace,
                 nonzeros: Nonzeros):
        self.domain = domain
        self.codomain = codomain
        self.nonzeros = nonzeros
        self._matrix = None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self.nonzeros.dense()
        return self._matrix

    def restricted(self, radius: int) -> "BoundaryOperator":
        """The operator assembled at a radius no larger than the domain's,
        cut out of these nonzeros; at the domain's radius, self.

        Ball order is (layer, normal form), so each smaller ball is a prefix
        of the larger one, in the domain and in the codomain, whose radius
        keeps its growth over the domain's.  The kept nonzeros are those
        whose column lies inside that prefix of its copy; their images lie
        inside the codomain prefix of their copy.  Renumbering rows and
        columns copy by copy is increasing, so the nonzeros stay row-major.
        """
        if radius == self.domain.radius:
            return self
        if radius > self.domain.radius:
            raise ValueError(f"radius {radius} exceeds the assembled radius "
                             f"{self.domain.radius}")
        group = self.domain.group
        growth = self.codomain.radius - self.domain.radius
        domain = TruncatedSpace(group, self.domain.rank, radius)
        codomain = TruncatedSpace(group, self.codomain.rank, radius + growth)
        n_dom, n_cod = len(domain.elements), len(codomain.elements)
        rows, cols, values, _ = self.nonzeros
        col_copy, col_pos = np.divmod(cols, len(self.domain.elements))
        kept = col_pos < n_dom
        row_copy, row_pos = np.divmod(rows[kept], len(self.codomain.elements))
        return BoundaryOperator(domain, codomain, Nonzeros(
            row_copy * n_cod + row_pos, col_copy[kept] * n_dom + col_pos[kept],
            values[kept], (codomain.dim, domain.dim)))


def boundary_growth(res: Resolution, i: int) -> int:
    """Largest word length among the entries of the i-th boundary: how far
    beyond its domain ball the boundary carries a chain."""
    return max((entry.max_word_length() for row in res.boundary(i)
                for entry in row), default=0)


def assemble_boundary(res: Resolution, i: int, radius: int) -> BoundaryOperator:
    """Nonzeros of the i-th boundary tensored with coefficient functions.

    Columns are indexed by (copy, ball element) at the given radius; each
    column carries the right convolution of its basis delta with the matching
    group-ring entries, landing in the ball enlarged by the largest entry word
    length.  Entries are exact integers embedded in doubles, and the operator
    is the same for every exponent.  Each term (g, coeff) of entry (a, b)
    puts coeff at (copy a, h * g) in the column of (copy b, h) for every
    domain element h at once; distinct terms never share a position, so the
    terms' entries, sorted once into row-major order, are the nonzeros with
    no duplicate and no explicit zero.
    """
    mat = res.boundary(i)
    group = res.group
    domain = TruncatedSpace(group, res.ranks[i], radius)
    codomain = TruncatedSpace(group, res.ranks[i - 1],
                              radius + boundary_growth(res, i))
    n_dom, n_cod = len(domain.elements), len(codomain.elements)
    products = group.table.products
    domain_ids = [h.id for h in domain.elements]
    # ids of h * g over the domain ball, for each element g of an entry
    right_products: dict[int, list[int]] = {}
    terms = []
    for a, row in enumerate(mat):
        for b, entry in enumerate(row):
            for g, coeff in entry.items_sorted():
                if g.id not in right_products:
                    right_products[g.id] = [products[h, g.id] for h in domain_ids]
                terms.append((a, b, g.id, float(coeff)))
    # codomain slot of every table id, -1 off the enlarged ball; sized after
    # the products, which may have met elements beyond it
    position = np.full(len(group.table.elements), -1)
    position[[g.id for g in codomain.elements]] = np.arange(n_cod)
    slots = {g: position[ids] for g, ids in right_products.items()}
    if any((rows < 0).any() for rows in slots.values()):
        raise InvariantViolation("convolution support escaped the enlarged ball")
    # one row of term_slots and of copies per term, one column per domain
    # element: the term lands at (a * n_cod + slot, b * n_dom + column)
    term_slots = np.array([slots[g] for _, _, g, _ in terms],
                          dtype=int).reshape(-1, n_dom)
    copies = np.array([(a, b) for a, b, _, _ in terms], dtype=int).reshape(-1, 2)
    rows = (copies[:, :1] * n_cod + term_slots).ravel()
    cols = (copies[:, 1:] * n_dom + np.arange(n_dom)).ravel()
    values = np.repeat([coeff for *_, coeff in terms], n_dom)
    shape = (codomain.dim, domain.dim)
    order = np.argsort(rows * shape[1] + cols)
    return BoundaryOperator(domain, codomain, Nonzeros(
        rows[order], cols[order], values[order], shape))


def dual_boundary(res: Resolution, i: int, radius: int) -> BoundaryOperator:
    """Transpose of the assembled boundary, acting on cochain coefficients."""
    op = assemble_boundary(res, i, radius)
    return BoundaryOperator(op.codomain, op.domain, op.nonzeros.transpose())


def embed(vec, target: TruncatedSpace):
    """Re-express a vector on a larger (or equal) ball, padding with zeros."""
    if vec.space.group is not target.group or vec.space.rank != target.rank:
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
    new_space = TruncatedSpace(space.group, space.rank,
                               space.radius + u.max_word_length())
    entries = list(_nonzero_entries(x))
    return _scatter(new_space, ((copy, g * h, float(coeff) * c)
                                for g, coeff in u.items_sorted()
                                for copy, h, c in entries))


def export_matrix_coordinate(op: BoundaryOperator, path, *, resolution: str,
                             index: int):
    """Write nonzero entries as "row col value" lines under a naming header;
    R is the radius of the operator's domain."""
    lines = [
        f"# group={op.domain.group.name} resolution={resolution} "
        f"i={index} R={op.domain.radius}",
        f"# shape={op.nonzeros.shape[0]}x{op.nonzeros.shape[1]}",
    ]
    rows, cols, values, _ = op.nonzeros
    for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist()):
        lines.append(f"{r} {c} {v:.17g}")
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
