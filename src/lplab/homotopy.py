"""Bar-complex coboundary, the degree-lowering homotopy attached to a central
multiplier, and exact residual measurements for class-sum variants.

Everything here is exact: the homotopy identity is an algebraic statement
and floating error would blur it into a tolerance.  The kernel runs on
interned data.  Group elements are the integer ids of the group's
`ElementTable`, and a cochain stores its values as `RingElement`s, which
hold integer numerators on those ids over a denominator; the cochain's
denominator is the lcm of theirs.  Every operator is Z-linear with integer
multipliers, so an operator's value is an integer combination of stored
numerators over the cochain's denominator, and a residual comes out as a
literal integer over it; exact zero stays literal 0.  Argument elements are
interned, and checked, only where they enter.

A cochain is stored on its equivariant slice, the argument tuples
(1, x_1, ..., x_n) with every x_i in the radius ball that
resolutions.bar_slice_ball returns (after capping their count at the group's
ball_cap); evaluation elsewhere shifts to the slice and translates the value.
Every cochain is finitely supported: it is zero at the slice tuples outside
its window.  The coboundary of a finitely supported cochain is not finitely
supported, so a materialized operator is the operator's restriction to a
window: exact at the slice tuples of the window and zero outside it.  The
homotopy identity holds for every cochain, so it holds exactly for these
restrictions too.

The homotopy residual is linear in the cochain, so it is measured in two
phases.  At each slice tuple it is a sum of symbols [g, tail], each standing
for g times a cochain's value at (1, *tail).  The expression is the same for
every tuple and every group, so it is compiled once per (degree n, class size
k) on free words in the tail letters a_1, ..., a_n and the multiplier letters
g_1, ..., g_k, where the symbols that cancel in the free group drop out and
2nk remain: those that cancel only when g commutes with the a_i.  A
`ResidualForm` reads that compiled form on one group's table over the slice
tuples of a radius, merges the symbols that coincide there and drops those
whose coefficients cancel; for a central multiplier none remain.  Each
cochain is then evaluated against the symbols that remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from random import Random

from .groups import ElementTable, FreeGroup, Group, GroupElement
from .group_ring import RingElement
from .resolutions import BAR_DEGREE_CAP, bar_slice_ball

# An accumulator: element id -> integer coefficient over the cochain's
# denominator.  Zero coefficients may appear in it.
IdValue = dict[int, int]
IdTuple = tuple[int, ...]


def _slice_tuples(group: Group, degree: int, radius: int):
    """The degree-n slice tuples (1, x_1, ..., x_n) as ids: the identity's
    id 0, then every x_i in bar_slice_ball, in product order."""
    ball = [x.id for x in bar_slice_ball(group, degree, radius)]
    return ((0,) + tail for tail in product(ball, repeat=degree))


class EquivariantCochain:
    """Bar cochain of fixed degree with exact group-ring values.

    values is a dict from argument tails (x_1, ..., x_n) inside the radius
    window to ring elements; the value at a general tuple
    (g, g x_1, ..., g x_n) is g times the stored value, and missing tails are
    zero.

    The tails are checked and interned once, here: `stored` maps id tails to
    the nonzero values, and `denominator` is the lcm of their denominators.
    """

    __slots__ = ("group", "degree", "radius", "stored", "denominator", "_add")

    def __init__(self, group: Group, degree: int, radius: int, values):
        if not 0 <= degree <= BAR_DEGREE_CAP:
            raise ValueError(f"degree must lie in 0..{BAR_DEGREE_CAP}, got {degree}")
        if radius < 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        table = group.table
        stored: dict[IdTuple, RingElement] = {}
        for tail, value in values.items():
            tail = tuple(tail)
            if len(tail) != degree:
                raise ValueError(
                    f"tail {tail} has length {len(tail)}, expected {degree}")
            ids = tuple(group.intern(x) for x in tail)
            for x in ids:
                if table.lengths[x] > radius:
                    raise ValueError(
                        f"tail element {table.elements[x]} lies outside the "
                        f"radius-{radius} window")
            if value.group is not group:
                raise ValueError("value belongs to a different group ring")
            stored[ids] = value
        self._store(group, int(degree), int(radius), stored)

    def _store(self, group: Group, degree: int, radius: int,
               stored: dict[IdTuple, RingElement]):
        """Keep the nonzero values and the lcm of their denominators."""
        stored = {tail: value for tail, value in stored.items() if value.numerators}
        self.group = group
        self.degree = degree
        self.radius = radius
        self.stored = stored
        self.denominator = lcm(*(value.denominator for value in stored.values()))
        self._add = _stored_adder(group.table, stored, self.denominator)

    @classmethod
    def _interned(cls, group: Group, degree: int, radius: int,
                  stored: dict[IdTuple, RingElement]) -> "EquivariantCochain":
        """A cochain from values on id tails that are already checked."""
        phi = object.__new__(cls)
        phi._store(group, degree, radius, stored)
        return phi

    def _require_same_group(self, group: Group):
        if group is not self.group:
            raise ValueError(f"cochains belong to different groups: "
                             f"{self.group.name} vs {group.name}")

    def _intern_args(self, args, arity: int) -> IdTuple:
        args = tuple(args)
        if len(args) != arity:
            raise ValueError(f"expected {arity} arguments, got {len(args)}")
        return tuple(self.group.intern(x) for x in args)

    @property
    def values(self) -> dict[tuple[GroupElement, ...], RingElement]:
        """The stored slice values, keyed by element tails."""
        elements = self.group.table.elements
        return {tuple(elements[x] for x in tail): value
                for tail, value in self.stored.items()}

    def _value(self, args: IdTuple) -> RingElement:
        acc: IdValue = {}
        self._add(acc, 1, 0, args)
        return RingElement._trusted(self.group, acc, self.denominator)

    def value_at_tail(self, tail: tuple[GroupElement, ...]) -> RingElement:
        """Stored value at a slice tuple (1, *tail)."""
        return self._value((0,) + self._intern_args(tail, self.degree))

    def eval(self, args: tuple[GroupElement, ...]) -> RingElement:
        """Value at a general argument tuple, via the equivariant shift."""
        return self._value(self._intern_args(args, self.degree + 1))

    def scale(self, factor) -> "EquivariantCochain":
        factor = Fraction(factor)
        return EquivariantCochain._interned(
            self.group, self.degree, self.radius,
            {tail: value.scale(factor) for tail, value in self.stored.items()})

    def __rmul__(self, factor):
        if isinstance(factor, (int, Fraction)):
            return self.scale(factor)
        return NotImplemented

    def __neg__(self) -> "EquivariantCochain":
        return self.scale(-1)

    def __add__(self, other: "EquivariantCochain") -> "EquivariantCochain":
        if not isinstance(other, EquivariantCochain):
            return NotImplemented
        self._require_same_group(other.group)
        if self.degree != other.degree:
            raise ValueError("cochains have different degrees")
        merged = dict(self.stored)
        for tail, value in other.stored.items():
            prev = merged.get(tail)
            merged[tail] = value if prev is None else prev + value
        return EquivariantCochain._interned(
            self.group, self.degree, max(self.radius, other.radius), merged)

    def __sub__(self, other: "EquivariantCochain") -> "EquivariantCochain":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EquivariantCochain):
            return NotImplemented
        self._require_same_group(other.group)
        return self.degree == other.degree and self.stored == other.stored

    __hash__ = None

    def __repr__(self) -> str:
        return (f"<cochain degree={self.degree} radius={self.radius} "
                f"on {self.group.name}, {len(self.stored)} tails>")


def zero_cochain(group: Group, degree: int, radius: int) -> EquivariantCochain:
    return EquivariantCochain(group, degree, radius, {})


def random_cochain(group: Group, degree: int, radius: int,
                   rng: Random) -> EquivariantCochain:
    """Dense random cochain on the window: each value has one or two terms on
    the radius-2 ball with small random rational coefficients."""
    value_ball = [g.id for g in group.ball(2)]
    # every coefficient is a/b with 1 <= b <= 9, so lcm(1, ..., 9) is a
    # common denominator of each value
    denominator = lcm(*range(1, 10))
    values = {}
    for args in _slice_tuples(group, degree, radius):
        value: IdValue = {}
        for _ in range(rng.randint(1, 2)):
            g = value_ball[rng.randrange(len(value_ball))]
            a, b = rng.randint(-9, 9), rng.randint(1, 9)
            value[g] = value.get(g, 0) + a * (denominator // b)
        values[args[1:]] = RingElement._trusted(group, value, denominator)
    return EquivariantCochain._interned(group, degree, radius, values)


# -- formula evaluation ----------------------------------------------------------
#
# Operators are evaluated lazily through "adders": callables
# add(acc, m, head, args) that add m times the head-translate of the
# operator's value at the id tuple args into acc, a dict[int, int] over the
# cochain's denominator.  An operator expands its defining formula by calling
# the adder below it once per term, so no intermediate value is built.  The
# bottom of a numeric stack is a cochain's own _add, the only code that reads
# stored values; it shifts its tuple to the slice first, which is the
# definition of evaluation for an equivariant cochain.
#
# The residual scan runs the same stack in two phases.  _compiled_form puts
# _formal_adder at the bottom, which adds m to the symbol (head, slice tuple)
# in place of m times the head-translate of the value there.  It runs the
# stack once per (degree, class size) on the table of a free group and
# reads its ids back as freely reduced words.  A ResidualForm evaluates those
# words on its group's table, and evaluating a cochain then feeds each
# surviving symbol to the cochain's _add.


def _shifted(table: ElementTable, slice_add):
    """slice_add, which reads tuples with leading identity, extended
    equivariantly: shift args to the slice and translate by the leading
    argument."""
    products, inverses = table.products, table.inverses

    def add(acc: IdValue, m: int, head: int, args: IdTuple):
        first = args[0]
        if first:
            shift = inverses[first]
            args = (0,) + tuple([products[shift, x] for x in args[1:]])
            head = products[head, first]
        slice_add(acc, m, head, args)

    return add


def _stored_adder(table: ElementTable, stored: dict[IdTuple, RingElement],
                  denominator: int):
    """Adder of a stored cochain: a value's numerators count over the
    cochain's denominator once scaled by denominator // value.denominator,
    and a tail that is not stored adds nothing.  Closing over the values
    rather than the cochain keeps a cochain free of reference cycles."""
    products = table.products

    def add_at_slice(acc: IdValue, m: int, head: int, args: IdTuple):
        value = stored.get(args[1:])
        if value is None:
            return
        get = acc.get
        m *= denominator // value.denominator
        for g, c in value.numerators.items():
            if head:
                g = products[head, g]
            acc[g] = get(g, 0) + m * c

    return _shifted(table, add_at_slice)


def _formal_adder(table: ElementTable):
    """Bottom adder of a formal expansion: adds m to the symbol
    (head, slice tuple) of acc, a dict keyed by symbols, instead of reading a
    value."""

    def add_at_slice(acc: dict, m: int, head: int, args: IdTuple):
        key = (head, args)
        acc[key] = acc.get(key, 0) + m

    return _shifted(table, add_at_slice)


def _coboundary_adder(inner):
    """Alternating sum over argument omissions.  The coboundary commutes with
    left translation, so it needs no shift to the slice."""

    def add(acc: IdValue, m: int, head: int, args: IdTuple):
        for i in range(len(args)):
            inner(acc, -m if i % 2 else m, head, args[:i] + args[i + 1:])

    return add


def _homotopy_adder(table: ElementTable, inner, multipliers: IdTuple):
    """The homotopy formula, applied literally at args: duplicate the k-th
    argument, translating the tail by each multiplier, with alternating signs
    (minus for even k).  Summed over a class that is not central it is not
    equivariant, so off the slice it is read either literally
    (equivariance_defect) or through _shifted (the residual scan)."""
    products = table.products

    def add(acc: IdValue, m: int, head: int, args: IdTuple):
        n = len(args) - 1
        for g in multipliers:
            for k in range(n + 1):
                inner(acc, m if k % 2 else -m, head,
                      args[:k + 1] + tuple([products[g, x] for x in args[k:]]))

    return add


def _materialize(phi: EquivariantCochain, add, degree: int,
                 radius: int | None) -> EquivariantCochain:
    """The restriction of the operator behind add to the slice tuples of the
    window of the given radius, by default phi's."""
    group = phi.group
    radius = phi.radius if radius is None else radius
    values = {}
    for args in _slice_tuples(group, degree, radius):
        acc: IdValue = {}
        add(acc, 1, 0, args)
        values[args[1:]] = RingElement._trusted(group, acc, phi.denominator)
    return EquivariantCochain._interned(group, degree, radius, values)


def coboundary(phi: EquivariantCochain,
               radius: int | None = None) -> EquivariantCochain:
    """The coboundary, an alternating sum over argument omissions, restricted
    to the window of the given radius (by default phi's): exact at the slice
    tuples of the window, zero outside it.
    """
    if phi.degree + 1 > BAR_DEGREE_CAP:
        raise ValueError(f"coboundary would exceed the degree cap {BAR_DEGREE_CAP}")
    return _materialize(phi, _coboundary_adder(phi._add), phi.degree + 1, radius)


def require_central(element: GroupElement):
    """Raise ValueError unless element commutes with every generator."""
    if not RingElement.from_element(element).is_central():
        raise ValueError(
            f"element {element} is not central in {element.group.name}")


def _require_degree_to_lower(phi: EquivariantCochain):
    if phi.degree < 1:
        raise ValueError("the homotopy lowers degree; need degree >= 1")


def _require_central_multiplier(phi: EquivariantCochain,
                                element: GroupElement):
    """Preconditions of the central-multiplier homotopy: the multiplier lies
    in the group, the cochain has a degree to lower, and the multiplier is
    central."""
    phi.group._require_member(element)
    _require_degree_to_lower(phi)
    require_central(element)


def multiplier_homotopy(phi: EquivariantCochain, central_element: GroupElement,
                        radius: int | None = None) -> EquivariantCochain:
    """Degree-lowering homotopy for a central multiplier, restricted to the
    window of the given radius (by default phi's): exact at the slice tuples
    of the window, zero outside it.

    Rejects non-central multipliers: the construction is equivariant only
    when the multiplier commutes with everything (class sums are handled by
    class_sum_homotopy_residual, which measures instead of assuming).
    """
    _require_central_multiplier(phi, central_element)
    group = phi.group
    add = _homotopy_adder(group.table, phi._add, (group.intern(central_element),))
    return _materialize(phi, add, phi.degree - 1, radius)


@dataclass(frozen=True)
class ResidualReport:
    """Largest absolute residual coefficient over the evaluated tuples.

    worst_tail is the first argument tail (in ball order) whose residual
    reaches max_abs, or None when every residual is zero.
    """

    max_abs: Fraction
    tuples_checked: int
    # Always 0: every cochain is finitely supported, so no tuple is skipped.
    # The field stays because the benchmark's tracer reads it.
    tuples_skipped: int
    worst_tail: tuple[GroupElement, ...] | None = None


@lru_cache(maxsize=None)
def _compiled_form(degree: int, size: int) -> tuple[tuple[int, object, tuple], ...]:
    """The homotopy residual at the slice tuple (1, a_1, ..., a_n) for the
    multipliers g_1, ..., g_k, as terms (m, head, tail) standing for m times
    the head-translate of a cochain's value at (1, *tail).

    Head and tail are free words in the letters 1..n (the a_i) and
    n+1..n+k (the g_j), written as FreeGroup keys, with the identity
    written 0.  They are built by one run of the operator stack on the
    table of the free group of rank n + k.  Symbols equal as free words are
    equal in every group, so merging them is sound; the 2nk that remain
    cancel only where g_j commutes with the a_i.
    """
    table = FreeGroup(degree + size).table
    ids = table.ids
    multipliers = tuple(ids[(degree + j,)] for j in range(1, size + 1))
    base = _formal_adder(table)
    # The top tuple is a slice tuple, where the shift is the identity, except
    # under the coboundary, whose leading omission leaves the slice.
    j_d = _homotopy_adder(table, _coboundary_adder(base), multipliers)
    d_j = _coboundary_adder(
        _shifted(table, _homotopy_adder(table, base, multipliers)))
    args = (0,) + tuple(ids[(i,)] for i in range(1, degree + 1))
    acc: dict = {}
    d_j(acc, 1, 0, args)
    j_d(acc, 1, 0, args)
    base(acc, -size, 0, args)
    for g in multipliers:
        base(acc, 1, g, args)

    def word(i):
        return table.elements[i].key or 0

    return tuple((m, word(head), tuple(map(word, at[1:])))
                 for (head, at), m in acc.items() if m)


class ResidualForm:
    """The residual of dJ + Jd against k times the identity minus the
    translates by the k multipliers, expanded formally over the slice tuples
    of one (group, degree, radius).

    The form expands at construction: it reads the compiled form of
    (degree, k) on the group's table at each slice tuple, and
    `tuples_checked` counts them.  A row is kept for each tuple where some
    symbol survives, as (slice tuple, symbols): symbols holds the
    (head, slice tuple, m) whose coefficient m did not cancel in the group;
    a tuple with none has residual 0 for every cochain.  Every cochain is
    finitely supported, so every row can be evaluated, and the expansion
    looks up no word length: the tails it reads reach twice the radius plus
    the multiplier length, and their lengths would grow the Cayley ball that
    far.
    """

    __slots__ = ("group", "degree", "radius", "multipliers", "rows",
                 "tuples_checked")

    def __init__(self, group: Group, degree: int, radius: int, multipliers):
        self.multipliers = tuple(sorted({group.intern(g) for g in multipliers}))
        if not self.multipliers:
            raise ValueError("class must be nonempty")
        if not 1 <= degree <= BAR_DEGREE_CAP:
            raise ValueError(
                f"need degree in 1..{BAR_DEGREE_CAP}, got {degree}")
        if radius < 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        self.group = group
        self.degree = degree
        self.radius = radius
        self.rows, self.tuples_checked = self._expand()

    def _expand(self) -> tuple[list[tuple[IdTuple, tuple]], int]:
        """The rows, in slice-tuple order, and the number of slice tuples
        read.  The compiled words are evaluated column-wise, one block of
        tuples per leading tail element: a word's column holds its id at
        each tuple of the block, built from the column of its longest proper
        prefix with one table lookup per tuple.  At each tuple a term's
        coefficient is summed under the flat key (head, *tail) of its ids;
        every compiled tail has the same length, so flat keys of different
        symbols differ, and the symbol (head, (0, *tail), m) is built only
        for a tuple where some coefficient survives."""
        table = self.group.table
        products, inverses = table.products, table.inverses
        degree = self.degree
        terms = _compiled_form(degree, len(self.multipliers))
        coefficients = [m for m, _, _ in terms]
        ball = [x.id for x in bar_slice_ball(self.group, degree, self.radius)]
        rest = list(product(ball, repeat=degree - 1))
        size = len(rest)
        rest_columns = [list(c) for c in zip(*rest)]
        rows = []
        for first in ball:
            # The identity, written 0 in the compiled words, has id 0.
            columns = {0: [0] * size, (1,): [first] * size}
            for i, c in enumerate(rest_columns, start=2):
                columns[(i,)] = c
            for j, g in enumerate(self.multipliers, start=degree + 1):
                columns[(j,)] = [g] * size

            def column(word):
                col = columns.get(word)
                if col is None:
                    if len(word) == 1:
                        col = [inverses[x] for x in column((-word[0],))]
                    else:
                        col = list(map(products.__getitem__,
                                       zip(column(word[:-1]), column(word[-1:]))))
                    columns[word] = col
                return col

            keys = zip(*[zip(column(head), *map(column, tail))
                         for _, head, tail in terms])
            for tail, row_keys in zip(rest, keys):
                acc: dict = {}
                for m, key in zip(coefficients, row_keys):
                    acc[key] = acc.get(key, 0) + m
                if any(acc.values()):
                    rows.append(((0, first) + tail, tuple(
                        (key[0], (0,) + key[1:], m)
                        for key, m in acc.items() if m)))
        return rows, len(ball) * size

    def evaluate(self, phi: EquivariantCochain) -> ResidualReport:
        """The residual report of one cochain of this form's degree."""
        if phi.degree != self.degree:
            raise ValueError(
                f"cochain has degree {phi.degree}, the form {self.degree}")
        phi._require_same_group(self.group)
        return _residual_scan(self, phi)


def _residual_scan(form: ResidualForm, phi: EquivariantCochain) -> ResidualReport:
    """The residual report of phi, already checked against form: phi is
    finitely supported, so it is read at the surviving symbols of every row,
    which the form expanded at construction."""
    add = phi._add
    worst = 0
    worst_tail = None
    for args, symbols in form.rows:
        acc: IdValue = {}
        for head, at, m in symbols:
            add(acc, m, head, at)
        top = max(map(abs, acc.values()), default=0)
        if top > worst:
            worst = top
            worst_tail = args[1:]
    if worst_tail is not None:
        elements = form.group.table.elements
        worst_tail = tuple(elements[x] for x in worst_tail)
    return ResidualReport(Fraction(worst, phi.denominator),
                          form.tuples_checked, 0, worst_tail)


def homotopy_residual(phi: EquivariantCochain, central_element: GroupElement,
                      eval_radius: int | None = None) -> ResidualReport:
    """Exact deviation of the homotopy identity for a central multiplier.

    Measures the largest coefficient of (coboundary of homotopy plus homotopy
    of coboundary) minus (identity minus multiplier translate), over all
    argument tuples in the evaluation window.  For central multipliers the
    contract is literal zero.  After its checks this is the singleton-class
    case of class_sum_homotopy_residual.
    """
    _require_central_multiplier(phi, central_element)
    return class_sum_homotopy_residual(phi, (central_element,), eval_radius)


def class_sum_homotopy_residual(phi: EquivariantCochain, class_elements,
                                eval_radius: int | None = None) -> ResidualReport:
    """Measured residual for the class-sum homotopy experiment.

    The candidate homotopy sums the per-element construction over the whole
    class, applied formally even though a single class element need not be
    central.  The target compares against class size times the identity minus
    translation by the class sum.  The residual is a measurement, not an
    assertion: singleton central classes must give zero, anything else is
    reported as computed.  This builds a ResidualForm for the one cochain;
    to measure many cochains, build the form once and evaluate each.
    """
    radius = phi.radius if eval_radius is None else eval_radius
    return ResidualForm(phi.group, phi.degree, radius,
                        class_elements).evaluate(phi)


def equivariance_defect(phi: EquivariantCochain,
                        multipliers: tuple[GroupElement, ...],
                        shifts: tuple[GroupElement, ...],
                        eval_radius: int | None = None) -> Fraction:
    """Largest deviation of the summed homotopy from equivariance.

    Compares the literal formula at shifted tuples against the shift of the
    value at the slice; zero certifies that storing the slice loses nothing.
    """
    _require_degree_to_lower(phi)
    group = phi.group
    table = group.table
    products = table.products
    multipliers = tuple(group.intern(g) for g in multipliers)
    shifts = tuple(group.intern(a) for a in shifts)
    radius = phi.radius if eval_radius is None else eval_radius

    literal = _homotopy_adder(table, phi._add, multipliers)
    worst = 0
    for slice_args in _slice_tuples(group, phi.degree - 1, radius):
        for a in shifts:
            diff: IdValue = {}
            literal(diff, 1, 0, tuple([products[a, x] for x in slice_args]))
            literal(diff, -1, a, slice_args)
            worst = max(worst, max(map(abs, diff.values()), default=0))
    return Fraction(worst, phi.denominator)
