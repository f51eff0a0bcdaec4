"""Bar-complex coboundary, the degree-lowering homotopy attached to a central
multiplier, and exact residual measurements for class-sum variants.

Everything here runs in exact rational arithmetic: the homotopy identity is an
algebraic statement and floating error would blur it into a tolerance.

A cochain is stored on its equivariant slice, the argument tuples with leading
identity that resolutions.bar_resolution_basis enumerates (and caps at the
group's ball_cap); evaluation elsewhere shifts to the slice and translates the
value.
Directly constructed cochains are finitely supported, so they evaluate to zero
outside their window.  Operator results are exact only inside their window and
refuse evaluation beyond it, because the coboundary of a finitely supported
cochain is not finitely supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .groups import Group, GroupElement
from .group_ring import RingElement, signed_sum
from .resolutions import BAR_DEGREE_CAP, bar_resolution_basis


class WindowUnderflowError(ValueError):
    """An evaluation needs arguments beyond the stored window."""

    def __init__(self, message: str, required_radius: int | None = None):
        super().__init__(message)
        self.required_radius = required_radius


def _slice_reader(group: Group, radius: int, values: dict, truncated: bool):
    """Stored value at a slice tuple (1, *tail).  Closing over the values
    rather than the cochain keeps a cochain free of reference cycles."""

    def slice_value(args: tuple[GroupElement, ...]) -> RingElement:
        tail = args[1:]
        value = values.get(tail)
        if value is not None:
            return value
        if truncated and any(x.word_length() > radius for x in tail):
            raise WindowUnderflowError(
                f"tail {tuple(str(x) for x in tail)} lies outside the stored "
                f"radius-{radius} window",
                required_radius=max(x.word_length() for x in tail))
        return RingElement.zero(group)

    return slice_value


class EquivariantCochain:
    """Bar cochain of fixed degree with exact group-ring values.

    values maps argument tails (x_1, ..., x_n) inside the radius window to
    ring elements; the value at a general tuple (g, g x_1, ..., g x_n) is g
    times the stored value.  With truncated=False missing tails are zero;
    with truncated=True tails outside the window raise WindowUnderflowError.
    """

    __slots__ = ("group", "degree", "radius", "values", "truncated", "_layer")

    def __init__(self, group: Group, degree: int, radius: int, values,
                 truncated: bool = False):
        if not 0 <= degree <= BAR_DEGREE_CAP:
            raise ValueError(f"degree must lie in 0..{BAR_DEGREE_CAP}, got {degree}")
        if radius < 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        clean: dict[tuple[GroupElement, ...], RingElement] = {}
        for tail, value in (values.items() if hasattr(values, "items") else values):
            tail = tuple(tail)
            if len(tail) != degree:
                raise ValueError(
                    f"tail {tail} has length {len(tail)}, expected {degree}")
            for x in tail:
                group._require_member(x)
                if x.word_length() > radius:
                    raise ValueError(
                        f"tail element {x} lies outside the radius-{radius} window")
            if value.group.name != group.name:
                raise ValueError("value belongs to a different group ring")
            if not value.is_zero():
                clean[tail] = value
        self.group = group
        self.degree = int(degree)
        self.radius = int(radius)
        self.values = clean
        self.truncated = bool(truncated)
        self._layer = _shifted_layer(
            group, _slice_reader(group, self.radius, clean, self.truncated))

    def value_at_tail(self, tail: tuple[GroupElement, ...]) -> RingElement:
        """Stored value at a slice tuple (1, *tail)."""
        return self._layer((self.group.identity,) + tuple(tail))

    def eval(self, args: tuple[GroupElement, ...]) -> RingElement:
        """Value at a general argument tuple, via the equivariant shift."""
        if len(args) != self.degree + 1:
            raise ValueError(
                f"expected {self.degree + 1} arguments, got {len(args)}")
        return self._layer(tuple(args))

    def scale(self, factor) -> "EquivariantCochain":
        return EquivariantCochain(
            self.group, self.degree, self.radius,
            {tail: value.scale(factor) for tail, value in self.values.items()},
            self.truncated)

    def __rmul__(self, factor):
        if isinstance(factor, (int, Fraction)):
            return self.scale(factor)
        return NotImplemented

    def __neg__(self) -> "EquivariantCochain":
        return self.scale(-1)

    def __add__(self, other: "EquivariantCochain") -> "EquivariantCochain":
        if not isinstance(other, EquivariantCochain):
            return NotImplemented
        if self.group.name != other.group.name:
            raise ValueError("cochains belong to different groups")
        if self.degree != other.degree:
            raise ValueError("cochains have different degrees")
        truncated = self.truncated or other.truncated
        if truncated:
            radius = min(self.radius, other.radius)
        else:
            radius = max(self.radius, other.radius)
        merged: dict[tuple[GroupElement, ...], RingElement] = {}
        for source in (self, other):
            for tail, value in source.values.items():
                if truncated and any(x.word_length() > radius for x in tail):
                    continue
                if tail in merged:
                    merged[tail] = merged[tail] + value
                else:
                    merged[tail] = value
        return EquivariantCochain(self.group, self.degree, radius, merged,
                                  truncated)

    def __sub__(self, other: "EquivariantCochain") -> "EquivariantCochain":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EquivariantCochain):
            return NotImplemented
        if (self.group.name != other.group.name
                or self.degree != other.degree):
            return False
        keys = set(self.values) | set(other.values)
        zero = RingElement.zero(self.group)
        return all(self.values.get(k, zero) == other.values.get(k, zero)
                   for k in keys)

    __hash__ = None

    def __repr__(self) -> str:
        flavor = "truncated" if self.truncated else "supported"
        return (f"<cochain degree={self.degree} radius={self.radius} "
                f"{flavor} on {self.group.name}, {len(self.values)} tails>")


def zero_cochain(group: Group, degree: int, radius: int) -> EquivariantCochain:
    return EquivariantCochain(group, degree, radius, {})


def random_cochain(group: Group, degree: int, radius: int,
                   rng: Random) -> EquivariantCochain:
    """Dense random cochain on the window: each value has one or two terms on
    the radius-2 ball with small random rational coefficients."""
    basis = bar_resolution_basis(group, degree, radius)
    value_ball = group.ball(2)
    values = {}
    for args in basis:
        terms = []
        for _ in range(rng.randint(1, 2)):
            g = value_ball[rng.randrange(len(value_ball))]
            coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            terms.append((g, coeff))
        values[args[1:]] = RingElement(group, terms)
    return EquivariantCochain(group, degree, radius, values, truncated=False)


# -- formula evaluation ----------------------------------------------------------
#
# Operators are evaluated lazily through "layers": callables taking a full
# argument tuple.  Each layer first shifts its tuple to the slice (this is the
# definition of evaluation for an equivariant cochain) and then expands its
# defining formula there, delegating inner evaluations to the layer below.
# The bottom layer of every stack is a cochain's own _layer, which reads the
# stored slice values.


def _shifted_layer(group: Group, slice_eval):
    identity = group.identity

    def layer(args: tuple[GroupElement, ...]) -> RingElement:
        head = args[0]
        if head.is_identity():
            return slice_eval(args)
        shift = head.inverse()
        shifted = (identity,) + tuple(shift * x for x in args[1:])
        return slice_eval(shifted).left_translate(head)

    return layer


def _coboundary_layer(group: Group, inner):
    """Alternating sum over argument omissions."""

    def slice_eval(args: tuple[GroupElement, ...]) -> RingElement:
        return signed_sum(group, ((-1 if i % 2 else 1, inner(args[:i] + args[i + 1:]))
                                  for i in range(len(args))))

    return _shifted_layer(group, slice_eval)


def _homotopy_sum(group: Group, inner, multipliers: tuple[GroupElement, ...],
                  args: tuple[GroupElement, ...]) -> RingElement:
    """Duplicate the k-th argument, translating the tail by each multiplier,
    with alternating signs (minus for even k)."""
    n = len(args) - 1
    return signed_sum(group, ((1 if k % 2 else -1,
                               inner(args[:k + 1] + tuple(g * x for x in args[k:])))
                              for g in multipliers for k in range(n + 1)))


def _homotopy_layer(group: Group, inner, multipliers: tuple[GroupElement, ...]):
    """Degree-lowering homotopy, evaluated on the slice and shifted."""

    def slice_eval(args: tuple[GroupElement, ...]) -> RingElement:
        return _homotopy_sum(group, inner, multipliers, args)

    return _shifted_layer(group, slice_eval)


def _materialize(group: Group, layer, degree: int,
                 radius: int) -> EquivariantCochain:
    values = {args[1:]: layer(args)
              for args in bar_resolution_basis(group, degree, radius)}
    return EquivariantCochain(group, degree, radius, values, truncated=True)


def coboundary(phi: EquivariantCochain,
               radius: int | None = None) -> EquivariantCochain:
    """Alternating sum over argument omissions, materialized on a window.

    For a truncated input the default window halves, because the omission of
    the leading argument shifts by the first remaining one.
    """
    if phi.degree + 1 > BAR_DEGREE_CAP:
        raise ValueError(f"coboundary would exceed the degree cap {BAR_DEGREE_CAP}")
    if phi.truncated:
        safe = phi.radius // 2
        if radius is None:
            radius = safe
        elif radius > safe:
            raise WindowUnderflowError(
                f"coboundary window {radius} needs stored radius {2 * radius}, "
                f"have {phi.radius}", required_radius=2 * radius)
    elif radius is None:
        radius = phi.radius
    layer = _coboundary_layer(phi.group, phi._layer)
    return _materialize(phi.group, layer, phi.degree + 1, radius)


def require_central(element: GroupElement):
    """Raise ValueError unless element commutes with every generator."""
    if not RingElement.from_element(element).is_central():
        raise ValueError(
            f"element {element} is not central in {element.group.name}")


def _require_central_multiplier(phi: EquivariantCochain,
                                element: GroupElement):
    """Preconditions of the central-multiplier homotopy: the multiplier lies
    in the group, the cochain has a degree to lower, and the multiplier is
    central."""
    phi.group._require_member(element)
    if phi.degree < 1:
        raise ValueError("the homotopy lowers degree; need degree >= 1")
    require_central(element)


def multiplier_homotopy(phi: EquivariantCochain, central_element: GroupElement,
                        radius: int | None = None) -> EquivariantCochain:
    """Degree-lowering homotopy for a central multiplier.

    Rejects non-central multipliers: the construction is equivariant only
    when the multiplier commutes with everything (class sums are handled by
    class_sum_homotopy_residual, which measures instead of assuming).
    """
    _require_central_multiplier(phi, central_element)
    group = phi.group
    length = central_element.word_length()
    if phi.truncated:
        safe = phi.radius - length
        if radius is None:
            radius = safe
        if radius < 0 or radius > safe:
            raise WindowUnderflowError(
                f"homotopy window {max(radius, 0)} with a length-{length} "
                f"multiplier needs stored radius {max(radius, 0) + length}, "
                f"have {phi.radius}",
                required_radius=max(radius, 0) + length)
    elif radius is None:
        radius = phi.radius
    layer = _homotopy_layer(group, phi._layer, (central_element,))
    return _materialize(group, layer, phi.degree - 1, radius)


@dataclass(frozen=True)
class ResidualReport:
    """Largest absolute residual coefficient over the evaluated tuples.

    worst_tail is the first argument tail (in ball order) whose residual
    reaches max_abs, or None when every residual is zero.
    """

    max_abs: Fraction
    tuples_checked: int
    tuples_skipped: int
    worst_tail: tuple[GroupElement, ...] | None = None


def _residual_scan(phi: EquivariantCochain, multipliers: tuple[GroupElement, ...],
                   target_scale: int, target_translate: RingElement,
                   eval_radius: int | None) -> ResidualReport:
    group = phi.group
    radius = phi.radius if eval_radius is None else eval_radius
    base = phi._layer
    d_phi = _coboundary_layer(group, base)
    j_d_phi = _homotopy_layer(group, d_phi, multipliers)
    j_phi = _homotopy_layer(group, base, multipliers)
    d_j_phi = _coboundary_layer(group, j_phi)
    max_abs = Fraction(0)
    worst_tail = None
    checked = skipped = 0
    for args in bar_resolution_basis(group, phi.degree, radius):
        try:
            value = base(args)
            diff = signed_sum(group, ((1, d_j_phi(args)), (1, j_d_phi(args)),
                                      (-1, value.scale(target_scale)),
                                      (1, target_translate * value)))
        except WindowUnderflowError:
            skipped += 1
            continue
        checked += 1
        for _, coeff in diff.items_sorted():
            if abs(coeff) > max_abs:
                max_abs = abs(coeff)
                worst_tail = args[1:]
    if checked == 0:
        raise WindowUnderflowError(
            "no argument tuple keeps every intermediate inside the stored "
            f"window of radius {phi.radius}",
            required_radius=2 * radius + max(
                (g.word_length() for g in multipliers), default=0))
    return ResidualReport(max_abs, checked, skipped, worst_tail)


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
    reported as computed.
    """
    elements = sorted(set(class_elements))
    if not elements:
        raise ValueError("class must be nonempty")
    group = phi.group
    for g in elements:
        group._require_member(g)
    if phi.degree < 1:
        raise ValueError("need degree >= 1")
    class_sum_element = RingElement(group, [(g, Fraction(1)) for g in elements])
    return _residual_scan(phi, tuple(elements), len(elements),
                          class_sum_element, eval_radius)


def equivariance_defect(phi: EquivariantCochain,
                        multipliers: tuple[GroupElement, ...],
                        shifts: tuple[GroupElement, ...],
                        eval_radius: int | None = None) -> Fraction:
    """Largest deviation of the summed homotopy from equivariance.

    Compares the literal formula at shifted tuples against the shift of the
    value at the slice; zero certifies that storing the slice loses nothing.
    """
    group = phi.group
    radius = phi.radius if eval_radius is None else eval_radius

    worst = Fraction(0)
    for slice_args in bar_resolution_basis(group, phi.degree - 1, radius):
        base = _homotopy_sum(group, phi._layer, multipliers, slice_args)
        for a in shifts:
            moved = tuple(a * x for x in slice_args)
            diff = (_homotopy_sum(group, phi._layer, multipliers, moved)
                    - base.left_translate(a))
            for _, coeff in diff.items_sorted():
                worst = max(worst, abs(coeff))
    return worst
