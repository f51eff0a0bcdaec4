"""Catalog of finitely generated groups with exact normal forms and Cayley balls.

Every group here has its word problem solved by an injective normal form, so
equality, multiplication, and inversion are exact integer computations.  Balls
in the word metric (taken with respect to the symmetric closure of the listed
generators, so that balls are closed under inversion) are enumerated breadth
first with a deterministic order: layer by layer, lexicographically by normal
form inside each layer.  Matrix assembly downstream indexes its bases by this
order, which keeps emitted files reproducible across runs.

Catalog text has one reader each.  `word_pieces` tokenizes "a^2*b^-1" words,
`evaluate_word` multiplies them out, and `Group.parse_element` reads "1" or
such a word in the generator labels.  `GROUP_CATALOG` holds one row per
group name form; `from_catalog` resolves names in it and in the resolution
catalog.

Each group keeps an `ElementTable`, the one store of its elements: each
element it meets is built once, as a row with the next free integer id, and
products, inverses and word lengths are cached by id.  Equality of elements
is identity, and an element hashes to its id.  Group-ring elements and the
exact homotopy kernel run on these ids; `Group.intern` is their checked
entry.

A group kind is one class plus one catalog row: the class declares every
fact about its kind (see `Group`), and no other module branches on the kind.
A group equals only itself: ids are numbered per instance, in the order the
instance meets its elements, so two instances built from one name are
different groups and mixing their elements raises ValueError.
"""

from __future__ import annotations

import re
from itertools import combinations
from operator import add, neg
from typing import Callable, NamedTuple

DEFAULT_BALL_CAP = 200_000


class BallCapError(RuntimeError):
    """Work would outgrow a size cap: a Cayley ball over the group's
    ball_cap elements, a bar slice over ball_cap tuples
    (`resolutions.bar_slice_ball`), or a dense matrix over
    `lp_complex.DENSE_BYTE_CAP` bytes."""


class InvariantViolation(RuntimeError):
    """A structural invariant that should hold by construction failed."""


class GroupElement:
    """Element of a catalog group: its normal form `key` and its `id`, the
    row of its group's `ElementTable`.

    Built once, by the table; equality is identity, so two elements are equal
    iff they are the same object.  The hash is the id, so set and dict order
    never depends on memory addresses.
    """

    __slots__ = ("group", "key", "id")

    def __init__(self, group: "Group", key, id: int):
        self.group = group
        self.key = key
        self.id = id

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.group.mul(self, other)

    def __pow__(self, n: int) -> "GroupElement":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.group.identity
        # binary powering from the top bit, which costs nothing: a letter of
        # a word is free, and g ** 2 is one multiplication
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def inverse(self) -> "GroupElement":
        return self.group.inverse(self)

    def word_length(self) -> int:
        return self.group.word_length(self)

    def is_identity(self) -> bool:
        return self.id == 0

    def __hash__(self) -> int:
        return self.id

    def __lt__(self, other: "GroupElement") -> bool:
        # Sort order for elements of one group: lexicographic on normal forms.
        return self.key < other.key

    def __str__(self) -> str:
        return self.group.format_key(self.key)

    def __repr__(self) -> str:
        return f"{self.group.name}!{self.group.format_key(self.key)}"


class _Filled(dict):
    """A dict that computes a missing entry on first lookup and keeps it."""

    __slots__ = ("_fill",)

    def __init__(self, fill):
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


class ElementTable:
    """The elements of one group, each built once as a row with an integer
    id, and the group operations cached by id.  Every entry is filled on
    first lookup.

    - `ids[key]` is the id of the element with that normal form: 0 for the
      identity, the next free id for a key not seen before, whose element
      is built then;
    - `elements[i]` is the element with id i;
    - `products[i, j]` and `inverses[i]` are the ids of the product and the
      inverse, computed on normal forms;
    - `lengths[i]` is the word length; its fill grows the group's ball
      until the ball reaches element i.

    Keys are not checked here; `Group.element` and `Group.intern` are the
    checked entries.
    """

    __slots__ = ("elements", "ids", "products", "inverses", "lengths")

    def __init__(self, group: "Group", identity_key):
        elements: list[GroupElement] = []

        def new_id(key) -> int:
            elements.append(GroupElement(group, key, len(elements)))
            return len(elements) - 1

        ids = _Filled(new_id)
        ids[identity_key]  # the identity is row 0
        self.elements = elements
        self.ids = ids
        self.products = _Filled(lambda ij: ids[group._mul_keys(
            elements[ij[0]].key, elements[ij[1]].key)])
        self.inverses = _Filled(lambda i: ids[group._inv_key(elements[i].key)])
        self.lengths = _Filled(group._grow_to)
        self.lengths[0] = 0


class Group:
    """Shared machinery: exact operations plus a cached breadth-first ball.

    A kind passes its name, generator labels, identity key and generator keys
    (normal forms, one per label) to `__init__`, and implements `_mul_keys`,
    `_inv_key`, `_check_key` and `format_key` on normal forms.  It also
    declares the facts that the rest of the lab reads off it, each None where
    the kind declares none:

    - `order`, the number of elements of a finite kind;
    - `relators`, the relator words of its catalog presentation, written in
      the generator labels;
    - `central_element`, an element that commutes with every generator;
    - `finite_class_element`, an element whose conjugacy class is finite;
      so are the classes of its powers, and their class sums are central.

    `ball_cap` bounds the Cayley ball (`BallCapError` past it) and the bar
    slices over the group (`resolutions.bar_slice_ball`).  It is a limit on
    one run, not part of the group: every group starts at
    `DEFAULT_BALL_CAP`, and `lab run` assigns its `max_ball` key on each
    group it builds.  No constructor grows the ball, so a cap assigned
    straight after construction bounds every ball the group grows.
    """

    order: int | None = None
    relators: tuple[str, ...] | None = None
    central_element: GroupElement | None = None
    finite_class_element: GroupElement | None = None
    ball_cap: int = DEFAULT_BALL_CAP

    def __init__(self, name: str, generator_labels: tuple[str, ...],
                 identity_key, generator_keys):
        if not generator_labels:
            raise ValueError("generator list must be nonempty")
        if len(generator_keys) != len(generator_labels):
            raise ValueError(f"{name} has {len(generator_labels)} generator labels "
                             f"but {len(generator_keys)} generator keys")
        self.name = name
        self.generator_labels = tuple(generator_labels)
        self.table = ElementTable(self, identity_key)
        self.identity = self.table.elements[0]
        self._layers: list[list[GroupElement]] = [[self.identity]]
        self.generators: tuple[GroupElement, ...] = tuple(
            self.element(k) for k in generator_keys)
        # the generators followed by those of their inverses not yet listed
        symmetric = list(self.generators)
        for g in self.generators:
            if g.inverse() not in symmetric:
                symmetric.append(g.inverse())
        self.symmetric_generators: tuple[GroupElement, ...] = tuple(symmetric)

    # -- per-kind interface -------------------------------------------------

    def _mul_keys(self, a, b):
        raise NotImplementedError

    def _inv_key(self, a):
        raise NotImplementedError

    def _check_key(self, key):
        raise NotImplementedError

    def format_key(self, key) -> str:
        raise NotImplementedError

    # -- shared operations ----------------------------------------------------

    def element(self, key) -> GroupElement:
        """The element with a raw normal form, after validation."""
        self._check_key(key)
        return self.table.elements[self.table.ids[key]]

    def parse_element(self, token: str) -> GroupElement:
        """Read "1" or a word such as "x^2*y^-1" in the generator labels."""
        if token == "1":
            return self.identity
        try:
            return evaluate_word(self, word_pieces(token, self.generator_labels))
        except ValueError:
            raise ValueError(
                f"cannot parse {token!r} as an element of {self.name}") from None

    def _require_member(self, a: GroupElement):
        if not isinstance(a, GroupElement) or a.group is not self:
            raise ValueError(
                f"cross-group operand: expected an element of {self.name}, got {a!r}"
            )

    def intern(self, a: GroupElement) -> int:
        """Id of a in this group's `ElementTable`, after checking membership."""
        self._require_member(a)
        return a.id

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self._require_member(a)
        self._require_member(b)
        return self.table.elements[self.table.products[a.id, b.id]]

    def inverse(self, a: GroupElement) -> GroupElement:
        self._require_member(a)
        return self.table.elements[self.table.inverses[a.id]]

    # -- Cayley balls ----------------------------------------------------------

    def _grow_one_layer(self):
        """Append the next layer of the ball, sorted by normal form, and
        record its word lengths; an exhausted finite group gets an empty
        layer."""
        table = self.table
        ids, elements, lengths = table.ids, table.elements, table.lengths
        layers = self._layers
        mul = self._mul_keys
        steps = [s.key for s in self.symmetric_generators]
        # the generators are closed under inverses, so a neighbour of a
        # length-d element has length d - 1, d or d + 1: the keys met that
        # are not in the last two layers are exactly the next layer
        next_keys = {mul(a.key, s) for a in layers[-1] for s in steps}
        next_keys.difference_update(a.key for layer in layers[-2:] for a in layer)
        total = sum(len(layer) for layer in layers) + len(next_keys)
        if next_keys and total > self.ball_cap:
            raise BallCapError(
                f"ball of {self.name} would exceed the cap of {self.ball_cap} elements"
            )
        depth = len(layers)
        layer = []
        for k in sorted(next_keys):
            i = ids.get(k)
            if i is None:  # built here, as the table's fill would build it
                i = ids[k] = len(elements)
                elements.append(GroupElement(self, k, i))
            lengths[i] = depth
            layer.append(elements[i])
        layers.append(layer)

    def _grow_to(self, i: int) -> int:
        """Grow the ball until it reaches the element with id i; its length."""
        while i not in self.table.lengths:
            if not self._layers[-1]:
                raise InvariantViolation(
                    f"element {self.table.elements[i]} of {self.name} was not "
                    f"reached by the generators")
            self._grow_one_layer()
        return self.table.lengths[i]

    def ball(self, radius: int) -> list[GroupElement]:
        """Elements of word length <= radius, in (layer, normal form) order."""
        if radius < 0:
            raise ValueError(f"ball radius must be nonnegative, got {radius}")
        while len(self._layers) <= radius and self._layers[-1]:
            self._grow_one_layer()
        out: list[GroupElement] = []
        for layer in self._layers[: radius + 1]:
            out.extend(layer)
        return out

    def word_length(self, a: GroupElement) -> int:
        self._require_member(a)
        return self.table.lengths[a.id]

    def __repr__(self) -> str:
        return f"<group {self.name}>"


def _pow_token(symbol: str, exponent: int) -> str:
    return symbol if exponent == 1 else f"{symbol}^{exponent}"


_INT_TUPLE_RE = re.compile(r"^\((-?\d+(?:,-?\d+)*)\)$")
_POW_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^(-?\d+))?$")


def word_pieces(text: str, labels: tuple[str, ...]) -> list[tuple[int, int]]:
    """(label index, exponent) for each "label^k" piece of "a^2*b^-1*a"."""
    pieces = []
    for piece in text.split("*"):
        m = _POW_RE.match(piece.strip())
        if not m or m.group(1) not in labels:
            raise ValueError(f"cannot parse word piece {piece!r}")
        exp = int(m.group(2)) if m.group(2) is not None else 1
        pieces.append((labels.index(m.group(1)), exp))
    return pieces


def evaluate_word(group: Group, word) -> GroupElement:
    """Product of generator ** exponent over the (index, exponent) pieces of
    a word, left to right; a letter of a relator is a piece with exponent
    +1 or -1."""
    out = group.identity
    for idx, exp in word:
        out = out * group.generators[idx] ** exp
    return out


def _parse_int_tuple(token: str, arity: int, name: str) -> tuple[int, ...]:
    m = _INT_TUPLE_RE.match(token)
    if not m:
        raise ValueError(f"cannot parse {token!r} as an element of {name}")
    parts = tuple(int(x) for x in m.group(1).split(","))
    if len(parts) != arity:
        raise ValueError(
            f"element of {name} needs {arity} coordinates, got {len(parts)} in {token!r}"
        )
    return parts


class TrivialGroup(Group):
    order = 1

    def __init__(self):
        super().__init__("trivial", ("e",), (), [()])
        self.central_element = self.identity

    def _mul_keys(self, a, b):
        return ()

    def _inv_key(self, a):
        return ()

    def _check_key(self, key):
        if key != ():
            raise ValueError(f"invalid trivial-group normal form {key!r}")

    def format_key(self, key) -> str:
        return "1"


class CyclicGroup(Group):
    """Cyclic group of order n; normal form is the exponent in [0, n)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"cyclic order must be at least 1, got {n}")
        self.order = int(n)
        self.relators = (f"t^{n}",)
        super().__init__(f"cyclic:{n}", ("t",), 0, [1 % self.order])
        self.central_element = self.generators[0]

    def _mul_keys(self, a, b):
        return (a + b) % self.order

    def _inv_key(self, a):
        return (-a) % self.order

    def _check_key(self, key):
        if not isinstance(key, int) or not 0 <= key < self.order:
            raise ValueError(f"invalid exponent {key!r} for {self.name}")

    def format_key(self, key) -> str:
        return "1" if key == 0 else _pow_token("t", key)


class LatticeGroup(Group):
    """Free abelian group of rank d; normal form is the integer vector."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError(f"lattice rank must be at least 1, got {d}")
        self.rank = int(d)
        labels = ("t",) if d == 1 else tuple(f"t{i + 1}" for i in range(d))
        if d <= 3:
            self.relators = tuple(f"{a}*{b}*{a}^-1*{b}^-1"
                                  for a, b in combinations(labels, 2))
        super().__init__(f"Z^{d}", labels, (0,) * d,
                         [tuple(int(i == j) for j in range(d)) for i in range(d)])
        self.central_element = self.generators[0]

    def _mul_keys(self, a, b):
        return tuple(map(add, a, b))

    def _inv_key(self, a):
        return tuple(map(neg, a))

    def _check_key(self, key):
        if (not isinstance(key, tuple) or len(key) != self.rank
                or not all(isinstance(x, int) for x in key)):
            raise ValueError(f"invalid vector {key!r} for {self.name}")

    def format_key(self, key) -> str:
        if self.rank == 1:
            return "1" if key[0] == 0 else _pow_token("t", key[0])
        return "(" + ",".join(str(x) for x in key) + ")"

    def parse_element(self, token: str) -> GroupElement:
        """Also reads the integer vector "(a,b,...)"."""
        if token.startswith("("):
            return self.element(_parse_int_tuple(token, self.rank, self.name))
        return super().parse_element(token)


class FreeGroup(Group):
    """Free group of rank k; normal form is the freely reduced word.

    Words are tuples of nonzero signed letters: +i encodes the i-th generator,
    -i its inverse (1-based), with no adjacent cancelling pair.
    """

    relators = ()

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"free rank must be at least 1, got {k}")
        self.rank = int(k)
        if k <= 3:
            labels = ("x", "y", "z")[:k]
        else:
            labels = tuple(f"x{i + 1}" for i in range(k))
        super().__init__(f"free:{k}", labels, (),
                         [(i + 1,) for i in range(k)])
        if k == 1:
            self.central_element = self.generators[0]

    def _mul_keys(self, a, b):
        out = list(a)
        for letter in b:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def _inv_key(self, a):
        return tuple(-letter for letter in reversed(a))

    def _check_key(self, key):
        if not isinstance(key, tuple):
            raise ValueError(f"invalid word {key!r} for {self.name}")
        for i, letter in enumerate(key):
            if not isinstance(letter, int) or letter == 0 or abs(letter) > self.rank:
                raise ValueError(f"invalid letter {letter!r} in word for {self.name}")
            if i > 0 and key[i - 1] == -letter:
                raise ValueError(f"word {key!r} is not freely reduced")

    def format_key(self, key) -> str:
        if not key:
            return "1"
        parts = []
        run_letter, run_len = key[0], 1
        for letter in key[1:]:
            if letter == run_letter:
                run_len += 1
            else:
                parts.append((run_letter, run_len))
                run_letter, run_len = letter, 1
        parts.append((run_letter, run_len))
        tokens = []
        for letter, count in parts:
            label = self.generator_labels[abs(letter) - 1]
            exp = count if letter > 0 else -count
            tokens.append(_pow_token(label, exp))
        return "*".join(tokens)


class InfiniteDihedralGroup(Group):
    """Infinite dihedral group; normal form (a, e) encodes r^a s^e, e in {0, 1}.

    The rotation r is conjugate only to itself and r^-1.
    """

    relators = ("s*s", "s*r*s*r")

    def __init__(self):
        super().__init__("dihedral-inf", ("r", "s"), (0, 0), [(1, 0), (0, 1)])
        self.finite_class_element = self.generators[0]

    def _mul_keys(self, a, b):
        a1, e1 = a
        a2, e2 = b
        return (a1 - a2 if e1 else a1 + a2, e1 ^ e2)

    def _inv_key(self, a):
        a1, e1 = a
        return (a1, 1) if e1 else (-a1, 0)

    def _check_key(self, key):
        if (not isinstance(key, tuple) or len(key) != 2
                or not isinstance(key[0], int) or key[1] not in (0, 1)):
            raise ValueError(f"invalid normal form {key!r} for {self.name}")

    def format_key(self, key) -> str:
        a, e = key
        parts = []
        if a != 0:
            parts.append(_pow_token("r", a))
        if e:
            parts.append("s")
        return "*".join(parts) if parts else "1"


class HeisenbergGroup(Group):
    """Discrete Heisenberg group on integer triples (a, b, c).

    The product is the upper-triangular matrix product:
    (a, b, c) * (a', b', c') = (a + a', b + b', c + c' + a * b').
    The commutator x*y*x^-1*y^-1 = (0, 0, 1) is central, and the relators
    say so: they are its commutators with x and with y.
    """

    relators = ("x*y*x^-1*y^-1*x*y*x*y^-1*x^-1*x^-1",
                "x*y*x^-1*y^-1*y*y*x*y^-1*x^-1*y^-1")

    def __init__(self):
        super().__init__("heisenberg", ("x", "y"), (0, 0, 0),
                         [(1, 0, 0), (0, 1, 0)])
        self.central_element = self.element((0, 0, 1))

    def _mul_keys(self, a, b):
        a1, b1, c1 = a
        a2, b2, c2 = b
        return (a1 + a2, b1 + b2, c1 + c2 + a1 * b2)

    def _inv_key(self, a):
        a1, b1, c1 = a
        return (-a1, -b1, a1 * b1 - c1)

    def _check_key(self, key):
        if (not isinstance(key, tuple) or len(key) != 3
                or not all(isinstance(x, int) for x in key)):
            raise ValueError(f"invalid triple {key!r} for {self.name}")

    def format_key(self, key) -> str:
        return "(" + ",".join(str(x) for x in key) + ")"

    def parse_element(self, token: str) -> GroupElement:
        """Also reads the triple "(a,b,c)"."""
        if token.startswith("("):
            return self.element(_parse_int_tuple(token, 3, self.name))
        return super().parse_element(token)


class SymmetricGroupS3(Group):
    """Symmetric group on three points, generated by the adjacent transpositions."""

    order = 6
    relators = ("s1*s1", "s2*s2", "s1*s2*s1*s2*s1*s2")

    def __init__(self):
        super().__init__("S3", ("s1", "s2"), (0, 1, 2), [(1, 0, 2), (0, 2, 1)])

    def _mul_keys(self, a, b):
        # Composition as functions: (a * b)(i) = a(b(i)).
        return tuple(a[b[i]] for i in range(3))

    def _inv_key(self, a):
        inv = [0, 0, 0]
        for i, image in enumerate(a):
            inv[image] = i
        return tuple(inv)

    def _check_key(self, key):
        if not isinstance(key, tuple) or sorted(key) != [0, 1, 2]:
            raise ValueError(f"invalid permutation {key!r} for {self.name}")

    def format_key(self, key) -> str:
        if key == (0, 1, 2):
            return "1"
        seen = set()
        cycles = []
        for start in range(3):
            if start in seen or key[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            point = key[start]
            while point != start:
                cycle.append(point)
                seen.add(point)
                point = key[point]
            cycles.append(cycle)
        return "".join("(" + "".join(str(p + 1) for p in c) + ")" for c in cycles)

    def parse_element(self, token: str) -> GroupElement:
        """Also reads one cycle such as "(12)" or "(132)"."""
        if not token.startswith("("):
            return super().parse_element(token)
        m = re.match(r"^\((\d+)\)$", token)
        if not m:
            raise ValueError(f"cannot parse {token!r} as an element of {self.name}")
        points = [int(ch) - 1 for ch in m.group(1)]
        if len(points) < 2 or len(set(points)) != len(points) or any(
                p not in (0, 1, 2) for p in points):
            raise ValueError(f"cannot parse {token!r} as a cycle on three points")
        perm = [0, 1, 2]
        for i, p in enumerate(points):
            perm[p] = points[(i + 1) % len(points)]
        return self.element(tuple(perm))


class CatalogEntry(NamedTuple):
    """One name form of a catalog: its `lab list` line, the pattern a name
    must match in full, and the constructor called with the pattern's
    groups."""

    form: str
    description: str
    pattern: str
    build: Callable


def from_catalog(catalog: tuple[CatalogEntry, ...], kind: str, name: str):
    """Build the object a catalog name denotes."""
    name = name.strip()
    for entry in catalog:
        m = re.fullmatch(entry.pattern, name)
        if m:
            return entry.build(*m.groups())
    raise ValueError(
        f"unknown {kind} name {name!r}; known forms: "
        f"{', '.join(entry.form for entry in catalog)}"
    )


GROUP_CATALOG = (
    CatalogEntry("trivial", "one element", "trivial", TrivialGroup),
    CatalogEntry("cyclic:<n>",
                 "finite cyclic of order n        (e.g. cyclic:4)",
                 r"cyclic:(\d+)", lambda n: CyclicGroup(int(n))),
    CatalogEntry("Z^<d>", "free abelian of rank d          (e.g. Z^2)",
                 r"Z(?:\^(\d+))?",
                 lambda d: LatticeGroup(1 if d is None else int(d))),
    CatalogEntry("free:<k>", "free group of rank k            (e.g. free:2)",
                 r"free:(\d+)", lambda k: FreeGroup(int(k))),
    CatalogEntry("dihedral-inf", "infinite dihedral", "dihedral-inf",
                 InfiniteDihedralGroup),
    CatalogEntry("heisenberg", "discrete Heisenberg", "heisenberg",
                 HeisenbergGroup),
    CatalogEntry("S3", "symmetric group on three points", "S3",
                 SymmetricGroupS3),
)


def group_from_name(name: str) -> Group:
    """Resolve a catalog name like "cyclic:4", "Z^2", or "heisenberg"."""
    return from_catalog(GROUP_CATALOG, "group", name)
