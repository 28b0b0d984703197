"""Exact graded linear algebra: superspaces, homogeneous elements, even maps.

Scalars are arbitrary-precision rationals (``fractions.Fraction``) throughout;
no operation ever rounds, and equality is coordinate-wise exact equality.
Parities live in Z/2: 0 is even, 1 is odd.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Mapping, Union

EVEN = 0
ODD = 1

Scalar = Union[int, str, Fraction]


class _Mixed:
    """Marker returned by :func:`parity_of` for elements supported on both parities."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MIXED"


MIXED = _Mixed()


def rational(value: Scalar) -> Fraction:
    """Coerce an int, Fraction, or string like ``"3/2"`` to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class Value:
    """Base of the package's immutable value classes.

    A subclass names its compared fields, in constructor order, in
    ``_fields`` and sets them in its own ``__init__`` with
    ``object.__setattr__``; its ``__slots__`` also hold any field that takes
    no part in comparison.  Equality holds only between instances of one
    class and compares what one ``operator.attrgetter`` of ``_fields``,
    made once per class, returns; hashing hashes the same.  ``repr`` reads
    ``Name(field=value, ...)`` over ``_fields``.  Assignment and deletion
    raise ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state) -> None:
        """Restore the slots that ``copy`` and ``pickle`` saved."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class SuperSpace(Value):
    """An ordered, named basis with a parity per basis vector."""

    __slots__ = _fields = ("basis",)

    def __init__(self, basis: tuple[tuple[str, int], ...]):
        if not basis:
            raise ValueError("superspace needs at least one basis vector")
        names = [name for name, _ in basis]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate basis names in {names}")
        for name, parity in basis:
            if parity not in (EVEN, ODD):
                raise ValueError(f"parity of {name!r} must be 0 or 1, got {parity!r}")
        object.__setattr__(self, "basis", basis)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not SuperSpace:
            return NotImplemented
        return self.basis == other.basis

    __hash__ = Value.__hash__

    @staticmethod
    def build(pairs: Iterable[tuple[str, int]]) -> "SuperSpace":
        return SuperSpace(tuple((str(n), int(p)) for n, p in pairs))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.basis)

    @property
    def parities(self) -> tuple[int, ...]:
        return tuple(parity for _, parity in self.basis)

    @property
    def dim_even(self) -> int:
        return sum(1 for _, p in self.basis if p == EVEN)

    @property
    def dim_odd(self) -> int:
        return sum(1 for _, p in self.basis if p == ODD)

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.basis):
            if n == name:
                return i
        raise KeyError(f"no basis vector named {name!r}")

    def parity(self, index: int) -> int:
        return self.basis[index][1]

    def basis_vector(self, ref: Union[int, str]) -> "Element":
        index = ref if isinstance(ref, int) else self.index(ref)
        return Element(self, {index: Fraction(1)})

    def zero(self) -> "Element":
        return Element(self, {})

    def element(self, coords: Mapping[str, Scalar]) -> "Element":
        """Build an element from a name -> scalar mapping."""
        return Element(self, {self.index(n): rational(c) for n, c in coords.items()})


class Element(Value):
    """A finitely supported rational coordinate vector over a superspace.

    Zero coordinates are never stored.  Instances are immutable; arithmetic
    returns fresh elements.  Equality, hashing and ``repr`` are its own:
    equal coordinates over an equal space compare equal.
    """

    __slots__ = ("space", "coords")

    def __init__(self, space: SuperSpace, coords: Mapping[int, Scalar]):
        cleaned: dict[int, Fraction] = {}
        for index, value in coords.items():
            value = rational(value)
            if value != 0:
                if not 0 <= index < space.dim:
                    raise IndexError(f"basis index {index} out of range for dim {space.dim}")
                cleaned[index] = value
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coords", dict(sorted(cleaned.items())))

    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.space == other.space and self.coords == other.coords

    def __hash__(self):
        return hash((self.space, tuple(self.coords.items())))

    def __add__(self, other: "Element") -> "Element":
        self._require_same_space(other)
        merged = dict(self.coords)
        for index, value in other.coords.items():
            merged[index] = merged.get(index, Fraction(0)) + value
        return Element(self.space, merged)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(self.space, {i: -c for i, c in self.coords.items()})

    def scale(self, factor: Scalar) -> "Element":
        factor = rational(factor)
        return Element(self.space, {i: factor * c for i, c in self.coords.items()})

    def __mul__(self, factor: Scalar) -> "Element":
        return self.scale(factor)

    __rmul__ = __mul__

    def homogeneous_parts(self) -> list[tuple[int, "Element"]]:
        """Nonzero (parity, component) pairs, even first."""
        parts: dict[int, dict[int, Fraction]] = {}
        for index, value in self.coords.items():
            parts.setdefault(self.space.parity(index), {})[index] = value
        return [(parity, Element(self.space, parts[parity])) for parity in (EVEN, ODD) if parity in parts]

    def __repr__(self) -> str:
        return f"Element({self})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        chunks = []
        for index, value in self.coords.items():
            name = self.space.names[index]
            if value == 1:
                text = name
            elif value == -1:
                text = f"-{name}"
            else:
                text = f"{value}*{name}"
            chunks.append(text)
        out = chunks[0]
        for chunk in chunks[1:]:
            out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
        return out

    def _require_same_space(self, other: "Element") -> None:
        if self.space != other.space:
            raise ValueError("elements live in different superspaces")


def parity_of(element: Element):
    """Common parity of the support; ``MIXED`` if both parities occur.

    The zero element reports even (it is homogeneous of every parity by
    convention, and callers accept it wherever either parity is required).
    """
    parities = {element.space.parity(i) for i in element.coords}
    if not parities:
        return EVEN
    if len(parities) == 1:
        return parities.pop()
    return MIXED


class EvenMap(Value):
    """A parity-preserving linear self-map stored as a (target, source) matrix.

    One pass at construction coerces every entry to a rational, checks the
    shape, and builds ``columns``, the sparse view that map arithmetic reads:
    the nonzero entries of each source column as ``{target: entry}``, never
    mutated.  Parity is checked on those nonzero entries only; a bad shape or
    an entry crossing parities raises ``ValueError``.  ``_powers`` holds the
    powers :func:`power` has built of this map, by exponent, so each is
    built once per map.  Both are slots outside ``_fields``: they take no
    part in equality, hashing or ``repr``.
    """

    _fields = ("space", "matrix")
    __slots__ = (*_fields, "columns", "_powers")

    def __init__(self, space: SuperSpace, matrix: tuple[tuple[Fraction, ...], ...] = ()):
        n, parities = space.dim, space.parities
        rows = tuple(tuple(map(rational, row)) for row in matrix)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"expected a {n}x{n} matrix")
        columns = tuple({} for _ in range(n))
        for target, row in enumerate(rows):
            for source, entry in enumerate(row):
                if entry:
                    if parities[target] != parities[source]:
                        raise ValueError("matrix is not an even map: an entry crosses parities")
                    columns[source][target] = entry
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "_powers", {})

    @staticmethod
    def identity(space: SuperSpace) -> "EvenMap":
        n = space.dim
        return EvenMap(space, tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    @staticmethod
    def from_images(space: SuperSpace, images: Mapping[str, Element]) -> "EvenMap":
        """Build a map from its action on every named basis vector."""
        missing = set(space.names) - set(images)
        if missing:
            raise ValueError(f"missing images for basis vectors {sorted(missing)}")
        n = space.dim
        columns = {}
        for name, image in images.items():
            if image.space != space:
                raise ValueError(f"image of {name!r} lives in a different space")
            columns[space.index(name)] = image
        rows = tuple(
            tuple(columns[j].coords.get(i, Fraction(0)) for j in range(n)) for i in range(n)
        )
        return EvenMap(space, rows)

    def is_identity(self) -> bool:
        return all(column == {j: 1} for j, column in enumerate(self.columns))


def apply_map(f: EvenMap, element: Element) -> Element:
    """Linear extension of the matrix action; preserves parity of homogeneous input."""
    if element.space != f.space:
        raise ValueError("map and element live in different superspaces")
    out: dict[int, Fraction] = {}
    for source, value in element.coords.items():
        for target, entry in f.columns[source].items():
            out[target] = out.get(target, 0) + entry * value
    return Element(f.space, out)


def compose(f: EvenMap, g: EvenMap) -> EvenMap:
    """The map ``f after g`` (matrix product f·g), summed over the pairs of
    nonzero entries only."""
    if f.space != g.space:
        raise ValueError("cannot compose maps over different superspaces")
    n, zero = f.space.dim, Fraction(0)
    rows = [[zero] * n for _ in range(n)]
    for j, column in enumerate(g.columns):
        for k, entry in column.items():
            for i, c in f.columns[k].items():
                rows[i][j] += c * entry
    return EvenMap(f.space, tuple(map(tuple, rows)))


def power(f: EvenMap, n: int) -> EvenMap:
    """n-fold composition; ``power(f, 0)`` is the identity and ``power(f, 1)``
    is ``f`` itself.

    Every higher power is kept in ``f``'s ``_powers`` and built once per map:
    an even power as the square of the half power, an odd one as ``f`` after
    the power below it.  Powers of one map commute and the arithmetic is
    exact, so the result is the n-fold composition itself.
    """
    if n < 0:
        raise ValueError("power expects a nonnegative exponent")
    if n < 2:
        return f if n else EvenMap.identity(f.space)
    powers = f._powers
    if n not in powers:
        if n & 1:
            powers[n] = compose(f, power(f, n - 1))
        else:
            half = power(f, n // 2)
            powers[n] = compose(half, half)
    return powers[n]
