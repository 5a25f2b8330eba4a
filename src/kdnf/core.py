"""Core types for k-valued logic functions over the lattice {0..k-1}^n.

A value set is a subset of the alphabet {0, ..., k-1} held as a plain int
bitmask, bit v set when v is in the set (mask_values lists it).  An interval
is a Cartesian product of nonempty value sets, one per variable;
its point set is a sublattice of the full lattice.  An elementary conjunction
pairs an interval with an output level gamma >= 1 and evaluates to gamma
exactly on the interval, 0 elsewhere.  A DNF is a list of conjunctions
evaluated pointwise by max.

Functions, total and partial alike, are dense tables of k**n bytes indexed
by a mixed-radix point encoding with x1 most significant, under the cap
MAX_TABLE.  A total function holds a value below k at every index; a
partial one holds UNDEFINED (255, above every value) at its undefined
points, so a total function is a partial one with every point defined.

Every public type here is an immutable record on one small base (_Record):
a plain class with __slots__ whose fields are set once, at construction.
Plain records inherit _Record's constructor, which takes the fields
positionally or by keyword; the validating records here define their own,
check their arguments and set their fields themselves.  Assigning or
deleting a field raises AttributeError.  The private _Budget is mutable.
Two records are equal when they have the same class and the same fields,
and hash over those fields.  They pickle and copy through __reduce__.  No
code is generated for them, so the standard library's field helpers
(fields, replace, asdict) and __match_args__ do not apply.  Values are safe
for concurrent reads.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Iterator, Mapping

MIN_K = 2
MAX_K = 16          # desk-scale cap on the alphabet
MAX_TABLE = 1 << 20  # dense-table cap: k**n must not exceed this
UNDEFINED = 255     # table entry of an undefined point of a partial function

Point = tuple[int, ...]


class CapacityError(Exception):
    """A desk-scale resource cap was exceeded.  No partial answer is given."""


class _Budget:
    """Work units left to a capped stage; spend raises CapacityError(message) below 0."""

    __slots__ = ("left", "message")

    def __init__(self, cap: int, message: str) -> None:
        self.left, self.message = cap, message

    def spend(self, units: int) -> None:
        self.left -= units
        if self.left < 0:
            raise CapacityError(self.message)


def check_alphabet(k: int) -> None:
    if not MIN_K <= k <= MAX_K:
        raise ValueError(f"alphabet size k={k} outside [{MIN_K}, {MAX_K}]")


def check_shape(k: int, n: int) -> None:
    check_alphabet(k)
    if n < 1:
        raise ValueError(f"dimension n={n} must be >= 1")
    if not _fits_table(k, n):
        raise CapacityError(f"k**n = {k}**{n} exceeds the dense-table cap {MAX_TABLE}")


def _fits_table(k: int, n: int) -> bool:
    """Whether k**n is within MAX_TABLE, for k >= 2 and n >= 1."""
    return n < MAX_TABLE.bit_length() and k**n <= MAX_TABLE  # 2**n alone passes the cap past there


def encode_point(p: Point, k: int) -> int:
    """Mixed-radix index of a point, first coordinate most significant."""
    idx = 0
    for x in p:
        if not 0 <= x < k:
            raise ValueError(f"coordinate {x} outside [0, {k - 1}]")
        idx = idx * k + x
    return idx


def _index(p: Point, k: int, n: int) -> int:
    """Table index of a point, checked against the dimension and alphabet."""
    if len(p) != n:
        raise ValueError(f"point {p} has dimension {len(p)}, expected {n}")
    return encode_point(p, k)


def _table_from_map(k: int, n: int, assignments: Mapping[Point, int], fill: int) -> bytearray:
    """Dense table holding fill at every point the assignments leave out."""
    check_shape(k, n)
    table = bytearray([fill]) * k**n
    for p, v in assignments.items():
        if not 0 <= v < k:
            raise ValueError(f"value {v} outside the alphabet")
        table[_index(p, k, n)] = v
    return table


def decode_point(idx: int, k: int, n: int) -> Point:
    coords = [0] * n
    for j in range(n - 1, -1, -1):
        idx, coords[j] = divmod(idx, k)
    return tuple(coords)


def all_points(k: int, n: int) -> Iterator[Point]:
    """All lattice points in index (lexicographic) order."""
    return itertools.product(range(k), repeat=n)


def mask_values(mask: int) -> tuple[int, ...]:
    """The values of a value-set bitmask, ascending."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


class _Record:
    """Base of the immutable records.

    A record lists its fields in __slots__, in constructor order.  A plain
    record inherits __init__ below, which binds the positional values to the
    first fields and the keyword values to the rest by name.  A validating
    record defines its own __init__ with the same parameters and sets each
    field once through object.__setattr__.  Equality (same class, equal
    fields), hashing and copying go over those fields; copies call the class
    with their values.  repr shows the fields named in _shown, all of them
    unless the class names fewer.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__slots__ or cls._fields  # a subclass adding no slots keeps its base's
        cls._shown = getattr(cls, "_shown", cls._fields)
        cls._values = operator.attrgetter(*cls._fields)

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs:
            positional = fields[: len(args)]
            for name in kwargs:
                if name not in fields or name in positional:
                    raise TypeError(f"{self.__class__.__qualname__}() got an unknown or repeated field {name!r}")
            args += tuple(kwargs[name] for name in fields[len(args) :] if name in kwargs)
        if len(args) != len(fields):
            raise TypeError(f"{self.__class__.__qualname__}() takes the fields {', '.join(fields)}: "
                            f"got {len(args)} values")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


class Interval(_Record):
    """Cartesian product of nonempty value sets; a sublattice of {0..k-1}^n.

    factors[j] is the bitmask of the values allowed for variable j + 1.
    """

    __slots__ = ("k", "factors")

    def __init__(self, k: int, factors: Iterable[int]) -> None:
        check_alphabet(k)
        factors = tuple(factors)
        if not factors:
            raise ValueError("interval needs at least one factor")
        top = 1 << k
        for j, f in enumerate(factors):
            if not 0 < f < top:
                raise ValueError(f"factor {j + 1} mask {f} is not a nonempty subset of the alphabet")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "factors", factors)

    @classmethod
    def from_values(cls, k: int, *factors: Iterable[int]) -> "Interval":
        masks = []
        for f in factors:
            m = 0
            for v in f:
                if v < 0:
                    raise ValueError(f"negative logic value {v}")
                m |= 1 << v
            masks.append(m)
        return cls(k, masks)

    @property
    def n(self) -> int:
        return len(self.factors)

    def contains_point(self, p: Point) -> bool:
        if len(p) != self.n:
            raise ValueError(f"point dimension {len(p)} != interval dimension {self.n}")
        return all(x >= 0 and f >> x & 1 for x, f in zip(p, self.factors))

    def contains(self, other: "Interval") -> bool:
        """Point-set containment; factor-wise since factors are nonempty."""
        if other.k != self.k or other.n != self.n:
            raise ValueError("interval shape mismatch")
        return all(g & ~f == 0 for f, g in zip(self.factors, other.factors))

    def points(self) -> list[Point]:
        """Full point set, lexicographically ordered."""
        return list(itertools.product(*map(mask_values, self.factors)))


class ElementaryConjunction(_Record):
    """An interval with an output level; evaluates to gamma on the interval."""

    __slots__ = ("interval", "gamma")

    def __init__(self, interval: Interval, gamma: int) -> None:
        if not 1 <= gamma <= interval.k - 1:
            raise ValueError(f"gamma={gamma} outside [1, {interval.k - 1}]")
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "gamma", gamma)

    @property
    def k(self) -> int:
        return self.interval.k

    @property
    def n(self) -> int:
        return self.interval.n

    @property
    def rank(self) -> int:
        """k*n minus the total factor size; 0 for the full interval."""
        return self.k * self.n - sum(f.bit_count() for f in self.interval.factors)

    def sort_key(self) -> tuple:
        return (self.gamma, self.interval.factors)

    def value_at(self, p: Point) -> int:
        return self.gamma if self.interval.contains_point(p) else 0

    def support(self) -> tuple[int, ...]:
        """0-based positions of the non-full factors (the variables it depends on)."""
        full = (1 << self.k) - 1
        return tuple(j for j, f in enumerate(self.interval.factors) if f != full)


class Dnf(_Record):
    """Disjunction (pointwise max) of elementary conjunctions; may be empty."""

    __slots__ = ("k", "n", "terms")

    def __init__(self, k: int, n: int, terms: Iterable[ElementaryConjunction] = ()) -> None:
        check_shape(k, n)
        terms = tuple(terms)
        for t in terms:
            if t.k != k or t.n != n:
                raise ValueError("term shape does not match the DNF shape")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)

    def value_at(self, p: Point) -> int:
        if len(p) != self.n:
            raise ValueError(f"point dimension {len(p)} != DNF dimension {self.n}")
        return max((t.value_at(p) for t in self.terms), default=0)

    def __len__(self) -> int:
        return len(self.terms)

    def total_rank(self) -> int:
        return sum(t.rank for t in self.terms)


def _set_table(func: _Record, k: int, n: int, table: bytes, partial: bool) -> None:
    """Set a function's k, n and table, the table as bytes (the very object
    when it is bytes) checked against the shape and the entries it allows."""
    check_shape(k, n)
    if isinstance(table, int):  # bytes(m) would make m zero bytes
        raise TypeError("table must be a sequence of entries, not an int")
    table = bytes(table)
    if len(table) != k**n:
        raise ValueError(f"table length {len(table)} != k**n = {k ** n}")
    defined = table.replace(bytes([UNDEFINED]), b"") if partial else table
    if max(defined, default=0) >= k:
        raise ValueError("table entry outside the alphabet" + (" and not UNDEFINED" if partial else ""))
    object.__setattr__(func, "k", k)
    object.__setattr__(func, "n", n)
    object.__setattr__(func, "table", table)


class KFunction(_Record):
    """Total function {0..k-1}^n -> {0..k-1} as a dense table of k**n values."""

    __slots__ = ("k", "n", "table")

    def __init__(self, k: int, n: int, table: bytes) -> None:
        _set_table(self, k, n, table, partial=False)

    @classmethod
    def from_map(cls, k: int, n: int, assignments: Mapping[Point, int], default: int = 0) -> "KFunction":
        check_shape(k, n)
        if not 0 <= default < k:
            raise ValueError(f"default value {default} outside the alphabet")
        return cls(k, n, _table_from_map(k, n, assignments, default))

    def value(self, p: Point) -> int:
        return self.table[_index(p, self.k, self.n)]


class PartialKFunction(_Record):
    """Partially defined function: disjoint defined sets per value, rest undefined.

    Stored as a dense table like KFunction's, with UNDEFINED at the undefined
    points.  The zero level is a real defined set (a point mapped to 0 is
    "known zero"), unlike a point that is simply absent.
    """

    __slots__ = ("k", "n", "table")

    def __init__(self, k: int, n: int, table: bytes) -> None:
        _set_table(self, k, n, table, partial=True)

    @classmethod
    def from_map(cls, k: int, n: int, assignments: Mapping[Point, int]) -> "PartialKFunction":
        return cls(k, n, _table_from_map(k, n, assignments, UNDEFINED))

    def __repr__(self) -> str:
        defined = len(self.table) - self.table.count(UNDEFINED)
        return f"PartialKFunction(k={self.k}, n={self.n}, defined={defined})"

    def value(self, p: Point) -> int | None:
        """Defined value at p, or None when p is undefined."""
        v = self.table[_index(p, self.k, self.n)]
        return None if v == UNDEFINED else v
