"""Maximal-interval enumeration and reduced DNF construction.

An interval is maximal inside a carrier set when it lies in the carrier and
no strictly larger interval does.  The reduced DNF takes, for each attained
level gamma, every maximal interval of gamma's carrier that meets the level
set.  The carrier of gamma is the lattice minus the defined points valued
below gamma, so undefined points of a partial function act as don't-cares.

Point sets are int bitsets over mixed-radix point indices, x1 most
significant: over m variables the cofactor C_v = C|x1=v is the block
(C >> v*k**(m-1)) & full.  S x I' lies in C exactly when I' lies in X_S, the
intersection of C_v over v in S.  Let S(I') = {v : I' in C_v}.  If I' is
maximal in some X_T with T inside S(I'), it is maximal in the smaller
X_S(I'), and S(I') x I' is maximal in C: a larger S2 x I2 inside C has I2
inside X_S(I'), so I2 = I' and S2 lies in S(I').  Conversely a maximal
S x I' has S = S(I') and I' maximal in X_S.  So the maximal intervals are
the pairs (S(I'), I') over I' maximal in a distinct nonempty intersection X
of cofactors (the cofactor-splitting prime generation of Espresso-MV), each
emitted from the X with {v : X in C_v} = S(I') as the copies I' << v*block,
v in S.  Subproblems are memoised on (bits, depth) within one call;
REDUCE_CAP bounds the call's work (units: see _maximal).
"""

from __future__ import annotations

from .core import (
    UNDEFINED,
    CapacityError,
    Dnf,
    ElementaryConjunction,
    Interval,
    KFunction,
    PartialKFunction,
    Point,
    _Record,
    check_shape,
    decode_point,
    encode_point,
)

REDUCE_CAP = 10**6  # work units (see _maximal) per reduce call


class CarrierSet(_Record):
    """Region that an interval must stay inside; bits is its point bitset."""

    __slots__ = ("k", "n", "points", "bits")
    _key = ("k", "n", "points")

    def __init__(self, k: int, n: int, points: frozenset[Point]) -> None:
        check_shape(k, n)
        marks = bytearray(b"0") * k**n
        for p in points:
            if len(p) != n:
                raise ValueError(f"point {p} outside the {k}**{n} lattice")
            marks[encode_point(p, k)] = ord("1")  # encode_point checks coordinates
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "bits", int(marks[::-1], 2))


class LevelTerms(_Record):
    """Terms of one output level with the carrier they are maximal in.

    The level set, the carrier and each term's interval (term_bits, aligned
    with terms) are kept as the int bitsets over point indices that the
    reduce stage computed; level_points and carrier decode them into points
    only when they are read.
    """

    __slots__ = ("k", "n", "gamma", "level_bits", "carrier_bits", "terms", "term_bits")
    _shown = ("k", "n", "gamma", "terms")

    def __init__(self, k: int, n: int, gamma: int, level_bits: int, carrier_bits: int,
                 terms: tuple[ElementaryConjunction, ...], term_bits: tuple[int, ...]) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "level_bits", level_bits)
        object.__setattr__(self, "carrier_bits", carrier_bits)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "term_bits", term_bits)

    @property
    def level_points(self) -> frozenset[Point]:
        return _points_of(self.level_bits, self.k, self.n)

    @property
    def carrier(self) -> CarrierSet:
        return CarrierSet(self.k, self.n, _points_of(self.carrier_bits, self.k, self.n))


class ReducedDnf(_Record):
    """Reduced DNF plus per-level provenance, terms in canonical order."""

    __slots__ = ("dnf", "levels")

    def __init__(self, dnf: Dnf, levels: tuple[LevelTerms, ...]) -> None:
        object.__setattr__(self, "dnf", dnf)
        object.__setattr__(self, "levels", levels)

    @property
    def k(self) -> int:
        return self.dnf.k

    @property
    def n(self) -> int:
        return self.dnf.n


def _interval_bits(k: int, masks: tuple[int, ...]) -> int:
    """Point bitset of the interval with these factor masks."""
    bits, block = 1, 1
    for mask in reversed(masks):  # prepend an axis: one copy of bits per value
        bits, block = sum(bits << v * block for v in range(k) if mask >> v & 1), block * k
    return bits


def _charge(budget: list[int], units: int) -> None:
    budget[0] -= units
    if budget[0] < 0:
        raise CapacityError(f"reduce stage: maximal-interval work passed the cap {REDUCE_CAP}")


def _maximal(k: int, bits: int, m: int, memo: dict, budget: list[int]) -> list[tuple[int, tuple]]:
    """Maximal intervals of carrier bits over m variables, as unordered
    (point bitset, factor masks) pairs."""
    key = (bits, m)
    if key in memo:
        return memo[key]
    block = k ** (m - 1)
    # a subproblem, an intersection or a candidate costs one unit plus one
    # per 1024 points of its bitsets, so the cap bounds memory too
    unit = 1 + (block * k >> 10)
    _charge(budget, unit)
    if m == 1:
        found = [(bits, (bits,))] if bits else []
    else:
        full = (1 << block) - 1
        cofactors = [bits >> v * block & full for v in range(k)]
        base = {c for c in cofactors if c}
        seen, frontier = set(), base
        while frontier:  # closure of the cofactors under intersection
            _charge(budget, len(frontier) * len(base) * unit)
            seen |= frontier
            frontier = {x & c for x in frontier for c in base} - seen - {0}
        found = []
        for x in seen:
            # one pass: S = own, the shift v*block per v in S, and the
            # complements of the cofactors X does not fit
            own, shifts, outside = 0, [], []
            for v, c in enumerate(cofactors):
                if x & ~c:
                    outside.append(full ^ c)
                else:
                    own |= 1 << v
                    shifts.append(v * block)
            subs = _maximal(k, x, m - 1, memo, budget)
            _charge(budget, len(subs) * unit)
            # an I' that fits a further cofactor is emitted from a smaller X
            found += [
                (sum(map(sub.__lshift__, shifts)), (own,) + masks)
                for sub, masks in subs
                if all(sub & o for o in outside)
            ]
    memo[key] = found
    return found


def maximal_intervals(carrier: CarrierSet) -> list[Interval]:
    """All maximal intervals inside the carrier, canonically ordered."""
    found = _maximal(carrier.k, carrier.bits, carrier.n, {}, [REDUCE_CAP])
    return [Interval(carrier.k, ms) for ms in sorted(ms for _, ms in found)]


def _bits_where(table: bytes, lo: int, hi: int) -> int:
    """Bitset of the table indices whose entry lies in [lo, hi)."""
    marks = b"0" * lo + b"1" * (hi - lo) + b"0" * (256 - hi)
    return int(table.translate(marks)[::-1], 2)


def _set_bits(bits: int) -> list[int]:
    """Positions of the set bits, ascending."""
    text = bin(bits)[:1:-1]
    out, i = [], text.find("1")
    while i >= 0:
        out.append(i)
        i = text.find("1", i + 1)
    return out


def _points_of(bits: int, k: int, n: int) -> frozenset[Point]:
    return frozenset(decode_point(i, k, n) for i in _set_bits(bits))


def _reduce(k: int, n: int, table: bytes) -> ReducedDnf:
    """Reduced DNF of a table in point-index order, UNDEFINED where undefined."""
    memo, budget, levels = {}, [REDUCE_CAP], []
    for gamma in sorted(set(table) - {0, UNDEFINED}):
        carrier = _bits_where(table, gamma, 256)
        level = _bits_where(table, gamma, gamma + 1)
        found = sorted(_maximal(k, carrier, n, memo, budget), key=lambda f: f[1])
        found = [(bits, masks) for bits, masks in found if bits & level]
        terms = tuple(ElementaryConjunction(Interval(k, masks), gamma) for _, masks in found)
        levels.append(LevelTerms(k, n, gamma, level, carrier, terms, tuple(bits for bits, _ in found)))
    return ReducedDnf(Dnf(k, n, tuple(t for lt in levels for t in lt.terms)), tuple(levels))


def reduced_dnf(f: KFunction) -> ReducedDnf:
    """Reduced DNF of a total function; empty for the constant-0 function."""
    return _reduce(f.k, f.n, f.table)


def reduced_dnf_partial(func: PartialKFunction) -> ReducedDnf:
    """Reduced DNF of a partially defined function.  It takes each defined
    value on its set; undefined points are unconstrained."""
    return _reduce(func.k, func.n, func.table)
