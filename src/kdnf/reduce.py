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
REDUCE_CAP bounds the call's work (units: see _maximal and _sieve).

Small subproblems are not split: _sieve finds all their maximal intervals
at once, a bit-parallel Quine-McCluskey pass over the multi-valued cubes.
With B = 2**k - 1, the cube (S_1, ..., S_m) of nonempty value masks is bit
sum (S_j - 1)*B**(m-j) of one int over all B**m cubes, so ascending index
is the canonical mask order.  The carrier's points go to their singleton
cubes in m steps: step j moves the block of value v on axis j from stride
k**(m-j) to digit 2**v - 1 at stride B**(m-j).  Then, axis by axis at
stride s, each non-singleton mask S in ascending order, with low = S & -S,
gets the implicants whose S ^ low and low halves both are implicants:
imp |= (imp << low*s) & (imp << (S-low)*s) & slab(S).  An implicant that
lacks v on an axis is not maximal when its widening by v, (1 << v)*s bits
up, is an implicant too; the rest are the maximal intervals.

The rule is a fixed function of (k, m): _maximal sieves when m >= 2, k <= 4
and B**m <= 2**16, so k=2 n<=10, k=3 n<=5 and k=4 n<=4 carriers are sieved
whole and larger n below their top splits.  On random tables (Python 3.11,
2 CPUs) that made reduce 7.5, 5.5 and 3.6 times faster at k=2 n=10, k=3
n=5 and k=4 n=4.  But the m*(2**k - k) growth steps over B**m cubes swamp
the few points of a large-k carrier: sieving at every k took k=7 n=3 from
0.021 s to 0.14 s and k=8 n=3 from 0.085 s to 1.9 s.

The CLI's reduce prints the factor masks that _levels yields and builds no
record; reduced_dnf wraps eager records around them, whose terms
cover_instance looks up by identity.
"""

from __future__ import annotations

import functools

from .core import (
    UNDEFINED,
    Dnf,
    ElementaryConjunction,
    Interval,
    KFunction,
    PartialKFunction,
    Point,
    _Budget,
    _Record,
    check_shape,
    decode_point,
)

REDUCE_CAP = 10**6  # work units (see _maximal and _sieve) per reduce call
_SIEVE_K, _SIEVE_CUBES = 4, 1 << 16  # subproblems _maximal sieves whole


class CarrierSet(_Record):
    """Region that an interval must stay inside, as the bitset of its point
    indices; points decodes it on each read."""

    __slots__ = ("k", "n", "bits")

    def __init__(self, k: int, n: int, bits: int) -> None:
        check_shape(k, n)
        if bits < 0 or bits.bit_length() > k**n:
            raise ValueError(f"bits outside the {k}**{n} lattice")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    @property
    def points(self) -> frozenset[Point]:
        return _points_of(self.bits, self.k, self.n)


class LevelTerms(_Record):
    """Terms of one output level with the carrier they are maximal in.

    The level set, the carrier and each term's interval (term_bits, aligned
    with terms) are kept as the int bitsets over point indices that the
    reduce stage computed; carrier wraps carrier_bits as a CarrierSet.
    """

    __slots__ = ("k", "n", "gamma", "level_bits", "carrier_bits", "terms", "term_bits")
    _shown = ("k", "n", "gamma", "terms")

    @property
    def carrier(self) -> CarrierSet:
        return CarrierSet(self.k, self.n, self.carrier_bits)


class ReducedDnf(_Record):
    """Reduced DNF plus per-level provenance, terms in canonical order."""

    __slots__ = ("dnf", "levels")

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


def _budget() -> _Budget:
    return _Budget(REDUCE_CAP, f"reduce stage: maximal-interval work passed the cap {REDUCE_CAP}")


def _repeat(pattern: int, period: int, count: int) -> int:
    """count copies of pattern, period bits apart."""
    bits, copies = pattern, 1
    while copies < count:
        bits |= bits << copies * period
        copies *= 2
    return bits & (1 << count * period) - 1


@functools.lru_cache(maxsize=16)  # every (k, m) that _maximal sieves
def _layout(k: int, m: int) -> tuple[list, list, list, int, list, list]:
    """Sieve tables for k values over m variables (see the module docstring):
    the embedding steps (cubes of axis j's value v, shift) in axis order; the
    growth steps (shift from S ^ low, shift from low, cubes of S) per axis,
    S ascending; the widening steps (shift, cubes lacking v) per axis and
    value; and the divisor that splits a cube index into a high and a low
    part, with the (masks, point bitset) of every high and every low part."""
    base, points = (1 << k) - 1, (1 << k**m) - 1
    embed, grow, widen, rows = [], [], [], [((), points)]
    for j in range(m):
        s, t = base ** (m - 1 - j), k ** (m - 1 - j)
        # before axis j is embedded its values are k blocks of t points
        block = _repeat((1 << t) - 1, base * s, base**j)
        embed.append([(block << v * t, ((1 << v) - 1) * s - v * t) for v in range(k)])
        block = _repeat((1 << s) - 1, base * s, base**j)  # the cubes with S_j = {0}
        slab = [0] + [block << (mask - 1) * s for mask in range(1, base + 1)]
        for mask in range(3, base + 1):
            low = mask & -mask
            if mask != low:
                grow.append((low * s, (mask - low) * s, slab[mask]))
        for v in range(k):
            widen.append(((1 << v) * s, sum(slab[mask] for mask in range(1, base + 1) if not mask >> v & 1)))
        if j == m // 2:
            high, rows = rows, [((), points)]
        block = _repeat((1 << t) - 1, k * t, k**j)  # the points with x_j = 0
        column = [sum(block << v * t for v in range(k) if mask >> v & 1) for mask in range(1, base + 1)]
        rows = [(masks + (mask,), pts & c) for masks, pts in rows for mask, c in enumerate(column, 1)]
    return embed, grow, widen, base ** (m - m // 2), high, rows


def _sieve(k: int, bits: int, m: int, budget: _Budget) -> list[tuple[int, tuple]]:
    """Maximal intervals of carrier bits over m variables, found together by
    growing and sieving the implicant bitset over all (2**k - 1)**m cubes.
    It costs one unit per big-int step plus one per 1024 cubes, then one per
    interval it emits plus one per 1024 points."""
    embed, grow, widen, split, high, low = _layout(k, m)
    budget.spend(m + len(grow) + len(widen) + (((1 << k) - 1) ** m >> 10))
    imp = bits
    for axis in embed:  # each point to its singleton cube
        imp = sum([(imp & mask) << shift for mask, shift in axis])
    for a, b, slab in grow:
        imp |= (imp << a) & (imp << b) & slab
    wider = 0
    for shift, lacks in widen:
        wider |= (imp >> shift) & lacks
    cubes = _set_bits(imp ^ wider)
    budget.spend(len(cubes) + (k**m >> 10))
    found = []
    for c in cubes:
        h, l = divmod(c, split)
        (hm, hp), (lm, lp) = high[h], low[l]
        found.append((hp & lp, hm + lm))
    return found


def _maximal(k: int, bits: int, m: int, memo: dict, budget: _Budget) -> list[tuple[int, tuple]]:
    """Maximal intervals of carrier bits over m variables, as unordered
    (point bitset, factor masks) pairs."""
    key = (bits, m)
    if key in memo:
        return memo[key]
    if m > 1 and k <= _SIEVE_K and ((1 << k) - 1) ** m <= _SIEVE_CUBES:
        found = memo[key] = _sieve(k, bits, m, budget)
        return found
    block = k ** (m - 1)
    # a subproblem, an intersection or a candidate costs one unit plus one
    # per 1024 points of its bitsets, so the cap bounds memory too
    unit = 1 + (block * k >> 10)
    budget.spend(unit)
    if m == 1:
        found = [(bits, (bits,))] if bits else []
    else:
        full = (1 << block) - 1
        cofactors = [bits >> v * block & full for v in range(k)]
        base = {c for c in cofactors if c}
        seen, frontier = set(), base
        while frontier:  # closure of the cofactors under intersection
            budget.spend(len(frontier) * len(base) * unit)
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
            budget.spend(len(subs) * unit)
            if outside:  # an I' that fits a further cofactor is emitted from a smaller X
                subs = [(sub, masks) for sub, masks in subs if all(map(sub.__and__, outside))]
            if len(shifts) == 1:
                found += [(sub << shifts[0], (own,) + masks) for sub, masks in subs]
            else:
                found += [(sum(map(sub.__lshift__, shifts)), (own,) + masks) for sub, masks in subs]
    memo[key] = found
    return found


def maximal_intervals(carrier: CarrierSet) -> list[Interval]:
    """All maximal intervals inside the carrier, canonically ordered."""
    found = _maximal(carrier.k, carrier.bits, carrier.n, {}, _budget())
    return [Interval(carrier.k, ms) for ms in sorted(ms for _, ms in found)]


def _bits_where(table: bytes, lo: int, hi: int) -> int:
    """Bitset of the table indices whose entry lies in [lo, hi)."""
    marks = b"0" * lo + b"1" * (hi - lo) + b"0" * (256 - hi)
    return int(table.translate(marks)[::-1], 2)


def _set_bits(bits: int) -> list[int]:
    """Positions of the set bits, ascending.

    Formatting with bin() costs about a nanosecond per bit of width, while
    peeling off the top bit costs a pass over the width per set bit.  The
    width cancels out, so the choice rests on the count alone: peeling
    measured faster below 128 set bits at every width from 64 to 2**20."""
    return _peeled_bits(bits) if bits.bit_count() < 128 else _text_bits(bits)


def _peeled_bits(bits: int) -> list[int]:
    out = []
    while bits:
        i = bits.bit_length() - 1
        out.append(i)
        bits ^= 1 << i
    out.reverse()
    return out


def _text_bits(bits: int) -> list[int]:
    text = bin(bits)[:1:-1]
    out, i = [], text.find("1")
    while i >= 0:
        out.append(i)
        i = text.find("1", i + 1)
    return out


def _points_of(bits: int, k: int, n: int) -> frozenset[Point]:
    return frozenset(decode_point(i, k, n) for i in _set_bits(bits))


def _levels(k: int, n: int, table: bytes):
    """(gamma, level_bits, carrier_bits, found) per attained level, found the
    carrier's maximal (point bitset, masks) pairs meeting the level, sorted."""
    memo, budget = {}, _budget()
    for gamma in sorted(set(table) - {0, UNDEFINED}):
        carrier = _bits_where(table, gamma, 256)
        level = _bits_where(table, gamma, gamma + 1)
        found = [(bits, masks) for bits, masks in _maximal(k, carrier, n, memo, budget) if bits & level]
        yield gamma, level, carrier, sorted(found, key=lambda f: f[1])


def reduced_dnf(func: KFunction | PartialKFunction) -> ReducedDnf:
    """Reduced DNF of a total or partially defined function; empty for the
    constant-0 function.  It takes each defined value on its set; undefined
    points are unconstrained."""
    k, n, levels = func.k, func.n, []
    for gamma, level, carrier, found in _levels(k, n, func.table):
        terms = tuple(ElementaryConjunction(Interval(k, masks), gamma) for _, masks in found)
        levels.append(LevelTerms(k, n, gamma, level, carrier, terms, tuple(bits for bits, _ in found)))
    return ReducedDnf(Dnf(k, n, (t for lt in levels for t in lt.terms)), tuple(levels))


reduced_dnf_partial = reduced_dnf  # alias kept for callers from before reduced_dnf took partial functions
