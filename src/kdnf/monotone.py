"""Partial orders on the alphabet, monotonicity checks, and class counting.

Two stock orders matter here: the chain 0 < 1 < ... < k-1, and the star
order in which 0 sits below every nonzero value while nonzero values are
pairwise incomparable.  Points compare coordinatewise; a function is
monotone when it preserves that comparison.  The check runs on level
bitsets over point indices, one big-int step per axis, cover pair and
value: k * n * |cover pairs| steps for any order, however many points.

For chain-monotone functions the reduced DNF has a rigid shape (every factor
an upper interval [a, k-1], one dead-end DNF, bottom corners as core points)
which chain_shape_report verifies constructively.  For the star-monotone
class the module evaluates the closed-form growth estimate for the class
size and counts small cases exactly by backtracking.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .core import CapacityError, KFunction, Point, _Record, check_alphabet, check_shape, decode_point, encode_point
from .minimize import _dead_end_covers
from .reduce import _bits_where, _repeat, reduced_dnf

COUNT_CAP = 10**8  # cap on k**(k**n), the candidate-table space of the counter


class ValueOrder(_Record):
    """Reflexive-transitive order on {0..k-1}; geq[i] is the bitmask of j <= i."""

    __slots__ = ("k", "geq")

    def __init__(self, k: int, geq: Iterable[int]) -> None:
        check_alphabet(k)
        geq = tuple(geq)
        if len(geq) != k:
            raise ValueError("relation size does not match the alphabet")
        for i in range(k):
            if not geq[i] >> i & 1:
                raise ValueError(f"order is not reflexive at {i}")
            for j in range(k):
                if i != j and geq[i] >> j & 1 and geq[j] >> i & 1:
                    raise ValueError(f"order is not antisymmetric on ({i}, {j})")
                if geq[i] >> j & 1 and geq[j] & ~geq[i]:
                    raise ValueError("order is not transitively closed")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "geq", geq)

    @classmethod
    def from_relations(cls, k: int, pairs: Iterable[tuple[int, int]]) -> "ValueOrder":
        """Build from (lower, upper) pairs; closure is taken, cycles rejected."""
        geq = [1 << i for i in range(k)]
        for low, high in pairs:
            if not (0 <= low < k and 0 <= high < k):
                raise ValueError(f"relation ({low}, {high}) outside the alphabet")
            geq[high] |= 1 << low
        for m in range(k):  # Warshall: whoever reaches m reaches what m does
            for i in range(k):
                if geq[i] >> m & 1:
                    geq[i] |= geq[m]
        return cls(k, geq)

    def leq(self, a: int, b: int) -> bool:
        """a <= b in this order."""
        return self.geq[b] >> a & 1 == 1

    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """(low, high) pairs with nothing strictly between, ascending."""
        k, geq = self.k, self.geq
        return tuple(
            (low, high) for low in range(k) for high in range(k)
            if low != high and geq[high] >> low & 1
            and not any(geq[high] >> m & 1 and geq[m] >> low & 1 for m in range(k) if m not in (low, high))
        )

    def point_leq(self, p: Point, q: Point) -> bool:
        """Coordinatewise comparison."""
        return all(self.leq(a, b) for a, b in zip(p, q))


def total_order(k: int) -> ValueOrder:
    """The chain 0 < 1 < ... < k-1."""
    return ValueOrder.from_relations(k, [(i, i + 1) for i in range(k - 1)])


def star_order(k: int) -> ValueOrder:
    """0 below every nonzero value; nonzero values pairwise incomparable."""
    return ValueOrder.from_relations(k, [(0, v) for v in range(1, k)])


def monotone_witness(f: KFunction, order: ValueOrder) -> tuple[Point, Point] | None:
    """A covering pair (p, q) with p <= q but f(p) not <= f(q), or None;
    p is the lowest such point index, q its first axis and cover pair.

    Only pairs differing in one coordinate by one covering step are checked;
    by transitivity that already decides monotonicity.  For axis j with
    stride s, cover pair (low, high) and value a, the violations are the
    points of value a with x_j = low whose neighbour (high - low) * s away
    lies outside the up-set of a.
    """
    if not isinstance(f, KFunction):
        raise ValueError("monotonicity needs a total function (KFunction)")
    if order.k != f.k:
        raise ValueError("order and function alphabet mismatch")
    k, n, table = f.k, f.n, f.table
    covers = order.cover_pairs()
    levels = [_bits_where(table, a, a + 1) for a in range(k)]
    ups = [sum(levels[b] for b in range(k) if order.leq(a, b)) for a in range(k)]
    strides = [k ** (n - 1 - j) for j in range(n)]
    bad = 0
    for s in strides:
        block = _repeat((1 << s) - 1, k * s, k**n // (k * s))  # the points with x_j = 0
        for low, high in covers:
            slab, d = block << low * s, (high - low) * s
            for level, up in zip(levels, ups):
                here = level & slab
                if here:
                    bad |= here & ~(up >> d if d > 0 else up << -d)
    if not bad:
        return None
    p = (bad & -bad).bit_length() - 1
    q = next(p + (high - low) * s for s in strides for low, high in covers
             if p // s % k == low and not order.leq(table[p], table[p + (high - low) * s]))
    return decode_point(p, k, n), decode_point(q, k, n)


def is_monotone(f: KFunction, order: ValueOrder) -> bool:
    return monotone_witness(f, order) is None


def _linear_extension(k: int, n: int, order: ValueOrder) -> list[int]:
    """Point indices sorted by total coordinate depth (the longest chain
    below each value), then by index."""
    depth = [0] * k
    covers = order.cover_pairs()
    for _ in range(k - 1):  # a longest chain has at most k - 1 steps
        for low, high in covers:
            depth[high] = max(depth[high], depth[low] + 1)
    sums = [0]
    for _ in range(n):
        sums = [t + d for t in sums for d in depth]
    return sorted(range(k**n), key=sums.__getitem__)


def iter_monotone_functions(n: int, k: int, order: ValueOrder) -> Iterator[KFunction]:
    """All functions monotone under the order, by backtracking.

    Points are assigned along a linear extension of the product order, so
    each new point only needs checking against its already-assigned covering
    predecessors.  Subject to the same cap as count_monotone_exact.
    """
    check_shape(k, n)
    if order.k != k:
        raise ValueError("order and function alphabet mismatch")
    if (k**n) * math.log2(k) > math.log2(COUNT_CAP):
        raise CapacityError(f"k**(k**n) exceeds the counting cap {COUNT_CAP}")
    ext = _linear_extension(k, n, order)
    covers = order.cover_pairs()
    strides = [k ** (n - 1 - j) for j in range(n)]
    preds = [[p - (high - low) * s for s in strides for low, high in covers if p // s % k == high] for p in ext]
    table = bytearray(k**n)

    def fill(i: int) -> Iterator[KFunction]:
        if i == len(ext):
            yield KFunction(k, n, table)
            return
        for v in range(k):
            if all(order.leq(table[q], v) for q in preds[i]):
                table[ext[i]] = v
                yield from fill(i + 1)

    return fill(0)


def count_monotone_exact(n: int, k: int, order: ValueOrder) -> int:
    """Exact number of monotone functions under the order; capped."""
    return sum(1 for _ in iter_monotone_functions(n, k, order))


class PsiEstimate(_Record):
    """Leading term of the star-monotone class-size estimate.

    log2_psi is the base-2 exponent of the estimated count:
    k**(n+1) / (sqrt(2*pi*(k-1)) * sqrt(n)).  The vanishing (1 + o(1))
    correction is dropped, so no finite-n accuracy is claimed.  d is the
    longest chain of nested value subsets between two singletons (2 for the
    star order), big_d the variance floor (k-1)/k**2 of the admissible
    one-dimensional drawings of the order.
    """

    __slots__ = ("n", "k", "log2_psi", "d", "big_d")


def psi_estimate(n: int, k: int) -> PsiEstimate:
    check_alphabet(k)
    if n < 1:
        raise ValueError(f"dimension n={n} must be >= 1")
    if (n + 1) * math.log2(k) >= 1024:  # k**(n+1) would not convert to a float
        raise CapacityError(f"log2(psi) for k={k}, n={n} passes the float range")
    log2_psi = k ** (n + 1) / (math.sqrt(2 * math.pi * (k - 1)) * math.sqrt(n))
    return PsiEstimate(n, k, log2_psi, 2, (k - 1) / k**2)


class ChainShapeReport(_Record):
    """Structure of the reduced DNF of a chain-monotone function.

    For such functions every factor must be an upper interval [a, k-1], the
    reduced DNF must be the one and only dead-end DNF, and each term's bottom
    corner is a core point: no other term of its level reaches it.
    """

    __slots__ = ("reduced", "factors_upper", "dead_end_count", "dead_end_equals_reduced", "core_points",
                 "cores_exclusive")


def _is_upper_interval(mask: int, k: int) -> bool:
    """True when the mask is [a, k-1], a its lowest value."""
    return (mask | (mask & -mask) - 1) == (1 << k) - 1


def chain_shape_report(f: KFunction) -> ChainShapeReport:
    """Verify the rigid reduced-DNF shape of a chain-monotone function."""
    if not is_monotone(f, total_order(f.k)):
        raise ValueError("function is not monotone under the chain order")
    pool = reduced_dnf(f)
    factors_upper = all(
        _is_upper_interval(fac, f.k)
        for t in pool.dnf.terms
        for fac in t.interval.factors
    )
    per_level, count = _dead_end_covers(f, pool, None)
    # a core is the lowest value of each factor; it is exclusive when it lies
    # in one term bitset of its level, the term's own
    cores, exclusive = [], True
    for lt in pool.levels:
        for t in lt.terms:
            core = tuple((fac & -fac).bit_length() - 1 for fac in t.interval.factors)
            cores.append(core)
            i = encode_point(core, f.k)
            exclusive = exclusive and sum(bits >> i & 1 for bits in lt.term_bits) == 1
    return ChainShapeReport(
        reduced=pool,
        factors_upper=factors_upper,
        dead_end_count=count,
        # a dead end takes distinct terms of the pool, so it is the pool when it is as long
        dead_end_equals_reduced=count == 1 and sum(len(covers[0]) for covers in per_level) == len(pool.dnf.terms),
        core_points=tuple(cores),
        cores_exclusive=exclusive,
    )
