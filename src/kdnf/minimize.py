"""Absorption tests, dead-end DNF extraction, and exact DNF minimization.

Absorption: a DNF absorbs a conjunction when the conjunction never exceeds
the DNF, pointwise, that is when the terms of level >= gamma cover the
conjunction's interval; the general test compares the point bitsets.  For
conjunctions whose non-full factors avoid 0 (the shape produced by
star-monotone functions) there is an equivalent test done entirely inside
the conjunction's own support, see absorbs_zero_free.

Minimization: because a realizing subset of a realizing pool must cover each
level set with terms of exactly that level, subset search decomposes per
level into plain set-cover problems (the covering formulation of Coudert,
"On solving covering problems", DAC 1996).  Every set in them is a Python int
bitset over the lattice's point indices, the reduce stage's format: a term's
points come from its factor masks, and its cover set is that bitset ANDed
with the level set's.  Realization is one comparison per threshold: a DNF is
>= gamma exactly on the union of its terms of level >= gamma, so it equals f
when that union is {p : f(p) >= gamma} for every gamma in 1..k-1.
dead_end_dnfs enumerates every irredundant cover exhaustively; minimize_dnf
finds the exact optimum by branch and bound on an explicit stack.  Both
refuse with CapacityError instead of approximating.  The search lays the
cover sets out by holder count so that its branch point is a lowest set bit;
see _best_cover.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .core import (
    CapacityError,
    Dnf,
    ElementaryConjunction,
    KFunction,
    Point,
    decode_point,
)
from .reduce import ReducedDnf, _bits_where, _interval_bits, _set_bits, reduced_dnf

METRIC_TERMS = "terms"  # fewest conjunctions: the shortest DNF
METRIC_RANK = "rank"    # least total rank: the minimal DNF

SUBSET_CAP = 10**6  # visited subsets / search nodes before giving up


def absorbs(d: Dnf, ec: ElementaryConjunction) -> bool:
    """True when ec never exceeds d, pointwise."""
    return absorption_witness(d, ec) is None


def absorption_witness(d: Dnf, ec: ElementaryConjunction) -> Point | None:
    """First point (in index order) where ec exceeds d, or None.

    ec exceeds d exactly at the points of its interval that no term of level
    >= ec.gamma covers.
    """
    if ec.k != d.k or ec.n != d.n:
        raise ValueError("conjunction and DNF shape mismatch")
    reach = 0
    for t in d.terms:
        if t.gamma >= ec.gamma:
            reach |= _interval_bits(d.k, t.interval.mask_key())
    missing = _interval_bits(d.k, ec.interval.mask_key()) & ~reach
    return decode_point((missing & -missing).bit_length() - 1, d.k, d.n) if missing else None


def _is_zero_free(ec: ElementaryConjunction) -> bool:
    return all(0 not in f for f in ec.interval.factors if not f.is_full(ec.k))


def absorbs_zero_free(terms: Sequence[ElementaryConjunction], ec: ElementaryConjunction) -> bool:
    """Fast absorption test for zero-free shaped conjunctions of one level.

    Every term and ec must be zero-free shaped (non-full factors inside
    {1..k-1}) and share ec's level; the caller removes terms of other levels
    first.  The test never leaves ec's support: a point of ec's interval with
    zeros outside the support can only be covered by a term whose support
    lies inside ec's, and such a term then covers the whole fibre over its
    support.  So the disjunction absorbs ec exactly when the terms supported
    inside ec's support cover ec's factor combinations on that support.

    Equivalently: widening the support-contained terms' remaining factors to
    {1..k-1} covers every point whose support coordinates are nonzero.  Note
    that widening *all* terms unconditionally would overshoot: it is a valid
    necessary condition but not a sufficient one.
    """
    for t in terms:
        if t.k != ec.k or t.n != ec.n:
            raise ValueError("term and conjunction shape mismatch")
        if t.gamma != ec.gamma:
            raise ValueError("terms of a different level must be filtered out by the caller")
        if not _is_zero_free(t):
            raise ValueError("a term is not zero-free shaped")
    if not _is_zero_free(ec):
        raise ValueError("conjunction is not zero-free shaped")

    support = ec.support()
    pos = frozenset(support)
    relevant = [t for t in terms if set(t.support()) <= pos]
    axes = [ec.interval.factors[j].values() for j in support]
    for combo in itertools.product(*axes):
        if not any(
            all(x in t.interval.factors[j] for x, j in zip(combo, support))
            for t in relevant
        ):
            return False
    return True


@dataclass(frozen=True, slots=True)
class LevelCover:
    """Set-cover view of one level, every set an int bitset over the
    lattice's point indices: level_bits is the level set, covers[i] the part
    of it inside candidates[i], and a selection covers the level when the OR
    of its covers is level_bits.  universe decodes the level set only when
    it is read."""

    k: int
    n: int
    gamma: int
    level_bits: int = field(repr=False)
    candidates: tuple[ElementaryConjunction, ...]
    covers: tuple[int, ...] = field(repr=False)

    @property
    def universe(self) -> tuple[Point, ...]:
        return tuple(decode_point(p, self.k, self.n) for p in _set_bits(self.level_bits))


@dataclass(frozen=True, slots=True)
class CoverInstance:
    """Per-level covering problems extracted from a realizing pool."""

    k: int
    n: int
    levels: tuple[LevelCover, ...]


def cover_instance(f: KFunction, pool: ReducedDnf) -> CoverInstance:
    """Per-level cover problems over the terms of pool.dnf; error when they
    do not realize f (checked per threshold, see the module docstring).

    Once every threshold checks, the terms of level >= gamma cover the level
    set of gamma and those of level > gamma stay off it, so terms of exactly
    level gamma cover it: every cover problem is solvable.
    """
    if pool.k != f.k or pool.n != f.n:
        raise ValueError("pool and function shape mismatch")
    k, n = f.k, f.n
    by_level: list[list[tuple[ElementaryConjunction, int]]] = [[] for _ in range(k)]
    for t in pool.dnf.terms:
        by_level[t.gamma].append((t, _interval_bits(k, t.interval.mask_key())))
    reach = 0
    at_least = [0] * (k + 1)  # at_least[gamma]: bitset of {p : f(p) >= gamma}
    for gamma in range(k - 1, 0, -1):
        for _, bits in by_level[gamma]:
            reach |= bits
        at_least[gamma] = _bits_where(f.table, range(gamma, k))
        if reach != at_least[gamma]:
            raise ValueError("pool does not realize the function")
    levels = []
    for gamma in range(1, k):
        level = at_least[gamma] & ~at_least[gamma + 1]
        if level:
            terms, bits = zip(*by_level[gamma])
            levels.append(LevelCover(k, n, gamma, level, terms, tuple(b & level for b in bits)))
    return CoverInstance(k, n, tuple(levels))


def _subset_ors(covers: Sequence[int]) -> list[int]:
    """OR of the covers in every subset, indexed by the subset's bitmask."""
    table = [0]
    for c in covers:
        table += [x | c for x in table]
    return table


def _irredundant_covers(level: LevelCover, budget: list[int]) -> list[tuple[int, ...]]:
    """All irredundant covering candidate subsets of one level, exhaustively.

    The union of a subset is looked up in two tables of 2**(m/2) unions, one
    per half of the candidates, so only covering subsets cost more.
    """
    m = len(level.candidates)
    need = level.level_bits
    if 1 << m > budget[0]:
        raise CapacityError(f"level {level.gamma}: 2**{m} subsets exceed the enumeration cap")
    budget[0] -= 1 << m
    half = m // 2
    low, high = _subset_ors(level.covers[:half]), _subset_ors(level.covers[half:])
    out = []
    for mask in range(1 << m):
        if low[mask & (1 << half) - 1] | high[mask >> half] != need:
            continue
        chosen = [i for i in range(m) if mask >> i & 1]
        twice = once = 0
        for i in chosen:
            twice |= once & level.covers[i]
            once |= level.covers[i]
        # irredundant: every chosen term covers a point no other one covers
        if all(level.covers[i] & ~twice for i in chosen):
            out.append(tuple(chosen))
    return out


def dead_end_dnfs(f: KFunction, pool: ReducedDnf, cap: int = SUBSET_CAP) -> list[Dnf]:
    """Every subset of the pool that realizes f and loses realization when any
    single term is removed; exhaustive, canonically ordered.

    Raises CapacityError past the visited-subset cap instead of truncating.
    """
    inst = cover_instance(f, pool)
    budget = [cap]
    per_level = [_irredundant_covers(level, budget) for level in inst.levels]
    combos = math.prod(len(options) for options in per_level)
    if combos > cap:
        raise CapacityError(f"{combos} dead-end combinations exceed the cap {cap}")
    results = []
    for choice in itertools.product(*per_level):
        terms = [level.candidates[i] for level, chosen in zip(inst.levels, choice) for i in chosen]
        results.append(Dnf(f.k, f.n, tuple(sorted(terms, key=ElementaryConjunction.sort_key))))
    results.sort(key=lambda d: tuple(t.sort_key() for t in d.terms))
    return results


@dataclass(frozen=True, slots=True)
class MinimizationResult:
    dnf: Dnf
    metric: str
    objective_value: int


def _term_cost(t: ElementaryConjunction, metric: str) -> tuple[int, int]:
    return (1, t.rank) if metric == METRIC_TERMS else (t.rank, 1)


def _best_cover(level: LevelCover, metric: str, budget: list[int]) -> tuple[int, ...]:
    """Exact minimum-cost cover of one level by branch and bound.

    Cost order is lexicographic: primary objective, secondary objective, then
    the canonical term-key tuple, so the winner is deterministic.  The search
    runs in pre-order on an explicit stack, one budget unit per node, and
    branches on the first uncovered point in the order of (number of
    candidates covering it, index).  Holder counts are added bit-sliced into
    binary planes, which split the level into one mask per count; with the
    r-th smallest count's mask shifted r level widths up, the branch point is
    the lowest bit of the uncovered set.  Its holders are the AND over
    variables j of the masks of candidates whose factor j holds x_j.
    """
    keys = [t.sort_key() for t in level.candidates]
    costs = [_term_cost(t, metric) for t in level.candidates]
    planes: list[int] = []  # planes[j]: points whose holder count has bit j set
    for c in level.covers:
        for j, plane in enumerate(planes):
            if not c:
                break
            planes[j], c = plane ^ c, plane & c
        if c:
            planes.append(c)
    groups = [level.level_bits]  # split by count bits, high to low, so ascending
    for plane in reversed(planes):
        groups = [g for x in groups for g in (x & ~plane, x & plane) if g]
    width = level.level_bits.bit_length()
    *covers, need = (
        sum((c & g) << r * width for r, g in enumerate(groups))
        for c in (*level.covers, level.level_bits)
    )
    k, n = level.k, level.n
    masks = [t.interval.mask_key() for t in reversed(level.candidates)]
    # holds[j][x]: the candidates whose factor j holds x, highest first as a binary numeral
    holds = [[int("".join("01"[m[j] >> x & 1] for m in masks), 2) for x in range(k)] for j in range(n)]

    @functools.cache  # children of a branch bit, in reverse so the stack pops them in order
    def children(b: int) -> list:
        held, kids = -1, []
        for j, x in enumerate(decode_point(b % width, k, n)):
            held &= holds[j][x]
        while held:
            i = held.bit_length() - 1
            kids.append((i, need ^ covers[i], *costs[i]))  # need ^ cover: the points it misses
            held ^= 1 << i
        return kids

    best = (math.inf, math.inf, ())  # objectives and sorted term keys of the best cover
    bp, bs = best[:2]
    left = budget[0]
    stack = [(need, (), 0, 0)]  # uncovered, chosen, primary, secondary
    while stack:
        free, chosen, p, s = stack.pop()
        left -= 1
        if left < 0:
            budget[0] = left
            raise CapacityError("minimization search exceeded the node cap")
        if p > bp or (p == bp and s > bs):
            continue
        if not free:
            key = (p, s, tuple(sorted(keys[i] for i in chosen)))
            if key < best:
                best, bp, bs = key, p, s
            continue
        for i, rest, cp, cs in children((free & -free).bit_length() - 1):
            stack.append((free & rest, chosen + (i,), p + cp, s + cs))
    budget[0] = left
    chosen_keys = set(best[2])
    return tuple(i for i in range(len(level.candidates)) if keys[i] in chosen_keys)


def minimize_dnf(f: KFunction, metric: str = METRIC_TERMS) -> MinimizationResult:
    """Exact optimum over subsets of the reduced DNF's terms.

    Restricting to maximal intervals is lossless for both metrics: enlarging
    a factor only grows coverage and only lowers rank.
    """
    if metric not in (METRIC_TERMS, METRIC_RANK):
        raise ValueError(f"unknown metric {metric!r}")
    pool = reduced_dnf(f)
    inst = cover_instance(f, pool)
    budget = [SUBSET_CAP]
    terms = [level.candidates[i] for level in inst.levels for i in _best_cover(level, metric, budget)]
    terms.sort(key=ElementaryConjunction.sort_key)
    dnf = Dnf(f.k, f.n, tuple(terms))
    objective = len(dnf.terms) if metric == METRIC_TERMS else dnf.total_rank()
    return MinimizationResult(dnf, metric, objective)
