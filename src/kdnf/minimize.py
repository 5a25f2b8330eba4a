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
_dead_end_covers finds each level's irredundant covers, whose product is the
dead ends, and minimize_dnf the exact optimum; both start at _root, search
on an explicit stack and refuse with CapacityError instead of approximating.

The search follows Coudert: essential terms, row and column dominance down
to the cyclic core, and a lower bound from rows with disjoint holder sets.
A term is essential exactly when the rest of the reduced DNF does not absorb
it, the paper's absorption test.  Dominance drops a term only when another
one of smaller key does its work at no more cost, so the unique optimum
under the key tie-break survives; see _best_cover.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections.abc import Callable, Sequence

from .core import (
    MAX_TABLE,
    CapacityError,
    Dnf,
    ElementaryConjunction,
    KFunction,
    Point,
    _Budget,
    _fits_table,
    _Record,
    decode_point,
)
from .reduce import ReducedDnf, _bits_where, _interval_bits, _set_bits, reduced_dnf

METRIC_TERMS = "terms"  # fewest conjunctions: the shortest DNF
METRIC_RANK = "rank"    # least total rank: the minimal DNF

SUBSET_CAP = 10**6  # work units of one dead_end_dnfs or minimize_dnf call before giving up


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
            reach |= _interval_bits(d.k, t.interval.factors)
    missing = _interval_bits(d.k, ec.interval.factors) & ~reach
    return decode_point((missing & -missing).bit_length() - 1, d.k, d.n) if missing else None


def _is_zero_free(ec: ElementaryConjunction) -> bool:
    full = (1 << ec.k) - 1
    return all(f == full or not f & 1 for f in ec.interval.factors)


def absorbs_zero_free(terms: Sequence[ElementaryConjunction], ec: ElementaryConjunction) -> bool:
    """Fast absorption test for zero-free shaped conjunctions of one level.

    Every term and ec must be zero-free shaped (non-full factors inside
    {1..k-1}) and share ec's level; the caller removes terms of other levels
    first.  The test never leaves ec's support: a point of ec's interval with
    zeros outside the support can only be covered by a term whose support
    lies inside ec's, and such a term then covers the whole fibre over its
    support.  So the disjunction absorbs ec exactly when the terms supported
    inside ec's support cover ec's factor combinations on that support: on
    bitsets over the support's sub-lattice (capped like a dense table), the OR
    of those terms' projections holds ec's projection.

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

    k, support = ec.k, ec.support()
    if not _fits_table(k, len(support)):
        raise CapacityError(f"support sub-lattice {k}**{len(support)} exceeds the dense-table cap {MAX_TABLE}")
    inside = set(support)
    reach = 0  # points of the support sub-lattice that support-contained terms cover
    for t in terms:
        if inside.issuperset(t.support()):
            reach |= _interval_bits(k, tuple(t.interval.factors[j] for j in support))
    return not _interval_bits(k, tuple(ec.interval.factors[j] for j in support)) & ~reach


class LevelCover(_Record):
    """Set-cover view of one level, every set an int bitset over the
    lattice's point indices: level_bits is the level set, covers[i] the part
    of it inside candidates[i], and a selection covers the level when the OR
    of its covers is level_bits.  universe decodes the level set only when
    it is read."""

    __slots__ = ("k", "n", "gamma", "level_bits", "candidates", "covers")
    _shown = ("k", "n", "gamma", "candidates")

    @property
    def universe(self) -> tuple[Point, ...]:
        return tuple(decode_point(p, self.k, self.n) for p in _set_bits(self.level_bits))


class CoverInstance(_Record):
    """Per-level covering problems extracted from a realizing pool."""

    __slots__ = ("k", "n", "levels")


def _check_total(f: KFunction) -> None:
    if not isinstance(f, KFunction):
        raise ValueError("covering needs a total function (KFunction)")


def cover_instance(f: KFunction, pool: ReducedDnf) -> CoverInstance:
    """Per-level cover problems over the terms of pool.dnf; error when they
    do not realize f (checked per threshold, see the module docstring).

    Once every threshold checks, the terms of level >= gamma cover the level
    set of gamma and those of level > gamma stay off it, so terms of exactly
    level gamma cover it: every cover problem is solvable.
    """
    _check_total(f)
    if pool.k != f.k or pool.n != f.n:
        raise ValueError("pool and function shape mismatch")
    k, n = f.k, f.n
    # the reduce stage's bitsets, by identity: a pool's DNF holds the very
    # term objects of its levels, and hashing a term hashes every factor; a
    # term that no level holds gets its bitset computed
    known = {id(t): bits for lt in pool.levels for t, bits in zip(lt.terms, lt.term_bits)}
    by_level: list[list[tuple[ElementaryConjunction, int]]] = [[] for _ in range(k)]
    for t in pool.dnf.terms:
        bits = known.get(id(t))
        by_level[t.gamma].append((t, _interval_bits(k, t.interval.factors) if bits is None else bits))
    reach = 0
    at_least = [0] * (k + 1)  # at_least[gamma]: bitset of {p : f(p) >= gamma}
    for gamma in range(k - 1, 0, -1):
        for _, bits in by_level[gamma]:
            reach |= bits
        at_least[gamma] = _bits_where(f.table, gamma, k)
        if reach != at_least[gamma]:
            raise ValueError("pool does not realize the function")
    levels = []
    for gamma in range(1, k):
        level = at_least[gamma] & ~at_least[gamma + 1]
        if level:
            terms, bits = zip(*by_level[gamma])
            levels.append(LevelCover(k, n, gamma, level, terms, tuple(b & level for b in bits)))
    return CoverInstance(k, n, tuple(levels))


def _index(rows: Sequence[int], m: int) -> list[int]:
    """cols[c] for each of m columns: the positions in rows of the rows holding c."""
    cols = [0] * m
    for r, h in enumerate(rows):
        for c in _set_bits(h):
            cols[c] |= 1 << r
    return cols


def _root(level: LevelCover, terms: Sequence, covers: Sequence, spend: Callable[[int], None]) -> tuple[int, list]:
    """The essential columns of a level, holders of one-holder points (planes[0]
    minus the higher planes of bit-sliced holder counts), and its rows: the
    distinct holder sets of the points they leave.  Column c is terms[c],
    covering covers[c].  Charges one unit, plus one per point left."""
    spend(1)
    planes: list[int] = []  # planes[j]: points whose holder count has bit j set
    for c in covers:
        for j, plane in enumerate(planes):
            if not c:
                break
            planes[j], c = plane ^ c, plane & c
        if c:
            planes.append(c)
    once = planes[0] & ~functools.reduce(operator.or_, planes[1:], 0)
    taken = sum(1 << c for c, cover in enumerate(covers) if cover & once)
    free = level.level_bits & ~functools.reduce(operator.or_, (covers[c] for c in _set_bits(taken)), 0)
    if not free:
        return taken, []
    spend(free.bit_count())
    k, n = level.k, level.n
    masks = [t.interval.factors for t in reversed(terms)]
    # holds[j][x]: the columns whose factor j holds x, highest first as a binary
    # numeral; a point's holders are the AND over j of holds[j][x_j]
    holds = [[int("".join("01"[mk[j] >> x & 1] for mk in masks), 2) for x in range(k)] for j in range(n)]
    held = (map(list.__getitem__, holds, decode_point(b, k, n)) for b in _set_bits(free))
    return taken, list({functools.reduce(operator.and_, h) for h in held})


def _dead_end_covers(f: KFunction, pool: ReducedDnf, limit: int | None) -> tuple[list, int]:
    """Each level's irredundant covers, sorted, and the size of their product,
    whose tuples are the dead ends' terms in canonical order (dead_end_dnfs).

    A level's irredundant cover is its essential columns (see _root) and a
    minimal transversal of the rows they leave.  An essential column holds a
    point alone, so it is in every cover and keeps that point.  Any other
    chosen column needs a point that no other chosen column covers, and no
    essential: a row with it as its only chosen column.  A column in no row
    is in no dead end.  The transversals come from MMCS (Murakami and Uno,
    "Efficient algorithms for dualizing large-scale hypergraphs", Discrete
    Appl. Math. 2014): a node branches on its uncovered row with the fewest
    candidates, each later sibling takes the earlier ones' columns back, and
    a child lives only if each earlier choice keeps a private row.
    SUBSET_CAP bounds the call in work units: _root's, one per node, per row
    a node scans and per column it branches on, and one per term of each DNF
    of the product, before any is built (a level's own share as its covers
    are found, so refusals come early); under a limit below its size, the
    rest only up to the terms of its first limit DNFs, never more than without.
    """
    inst = cover_instance(f, pool)
    budget = _Budget(SUBSET_CAP, "")
    per_level = []  # each level's irredundant covers, as lists of terms
    for level in inst.levels:
        budget.message = f"level {level.gamma}: dead-end enumeration exceeded the work cap {SUBSET_CAP}"
        taken, rows = _root(level, level.candidates, level.covers, budget.spend)
        cols = _index(rows, len(level.candidates))
        found = []
        # chosen and candidate columns, uncovered rows, rows the chosen cover once
        stack = [(0, functools.reduce(operator.or_, rows, 0), (1 << len(rows)) - 1, 0)]
        while stack:
            chosen, cand, free, once = stack.pop()
            budget.spend(1)
            if not free:
                found.append(taken | chosen)
                budget.spend(found[-1].bit_count())  # its terms, paid ahead of the product
                continue
            branch = min((rows[r] & cand for r in _set_bits(free)), key=int.bit_count)
            budget.spend(free.bit_count() + branch.bit_count())
            cand &= ~branch
            for c in _set_bits(branch):
                lost = once & cols[c]  # private rows of earlier choices that c covers too
                alone = once ^ lost | free & cols[c]
                while lost and cols[(rows[(lost & -lost).bit_length() - 1] & chosen).bit_length() - 1] & alone:
                    lost &= lost - 1  # that row's owner keeps another one
                if not lost:
                    stack.append((chosen | 1 << c, cand, free & ~cols[c], alone))
                cand |= 1 << c
        # a level's irredundant covers never contain one another, so no cover's key list is a
        # prefix of another's: sorted by key, the product over the levels is in canonical order
        key = ElementaryConjunction.sort_key
        covers = [sorted([level.candidates[i] for i in _set_bits(c)], key=key) for c in found]
        per_level.append(sorted(covers, key=lambda terms: list(map(key, terms))))
    combos = math.prod(map(len, per_level))
    # each of a level's covers is in combos // len(covers) DNFs, one of them paid for
    terms = sum(combos // len(covers) * sum(map(len, covers)) for covers in per_level)
    budget.message = f"{combos} dead-end DNFs of {terms} terms in all exceed the cap {SUBSET_CAP}"
    if limit is not None and limit < combos:
        terms = sum(len(cover) for choice in itertools.islice(itertools.product(*per_level), limit) for cover in choice)
    budget.spend(max(terms - sum(len(cover) for covers in per_level for cover in covers), 0))
    return per_level, combos


def dead_end_dnfs(f: KFunction, pool: ReducedDnf) -> list[Dnf]:
    """Every subset of the pool that realizes f and loses realization when any
    single term is removed, canonically ordered; see _dead_end_covers."""
    per_level, _ = _dead_end_covers(f, pool, None)
    return [Dnf(f.k, f.n, itertools.chain(*choice)) for choice in itertools.product(*per_level)]


class MinimizationResult(_Record):
    __slots__ = ("dnf", "metric", "objective_value")


def _term_cost(t: ElementaryConjunction, metric: str) -> tuple[int, int]:
    return (1, t.rank) if metric == METRIC_TERMS else (t.rank, 1)


def _best_cover(level: LevelCover, metric: str, budget: _Budget) -> tuple[int, ...]:
    """Exact minimum-cost cover of one level by branch and bound.

    Cost order is lexicographic: primary objective, secondary objective, then
    the sorted tuple of the chosen terms' canonical keys, so the optimum is
    unique.  Each column's (primary, secondary) pair is folded into one int
    cost, w * primary + secondary, with w one above the sum of the level's
    secondaries.  The fold is exact: one objective is 1 on every column (see
    _term_cost), so a column costs no more than another on both objectives
    exactly when it costs no more; and every sum the search compares is over
    distinct columns (the chosen ones, one per bound row, the one under
    test), so its secondary part stays below w.  Columns (candidates) are
    numbered by descending key, and a cover is an int bitset of columns.  Two
    covers of equal cost have equally many terms (one objective counts them),
    and of two sorted key tuples of equal length the smaller holds the least
    key of the symmetric difference; so the better cover is the larger int.

    Each step below keeps the optimum:

    - _root takes the essential columns, the holders of points with one
      holder, and the rows.  A row holding another row's holders is covered
      whenever that one is, so it is dropped.
    - Column i is dropped when an allowed column j covers all of its rows,
      costs no more, and has a smaller key (j > i).  In a cover holding i, j
      in place of i (or no i at all, when j is already there) still covers
      and costs no more; at equal cost the cover gains bit j and loses the
      lower bit i, so it is the larger int.  The optimum never holds i.

    At the root the three repeat until nothing changes (the cyclic core).
    The search runs in pre-order on an explicit stack whose entries hold the
    uncovered rows, the allowed and the chosen columns as ints, and the
    chosen cost, so nothing is copied per child.  Each node takes its
    essential columns, then bounds its completions below: rows with pairwise
    disjoint holder sets, picked greedily (those meeting the fewest other
    rows first) need distinct columns, so each adds its cheapest holder's
    cost.  A column meets at most one of those rows, so swapping its row's
    charge for its own cost bounds every completion that takes it; columns
    bounded strictly above the best cover, and the dominated ones, are
    barred, which may make new essentials.  Pruning needs a bound strictly
    above the best cover's cost, so ties still reach the key comparison; at
    a tie, a completion takes one cheapest holder per bound row and nothing
    else, so the node is pruned when even the highest such columns do not
    beat the best cover.  The node then branches on the row with the fewest
    holders, each later sibling barring the earlier ones' columns.

    The budget counts work units: one per node, plus one per row and per
    (row, holder) pair each pass over a node's rows touches, plus at the
    root one per uncovered point and per (row, holder) pair of each
    reduction pass.  With m candidates every charge is multiplied by
    1 + m // 1024, as every int operation on a set of columns costs that
    much more.  A level its essentials cover costs one charge.
    """
    # column c is the term of the c-th largest key, so that at equal cost the
    # cover of the smaller sorted key tuple is the larger int bitset
    order = sorted(range(len(level.candidates)), key=lambda i: level.candidates[i].sort_key(), reverse=True)
    terms = [level.candidates[i] for i in order]
    covers = [level.covers[i] for i in order]
    pairs = [_term_cost(t, metric) for t in terms]
    w = 1 + sum(s for _, s in pairs)
    cost = [w * p + s for p, s in pairs]
    wide = 1 + len(terms) // 1024  # units per charge, see the docstring

    def indices(columns: int) -> tuple[int, ...]:
        return tuple(sorted(order[c] for c in _set_bits(columns)))

    taken, rows = _root(level, terms, covers, lambda units: budget.spend(units * wide))
    if not rows:
        return indices(taken)

    # columns by cost, as bitsets: at_cost[t] the columns costing costs[t]
    # (ascending), dearer[t] those costing costs[t] or more, and cheaper[v]
    # those costing v or less
    costs = sorted(set(cost))
    at_cost = [sum(1 << c for c, x in enumerate(cost) if x == v) for v in costs]
    dearer = list(itertools.accumulate(reversed(at_cost), operator.or_, initial=0))[::-1]
    cheaper = dict(zip(costs, itertools.accumulate(at_cost, operator.or_)))

    def dominated(columns: int, rows: int, allowed: int) -> int:
        """The columns that an allowed column of smaller key dominates on the
        rows: it covers all of them there and costs no more."""
        out = 0
        for i in _set_bits(columns):
            over = allowed  # the allowed columns covering every row that i covers
            x = cols[i] & rows
            while x:
                low = x & -x
                x ^= low
                over &= kept[low.bit_length() - 1]
            if (over & cheaper[cost[i]]) >> i + 1:
                out |= 1 << i
        return out

    alive = functools.reduce(operator.or_, rows)
    while True:  # reduce to the cyclic core
        budget.spend(sum(map(int.bit_count, rows)) * wide)
        single = functools.reduce(operator.or_, (h for h in rows if not h & h - 1), 0)
        if single:
            taken |= single
            rows = {h for h in rows if not h & single}
            alive &= ~single
            continue
        # a row's strict supersets are the other rows holding each of its columns
        ordered = sorted(rows, key=int.bit_count)
        cols = _index(ordered, len(terms))
        supersets = 0
        for r, h in enumerate(ordered):
            supersets |= functools.reduce(operator.and_, (cols[c] for c in _set_bits(h))) & ~(1 << r)
        kept = [h for r, h in enumerate(ordered) if not supersets >> r & 1]  # fewest holders first
        cols = _index(kept, len(terms))
        every = (1 << len(kept)) - 1
        idle = sum(1 << c for c in _set_bits(alive) if not cols[c])
        drop = idle | dominated(alive & ~idle, every, alive)
        if not drop and not supersets:
            break
        alive &= ~drop
        rows = {h & alive for h in kept}
    if not rows:
        return indices(taken)

    def met(h: int, free: int) -> int:
        """How many free rows the columns of h cover between them."""
        near = 0
        while h:
            low = h & -h
            h ^= low
            near |= cols[low.bit_length() - 1]
        return (near & free).bit_count()

    least = math.inf  # cost of the best cover found
    best = 0  # its columns
    # uncovered rows, allowed and chosen columns, and the chosen ones' cost
    stack = [(every, alive, taken, sum(cost[c] for c in _set_bits(taken)))]
    while stack:
        free, allowed, chosen, spent = stack.pop()
        budget.spend(wide)
        while True:  # again after taking essential columns or excluding columns
            if spent > least:
                break
            budget.spend(free.bit_count() * wide)
            ess = reach = 0
            held = []
            x = free
            while x:
                low = x & -x
                x ^= low
                h = kept[low.bit_length() - 1] & allowed
                if not h:
                    break  # a row no allowed column covers: a dead end
                reach |= h
                if not h & h - 1:
                    ess |= h
                held.append(h)
            else:
                if ess:
                    for c in _set_bits(ess):
                        free &= ~cols[c]
                        spent += cost[c]
                    chosen |= ess
                    continue
                if not free:
                    if spent < least or chosen > best:
                        least, best = spent, chosen
                    break
                budget.spend(sum(map(int.bit_count, held)) * wide)
                degree = {h: met(h, free) for h in held}
                # branch on a row with the fewest holders, the most constrained
                # of them; bound with the rows meeting the fewest others first
                branch = min(held, key=lambda h: (h.bit_count(), -degree[h]))
                held.sort(key=lambda h: (degree[h], h.bit_count()))
                used = bound = top = 0
                charged = []  # the bound's rows with their charges
                for h in held:
                    if not h & used:  # disjoint from the bound's rows so far
                        used |= h
                        t = next(t for t, bits in enumerate(at_cost) if h & bits)
                        bound += costs[t]
                        charged.append((h, costs[t]))
                        top |= 1 << (h & at_cost[t]).bit_length() - 1
                bound += spent
                if bound > least:
                    break
                # a cover of the bound's cost takes one cheapest column per
                # bound row and nothing else, so its bitset is at most top
                if bound == least and chosen | top <= best:
                    break
                # a column meets at most one bound row, so taking it costs at
                # least the bound with that row's charge replaced by its own
                slack = least - bound
                barred = reach & ~used & dearer[bisect.bisect_right(costs, slack)]
                for h, charge in charged:
                    barred |= h & dearer[bisect.bisect_right(costs, slack + charge)]
                barred |= dominated(reach & ~barred, free, allowed & ~barred)
                if barred:
                    allowed &= ~barred
                    continue
                # the column covering the most free rows first, then the smaller key
                kids = sorted(_set_bits(branch), key=lambda c: (-(cols[c] & free).bit_count(), -c))
                barred = branch
                for c in reversed(kids):  # pushed last first, so popped in order
                    barred ^= 1 << c
                    stack.append((free & ~cols[c], allowed & ~barred, chosen | 1 << c, spent + cost[c]))
            break
    return indices(best)


def minimize_dnf(f: KFunction, metric: str = METRIC_TERMS) -> MinimizationResult:
    """Exact optimum over subsets of the reduced DNF's terms.

    Restricting to maximal intervals is lossless for both metrics: enlarging
    a factor only grows coverage and only lowers rank.
    """
    if metric not in (METRIC_TERMS, METRIC_RANK):
        raise ValueError(f"unknown metric {metric!r}")
    _check_total(f)  # before the reduce, which would take a partial function
    pool = reduced_dnf(f)
    inst = cover_instance(f, pool)
    budget = _Budget(SUBSET_CAP, "minimization search exceeded the node cap")
    terms = [level.candidates[i] for level in inst.levels for i in _best_cover(level, metric, budget)]
    terms.sort(key=ElementaryConjunction.sort_key)
    dnf = Dnf(f.k, f.n, terms)
    objective = len(dnf.terms) if metric == METRIC_TERMS else dnf.total_rank()
    return MinimizationResult(dnf, metric, objective)
