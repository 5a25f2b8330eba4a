"""Absorption tests, dead-end DNF extraction, and exact DNF minimization.

Absorption: a DNF absorbs a conjunction when the conjunction never exceeds
the DNF, pointwise.  The brute-force test enumerates the whole lattice.  For
conjunctions whose non-full factors avoid 0 (the shape produced by
star-monotone functions) there is a fast equivalent test done entirely
inside the conjunction's own support, see absorbs_zero_free.

Minimization: because a realizing subset of a realizing pool must cover each
level set with terms of exactly that level, subset search decomposes per
level into plain set-cover problems.  dead_end_dnfs enumerates every
irredundant cover exhaustively; minimize_dnf finds the exact optimum by
branch and bound.  Both refuse with CapacityError instead of approximating.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .core import (
    CapacityError,
    Dnf,
    ElementaryConjunction,
    Interval,
    KFunction,
    Point,
    ValueSet,
    all_points,
    functions_equal,
)
from .reduce import ReducedDnf, reduced_dnf

METRIC_TERMS = "terms"  # fewest conjunctions: the shortest DNF
METRIC_RANK = "rank"    # least total rank: the minimal DNF

SUBSET_CAP = 10**6  # visited subsets / search nodes before giving up


def absorbs(d: Dnf, ec: ElementaryConjunction) -> bool:
    """Pointwise test over the whole lattice: ec never exceeds d."""
    return absorption_witness(d, ec) is None


def absorption_witness(d: Dnf, ec: ElementaryConjunction) -> Point | None:
    """First point (in index order) where ec exceeds d, or None."""
    if ec.k != d.k or ec.n != d.n:
        raise ValueError("conjunction and DNF shape mismatch")
    for p in all_points(d.k, d.n):
        if ec.value_at(p) > d.value_at(p):
            return p
    return None


def _is_zero_free(ec: ElementaryConjunction) -> bool:
    return all(0 not in f for f in ec.interval.factors if not f.is_full(ec.k))


def widen_nonzero(ec: ElementaryConjunction) -> ElementaryConjunction:
    """Replace every non-full factor by the whole nonzero range {1..k-1}.

    Only defined for conjunctions whose non-full factors avoid 0; the result
    contains the input interval and has the same level.
    """
    if not _is_zero_free(ec):
        raise ValueError("a non-full factor contains 0; conjunction is not zero-free shaped")
    nonzero = ValueSet.from_iterable(range(1, ec.k))
    factors = tuple(f if f.is_full(ec.k) else nonzero for f in ec.interval.factors)
    return ElementaryConjunction(Interval(ec.k, factors), ec.gamma)


def points_nonzero_at(k: int, n: int, positions: Sequence[int]) -> Iterator[Point]:
    """Lattice points whose coordinates at the given positions are nonzero.

    With positions = range(t) this is the nonzero-prefix set used by the
    coverage form of the absorption criterion.
    """
    pos = frozenset(positions)
    axes = [range(1, k) if j in pos else range(k) for j in range(n)]
    return itertools.product(*axes)


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
    """Set-cover view of one level: points to cover and candidate terms."""

    gamma: int
    universe: tuple[Point, ...]
    candidates: tuple[ElementaryConjunction, ...]
    covers: tuple[frozenset[int], ...]  # universe indices covered per candidate


@dataclass(frozen=True, slots=True)
class CoverInstance:
    """Per-level covering problems extracted from a realizing pool."""

    k: int
    n: int
    levels: tuple[LevelCover, ...]


def cover_instance(f: KFunction, pool: ReducedDnf) -> CoverInstance:
    """Build the per-level cover problems; error when pool does not realize f."""
    if pool.k != f.k or pool.n != f.n:
        raise ValueError("pool and function shape mismatch")
    if not functions_equal(pool.dnf.as_function(), f):
        raise ValueError("pool does not realize the function")
    levels = []
    for lt in pool.levels:
        universe = tuple(sorted(lt.level_points))
        covers = tuple(
            frozenset(i for i, p in enumerate(universe) if t.interval.contains_point(p))
            for t in lt.terms
        )
        if frozenset().union(*covers, frozenset()) != frozenset(range(len(universe))):
            raise ValueError(f"level {lt.gamma} has uncovered points in the pool")
        levels.append(LevelCover(lt.gamma, universe, lt.terms, covers))
    return CoverInstance(f.k, f.n, tuple(levels))


def _irredundant_covers(level: LevelCover, budget: list[int]) -> list[tuple[int, ...]]:
    """All irredundant covering candidate subsets of one level, exhaustively."""
    m = len(level.candidates)
    need = frozenset(range(len(level.universe)))
    if 1 << m > budget[0]:
        raise CapacityError(f"level {level.gamma}: 2**{m} subsets exceed the enumeration cap")
    budget[0] -= 1 << m
    out = []
    for mask in range(1 << m):
        chosen = [i for i in range(m) if mask >> i & 1]
        covered = frozenset().union(*(level.covers[i] for i in chosen), frozenset())
        if covered != need:
            continue
        irredundant = all(
            not need <= frozenset().union(
                *(level.covers[j] for j in chosen if j != i), frozenset()
            )
            for i in chosen
        )
        if irredundant:
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
    combos = 1
    for options in per_level:
        combos *= len(options)
    if combos > cap:
        raise CapacityError(f"{combos} dead-end combinations exceed the cap {cap}")
    results = []
    for choice in itertools.product(*per_level):
        terms = [
            level.candidates[i]
            for level, chosen in zip(inst.levels, choice)
            for i in chosen
        ]
        terms.sort(key=ElementaryConjunction.sort_key)
        results.append(Dnf(f.k, f.n, tuple(terms)))
    results.sort(key=lambda d: tuple(t.sort_key() for t in d.terms))
    return results


@dataclass(frozen=True, slots=True)
class MinimizationResult:
    dnf: Dnf
    metric: str
    objective_value: int
    optimal: bool


def term_objectives(terms: Sequence[ElementaryConjunction], metric: str) -> tuple[int, int]:
    """(primary, secondary) objective pair for a term selection."""
    count = len(terms)
    rank = sum(t.rank for t in terms)
    if metric == METRIC_TERMS:
        return count, rank
    if metric == METRIC_RANK:
        return rank, count
    raise ValueError(f"unknown metric {metric!r}")


def _term_cost(t: ElementaryConjunction, metric: str) -> tuple[int, int]:
    return (1, t.rank) if metric == METRIC_TERMS else (t.rank, 1)


def _best_cover(level: LevelCover, metric: str, budget: list[int]) -> tuple[int, ...]:
    """Exact minimum-cost cover of one level by branch and bound.

    Cost order is lexicographic: primary objective, secondary objective, then
    the canonical term-key tuple, so the winner is deterministic.
    """
    points = range(len(level.universe))
    need = frozenset(points)
    keys = [t.sort_key() for t in level.candidates]
    costs = [_term_cost(t, metric) for t in level.candidates]
    # candidates covering each point, in index order, and the branch order
    holders = [[i for i, c in enumerate(level.covers) if u in c] for u in points]
    branch_key = [(len(h), u) for u, h in enumerate(holders)]
    best: list[tuple] = [()]
    found: list[bool] = [False]

    def solution_key(chosen: tuple[int, ...]) -> tuple:
        p, s = 0, 0
        for i in chosen:
            cp, cs = costs[i]
            p, s = p + cp, s + cs
        return (p, s, tuple(sorted(keys[i] for i in chosen)))

    def dfs(covered: frozenset[int], chosen: tuple[int, ...], p: int, s: int) -> None:
        budget[0] -= 1
        if budget[0] < 0:
            raise CapacityError("minimization search exceeded the node cap")
        if found[0]:
            bp, bs = best[0][0], best[0][1]
            if p > bp or (p == bp and s > bs):
                return
        if covered == need:
            key = solution_key(chosen)
            if not found[0] or key < best[0]:
                best[0], found[0] = key, True
            return
        # branch on the uncovered point with the fewest covering candidates
        target = min(need - covered, key=branch_key.__getitem__)
        for i in holders[target]:
            cp, cs = costs[i]
            dfs(covered | level.covers[i], chosen + (i,), p + cp, s + cs)

    dfs(frozenset(), (), 0, 0)
    chosen_keys = best[0][2]
    return tuple(i for i in range(len(level.candidates)) if keys[i] in set(chosen_keys))


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
    terms: list[ElementaryConjunction] = []
    for level in inst.levels:
        chosen = _best_cover(level, metric, budget)
        terms.extend(level.candidates[i] for i in chosen)
    terms.sort(key=ElementaryConjunction.sort_key)
    dnf = Dnf(f.k, f.n, tuple(terms))
    primary, _ = term_objectives(terms, metric)
    return MinimizationResult(dnf, metric, primary, True)


@dataclass(frozen=True, slots=True)
class RemoveStep:
    """Outcome of one removal step on the way to a dead-end DNF."""

    accepted: bool
    dnf: Dnf | None
    witness: Point | None


def remove_step(d: Dnf, index: int) -> RemoveStep:
    """Drop one term when the remaining ones absorb it; otherwise report a
    point where coverage would break."""
    if not 0 <= index < len(d.terms):
        raise ValueError(f"term index {index} out of range")
    rest = d.without(index)
    witness = absorption_witness(rest, d.terms[index])
    if witness is None:
        return RemoveStep(True, rest, None)
    return RemoveStep(False, None, witness)
