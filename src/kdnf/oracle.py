"""Naive brute-force reference implementations for the test suite.

Nothing in the production paths imports this module; it exists so the fast
implementations can be checked against independently written exhaustive
searches.  Clarity over speed throughout, with hard caps instead of
heuristics.  Oracle results are authoritative: a disagreement is a bug in
the fast path.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .core import (
    CapacityError,
    Dnf,
    ElementaryConjunction,
    Interval,
    KFunction,
    all_points,
)
from .minimize import METRIC_RANK, METRIC_TERMS, MinimizationResult
from .reduce import CarrierSet

INTERVAL_CAP = 10**7   # candidate intervals enumerated by the maximal-interval oracle
POINT_CAP = 10**6      # lattice size enumerated by the absorption oracle
SUBSET_POOL_CAP = 20   # per-level candidate count for the minimization oracle


def oracle_maximal_intervals(carrier: CarrierSet) -> list[Interval]:
    """Try every interval: all tuples of nonempty value sets, keep the ones
    inside the carrier, drop any contained in another kept one."""
    k, n = carrier.k, carrier.n
    if (2**k - 1) ** n > INTERVAL_CAP:
        raise CapacityError("too many candidate intervals for the oracle")
    masks = range(1, 1 << k)
    points = carrier.points
    inside = []
    for combo in itertools.product(masks, repeat=n):
        iv = Interval(k, combo)
        if all(p in points for p in iv.points()):
            inside.append(iv)
    maximal = [
        iv
        for iv in inside
        if not any(other != iv and other.contains(iv) for other in inside)
    ]
    maximal.sort(key=lambda iv: iv.factors)
    return maximal


def oracle_absorbs(terms: Sequence[ElementaryConjunction] | Dnf, ec: ElementaryConjunction) -> bool:
    """Full pointwise comparison of the conjunction against the disjunction."""
    ts = tuple(terms.terms if isinstance(terms, Dnf) else terms)
    if ec.k ** ec.n > POINT_CAP:
        raise CapacityError("lattice too large for the absorption oracle")
    for t in ts:
        if t.k != ec.k or t.n != ec.n:
            raise ValueError("term and conjunction shape mismatch")
    for p in all_points(ec.k, ec.n):
        if ec.value_at(p) > max((t.value_at(p) for t in ts), default=0):
            return False
    return True


def oracle_minimize(f: KFunction, metric: str = METRIC_TERMS) -> MinimizationResult:
    """Exhaustive optimum: per level, try all subsets of the maximal intervals
    of the level carrier that meet the level set."""
    if metric not in (METRIC_TERMS, METRIC_RANK):
        raise ValueError(f"unknown metric {metric!r}")
    # level sets and carriers straight from the table
    values = sorted(set(f.table) - {0})
    chosen_terms: list[ElementaryConjunction] = []
    for gamma in values:
        level = [p for p in all_points(f.k, f.n) if f.value(p) == gamma]
        carrier = sum(1 << i for i, v in enumerate(f.table) if v >= gamma)
        pool = [
            ElementaryConjunction(iv, gamma)
            for iv in oracle_maximal_intervals(CarrierSet(f.k, f.n, carrier))
            if any(iv.contains_point(p) for p in level)
        ]
        if len(pool) > SUBSET_POOL_CAP:
            raise CapacityError("too many candidate terms for the minimization oracle")
        best_key = None
        best: tuple[ElementaryConjunction, ...] = ()
        for r in range(len(pool) + 1):
            for subset in itertools.combinations(pool, r):
                if not all(any(t.interval.contains_point(p) for t in subset) for p in level):
                    continue
                count = len(subset)
                rank = sum(t.rank for t in subset)
                primary, secondary = (count, rank) if metric == METRIC_TERMS else (rank, count)
                key = (primary, secondary, tuple(sorted(t.sort_key() for t in subset)))
                if best_key is None or key < best_key:
                    best_key, best = key, subset
        chosen_terms.extend(best)
    chosen_terms.sort(key=ElementaryConjunction.sort_key)
    dnf = Dnf(f.k, f.n, chosen_terms)
    objective = len(dnf.terms) if metric == METRIC_TERMS else dnf.total_rank()
    return MinimizationResult(dnf, metric, objective)


def oracle_is_monotone(f: KFunction, order) -> bool:
    """Definition-level check over every comparable pair of points."""
    pts = list(all_points(f.k, f.n))
    for p in pts:
        for q in pts:
            if order.point_leq(p, q) and not order.leq(f.value(p), f.value(q)):
                return False
    return True
