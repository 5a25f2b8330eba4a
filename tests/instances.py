"""Random instance generators used by the absorption and sweep tests, the
point-set side of carriers, and the pointwise reading of a DNF."""

import random

from kdnf import (
    CarrierSet,
    Dnf,
    ElementaryConjunction,
    KFunction,
    Point,
    all_points,
    maximal_intervals,
)
from kdnf.core import encode_point


def carrier_of(k: int, n: int, points) -> CarrierSet:
    """The carrier holding exactly these points, each a tuple of n values below k."""
    bits = 0
    for p in points:
        assert len(p) == n, f"point {p} is not on the {k}**{n} lattice"
        bits |= 1 << encode_point(p, k)
    return CarrierSet(k, n, bits)


def dnf_function(d: Dnf) -> KFunction:
    """The function d computes, from Dnf.value_at at every point: the
    definition, independent of the bitsets the fast paths use."""
    return KFunction(d.k, d.n, [d.value_at(p) for p in all_points(d.k, d.n)])


def canonical(d: Dnf) -> Dnf:
    """d with its terms sorted by (gamma, factor bitmask tuple), as print_dnf lists them."""
    return Dnf(d.k, d.n, sorted(d.terms, key=ElementaryConjunction.sort_key))


def without(d: Dnf, index: int) -> Dnf:
    """d with its term at index dropped."""
    return Dnf(d.k, d.n, d.terms[:index] + d.terms[index + 1 :])


def orthogonal(a: ElementaryConjunction, b: ElementaryConjunction) -> bool:
    """Whether two conjunctions' intervals are disjoint: on some variable their factors share no value."""
    return any(f & g == 0 for f, g in zip(a.interval.factors, b.interval.factors))


def points_in(bits: int, k: int, n: int) -> frozenset[Point]:
    """The points whose indices are set in bits."""
    return frozenset(p for i, p in enumerate(all_points(k, n)) if bits >> i & 1)


def nonzero_points(f: KFunction) -> frozenset[Point]:
    """The points where f is nonzero."""
    return frozenset(p for p, v in zip(all_points(f.k, f.n), f.table) if v)


def star_up_closure(k: int, n: int, seeds) -> frozenset[Point]:
    """Close a point set upward in the star product order: any zero
    coordinate may be raised to any nonzero value."""
    closed: set[Point] = set()
    stack = [tuple(p) for p in seeds]
    while stack:
        p = stack.pop()
        if p in closed:
            continue
        closed.add(p)
        for i, x in enumerate(p):
            if x == 0:
                stack.extend(p[:i] + (v,) + p[i + 1 :] for v in range(1, k))
    return frozenset(closed)


def random_star_function(rng: random.Random, k: int, n: int, gamma: int) -> KFunction:
    """A random function taking one nonzero value on a star-up-closed set."""
    pts = list(all_points(k, n))
    seeds = rng.sample(pts, rng.randint(1, max(1, len(pts) // 3)))
    support = star_up_closure(k, n, seeds)
    return KFunction.from_map(k, n, {p: gamma for p in support})


def star_absorption_instances(rng: random.Random, count: int):
    """(terms, ec) pairs: ec is one maximal term of a star-monotone
    quasi-Boolean function's reduced DNF, terms a subset of the others,
    pruned to the non-orthogonal ones as the absorption step requires.

    Mixes k in {3, 4} and n up to 4, keeping the candidate-interval space
    small enough for the brute-force side.
    """
    out = []
    while len(out) < count:
        k = rng.choice([3, 4])
        n = rng.randint(1, 4)
        if (2**k - 1) ** n > 4000:
            continue
        gamma = rng.randint(1, k - 1)
        f = random_star_function(rng, k, n, gamma)
        carrier = carrier_of(k, n, nonzero_points(f))
        pool = [
            ElementaryConjunction(iv, gamma) for iv in maximal_intervals(carrier)
        ]
        if len(pool) < 2:
            continue
        ec = rng.choice(pool)
        rest = [t for t in pool if t != ec]
        if rng.random() < 0.5:
            rest = rng.sample(rest, rng.randint(1, len(rest)))
        rest = [t for t in rest if not orthogonal(t, ec)]
        out.append((rest, ec))
    return out
