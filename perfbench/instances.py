"""Seeded generators for the benchmark's function, DNF and term files.

Stdlib only, and independent of kdnf: the program under test receives only
the files written here.  A function is a `Table`, a dense value list in
mixed-radix point order with x1 most significant (the order kdnf uses), or,
for partial functions, a point -> value mapping.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

Point = tuple[int, ...]


@dataclass(frozen=True)
class Table:
    """A total function as a dense table, or a partial one as a mapping."""

    k: int
    n: int
    values: tuple[int, ...] | None = None  # total mode
    defined: tuple[tuple[Point, int], ...] | None = None  # partial mode

    @property
    def partial(self) -> bool:
        return self.defined is not None

    def points(self):
        return itertools.product(range(self.k), repeat=self.n)

    def text(self) -> str:
        """Function-file text: header, then one line per listed point."""
        if self.partial:
            body = sorted(self.defined)
            header = f"k={self.k} n={self.n} mode=partial"
        else:
            body = [(p, v) for p, v in zip(self.points(), self.values) if v]
            header = f"k={self.k} n={self.n} mode=total"
        lines = [header] + [f"{' '.join(map(str, p))} -> {v}" for p, v in body]
        return "\n".join(lines) + "\n"


def from_callable(k: int, n: int, fn) -> Table:
    return Table(k, n, values=tuple(fn(p) for p in itertools.product(range(k), repeat=n)))


def parity(n: int, odd: bool = True) -> Table:
    return from_callable(2, n, lambda p: (sum(p) + (0 if odd else 1)) % 2)


def constant(k: int, n: int, value: int = 1) -> Table:
    return Table(k, n, values=(value,) * k**n)


def random_total(rng: random.Random, k: int, n: int) -> Table:
    return Table(k, n, values=tuple(rng.randrange(k) for _ in range(k**n)))


def random_partial(rng: random.Random, k: int, n: int, undefined: float) -> Table:
    pts = list(itertools.product(range(k), repeat=n))
    chosen = rng.sample(pts, round(len(pts) * (1 - undefined)))
    return Table(k, n, defined=tuple((p, rng.randrange(k)) for p in chosen))


def chain_from_corners(k: int, n: int, corners) -> Table:
    """max over (corner, gamma) of gamma on the up-box above the corner:
    monotone under the chain order, one reduced term per useful corner."""
    return from_callable(
        k, n,
        lambda p: max((g for a, g in corners if all(x >= y for x, y in zip(p, a))), default=0),
    )


def star_closure(k: int, n: int, seeds) -> frozenset[Point]:
    """Close a point set upward in the star order: a zero coordinate may be
    raised to any nonzero value."""
    closed: set[Point] = set()
    stack = [tuple(p) for p in seeds]
    while stack:
        p = stack.pop()
        if p in closed:
            continue
        closed.add(p)
        for i, x in enumerate(p):
            if x == 0:
                stack.extend(p[:i] + (v,) + p[i + 1:] for v in range(1, k))
    return frozenset(closed)


def star_from_seeds(k: int, n: int, seeds, gamma: int = 1) -> Table:
    up = star_closure(k, n, seeds)
    return from_callable(k, n, lambda p: gamma if p in up else 0)


def relabel(t: Table, rng: random.Random, star: bool = False) -> Table:
    """Permute the variables, and for star-monotone tables also the nonzero
    values of each variable.  Both maps preserve the function class and the
    sizes of every kdnf stage's carriers, pools and outputs, so variants of
    one base do nearly the same work (their times differ by up to ~20%)."""
    perm = list(range(t.n))
    rng.shuffle(perm)
    vmaps = []
    for _ in range(t.n):
        nz = list(range(1, t.k))
        if star:
            rng.shuffle(nz)
        vmaps.append([0] + nz)
    pts = list(t.points())
    out = {}
    for p, v in zip(pts, t.values):
        q = tuple(vmaps[j][p[perm[j]]] for j in range(t.n))
        out[q] = v
    return Table(t.k, t.n, values=tuple(out[p] for p in pts))


def _monotone_tables(k: int, n: int, below) -> list[Table]:
    """Every table monotone under an order given by its covering relation
    `below[v]` (the values covered by v), by backtracking over points in
    lexicographic order: every covering predecessor of a point has a
    smaller index, so each new value is checked against assigned ones."""
    pts = list(itertools.product(range(k), repeat=n))
    index = {p: i for i, p in enumerate(pts)}
    preds = [
        [index[p[:j] + (low,) + p[j + 1:]] for j, x in enumerate(p) for low in below[x]]
        for p in pts
    ]
    leq = [[a == b or reaches(below, a, b) for b in range(k)] for a in range(k)]
    out: list[Table] = []
    vals = [0] * len(pts)

    def fill(i: int) -> None:
        if i == len(pts):
            out.append(Table(k, n, values=tuple(vals)))
            return
        for v in range(k):
            if all(leq[vals[j]][v] for j in preds[i]):
                vals[i] = v
                fill(i + 1)

    fill(0)
    return out


def reaches(below, a: int, b: int) -> bool:
    """a < b in the order whose covering relation is `below`."""
    return any(low == a or reaches(below, a, low) for low in below[b])


def chain_below(k: int):
    return [[]] + [[v - 1] for v in range(1, k)]


def star_below(k: int):
    return [[]] + [[0] for _ in range(1, k)]


def all_chain_monotone(k: int, n: int) -> list[Table]:
    return _monotone_tables(k, n, chain_below(k))


def all_star_monotone(k: int, n: int) -> list[Table]:
    return _monotone_tables(k, n, star_below(k))


@dataclass(frozen=True)
class Term:
    """A conjunction: one value set per variable and an output level."""

    factors: tuple[frozenset[int], ...]
    gamma: int

    def text(self, k: int) -> str:
        parts = [
            f"J{{{','.join(map(str, sorted(f)))}}}(x{j + 1})"
            for j, f in enumerate(self.factors)
            if len(f) < k
        ]
        return f"{'*'.join(parts) if parts else 'TRUE'}->{self.gamma}"


def dnf_text(k: int, n: int, terms) -> str:
    return f"k={k} n={n}\n" + "".join(t.text(k) + "\n" for t in terms) if terms else f"k={k} n={n}\n0\n"


def _zero_free_factor(rng: random.Random, k: int, full_prob: float) -> frozenset[int]:
    if rng.random() < full_prob:
        return frozenset(range(k))
    nz = list(range(1, k))
    return frozenset(rng.sample(nz, rng.randint(1, len(nz))))


def zero_free_dnf(rng: random.Random, k: int, n: int, size: int) -> list[Term]:
    """Same-level terms whose non-full factors avoid 0."""
    return [
        Term(tuple(_zero_free_factor(rng, k, 0.3) for _ in range(n)), 1)
        for _ in range(size)
    ]


def absorb_query(rng: random.Random, k: int, terms: list[Term], kind: int) -> Term:
    """A zero-free query term.  Kind 0 shrinks one DNF term (absorbed),
    kind 1 merges two terms on one variable (absorbed only when the pair
    covers it jointly), kind 2 is random (mostly not absorbed)."""
    n = len(terms[0].factors)
    if kind == 0:
        factors = tuple(_shrink(rng, f) for f in rng.choice(terms).factors)
    elif kind == 1:
        a, b = rng.sample(terms, 2)
        j = rng.randrange(n)
        factors = tuple(
            (fa | fb) if i == j else (fa & fb or fa)
            for i, (fa, fb) in enumerate(zip(a.factors, b.factors))
        )
    else:
        factors = tuple(_zero_free_factor(rng, k, 0.6) for _ in range(n))
    return _zero_free(Term(factors, 1), k)


def _shrink(rng: random.Random, f: frozenset[int]) -> frozenset[int]:
    vals = sorted(f)
    return frozenset(rng.sample(vals, rng.randint(1, len(vals))))


def _zero_free(t: Term, k: int) -> Term:
    """Force the zero-free shape: a non-full factor drops 0 (or becomes {1})."""
    fixed = []
    for f in t.factors:
        if len(f) == k or 0 not in f:
            fixed.append(f)
        else:
            fixed.append(f - {0} or frozenset({1}))
    return Term(tuple(fixed), t.gamma)
