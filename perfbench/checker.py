"""Independent answer checker for the benchmark.

Nothing here imports kdnf: outputs are parsed from their printed text and
judged against the generated tables with plain bitsets over mixed-radix
point indices (x1 most significant).  Every check returns None when the
answer is right and a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import re

from instances import Table, chain_below, star_below, reaches

_FACTOR_RE = re.compile(r"J\{(\d+(?:,\d+)*)\}\(x(\d+)\)$")

# exact monotone-function counts; ("star", 3, 2) is filled in by enumeration
KNOWN_COUNTS = {("total", 2, 3): 20, ("total", 2, 4): 168, ("total", 3, 2): 175, ("total", 4, 1): 35}


class BadOutput(Exception):
    pass


def parse_term(text: str, k: int, n: int) -> tuple[tuple[int, ...], int]:
    """(factor masks, gamma) of one printed term."""
    head, sep, gamma = text.strip().rpartition("->")
    if not sep or not gamma.isdigit() or not 1 <= int(gamma) < k:
        raise BadOutput(f"malformed term {text!r}")
    masks = [(1 << k) - 1] * n
    if head != "TRUE":
        for chunk in head.split("*"):
            m = _FACTOR_RE.match(chunk)
            if not m or not 1 <= int(m.group(2)) <= n:
                raise BadOutput(f"malformed factor {chunk!r}")
            mask = 0
            for v in m.group(1).split(","):
                if int(v) >= k:
                    raise BadOutput(f"value {v} >= k in {chunk!r}")
                mask |= 1 << int(v)
            masks[int(m.group(2)) - 1] = mask
    return tuple(masks), int(gamma)


def parse_dnf(lines: list[str], k: int, n: int) -> list[tuple[tuple[int, ...], int]]:
    if lines == ["0"]:
        return []
    return [parse_term(line, k, n) for line in lines]


class Lattice:
    """Bitset helpers for one (k, n) shape."""

    def __init__(self, k: int, n: int):
        self.k, self.n = k, n
        self.size = k**n

    def box(self, masks) -> int:
        """Bitset of the points of a product of value sets."""
        bits = 0
        axes = [[v for v in range(self.k) if m >> v & 1] for m in masks]
        for p in itertools.product(*axes):
            idx = 0
            for x in p:
                idx = idx * self.k + x
            bits |= 1 << idx
        return bits

    def where(self, values, pred) -> int:
        bits = 0
        for i, v in enumerate(values):
            if pred(v):
                bits |= 1 << i
        return bits


def _levels(t: Table):
    """(gamma, level-set bitset, carrier bitset) per nonzero value."""
    lat = Lattice(t.k, t.n)
    if t.partial:
        vals = [None] * lat.size
        for p, v in t.defined:
            idx = 0
            for x in p:
                idx = idx * t.k + x
            vals[idx] = v
        gammas = sorted({v for v in vals if v})
        return lat, vals, [
            (g, lat.where(vals, lambda v, g=g: v == g),
             lat.where(vals, lambda v, g=g: v is None or v >= g))
            for g in gammas
        ]
    vals = list(t.values)
    gammas = sorted(set(vals) - {0})
    return lat, vals, [
        (g, lat.where(vals, lambda v, g=g: v == g), lat.where(vals, lambda v, g=g: v >= g))
        for g in gammas
    ]


def _realizes(t: Table, lat: Lattice, vals, terms) -> str | None:
    got = [0] * lat.size
    for masks, g in terms:
        box = lat.box(masks)
        while box:
            low = box & -box
            i = low.bit_length() - 1
            if got[i] < g:
                got[i] = g
            box ^= low
    for i, v in enumerate(vals):
        if v is not None and got[i] != v:
            p = _point(i, t.k, t.n)
            return f"DNF gives {got[i]} at {p}, table has {v}"
    return None


def _point(i: int, k: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        i, x = divmod(i, k)
        out.append(x)
    return tuple(reversed(out))


def check_reduce(t: Table, out: str) -> str | None:
    """Pointwise equal on defined points; each term maximal in its level's
    carrier and meeting its level set."""
    try:
        terms = parse_dnf(out.splitlines(), t.k, t.n)
    except BadOutput as exc:
        return str(exc)
    lat, vals, levels = _levels(t)
    by_gamma = {g: (level, carrier) for g, level, carrier in levels}
    if len(set(terms)) != len(terms):
        return "duplicate term"
    for masks, g in terms:
        if g not in by_gamma:
            return f"term at unattained level {g}"
        level, carrier = by_gamma[g]
        box = lat.box(masks)
        if box & ~carrier:
            return f"term {masks}->{g} leaves its carrier"
        if not box & level:
            return f"term {masks}->{g} misses its level set"
        for j, m in enumerate(masks):
            for v in range(t.k):
                if not m >> v & 1:
                    slab = lat.box(masks[:j] + (1 << v,) + masks[j + 1:])
                    if not slab & ~carrier:
                        return f"term {masks}->{g} is not maximal: x{j + 1} can take {v}"
    return _realizes(t, lat, vals, terms)


def objective(terms, k: int, n: int, metric: str) -> int:
    if metric == "terms":
        return len(terms)
    return sum(k * n - sum(bin(m).count("1") for m in masks) for masks, _ in terms)


def check_minimize(t: Table, out: str, metric: str, ref: int | None) -> str | None:
    """Pointwise equal, printed objective equal to the DNF's, and equal to
    the reference objective when one is known."""
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("objective: "):
        return "missing objective line"
    try:
        terms = parse_dnf(lines[:-1], t.k, t.n)
        printed = int(lines[-1].split(": ", 1)[1])
    except (BadOutput, ValueError) as exc:
        return str(exc)
    lat, vals, _ = _levels(t)
    bad = _realizes(t, lat, vals, terms)
    if bad:
        return bad
    got = objective(terms, t.k, t.n, metric)
    if got != printed:
        return f"printed objective {printed} but the DNF scores {got}"
    if ref is not None and got != ref:
        return f"objective {got} differs from the reference {ref}"
    return None


def necessary_terms(t: Table, terms) -> list[bool]:
    """For each term: does dropping it break realization of the table?"""
    lat, vals, levels = _levels(t)
    level_of = {g: level for g, level, _ in levels}
    boxes = [lat.box(m) for m, _ in terms]
    out = []
    for i, (_, g) in enumerate(terms):
        others = 0
        for j, (_, g2) in enumerate(terms):
            if j != i and g2 == g:
                others |= boxes[j]
        out.append(bool(boxes[i] & level_of.get(g, 0) & ~others))
    return out


def check_deadend(t: Table, out: str) -> str | None:
    """Every listed DNF realizes the table and is irredundant."""
    lines = out.splitlines()
    if not lines or not lines[0].startswith("# dead-end dnfs: "):
        return "missing dead-end count"
    blocks: list[list[str]] = []
    for line in lines[1:]:
        if line.startswith("# "):
            blocks.append([])
        elif not blocks:
            return "term before the first block header"
        else:
            blocks[-1].append(line)
    if int(lines[0].rsplit(" ", 1)[1]) != len(blocks):
        return "dead-end count differs from the number of listed DNFs"
    lat, vals, _ = _levels(t)
    seen = set()
    for b in blocks:
        try:
            terms = parse_dnf(b, t.k, t.n)
        except BadOutput as exc:
            return str(exc)
        key = tuple(sorted(terms))
        if key in seen:
            return "a dead-end DNF is listed twice"
        seen.add(key)
        bad = _realizes(t, lat, vals, terms)
        if bad:
            return bad
        if not all(necessary_terms(t, terms)):
            return "a dead-end DNF has a redundant term"
    return None


def order_leq(order: str, k: int):
    below = chain_below(k) if order == "total" else star_below(k)
    return [[a == b or reaches(below, a, b) for b in range(k)] for a in range(k)]


def violations(t: Table, order: str):
    """Every pair p <= q with f(p) not <= f(q), by brute force over pairs."""
    leq = order_leq(order, t.k)
    pts = list(t.points())
    for (i, p), (j, q) in itertools.product(enumerate(pts), repeat=2):
        if all(leq[a][b] for a, b in zip(p, q)) and not leq[t.values[i]][t.values[j]]:
            yield p, q


def check_monotone(t: Table, order: str, out: str) -> str | None:
    lines = out.splitlines()
    bad = next(violations(t, order), None)
    if bad is None:
        return None if lines == ["monotone: yes"] else "monotone function reported as not monotone"
    if len(lines) != 3 or lines[0] != "monotone: no":
        return "non-monotone function reported as monotone"
    try:
        (p, fp), (q, fq) = (_witness(line, label) for line, label in zip(lines[1:], ("below", "above")))
    except (BadOutput, ValueError) as exc:
        return str(exc)
    idx = {pt: i for i, pt in enumerate(t.points())}
    if p not in idx or q not in idx or (t.values[idx[p]], t.values[idx[q]]) != (fp, fq):
        return "witness values differ from the table"
    if (p, q) not in set(violations(t, order)):
        return "witness pair is not a violation"
    return None


def _witness(line: str, label: str):
    head, _, value = line.partition(" -> ")
    if not head.startswith(label + ": "):
        raise BadOutput(f"expected a {label!r} witness line")
    return tuple(int(x) for x in head[len(label) + 2:].split()), int(value)


def star_count_k3n2() -> int:
    """Star-monotone functions at k=3 n=2, from all 3**9 tables."""
    pts = list(itertools.product(range(3), repeat=2))
    leq = order_leq("star", 3)
    pairs = [
        (i, j)
        for i, p in enumerate(pts)
        for j, q in enumerate(pts)
        if i != j and all(leq[a][b] for a, b in zip(p, q))
    ]
    return sum(
        all(leq[vals[i]][vals[j]] for i, j in pairs)
        for vals in itertools.product(range(3), repeat=9)
    )


def check_count(key: tuple[str, int, int], out: str, known: dict) -> str | None:
    want = known.get(key)
    if want is None:
        return f"no known count for {key}"
    return None if out == f"count: {want}\n" else f"expected count {want}, got {out.strip()!r}"


def first_unabsorbed(k: int, n: int, dnf_terms, query) -> tuple[int, ...] | None:
    """First point (index order) where the query exceeds the DNF."""
    lat = Lattice(k, n)
    qmasks, qg = query
    covered = 0
    for masks, g in dnf_terms:
        if g >= qg:
            covered |= lat.box(masks)
    left = lat.box(qmasks) & ~covered
    if not left:
        return None
    return _point((left & -left).bit_length() - 1, k, n)


def check_absorb(k: int, n: int, dnf_terms, query, out: str) -> str | None:
    witness = first_unabsorbed(k, n, dnf_terms, query)
    if witness is None:
        return None if out == "yes\n" else "absorbed query reported as not absorbed"
    want = f"no\nwitness: {' '.join(map(str, witness))}\n"
    return None if out == want else f"expected {want!r}, got {out!r}"


def check_absorbs_zero_free(k: int, n: int, dnf_terms, query, out: str) -> str | None:
    absorbed = first_unabsorbed(k, n, dnf_terms, query) is None
    return None if out == f"{absorbed}\n" else f"absorbs_zero_free said {out.strip()}, expected {absorbed}"


def chain_closed_form(t: Table) -> tuple[int, int]:
    """(terms, rank) of the reduced DNF of a chain-monotone function: one
    up-box per minimal point a of each carrier {f >= g} with f(a) = g, of
    rank sum(a)."""
    pts = list(t.points())
    count = rank = 0
    for g in sorted(set(t.values) - {0}):
        carrier = {p for p, v in zip(pts, t.values) if v >= g}
        for p, v in zip(pts, t.values):
            if v == g and not any(
                p[:j] + (x - 1,) + p[j + 1:] in carrier for j, x in enumerate(p) if x
            ):
                count += 1
                rank += sum(p)
    return count, rank


def closed_form(kind: str | None, t: Table) -> tuple[int, int] | None:
    """(terms, total rank) of the reduced DNF where a formula gives it.  For
    these families every reduced term is essential, so the reduced DNF is
    also the optimum under both metrics."""
    if kind == "parity":
        return 2 ** (t.n - 1), t.n * 2 ** (t.n - 1)
    if kind == "constant":
        return (1, 0) if t.values[0] else (0, 0)
    if kind == "chain":
        return chain_closed_form(t)
    return None


def check_chain_shape(t: Table, out: str) -> str | None:
    """A chain-monotone function's report: rigid shape, and a reduced DNF
    that is correct and as long as the closed form says."""
    lines = out.splitlines()
    want_flags = "factors_upper=True dead_end_count=1 dead_end_equals_reduced=True cores_exclusive=True"
    if not lines or lines[0] != want_flags:
        return f"report flags {lines[0] if lines else ''!r}, expected {want_flags!r}"
    bad = check_reduce(t, "\n".join(lines[1:]) + "\n")
    if bad:
        return bad
    if len(lines) - 1 != chain_closed_form(t)[0]:
        return "reduced DNF size differs from the closed form"
    return None
