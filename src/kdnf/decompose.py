"""Level decomposition of a total function into quasi-Boolean slices.

A function splits into one slice per attained nonzero value: the slice for
gamma takes the value gamma on the level set {p : f(p) = gamma} and 0
elsewhere, and the function is the pointwise max of its slices.  The
"maximum" representation replaces each level set with its carrier, the union
of that level set and every higher one; carriers are nested downward and are
the regions in which the reduced-DNF intervals of each level must live.
"""

from __future__ import annotations

from .core import KFunction, Point, _Record
from .reduce import _bits_where, _points_of


class LevelDecomposition(_Record):
    """Per-level split: (gamma, level set) pairs in ascending gamma order."""

    __slots__ = ("k", "n", "levels")


class MaxRepresentation(_Record):
    """Carriers (gamma, union of this and all higher level sets), ascending."""

    __slots__ = ("k", "n", "carriers")


def decompose(f: KFunction) -> LevelDecomposition:
    """Split f into its quasi-Boolean level sets; unattained levels are omitted."""
    levels = tuple(
        (g, _points_of(_bits_where(f.table, g, g + 1), f.k, f.n)) for g in sorted(set(f.table) - {0})
    )
    return LevelDecomposition(f.k, f.n, levels)


def max_representation(d: LevelDecomposition) -> MaxRepresentation:
    """Carrier of each level = union of its own and all higher level sets."""
    carriers: list[tuple[int, frozenset[Point]]] = []
    acc: frozenset[Point] = frozenset()
    for g, pts in reversed(d.levels):
        acc = acc | pts
        carriers.append((g, acc))
    carriers.reverse()
    return MaxRepresentation(d.k, d.n, tuple(carriers))
