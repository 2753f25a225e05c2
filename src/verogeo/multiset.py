"""Degree-k multisets over a finite index set.

A multiset of degree k over points {0..n-1} is a function f: points -> N
with total multiplicity k.  Multisets are the point type of every Veronese
space built by this package, so the representation is canonical (sorted
run-length pairs) and hashable: structural equality is multiset equality.

Points are dense nonnegative integer indices; any richer labelling lives
in the owning geometry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Multiset:
    """Canonical multiset: strictly increasing (point, multiplicity) pairs.

    Invariants: multiplicities are positive, pairs sorted strictly by
    point index, degree == sum of multiplicities.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = -1
        for point, mult in self.entries:
            if point <= last:
                raise ValueError(f"entries not strictly increasing: {self.entries}")
            if mult <= 0:
                raise ValueError(f"nonpositive multiplicity: {self.entries}")
            if point < 0:
                raise ValueError(f"negative point index: {self.entries}")
            last = point

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.entries)

    def support(self) -> frozenset[int]:
        return frozenset(q for q, _ in self.entries)

    def expansion(self) -> tuple[int, ...]:
        """Sorted tuple listing each point with its multiplicity."""
        return tuple(q for q, m in self.entries for _ in range(m))

    def sort_key(self) -> tuple:
        return (self.degree, self.expansion())

    def __add__(self, other: "Multiset") -> "Multiset":
        counts: dict[int, int] = {}
        for q, m in self.entries:
            counts[q] = counts.get(q, 0) + m
        for q, m in other.entries:
            counts[q] = counts.get(q, 0) + m
        return Multiset(tuple(sorted(counts.items())))

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        return " + ".join(f"{m}*{q}" if m > 1 else str(q) for q, m in self.entries)

    def to_pairs(self) -> list[list[int]]:
        """JSON form: sorted list of [point, multiplicity] pairs."""
        return [[q, m] for q, m in self.entries]

    @staticmethod
    def from_pairs(pairs: Iterable[Iterable[int]]) -> "Multiset":
        counts: dict[int, int] = {}
        for q, m in pairs:
            counts[q] = counts.get(q, 0) + m
        return Multiset(tuple(sorted((q, m) for q, m in counts.items() if m)))

    @staticmethod
    def from_expansion(points: Iterable[int]) -> "Multiset":
        """Parse any ordering of a multiset expansion to canonical form."""
        counts: dict[int, int] = {}
        for q in points:
            counts[q] = counts.get(q, 0) + 1
        return Multiset(tuple(sorted(counts.items())))


EMPTY = Multiset(())


def scale_point(r: int, point: int) -> Multiset:
    """The multiset r*x with the single entry (x, r); requires r >= 1."""
    if r < 1:
        raise ValueError(f"multiplicity must be positive, got {r}")
    return Multiset(((point, r),))


def scale(f: Multiset, r: int) -> Multiset:
    """Multiply every multiplicity by r >= 1."""
    if r < 1:
        raise ValueError(f"scale factor must be positive, got {r}")
    return Multiset(tuple((q, r * m) for q, m in f.entries))


def enumerate_multisets(n: int, k: int) -> list[Multiset]:
    """All degree-k multisets over {0..n-1}.

    Ordered lexicographically by sorted expansion, which is the order
    produced by itertools.combinations_with_replacement; length is
    C(n+k-1, k).  All downstream reports inherit this order.
    """
    if n < 0:
        raise ValueError(f"negative universe size {n}")
    if n == 0:
        if k == 0:
            return [EMPTY]
        raise ValueError(f"empty universe cannot carry degree {k} multisets")
    return [
        Multiset.from_expansion(combo)
        for combo in itertools.combinations_with_replacement(range(n), k)
    ]


def enumerate_lower_multisets(n: int, k: int) -> list[Multiset]:
    """All multisets of degree < k over {0..n-1}, by degree then expansion.

    These index the leaves of a level-k Veronese space.
    """
    out: list[Multiset] = []
    for degree_ in range(k):
        out.extend(enumerate_multisets(n, degree_))
    return out
