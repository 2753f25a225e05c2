"""The Veronese construction V(k, M0) over an incidence structure.

Points of V(k, M0) are the degree-k multisets over the base points; for
every base line B, every 0 < r <= k and every multiset e of degree k - r
there is a block {e + r*x : x in B}.  The leaf of e is e + (k-|e|)*S, a
copy of the base; exactly k leaves pass through each point, and two
distinct leaves share at most one point.

The leaf table leaf_points[e][x] is the index of e + (k-|e|)*x, looked
up by the sorted expansion of e with k-|e| copies of x, so building it
adds no multisets; blocks, leaves, the pair table, leaf planes and leaf
traces read its rows.  Since e is the pointwise minimum
of any two points of e + r*B, a base with distinct lines gives each block
one generator, kept as two per-block lists: block_top[b] = e and
block_line[b] = the index of B.  So two blocks through e + r*x and
e + r*y share e, r and a base line through x and y: over a partial linear
space M0, V(k, M0) is one too, and build_veronese checks M0 alone.

The form constructions of hyperplanes read three tables cached on the
space: the base coordinates, the orthogonality table shared by every
bilinear form, and the minors of each k-subset of base points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .algebra import OrthogonalityTable, extend_minors
from .incidence import IncidenceStructure, is_partial_linear
from .multiset import (Multiset, enumerate_lower_multisets,
                       enumerate_multisets, scale, scale_point)


@dataclass
class VeroneseSpace:
    base: IncidenceStructure
    level: int
    structure: IncidenceStructure
    points: tuple[Multiset, ...]
    index: dict[Multiset, int]
    leaves: dict[Multiset, frozenset[int]]
    # block b is block_top[b] + r*B for the base line B of index block_line[b],
    # r being level - block_top[b].degree
    block_top: list[Multiset]
    block_line: list[int]
    # leaf key e -> row whose x-th entry is the index of e + (k-|e|)*x,
    # keyed in Multiset.sort_key order (by degree, then expansion)
    leaf_points: dict[Multiset, list[int]]

    def leaf_keys(self) -> list[Multiset]:
        return list(self.leaf_points)

    @cached_property
    def pair(self) -> list[list[int]]:
        """pair[x][y]: index of the level-2 point x + y, the row of the leaf of x."""
        if self.level != 2:
            raise ValueError("the pair table is defined at level 2 only")
        return [self.leaf_points[scale_point(1, x)] for x in range(self.base.point_count)]

    @cached_property
    def coordinates(self) -> list[tuple]:
        """The coordinate label of each base point; ValueError names the
        first base point without one."""
        labels = self.base.labels
        if labels is None:
            raise ValueError("base carries no coordinate labels")
        missing = next((x for x in range(self.base.point_count) if x not in labels), None)
        if missing is not None:
            raise ValueError(f"base point {missing} carries no coordinate label")
        return [labels[x] for x in range(self.base.point_count)]

    @cached_property
    def orthogonality(self) -> OrthogonalityTable:
        """The base hyperplanes by normalized functional, shared by every
        form whose orthogonality rows are read on this space."""
        return OrthogonalityTable(self.coordinates)

    @cached_property
    def minors(self) -> list[tuple[int, tuple[int, ...]]]:
        """(q, the k x k minors of the coordinates of x_1 < ... < x_k) for
        each point q = x_1 + ... + x_k of k distinct base points, in
        itertools.combinations order of the column subsets.  The minors of
        each prefix x_1 < ... < x_r are computed once and extended by
        Laplace expansion (algebra.extend_minors) to every x > x_r; q is
        read off the leaf row of x_1 + ... + x_(k-1).  A point with a
        repeated base point is left out: its minors all vanish.
        """
        coords, n, k = self.coordinates, self.base.point_count, self.level
        prefixes: dict[tuple[int, ...], tuple[int, ...]] = {(): (1,)}
        for rows in range(1, k):
            prefixes = {t + (x,): extend_minors(m, coords[x], rows)
                        for t, m in prefixes.items() for x in range(t[-1] + 1 if t else 0, n)}
        out = []
        for t, m in prefixes.items():
            row = self.leaf_points[Multiset(tuple((x, 1) for x in t))]
            out.extend((row[x], extend_minors(m, coords[x], k))
                       for x in range(t[-1] + 1 if t else 0, n))
        return out

    def to_json(self) -> dict:
        return {"kind": "veronese", "level": self.level,
                "base": self.base.to_json(), "structure": self.structure.to_json()}


def build_veronese(base: IncidenceStructure, level: int) -> VeroneseSpace:
    """Construct V(level, base); the base must be a PLS (floor >= 3), and
    then V(level, base) is one (module docstring), so it is not checked."""
    if level < 1:
        raise ValueError("level must be at least 1")
    ok, witness = is_partial_linear(base)
    if not ok:
        raise ValueError(f"base is not a partial linear space: {witness}")
    n = base.point_count
    points = tuple(enumerate_multisets(n, level))
    index = {f: i for i, f in enumerate(points)}

    # e + r*x read by its sorted expansion, one tuple per entry
    at = {f.expansion(): i for i, f in enumerate(points)}
    leaf_points = {}
    for e in enumerate_lower_multisets(n, level):
        expansion, r = e.expansion(), level - e.degree
        leaf_points[e] = [at[tuple(sorted(expansion + (x,) * r))] for x in range(n)]

    triples = sorted(((tuple(sorted(row[x] for x in line)), e, li)
                      for e, row in leaf_points.items()
                      for li, line in enumerate(base.lines)), key=lambda t: t[0])
    block_top = [e for _, e, _ in triples]
    block_line = [li for _, _, li in triples]
    leaves = {e: frozenset(row) for e, row in leaf_points.items()}

    structure = IncidenceStructure(len(points), [b for b, _, _ in triples],
                                   labels=dict(enumerate(points)))
    return VeroneseSpace(base, level, structure, points, index, leaves,
                         block_top, block_line, leaf_points)


def parameters(v0: int, b0: int, r0: int, kappa0: int, k: int) -> tuple[int, int, int, int]:
    """(points, lines, point rank, line size) of V(k, M0) from base parameters."""
    if min(v0, b0, r0, kappa0, k) < 1:
        raise ValueError("parameters must be positive")
    v = math.comb(v0 + k - 1, k)
    b = math.comb(v0 + k - 1, k - 1) * b0
    return (v, b, k * r0, kappa0)


# ---------------------------------------------------------------------------
# embeddings


def mu_embedding(V: VeroneseSpace, r: int) -> tuple[VeroneseSpace, list[int]]:
    """f -> r*f into V(r*level, base); verified to carry blocks to blocks.

    Needs the base to identify lines with their point sets (extensionality),
    which holds by representation here.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    target = build_veronese(V.base, r * V.level)
    mapping = [target.index[scale(f, r)] for f in V.points]
    _check_embedding(V, target, mapping)
    return target, mapping


def tau_embedding(V: VeroneseSpace, e: Multiset) -> tuple[VeroneseSpace, list[int]]:
    """f -> e + f into V(level + |e|, base); identity when e is empty."""
    target = build_veronese(V.base, V.level + e.degree) if e.degree else V
    mapping = [target.index[e + f] for f in V.points]
    _check_embedding(V, target, mapping)
    return target, mapping


def _check_embedding(V: VeroneseSpace, target: VeroneseSpace, mapping: list[int]) -> None:
    if len(set(mapping)) != len(mapping):
        raise AssertionError("embedding is not injective")
    target_blocks = set(target.structure.lines)
    for block in V.structure.lines:
        image = frozenset(mapping[q] for q in block)
        if image not in target_blocks:
            raise AssertionError("embedding does not carry a block to a block")


# ---------------------------------------------------------------------------
# leaves and block tops


def check_leaf_covering(V: VeroneseSpace) -> tuple[bool, Optional[tuple]]:
    """Exactly k leaves through every point, pairwise sharing at most one."""
    per_point = [0] * len(V.points)
    for leaf in V.leaves.values():
        for q in leaf:
            per_point[q] += 1
    for q, c in enumerate(per_point):
        if c != V.level:
            return False, ("leaf_count", q, c)
    keys = V.leaf_keys()
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if len(V.leaves[keys[i]] & V.leaves[keys[j]]) > 1:
                return False, ("leaf_overlap", str(keys[i]), str(keys[j]))
    return True, None


def leaf_substructure(V: VeroneseSpace, e: Multiset) -> IncidenceStructure:
    """The leaf of e with its internal blocks, on base point indexing.

    Isomorphic to the base under x -> e + (k-|e|)*x; the blocks inside the
    leaf are exactly those with top e.
    """
    back = {q: x for x, q in enumerate(V.leaf_points[e])}
    lines = []
    for bi, top in enumerate(V.block_top):
        if top == e:
            block = V.structure.lines[bi]
            if not block <= back.keys():
                raise AssertionError("block point is not a leaf translate")
            lines.append(frozenset(back[q] for q in block))
    return IncidenceStructure(V.base.point_count, lines)


def check_leaf_isomorphism(V: VeroneseSpace, e: Multiset) -> bool:
    """Leaf blocks pull back to exactly the base line family."""
    sub = leaf_substructure(V, e)
    return set(sub.lines) == set(V.base.lines)


def leaf_plane_family(V: VeroneseSpace,
                      base_planes: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """Planes of V inside leaves: e + (k-|e|)*P for base planes P."""
    planes = {frozenset(row[x] for x in P)
              for row in V.leaf_points.values() for P in base_planes}
    return sorted(planes, key=sorted)


# ---------------------------------------------------------------------------
# restriction compatibility


def verify_restriction_points(V_full: VeroneseSpace, keep: Sequence[int]) -> bool:
    """V(k, base[keep]) equals the restriction of V_full = V(k, base) to
    multisets over keep, compared through the reindexing."""
    from .spaces import restriction
    sub, kept = restriction(V_full.base, keep)
    V_sub = build_veronese(sub, V_full.level)

    def lift(f: Multiset) -> Multiset:
        return Multiset(tuple(sorted((kept[q], m) for q, m in f.entries)))

    keep_set = frozenset(kept)
    inside = frozenset(i for i, f in enumerate(V_full.points)
                       if f.support() <= keep_set)
    restricted_lines = {frozenset(V_full.points[q] for q in block)
                        for block in V_full.structure.lines if block <= inside}
    sub_lines = {frozenset(lift(V_sub.points[q]) for q in block)
                 for block in V_sub.structure.lines}
    sub_points = {lift(f) for f in V_sub.points}
    full_points = {V_full.points[i] for i in inside}
    return sub_points == full_points and sub_lines == restricted_lines


def verify_line_monotonicity(V_small: VeroneseSpace, V_large: VeroneseSpace) -> bool:
    """Fewer base lines on the same points give a sub-family of blocks."""
    if V_small.level != V_large.level:
        raise ValueError("levels differ")
    if V_small.base.point_count != V_large.base.point_count:
        raise ValueError("structures must share their point set")
    if not set(V_small.base.lines) <= set(V_large.base.lines):
        raise ValueError("line family is not contained in the larger one")
    large = set(V_large.structure.lines)
    return all(b in large for b in V_small.structure.lines)
