"""Parallelisms on Veronese spaces over parallel structures.

A base parallelism induces a block relation on V(k, A0): two blocks are
related when their generating base lines are parallel.  The relation is an
equivalence whose classes cover the point set, but through every point
each class runs k blocks (one per leaf), so it violates the disjointness
a parallelism needs as soon as k > 1.

The stronger question, whether V(k, A0) carries any parallelism with
constant direction size whose directions respect the leaves, is answered
by an exhaustive backtracking search over partitions of the block set,
with a counting identity shortcut: a covering direction needs v/kappa
blocks, leaf closure forces it to restrict to a direction on every leaf
it touches, and the resulting identity pins k = 1.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .spaces import ParallelStructure
from .veronese import VeroneseSpace


def _block_directions(V: VeroneseSpace, base: ParallelStructure) -> list[int]:
    """Base parallel class of each block's generating base line, by block."""
    class_of_base_line = base.class_of()
    base_index = base.base.line_index()
    return [class_of_base_line[base_index[V.base.lines[V.provenance[bi][0][1]]]]
            for bi in range(len(V.structure.lines))]


def induced_relation(V: VeroneseSpace, base: ParallelStructure
                     ) -> dict[int, tuple[int, ...]]:
    """Block classes keyed by base direction: blocks whose generating base
    lines are parallel fall together.  An equivalence by construction,
    since the base classes partition the base line family."""
    if base.base is not V.base:
        if set(base.base.lines) != set(V.base.lines):
            raise ValueError("parallel structure does not match the base")
    out: dict[int, list[int]] = {}
    for bi, ci in enumerate(_block_directions(V, base)):
        out.setdefault(ci, []).append(bi)
    return {ci: tuple(sorted(v)) for ci, v in sorted(out.items())}


@dataclass
class EuclidFailureReport:
    classes_cover: bool
    per_point_count_is_level: bool
    witness: Optional[tuple]
    is_parallelism: bool


def check_euclid_failure(V: VeroneseSpace, classes: dict[int, tuple[int, ...]]
                         ) -> EuclidFailureReport:
    """Each class covers the point set, yet k class members pass through
    every point (one per leaf), so for k > 1 two related blocks share a
    point and the relation is not a parallelism.

    The witness records a point with two distinct co-punctual related
    blocks, e.g. the double of a base point on both a + L and 2L."""
    n_points = len(V.points)
    per_point_ok = True
    witness = None
    cover_ok = True
    for ci, members in classes.items():
        counts = [0] * n_points
        for bi in members:
            for q in V.structure.lines[bi]:
                counts[q] += 1
        if any(c == 0 for c in counts):
            cover_ok = False
        if any(c != V.level for c in counts):
            per_point_ok = False
        if witness is None and V.level > 1:
            for q in range(n_points):
                if counts[q] >= 2:
                    through = [bi for bi in members
                               if q in V.structure.lines[bi]]
                    witness = (q, through[0], through[1])
                    break
    parallel = V.level == 1
    return EuclidFailureReport(cover_ok, per_point_ok, witness, parallel)


# ---------------------------------------------------------------------------
# leaf-closed parallelism search


@dataclass
class SearchResult:
    parallelism: Optional[tuple[tuple[int, ...], ...]]
    exhaustive: bool
    nodes: int
    certificate: str

    @property
    def none_found(self) -> bool:
        return self.parallelism is None


def search_leaf_closed_parallelism(V: VeroneseSpace,
                                   budget_nodes: int = 2_000_000) -> SearchResult:
    """Exhaustive backtracking for a parallelism with constant direction
    size whose directions are closed on every leaf.

    Directions must partition the blocks into point-covering classes of
    pairwise disjoint blocks of size points/kappa; leaf closure is pruned
    incrementally: a class holding a block of a leaf may not skip other
    points of that leaf.  NONE results come with an exhausted-search
    certificate (node count plus a hash of the decision tree); exceeding
    the budget yields a partial-search report, never claimed as proof.
    """
    blocks = V.structure.lines
    n_blocks = len(blocks)
    n_points = len(V.points)
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise ValueError("search needs constant line size")
    kappa = sizes.pop()
    if n_points % kappa:
        return SearchResult(None, True, 0, "capacity: kappa does not divide v")
    per_class = n_points // kappa

    leaf_of_block = {bi: V.block_top[bi] for bi in range(n_blocks)}

    trace = hashlib.sha256()
    nodes = 0
    exhausted = True
    assignment: list[Optional[int]] = [None] * n_blocks
    found: Optional[tuple[tuple[int, ...], ...]] = None

    def leaves_compatible(members: list[int], bi: int) -> bool:
        # a covering leaf-closed class that holds blocks of two leaves
        # sharing a point would need the block through that point inside
        # both leaves at once; so tops must be equal or point-disjoint
        new_top = leaf_of_block[bi]
        new_leaf = V.leaves[new_top]
        for bj in members:
            top = leaf_of_block[bj]
            if top != new_top and V.leaves[top] & new_leaf:
                return False
        return True

    def leaf_closed(members: list[int]) -> bool:
        # blocks of the class inside one leaf must partition that leaf
        by_leaf: dict = {}
        for bi in members:
            by_leaf.setdefault(leaf_of_block[bi], []).append(bi)
        for e, group in by_leaf.items():
            covered = set()
            for bi in group:
                covered |= blocks[bi]
            if covered != set(V.leaves[e]):
                return False
        return True

    def backtrack(completed: list[list[int]]) -> bool:
        nonlocal nodes, exhausted, found
        nodes += 1
        if nodes > budget_nodes:
            exhausted = False
            return False
        first = next((bi for bi in range(n_blocks) if assignment[bi] is None),
                     None)
        if first is None:
            found = tuple(tuple(sorted(c)) for c in completed)
            return True
        cid = len(completed)
        current = [first]
        assignment[first] = cid
        trace.update(b"%d:%d" % (first, cid))

        def extend(members: list[int], covered: set[int]) -> bool:
            nonlocal nodes, exhausted
            if len(members) == per_class:
                if len(covered) == n_points and leaf_closed(members):
                    completed.append(members)
                    if backtrack(completed):
                        return True
                    completed.pop()
                return False
            nodes += 1
            if nodes > budget_nodes:
                exhausted = False
                return False
            start = members[-1] + 1
            for bi in range(start, n_blocks):
                if assignment[bi] is not None:
                    continue
                if covered & blocks[bi]:
                    continue
                if not leaves_compatible(members, bi):
                    continue
                assignment[bi] = cid
                members.append(bi)
                if extend(members, covered | blocks[bi]):
                    return True
                members.pop()
                assignment[bi] = None
            return False

        ok = extend(current, set(blocks[first]))
        if not ok:
            assignment[first] = None
        return ok

    backtrack([])
    cert = f"nodes={nodes};sha256={trace.hexdigest()[:16]}"
    return SearchResult(found, exhausted, nodes, cert)


def counting_identity_solutions(n_range: Sequence[int],
                                k_range: Sequence[int]) -> list[tuple[int, int]]:
    """Pairs (n, k) with C(n+k-1, k) = n * C(n+k-1, k-1): the relation a
    leaf-closed constant-size parallelism would force; holds only at k=1."""
    out = []
    for n in n_range:
        for k in k_range:
            if math.comb(n + k - 1, k) == n * math.comb(n + k - 1, k - 1):
                out.append((n, k))
    return out


# ---------------------------------------------------------------------------
# Veblen parallelism over affine bases


def leaf_preparallelism(V: VeroneseSpace, base: ParallelStructure
                        ) -> dict[tuple, tuple[int, ...]]:
    """Union of the per-leaf Veblen parallelisms: classes keyed by
    (leaf, base direction).  A preparallelism: classes have pairwise
    disjoint distinct blocks."""
    out: dict[tuple, list[int]] = {}
    for bi, ci in enumerate(_block_directions(V, base)):
        out.setdefault((V.provenance[bi][0][0], ci), []).append(bi)
    return {key: tuple(sorted(v)) for key, v in sorted(
        out.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1]))}
