"""Parallelisms on Veronese spaces over parallel structures.

A base parallelism induces a block relation on V(k, A0): two blocks are
related when their generating base lines are parallel.  The relation is an
equivalence whose classes cover the point set, but through every point
each class runs k blocks (one per leaf), so it violates the disjointness
a parallelism needs as soon as k > 1.

The stronger question, whether V(k, A0) carries any parallelism with
constant direction size whose directions respect the leaves, is answered
by an exhaustive backtracking search over partitions of the block set
under a fixed node budget.  counting_identity_solutions checks on its own
why none is expected: a covering direction needs v/kappa blocks, leaf
closure forces it to restrict to a direction on every leaf it touches,
and the resulting identity pins k = 1.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import incidence as inc
from .spaces import ParallelStructure
from .veronese import VeroneseSpace


def _block_directions(V: VeroneseSpace, base: ParallelStructure) -> list[int]:
    """Base parallel class of each block's generating base line, by block."""
    class_of_base_line = base.class_of()
    base_index = base.base.line_index()
    return [class_of_base_line[base_index[V.base.lines[li]]] for li in V.block_line]


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
    blocks, e.g. the double of a base point on both a + L and 2L.  The
    classes form a parallelism when they cover and no witness exists."""
    n_points = len(V.points)
    cover_ok = per_point_ok = True
    witness = None
    for members in classes.values():
        counts = [0] * n_points
        for bi in members:
            for q in V.structure.lines[bi]:
                counts[q] += 1
        cover_ok &= 0 not in counts
        per_point_ok &= counts == [V.level] * n_points
        q = next((q for q, c in enumerate(counts) if c >= 2), None)
        if witness is None and q is not None:
            witness = (q, *[bi for bi in members if q in V.structure.lines[bi]][:2])
    return EuclidFailureReport(cover_ok, per_point_ok, witness,
                               cover_ok and witness is None)


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


def search_leaf_closed_parallelism(V: VeroneseSpace) -> SearchResult:
    """Exhaustive backtracking for a parallelism with constant direction
    size whose directions are closed on every leaf.

    Directions partition the blocks into classes of v/kappa pairwise
    disjoint blocks, which therefore cover the points.  One recursion
    grows the open class by a later unassigned block; a full class that
    is leaf-closed (its blocks inside each leaf partition that leaf) opens
    the next class at the least unassigned block.  Each call is one node.
    NONE results carry an exhausted-search certificate (node count plus
    a hash of the decision tree); the first node past inc.SEARCH_NODE_BUDGET
    ends the search with a partial report, never claimed as proof.
    """
    blocks = V.structure.lines
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise ValueError("search needs constant line size")
    per_class, rest = divmod(len(V.points), sizes.pop())
    if rest:
        return SearchResult(None, True, 0, "capacity: kappa does not divide v")
    leaf_of = [V.leaves[e] for e in V.block_top]
    trace = hashlib.sha256()
    classes: list[list[int]] = []
    unassigned = set(range(len(blocks)))
    nodes = 0
    found: Optional[tuple[tuple[int, ...], ...]] = None

    def leaf_compatible(members: list[int], bi: int) -> bool:
        # a covering leaf-closed class with blocks of two leaves sharing a
        # point needs its block there in both; so leaves are equal or disjoint
        return all(leaf_of[bj] == leaf_of[bi] or not leaf_of[bj] & leaf_of[bi]
                   for bj in members)

    def leaf_closed(members: list[int]) -> bool:
        in_leaf: dict = {}
        for bi in members:
            in_leaf[leaf_of[bi]] = in_leaf.get(leaf_of[bi], frozenset()) | blocks[bi]
        return all(leaf == pts for leaf, pts in in_leaf.items())

    def search(covered: frozenset[int]) -> bool:
        nonlocal nodes, found
        full = bool(classes) and len(classes[-1]) == per_class
        if full and not leaf_closed(classes[-1]):
            return False
        nodes += 1
        if nodes > inc.SEARCH_NODE_BUDGET:
            return True
        opening = full or not classes
        if opening:
            if not unassigned:
                found = tuple(map(tuple, classes))
                return True
            candidates, covered = [min(unassigned)], frozenset()
            trace.update(b"%d:%d" % (candidates[0], len(classes)))
            classes.append([])
        else:
            members = classes[-1]
            candidates = (bi for bi in range(members[-1] + 1, len(blocks))
                          if bi in unassigned and not covered & blocks[bi]
                          and leaf_compatible(members, bi))
        for bi in candidates:
            unassigned.remove(bi)
            classes[-1].append(bi)
            if search(covered | blocks[bi]):
                return True
            classes[-1].pop()
            unassigned.add(bi)
        if opening:
            classes.pop()
        return False

    search(frozenset())
    cert = f"nodes={nodes};sha256={trace.hexdigest()[:16]}"
    return SearchResult(found, nodes <= inc.SEARCH_NODE_BUDGET, nodes, cert)


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
        out.setdefault((V.block_top[bi], ci), []).append(bi)
    return {key: tuple(sorted(v)) for key, v in sorted(
        out.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1]))}
