"""Veblen and Net configurations: detection, classification inside level-2
Veronese spaces, and the affine conditions (Tamaschke, parallelogram
completion).

A Veblen configuration is four lines, no three concurrent, two of them
through an apex that avoids the other two, with all four cross-incidences;
it is incomplete when the last adjacency (between the two non-apex lines)
is not assumed.  A quadrangle is four lines in a cycle whose four vertices
have no diagonals; it is proper when the four containing leaves (tops) are
pairwise distinct.

Classification relies on block provenance: every block of a level-2
Veronese space over a linear space is either a translate x + m of a base
line m or a double 2m, and the possible quadrangle and crossing-line shapes
are pinned down exactly.  An unclassifiable figure is a falsification
event, never silently skipped.

Enumeration budgets: the Net-axiom scan is exhaustive at every size.
Only the Tamaschke and parallelogram-completion scans still take a
deterministic stratified sample above 200 points, recording its strata in
the returned report, because the benchmark and the verification battery
test pin those strata.

The affine conditions read each violation from two class rows: for a
line t and a parallel class c, the bitmask of the members of c that meet
t.  Their checked counts still count the four-line configurations (or
triangle-line pairs) the scan covers, in closed form wherever the rows
rule out a violation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .incidence import IncidenceStructure
from .multiset import EMPTY, Multiset
from .veronese import VeroneseSpace

EXHAUSTIVE_POINT_BUDGET = 200

BASE_EMBEDDED = "BASE_EMBEDDED"
FOUR_POINT_TRANSLATE = "FOUR_POINT_TRANSLATE"
THREE_POINT_WITH_2M = "THREE_POINT_WITH_2M"
TWO_LINE_TYPE = "TWO_LINE_TYPE"
THREE_LINE_TYPE = "THREE_LINE_TYPE"
UNCLASSIFIABLE = "UNCLASSIFIABLE"

CROSS_TRANSLATE_OF_JOIN = "TRANSLATE_OF_JOIN_OR_DOUBLE"
CROSS_POINT_JOIN = "POINT_JOIN_THROUGH_C"
CROSS_DOUBLE_OR_MEET_TRANSLATE = "DOUBLE_OR_MEET_TRANSLATE_OF_JOIN"


class FalsificationError(AssertionError):
    """A verified mathematical claim failed on a concrete instance."""


@dataclass(frozen=True)
class VeblenFigure:
    apex: int
    l1: int
    l2: int
    m1: int
    m2: int
    complete: bool


@dataclass(frozen=True)
class QuadrangleFigure:
    """Cyclic lines (l1, k1, l2, k2) and vertices (p1, p2, p3, p4) with
    p1 = l1^k1, p2 = k1^l2, p3 = l2^k2, p4 = k2^l1."""

    lines: tuple[int, int, int, int]
    vertices: tuple[int, int, int, int]

    @property
    def opposite_pairs(self) -> tuple[tuple[int, int], tuple[int, int]]:
        l1, k1, l2, k2 = self.lines
        return (l1, l2), (k1, k2)


# ---------------------------------------------------------------------------
# Veblen configurations


def find_incomplete_veblen(G: IncidenceStructure) -> Iterator[VeblenFigure]:
    """All incomplete Veblen configurations, deterministic order.

    The no-three-concurrent requirement is enforced: the two non-apex
    lines must cross each apex line in distinct points.
    """
    cross = G.crossing()
    through = G.lines_through()
    for p in range(G.point_count):
        here = through[p]
        for a in range(len(here)):
            for b in range(a + 1, len(here)):
                l1, l2 = here[a], here[b]
                candidates = sorted(m for m in cross[l1] & cross[l2]
                                    if p not in G.lines[m])
                for x in range(len(candidates)):
                    for y in range(x + 1, len(candidates)):
                        m1, m2 = candidates[x], candidates[y]
                        q11 = _meet(G, l1, m1)
                        q12 = _meet(G, l1, m2)
                        if q11 == q12:
                            continue
                        q21 = _meet(G, l2, m1)
                        q22 = _meet(G, l2, m2)
                        if q21 == q22:
                            continue
                        complete = bool(G.lines[m1] & G.lines[m2])
                        yield VeblenFigure(p, l1, l2, m1, m2, complete)


def _meet(G: IncidenceStructure, i: int, j: int) -> Optional[int]:
    common = G.lines[i] & G.lines[j]
    return next(iter(common)) if common else None


def check_veblen_axiom(G: IncidenceStructure
                       ) -> tuple[bool, Optional[VeblenFigure]]:
    """Every incomplete Veblen configuration must close (m1 meets m2)."""
    for fig in find_incomplete_veblen(G):
        if not fig.complete:
            return False, fig
    return True, None


def _sole_generator(V: VeroneseSpace, block: int) -> tuple[Multiset, int]:
    gens = V.provenance[block]
    if len(gens) != 1:
        raise FalsificationError(f"block {block} has several presentations: {gens}")
    return gens[0]


def classify_veblen_in_veronese(V: VeroneseSpace, fig: VeblenFigure) -> str:
    """Type of a complete Veblen figure in a level-2 Veronese space.

    BASE_EMBEDDED: all four blocks in one leaf (image of a base figure).
    FOUR_POINT_TRANSLATE: {a + m : a in A} for a 4-subset A of a base line m.
    THREE_POINT_WITH_2M: {a + m : a in A} plus 2m for a 3-subset A of m.
    """
    blocks = [fig.l1, fig.l2, fig.m1, fig.m2]
    tops = [V.block_top[b] for b in blocks]
    if len(set(tops)) == 1:
        return BASE_EMBEDDED
    if V.level != 2:
        return UNCLASSIFIABLE
    gens = [_sole_generator(V, b) for b in blocks]
    doubles = [b for b, (e, _) in zip(blocks, gens) if e == EMPTY]
    translates = [(e, li) for (e, li) in gens if e != EMPTY]
    base_lines = {li for _, li in gens}
    if len(base_lines) != 1:
        return UNCLASSIFIABLE
    m = V.base.lines[next(iter(base_lines))]
    points = [next(iter(e.support())) for e, _ in translates]
    if len(set(points)) != len(points) or not set(points) <= m:
        return UNCLASSIFIABLE
    if not doubles and len(points) == 4:
        return FOUR_POINT_TRANSLATE
    if len(doubles) == 1 and len(points) == 3:
        return THREE_POINT_WITH_2M
    return UNCLASSIFIABLE


def classify_all_veblen(V: VeroneseSpace) -> dict[str, int]:
    """Histogram of figure types over every complete Veblen figure."""
    counts: dict[str, int] = {}
    for fig in find_incomplete_veblen(V.structure):
        if not fig.complete:
            raise FalsificationError(f"Veblen axiom fails at {fig}")
        tag = classify_veblen_in_veronese(V, fig)
        counts[tag] = counts.get(tag, 0) + 1
        if tag == UNCLASSIFIABLE:
            raise FalsificationError(f"unclassifiable Veblen figure {fig}")
    return counts


# ---------------------------------------------------------------------------
# quadrangles without diagonals


def find_quadrangles(G: IncidenceStructure, top_of: Sequence
                     ) -> Iterator[QuadrangleFigure]:
    """Proper quadrangles without diagonals, one canonical representative
    each: the four tops top_of[line] are pairwise distinct.

    Canonical form: the first line is the least index of the four and the
    two lines adjacent to it are increasing.
    """
    cross = G.crossing()
    adj = G.adjacency()
    nlines = len(G.lines)
    for l1 in range(nlines):
        k1_candidates = sorted(k for k in cross[l1] if k > l1)
        for k1 in k1_candidates:
            if top_of[k1] == top_of[l1]:
                continue
            p1 = _meet(G, l1, k1)
            for l2 in sorted(x for x in cross[k1] if x > l1 and x != k1):
                if top_of[l2] == top_of[l1] or top_of[l2] == top_of[k1]:
                    continue
                p2 = _meet(G, k1, l2)
                for k2 in sorted(x for x in cross[l2] & cross[l1]
                                 if x > k1 and x != l2):
                    if (top_of[k2] == top_of[l1] or top_of[k2] == top_of[k1]
                            or top_of[k2] == top_of[l2]):
                        continue
                    p3 = _meet(G, l2, k2)
                    p4 = _meet(G, k2, l1)
                    if p3 in adj[p1] or p4 in adj[p2]:
                        continue
                    yield QuadrangleFigure((l1, k1, l2, k2), (p1, p2, p3, p4))


def fresh_crossings(G: IncidenceStructure, top_of: Sequence, a: int, b: int
                    ) -> list[int]:
    """The lines crossing both a and b whose top is neither of theirs,
    in increasing order."""
    cross = G.crossing()
    return sorted(m for m in cross[a] & cross[b]
                  if top_of[m] not in (top_of[a], top_of[b]))


def classify_proper_quadrangle(V: VeroneseSpace, q: QuadrangleFigure) -> str:
    """TWO_LINE_TYPE / THREE_LINE_TYPE per the level-2 shape analysis.

    TWO_LINE_TYPE: opposite pairs are translates of one base line each
    (a1+m, b1+m and a2+n, b2+n with a1,b1 on n and a2,b2 on m); vertices
    are the four mixed sums.  THREE_LINE_TYPE: one double 2n opposite a
    translate c+n, the other pair a+m, b+l with a,b on n, a,c on m and
    b,c on l; vertices 2a, a+c, 2b, b+c.  Vertex lists are re-verified.
    """
    if V.level != 2:
        return UNCLASSIFIABLE
    l1, k1, l2, k2 = q.lines
    gens = {b: _sole_generator(V, b) for b in q.lines}
    doubles = [b for b in q.lines if gens[b][0] == EMPTY]

    def translate_of(b: int) -> tuple[int, frozenset[int]]:
        e, li = gens[b]
        return next(iter(e.support())), V.base.lines[li]

    if not doubles:
        (a1, m1), (b1, m2) = translate_of(l1), translate_of(l2)
        (a2, n1), (b2, n2) = translate_of(k1), translate_of(k2)
        if m1 != m2 or n1 != n2:
            return UNCLASSIFIABLE
        if not ({a1, b1} <= n1 and {a2, b2} <= m1):
            return UNCLASSIFIABLE
        expected = {V.pair[a1][a2], V.pair[a1][b2],
                    V.pair[b1][a2], V.pair[b1][b2]}
        if set(q.vertices) != expected:
            return UNCLASSIFIABLE
        return TWO_LINE_TYPE

    if len(doubles) == 1:
        kd = doubles[0]
        pos = q.lines.index(kd)
        opposite = q.lines[(pos + 2) % 4]
        flank1, flank2 = q.lines[(pos + 1) % 4], q.lines[(pos + 3) % 4]
        n = V.base.lines[gens[kd][1]]
        c, n_opp = translate_of(opposite)
        if n_opp != n:
            return UNCLASSIFIABLE
        a, m = translate_of(flank1)
        b, l = translate_of(flank2)
        if not ({a, b} <= n and a in m and c in m and b in l and c in l):
            return UNCLASSIFIABLE
        expected = {V.pair[a][a], V.pair[a][c], V.pair[b][b], V.pair[b][c]}
        if set(q.vertices) != expected:
            return UNCLASSIFIABLE
        return THREE_LINE_TYPE

    return UNCLASSIFIABLE


def classify_crossing_line(V: VeroneseSpace, l1: int, l2: int, k: int) -> str:
    """Shape of a line k crossing opposite sides l1, l2 of a proper
    quadrangle, with the three tops pairwise distinct.

    Translates of one line m: k is x + join(a,b) for x on m, or 2m when
    both translate points lie on m.  Double 2n against c+n: k is
    x + join(x,c) for x on n.  Translates of distinct lines meeting at c:
    k is 2 join(a,b) or c + join(a,b).
    """
    if V.level != 2:
        return UNCLASSIFIABLE
    tops = {V.block_top[b] for b in (l1, l2, k)}
    if len(tops) != 3:
        raise ValueError("tops of k, l1, l2 must be pairwise distinct")
    gens = {b: _sole_generator(V, b) for b in (l1, l2, k)}
    ek, lik = gens[k]
    k_line = V.base.lines[lik]

    def translate_of(b):
        e, li = gens[b]
        return next(iter(e.support())), V.base.lines[li]

    doubles = [b for b in (l1, l2) if gens[b][0] == EMPTY]
    if not doubles:
        (a, m1), (b, m2) = translate_of(l1), translate_of(l2)
        if m1 == m2:
            join = _join(V.base, a, b)
            if ek == EMPTY:
                if k_line == m1 and a in m1 and b in m1:
                    return CROSS_TRANSLATE_OF_JOIN
                return UNCLASSIFIABLE
            x = next(iter(ek.support()))
            if x in m1 and k_line == join:
                return CROSS_TRANSLATE_OF_JOIN
            return UNCLASSIFIABLE
        common = m1 & m2
        if len(common) != 1:
            return UNCLASSIFIABLE
        c = next(iter(common))
        join = _join(V.base, a, b)
        if k_line != join:
            return UNCLASSIFIABLE
        if ek == EMPTY:
            return CROSS_DOUBLE_OR_MEET_TRANSLATE
        if next(iter(ek.support())) == c:
            return CROSS_DOUBLE_OR_MEET_TRANSLATE
        return UNCLASSIFIABLE

    if len(doubles) == 1:
        double, translate = (l1, l2) if gens[l1][0] == EMPTY else (l2, l1)
        n = V.base.lines[gens[double][1]]
        c, n2 = translate_of(translate)
        if n2 != n or ek == EMPTY:
            return UNCLASSIFIABLE
        x = next(iter(ek.support()))
        if x in n and x != c and k_line == _join(V.base, x, c):
            return CROSS_POINT_JOIN
        return UNCLASSIFIABLE

    return UNCLASSIFIABLE


def _join(base: IncidenceStructure, a: int, b: int) -> frozenset[int]:
    if a == b:
        raise ValueError("join needs two distinct points")
    for line in base.lines_through()[a]:
        if b in base.lines[line]:
            return base.lines[line]
    raise ValueError(f"points {a}, {b} are not collinear in the base")


# ---------------------------------------------------------------------------
# Net axiom


@dataclass
class ScanReport:
    ok: bool
    witness: Optional[tuple]
    checked: int
    exhaustive: bool
    strata: Optional[tuple] = None


def check_net_axiom(G: IncidenceStructure, top_of: Sequence) -> ScanReport:
    """For every proper quadrangle (l1,k1,l2,k2), every line crossing both
    of one opposite pair must meet every line crossing both of the other.

    The crossing lines are required to carry a top distinct from the tops
    of the pair they cross, matching the crossing-line classification the
    claim rests on; without that restriction the axiom already fails in
    plain Veronese spaces whenever opposite sides of a quadrangle meet
    (any two lines through the two meeting points witness it).

    The scan is exhaustive at every size: find_quadrangles lists every
    proper quadrangle anyway, so restricting the checks saves no time.
    """
    checked = 0
    for q in find_quadrangles(G, top_of):
        l1, k1, l2, k2 = q.lines
        crossing_l = fresh_crossings(G, top_of, l1, l2)
        crossing_k = fresh_crossings(G, top_of, k1, k2)
        for m3 in crossing_k:
            for n3 in crossing_l:
                checked += 1
                if not G.lines[m3] & G.lines[n3]:
                    return ScanReport(False, (q, m3, n3), checked, True)
    return ScanReport(True, None, checked, True)


# ---------------------------------------------------------------------------
# affine conditions


def _class_members(G: IncidenceStructure, class_of: dict[int, int]
                   ) -> tuple[dict[int, list[int]], list[int]]:
    """The lines of each class, in class_of order, and each classed line's
    index among its class's members."""
    members: dict[int, list[int]] = {}
    position = [0] * len(G.lines)
    for li, ci in class_of.items():
        position[li] = len(members.setdefault(ci, []))
        members[ci].append(li)
    return members, position


def _class_rows(G: IncidenceStructure, t: int, class_of: dict[int, int],
                position: list[int], through: list[list[int]]) -> dict[int, int]:
    """{class: mask} for line t: bit position[m] of mask is set for each
    line m of the class that shares a point with t, position[m] being m's
    index among its class's members.  A classed t meets itself."""
    rows: dict[int, int] = {}
    for q in G.lines[t]:
        for m in through[q]:
            c = class_of.get(m)
            if c is not None:
                rows[c] = rows.get(c, 0) | 1 << position[m]
    return rows


def check_tamaschke(G: IncidenceStructure, class_of: dict[int, int],
                    budget_points: int = EXHAUSTIVE_POINT_BUDGET) -> ScanReport:
    """Tamaschke condition: a line parallel to one side of a triangle that
    crosses a second side crosses the third.

    class_of maps line index to parallel-class id; lines missing from it
    carry no parallels.  Triangles are enumerated from each apex (the two
    sides through it and a third side crossing both elsewhere), so over
    all apexes every side takes the parallel role.

    Third sides come from the crossing index G.crossing(), and the class
    rows of the sides through an apex are built once per apex.  A triangle
    is read from the rows of its two apex sides over the class c of the
    third: a parallel crossing one side but not the other is a set bit of
    their XOR.
    checked still counts the (triangle, line of c) pairs the scan covers,
    len(members[c]) per triangle without a violation.
    """
    through = G.lines_through()
    cross = G.crossing()
    members, position = _class_members(G, class_of)
    apexes = range(G.point_count)
    strata = None
    exhaustive = G.point_count <= budget_points
    if not exhaustive:
        step = max(1, G.point_count // 20)
        apexes = range(0, G.point_count, step)
        strata = ("apex_in", 0, step, G.point_count)
    checked = 0
    for p in apexes:
        here = through[p]
        rows = {t: _class_rows(G, t, class_of, position, through) for t in here}
        for a in range(len(here)):
            for b in range(a + 1, len(here)):
                t2, t3 = here[a], here[b]
                for t1 in sorted(cross[t2] & cross[t3]):
                    if p in G.lines[t1]:
                        continue
                    c = class_of.get(t1)
                    if c is None:
                        continue
                    d = rows[t2].get(c, 0) ^ rows[t3].get(c, 0)
                    if not d:
                        checked += len(members[c])
                        continue
                    j = (d & -d).bit_length() - 1
                    checked += j + 1
                    return ScanReport(False, (p, t1, t2, t3, members[c][j]),
                                      checked, exhaustive, strata)
    return ScanReport(True, None, checked, exhaustive, strata)


def check_parallelogram_completion(G: IncidenceStructure,
                                   class_of: dict[int, int],
                                   budget_points: int = EXHAUSTIVE_POINT_BUDGET
                                   ) -> ScanReport:
    """If two pairs of parallel lines realize three of the four crossings
    between non-parallel lines, the fourth crossing exists as well.

    For parallels l1, l2 and a later class cm, let r1, r2 be their class
    rows over cm.  Some pair of cm has exactly three crossings iff r1 & r2
    (a line meeting both) and r1 ^ r2 (a line meeting one) are nonzero.
    checked still counts the four-line configurations the scan covers,
    C(|cm|, 2) per class pair without a violation; a violation is found by
    walking the pairs of cm in order.
    """
    members, position = _class_members(G, class_of)
    class_ids = sorted(members)
    through = G.lines_through()
    strata = None
    exhaustive = G.point_count <= budget_points
    pick_l = class_ids
    if not exhaustive:
        step = max(1, len(class_ids) // 40)
        pick_l = class_ids[::step]
        strata = ("l_class_in", 0, step, len(class_ids))
    checked = 0
    for cl in pick_l:
        ls = members[cl]
        later = [cm for cm in class_ids if not cm <= cl]
        rows = {l: _class_rows(G, l, class_of, position, through) for l in ls}
        for l1, l2 in itertools.combinations(ls, 2):
            for cm in later:
                r1, r2 = rows[l1].get(cm, 0), rows[l2].get(cm, 0)
                ms = members[cm]
                if not (r1 & r2 and r1 ^ r2):
                    checked += len(ms) * (len(ms) - 1) // 2
                    continue
                for i, j in itertools.combinations(range(len(ms)), 2):
                    checked += 1
                    if (r1 >> i & 1) + (r1 >> j & 1) + (r2 >> i & 1) + (r2 >> j & 1) == 3:
                        return ScanReport(False, (l1, l2, ms[i], ms[j]),
                                          checked, exhaustive, strata)
    return ScanReport(True, None, checked, exhaustive, strata)
