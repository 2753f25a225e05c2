"""Veblen and Net configurations: detection, classification inside level-2
Veronese spaces, and the affine conditions (Tamaschke, parallelogram
completion).

A Veblen configuration is four lines, no three concurrent, two of them
through an apex that avoids the other two, with all four cross-incidences;
it is incomplete when the last adjacency (between the two non-apex lines)
is not assumed.  A quadrangle is four lines in a cycle whose four vertices
have no diagonals; it is proper when the four containing leaves (tops) are
pairwise distinct.

Classification relies on block shape: every block of a level-2 Veronese
space over a linear space is either a translate x + m of a base line m or
a double 2m, which _level2_shape alone reads off V.block_top and
V.block_line, and the possible quadrangle and crossing-line shapes are
pinned down exactly.
An unclassifiable figure is a falsification event, never silently skipped.

The Veblen scan decides figures by bitset rows of lines, built once per
space: meets[m], the lines sharing a point with m, and one mask per top.
For an apex p and lines l1 < l2 through it, the lines crossing both off p
are meets[l1] & meets[l2] less the lines through p; the partners of each
crossing line m1 are the later ones that avoid m1's points on l1 and l2.
Partners outside meets[m1] are incomplete figures; those sharing the top
of l1, l2 and m1 are leaf-embedded and counted by bit_count, and only the
rest are built and classified one at a time.

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


def _apex_crossings(G: IncidenceStructure, p: int, l1: int, l2: int) -> list[int]:
    """The lines crossing l1 and l2 off their common point p, in increasing
    order: each joins a point of l1 to a point of l2, neither of them p."""
    join = G.join()
    return sorted({join[q][r] for q in G.lines[l1] - {p}
                   for r in G.lines[l2] - {p} if r in join[q]})


def _level2_shape(V: VeroneseSpace, b: int) -> tuple[Optional[int], frozenset[int]]:
    """(x, L) for the level-2 block x + L and (None, L) for the double 2L,
    L being the base line as a point set."""
    return next(iter(V.block_top[b].support()), None), V.base.lines[V.block_line[b]]


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
    shapes = [_level2_shape(V, b) for b in blocks]
    m = shapes[0][1]
    points = [x for x, _ in shapes if x is not None]
    if (any(L != m for _, L in shapes) or len(set(points)) != len(points)
            or not set(points) <= m):
        return UNCLASSIFIABLE
    # the blocks without a point are doubles 2m
    return {4: FOUR_POINT_TRANSLATE, 3: THREE_POINT_WITH_2M}.get(len(points),
                                                                 UNCLASSIFIABLE)


def classify_all_veblen(V: VeroneseSpace) -> dict[str, int]:
    """Histogram of figure types over every complete Veblen figure, by the
    bitset scan of the module docstring.  A figure is an apex p, lines
    l1 < l2 through p and lines m1 < m2 crossing both off p, at distinct
    points of l1 and of l2; it is complete when m1 and m2 meet.

    Raises FalsificationError at the first figure, in (p, l1, l2, m1, m2)
    order, that is incomplete or unclassifiable.
    """
    G = V.structure
    through, points_of = G.lines_through(), G.line_masks()
    point_rows = [sum(1 << m for m in here) for here in through]
    meets = [0] * len(G.lines)
    for m, line in enumerate(G.lines):
        for q in line:
            meets[m] |= point_rows[q]
    top_ids: dict = {}
    top = [top_ids.setdefault(e, len(top_ids)) for e in V.block_top]
    top_mask = [0] * len(top_ids)
    for m, t in enumerate(top):
        top_mask[t] |= 1 << m
    counts: dict[str, int] = {}
    for p in range(G.point_count):
        here = through[p]
        for a, l1 in enumerate(here):
            off_p = meets[l1] & ~point_rows[p]
            for l2 in here[a + 1:]:
                later = off_p & meets[l2]
                while later:
                    m1 = (later & -later).bit_length() - 1
                    later &= later - 1
                    if not later:
                        break
                    # later: the crossing lines above m1; one that meets m1
                    # on l1 or l2 lies in meets[m1], so missing skips it
                    missing = later & ~meets[m1]
                    # V is a partial linear space: m1 meets l1 and l2 once each
                    q = (points_of[l1] & points_of[m1]).bit_length() - 1
                    r = (points_of[l2] & points_of[m1]).bit_length() - 1
                    closed = later & meets[m1] & ~(point_rows[q] | point_rows[r])
                    same_leaf = top[l1] == top[l2] == top[m1]
                    leaf = closed & top_mask[top[m1]] if same_leaf else 0
                    rest = closed ^ leaf
                    if missing:
                        rest &= (missing & -missing) - 1
                    while rest:
                        m2 = (rest & -rest).bit_length() - 1
                        rest &= rest - 1
                        fig = VeblenFigure(p, l1, l2, m1, m2, True)
                        tag = classify_veblen_in_veronese(V, fig)
                        if tag == UNCLASSIFIABLE:
                            raise FalsificationError(f"unclassifiable Veblen figure {fig}")
                        counts[tag] = counts.get(tag, 0) + 1
                    if missing:
                        m2 = (missing & -missing).bit_length() - 1
                        fig = VeblenFigure(p, l1, l2, m1, m2, False)
                        raise FalsificationError(f"Veblen axiom fails at {fig}")
                    if leaf:
                        counts[BASE_EMBEDDED] = (counts.get(BASE_EMBEDDED, 0)
                                                 + leaf.bit_count())
    return counts


# ---------------------------------------------------------------------------
# quadrangles without diagonals


def find_quadrangles(G: IncidenceStructure, top_of: Sequence
                     ) -> Iterator[QuadrangleFigure]:
    """Proper quadrangles without diagonals, one canonical representative
    each: the four tops top_of[line] are pairwise distinct.

    Canonical form: the first line is the least index of the four and the
    two lines adjacent to it are increasing; figures come sorted by lines.

    The figures are enumerated as vertex cycles a-b-c-d with a the least
    vertex: each point c > a not collinear with a, and each pair b < d of
    common neighbours of a and c above a with b, d not collinear, the
    sides read from G.join().  The non-collinear diagonals make the four
    joins distinct lines.
    """
    n = G.point_count
    join = G.join()
    # near[p]: p and its neighbours
    near = [sum(1 << q for q in join[p]) | 1 << p for p in range(n)]
    found = []
    for a in range(n):
        above = ((1 << n) - 1) >> (a + 1) << (a + 1)
        far = above & ~near[a]
        while far:
            c = (far & -far).bit_length() - 1
            far &= far - 1
            common = near[a] & near[c] & above
            sides = []  # (b, join(a, b), join(c, b)) with distinct tops
            while common:
                b = (common & -common).bit_length() - 1
                common &= common - 1
                ab, cb = join[a][b], join[c][b]
                if top_of[ab] != top_of[cb]:
                    sides.append((b, ab, cb))
            for x, (b, ab, cb) in enumerate(sides):
                tb = (top_of[ab], top_of[cb])
                for d, ad, cd in sides[x + 1:]:
                    if near[b] >> d & 1 or top_of[ad] in tb or top_of[cd] in tb:
                        continue
                    # lines e[t] and e[t+1] meet at v[t] around a-b-c-d;
                    # walk it from the least line toward its lesser neighbour
                    e, v = (ab, cb, cd, ad), (b, c, d, a)
                    i = e.index(min(e))
                    if e[(i + 1) % 4] > e[i - 1]:
                        e, v = (ad, cd, cb, ab), (d, c, b, a)
                        i = e.index(min(e))
                    found.append((tuple(e[(i + t) % 4] for t in range(4)),
                                  tuple(v[(i + t) % 4] for t in range(4))))
    for lines, vertices in sorted(found):
        yield QuadrangleFigure(lines, vertices)


def quadrangle_crossings(G: IncidenceStructure, top_of: Sequence
                         ) -> Iterator[tuple[QuadrangleFigure, list[int], list[int]]]:
    """Each proper quadrangle (l1, k1, l2, k2) of find_quadrangles with the
    fresh crossings of its opposite pairs (l1, l2) and (k1, k2): the lines
    crossing both lines of the pair whose top is neither of theirs, in
    increasing order.

    Tops are only compared for equality, so each is read once as an int
    id (the order of its first line) and the walk compares ids: a
    Multiset top would otherwise be compared field by field."""
    ids: dict = {}
    top_id = [ids.setdefault(t, len(ids)) for t in top_of]

    def fresh(a: int, b: int) -> list[int]:
        return sorted(m for m in G.crossing_both(a, b)
                      if top_id[m] != top_id[a] and top_id[m] != top_id[b])

    for q in find_quadrangles(G, top_id):
        l1, k1, l2, k2 = q.lines
        yield q, fresh(l1, l2), fresh(k1, k2)


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
    shapes = [_level2_shape(V, b) for b in q.lines]
    doubles = [i for i, (x, _) in enumerate(shapes) if x is None]

    if not doubles:
        (a1, m1), (a2, n1), (b1, m2), (b2, n2) = shapes
        if m1 != m2 or n1 != n2 or not ({a1, b1} <= n1 and {a2, b2} <= m1):
            return UNCLASSIFIABLE
        expected = {V.pair[a1][a2], V.pair[a1][b2],
                    V.pair[b1][a2], V.pair[b1][b2]}
        return TWO_LINE_TYPE if set(q.vertices) == expected else UNCLASSIFIABLE

    if len(doubles) == 1:
        i = doubles[0]
        _, n = shapes[i]
        c, n_opp = shapes[(i + 2) % 4]
        (a, m), (b, l) = shapes[(i + 1) % 4], shapes[(i + 3) % 4]
        if n_opp != n or not ({a, b} <= n and {a, c} <= m and {b, c} <= l):
            return UNCLASSIFIABLE
        expected = {V.pair[a][a], V.pair[a][c], V.pair[b][b], V.pair[b][c]}
        return THREE_LINE_TYPE if set(q.vertices) == expected else UNCLASSIFIABLE

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
    (a, m1), (b, m2), (x, k_line) = [_level2_shape(V, t) for t in (l1, l2, k)]
    if a is None and b is None:
        return UNCLASSIFIABLE
    if a is None or b is None:
        # a double 2n against a translate c + n
        c = b if a is None else a
        if (m1 == m2 and x is not None and x in m1 and x != c
                and k_line == _join(V.base, x, c)):
            return CROSS_POINT_JOIN
        return UNCLASSIFIABLE
    if m1 != m2:
        # translates of lines meeting at c, k is 2 join(a,b) or c + join(a,b)
        common = m1 & m2
        if len(common) != 1 or k_line != _join(V.base, a, b):
            return UNCLASSIFIABLE
        if x is None or x in common:
            return CROSS_DOUBLE_OR_MEET_TRANSLATE
        return UNCLASSIFIABLE
    join = _join(V.base, a, b)  # raises on non-collinear a, b, also for 2m
    if x is None:
        fits = k_line == m1 and a in m1 and b in m1
    else:
        fits = x in m1 and k_line == join
    return CROSS_TRANSLATE_OF_JOIN if fits else UNCLASSIFIABLE


def _join(base: IncidenceStructure, a: int, b: int) -> frozenset[int]:
    if a == b:
        raise ValueError("join needs two distinct points")
    line = base.join()[a].get(b)
    if line is None:
        raise ValueError(f"points {a}, {b} are not collinear in the base")
    return base.lines[line]


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

    The scan is exhaustive at every size, over quadrangle_crossings.
    """
    checked = 0
    for q, crossing_l, crossing_k in quadrangle_crossings(G, top_of):
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


def check_tamaschke(G: IncidenceStructure, class_of: dict[int, int]) -> ScanReport:
    """Tamaschke condition: a line parallel to one side of a triangle that
    crosses a second side crosses the third.

    class_of maps line index to parallel-class id; lines missing from it
    carry no parallels.  Triangles are enumerated from each apex (the two
    sides through it and a third side crossing both elsewhere), so over
    all apexes every side takes the parallel role.

    Third sides come from _apex_crossings, and the class rows of the sides
    through an apex are built once per apex.  A triangle is read from the
    rows of its two apex sides over the class c of the third: a parallel
    crossing one side but not the other is a set bit of their XOR.
    checked still counts the (triangle, line of c) pairs the scan covers,
    len(members[c]) per triangle without a violation.
    """
    through = G.lines_through()
    members, position = _class_members(G, class_of)
    apexes = range(G.point_count)
    strata = None
    exhaustive = G.point_count <= EXHAUSTIVE_POINT_BUDGET
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
                for t1 in _apex_crossings(G, p, t2, t3):
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
                                   class_of: dict[int, int]) -> ScanReport:
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
    exhaustive = G.point_count <= EXHAUSTIVE_POINT_BUDGET
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
