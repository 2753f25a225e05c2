"""Affine reducts of Veronese spaces: delete a hyperplane, keep the
truncated lines, and induce the parallelism "same deleted point".

build_reduct is the library's one hyperplane deletion.  A plain partial
linear space M goes through it as V(1, M), which has M's point indices
and line set.  The reduct stores, for every truncated line, its ambient
parent and its unique infinite point; the parallel classes are exactly
the fibers of the infinite-point map, so directions correspond to
deleted points.  On top of that the module implements the definability
program: maximal strong subspaces (the leaf reducts), planes, the Veblen
parallelism, the two direction types, recovery of the horizon lines, and
full reconstruction of the ambient Veronese space from reduct-visible
data.

Definability operations are implemented twice where feasible: an oracle
route using stored ambient data, and a visible route using only reduct
incidence plus the induced parallelism; the two are compared.  The
quadrangle index, the parallelism reconstruction, the double horizon
lines and the Net-violation witness use reduct data alone: no route lets
ambient data choose or accept its candidates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Optional, Sequence

from . import incidence as inc
from .algebra import perp_rows
from .configs import FalsificationError, _join, quadrangle_crossings
from .hyperplanes import VeroneseHyperplane
from .incidence import IncidenceStructure, subspace_closure
from .multiset import Multiset
from .veronese import VeroneseSpace

ONE_LEAF = "ONE_LEAF"
TWO_LEAF = "TWO_LEAF"


@dataclass
class TruncatedLine:
    points: frozenset[int]
    parent: int
    infinite: int


class AffineReduct:
    """V(k, M0) minus a hyperplane, with the induced parallelism.

    classes[e] lists, in line order, the truncated lines whose deleted
    point is e.  The ambient space and the hyperplane serve the oracle
    comparisons and the refusal of degenerate input; no route reads them
    to pick or accept a witness.  Visible tops, direction tops, planes,
    the direction taxonomy and the quadrangle index are cached here on
    first use.
    """

    def __init__(self, ambient: VeroneseSpace, hyperplane: VeroneseHyperplane,
                 structure: IncidenceStructure, amb_of: tuple[int, ...],
                 lines: tuple[TruncatedLine, ...],
                 classes: dict[int, tuple[int, ...]]):
        self.ambient = ambient
        self.hyperplane = hyperplane
        self.structure = structure
        self.amb_of = amb_of
        self.red_of = {a: r for r, a in enumerate(amb_of)}
        self.lines = lines
        self.classes = classes
        self._tops: Optional[tuple[list[int], list[frozenset[int]]]] = None
        self._planes: Optional[tuple[list[frozenset[int]], list[frozenset[int]], int]] = None
        self._directions: Optional[DirectionsReport] = None
        self._quadrangles: Optional[tuple[list, frozenset[tuple[int, int]]]] = None

    # -- cached geometry ---------------------------------------------------

    def class_of_line(self) -> dict[int, int]:
        return {i: e for e, members in self.classes.items() for i in members}

    def infinite_label(self, e: int) -> Multiset:
        return self.ambient.points[e]

    @cached_property
    def direction_tops(self) -> dict[int, frozenset[int]]:
        """direction_tops[e]: the visible tops of the lines of class e; at
        level 2 one for a double 2x, two for a mixed point x+y."""
        top_of, _ = visible_tops(self)
        return {e: frozenset(top_of[li] for li in members)
                for e, members in self.classes.items()}

    @cached_property
    def leaf_reducts(self) -> set[frozenset[int]]:
        """The nonempty leaves minus the hyperplane, in reduct indexing."""
        out = {frozenset(self.red_of[q] for q in leaf - self.hyperplane.points)
               for leaf in self.ambient.leaves.values()}
        out.discard(frozenset())
        return out


def build_reduct(V: VeroneseSpace, H: VeroneseHyperplane) -> AffineReduct:
    """Delete the hyperplane from the Veronese space: the one hyperplane
    deletion of the library.

    A hyperplane meets every block in one point or all of it, and every
    block has at least 3 points, so each block outside H is cut at its one
    deleted point into a line of at least 2 points.  The truncated lines
    are sorted by point tuple; the classes, keyed by deleted point, list
    them in that order.  A plain partial linear space M reaches its reduct
    through V(1, M), which has M's point indices and line set.
    """
    pts = H.points
    if not inc.is_hyperplane(V.structure, pts):
        raise ValueError("trace is not a hyperplane of the structure")
    amb_of = tuple(q for q in range(len(V.points)) if q not in pts)
    red_of = {a: r for r, a in enumerate(amb_of)}
    cut = sorted((tuple(sorted(red_of[q] for q in block - pts)), bi,
                  next(iter(block & pts)))
                 for bi, block in enumerate(V.structure.lines) if not block <= pts)
    lines = tuple(TruncatedLine(frozenset(trunc), bi, e) for trunc, bi, e in cut)
    structure = IncidenceStructure(len(amb_of), [t.points for t in lines],
                                   labels={r: V.points[a] for r, a in enumerate(amb_of)})
    classes: dict[int, list[int]] = {}
    for i, t in enumerate(lines):
        classes.setdefault(t.infinite, []).append(i)
    return AffineReduct(V, H, structure, amb_of, lines,
                        {e: tuple(classes[e]) for e in sorted(classes)})


# ---------------------------------------------------------------------------
# visible maximal strong subspaces (leaf reducts)


def visible_tops(A: AffineReduct) -> tuple[list[int], list[frozenset[int]]]:
    """Assign each line its maximal strong subspace, found by growth.

    A strong set containing a line lies inside a single maximal strong
    subspace here (adjacency to three points of a line pins the leaf), so
    greedy closure growth from any line reaches it.  Returns
    (top_of_line, subspaces).
    """
    if A._tops is not None:
        return A._tops
    G = A.structure
    through = G.lines_through()
    top_of: list[Optional[int]] = [None] * len(G.lines)
    subspaces: list[frozenset[int]] = []
    for li, line in enumerate(G.lines):
        if top_of[li] is not None:
            continue
        T = subspace_closure(G, line)
        while (Y := next(inc.strong_extensions(G, T), None)) is not None:
            T = Y
        ti = len(subspaces)
        subspaces.append(T)
        for lj in {lj for q in T for lj in through[q]}:
            if top_of[lj] is None and G.lines[lj] <= T:
                top_of[lj] = ti
    A._tops = ([t for t in top_of], subspaces)
    return A._tops


def _tops_at(A: AffineReduct, reader: str) -> list[set[int]]:
    """The visible tops through each reduct point, for a reader that takes
    each top for a leaf reduct of a level-2 space.  A point lies in k
    leaves at level k, so a point in more than two tops (level 3 and up,
    or a quadric base, whose leaves are not strong) refuses the reader
    with ValueError."""
    top_of, _ = visible_tops(A)
    tops_at = [{top_of[li] for li in on} for on in A.structure.lines_through()]
    most = max(map(len, tops_at), default=0)
    if most > 2:
        raise ValueError(f"a point lies in {most} visible tops: the tops are not "
                         f"leaves of a level-2 space, so {reader} does not apply")
    return tops_at


def verify_maximal_strong(A: AffineReduct) -> dict:
    """The maximal strong subspaces are exactly the leaf reducts.

    Checks: each visible subspace equals a leaf reduct (oracle), each is
    strong and one-point-unextendable, every line lies in one, and any
    point adjacent to a whole line lies in that line's subspace (so no
    strong set escapes).
    """
    top_of, subs = visible_tops(A)
    # oracle: the leaf reducts (x + S) minus the hyperplane
    ok_sets = set(subs) == A.leaf_reducts
    G = A.structure
    ok_strong = all(inc.is_strong(G, T) for T in subs)
    ok_maximal = all(next(inc.strong_extensions(G, T), None) is None
                     for T in subs)
    ok_cover = all(t is not None for t in top_of)
    ok_pinning = all(inc.common_neighbours(G, line) <= subs[top_of[li]]
                     for li, line in enumerate(G.lines))
    return {"sets_match_leaf_reducts": ok_sets, "all_strong": ok_strong,
            "all_maximal": ok_maximal, "every_line_covered": ok_cover,
            "adjacency_pins_leaf": ok_pinning,
            "count": len(subs)}


# ---------------------------------------------------------------------------
# direction taxonomy


@dataclass
class DirectionsReport:
    kinds: dict[int, str]
    subclasses: dict[int, tuple[tuple[int, ...], ...]]
    one_leaf: int
    two_leaf: int
    dichotomy_ok: bool


def classify_directions(A: AffineReduct) -> DirectionsReport:
    """Each direction (deleted point) is ONE_LEAF or TWO_LEAF.

    ONE_LEAF (doubles 2x): one visible top, all members pairwise
    Veblen-parallel.  TWO_LEAF (mixed x+y): two or more tops, two members
    not Veblen-parallel and every member Veblen-parallel to exactly one of
    them, splitting the class into exactly two subclasses.  Both horns are
    re-verified with the Veblen formula; tops that are not the leaves of a
    level-2 space and degenerate hyperplanes are refused.  The report is
    cached on A.
    """
    if A._directions is not None:
        return A._directions
    _tops_at(A, "the direction taxonomy")
    if A.hyperplane.degenerate:
        raise ValueError("direction taxonomy needs a nondegenerate hyperplane")
    G = A.structure
    kinds: dict[int, str] = {}
    subclasses: dict[int, tuple[tuple[int, ...], ...]] = {}
    dichotomy_ok = True
    for e, members in A.classes.items():
        if len(A.direction_tops[e]) == 1:
            kinds[e] = ONE_LEAF
            for i, j in itertools.combinations(members, 2):
                if not inc.veblen_parallel_lines(G, i, j):
                    dichotomy_ok = False
            subclasses[e] = (tuple(members),)
        else:
            kinds[e] = TWO_LEAF
            rep1 = members[0]
            rep2 = next((m for m in members[1:]
                         if not inc.veblen_parallel_lines(G, rep1, m)), None)
            if rep2 is None:
                dichotomy_ok = False
                subclasses[e] = (tuple(members),)
                continue
            part1, part2 = [], []
            for m in members:
                p1 = inc.veblen_parallel_lines(G, rep1, m)
                p2 = inc.veblen_parallel_lines(G, rep2, m)
                if p1 == p2:
                    dichotomy_ok = False
                (part1 if p1 else part2).append(m)
            subclasses[e] = (tuple(part1), tuple(part2))
    one = sum(1 for k in kinds.values() if k == ONE_LEAF)
    two = sum(1 for k in kinds.values() if k == TWO_LEAF)
    A._directions = DirectionsReport(kinds, subclasses, one, two, dichotomy_ok)
    return A._directions


def veblen_subclass_map(A: AffineReduct) -> dict[int, int]:
    """line index -> Veblen-parallel class id (one or two per direction)."""
    report = classify_directions(A)
    parts = [part for e in sorted(report.subclasses) for part in report.subclasses[e]]
    return {li: c for c, part in enumerate(parts) for li in part}


# ---------------------------------------------------------------------------
# planes


def reduct_plane_family(A: AffineReduct) -> tuple[list, list, int]:
    """(planes, their direction traces, seeds closed), cached on A.

    The planes are the closures of crossing line pairs inside one leaf
    reduct.  Each top numbers its lines in line order and keeps, per line,
    one bitset of the lines already found coplanar with it; at each point
    a line seeds only the partners after it that no found plane covers.
    A leaf reduct is a strong subspace, so a seed closes on the join rows
    of its points; the lines the closure meets give the plane's direction
    trace.
    """
    if A._planes is None:
        G = A.structure
        join, lines = G.join(), G.lines
        top_of, subs = visible_tops(A)
        own: list[list[int]] = [[] for _ in subs]
        for li, ti in enumerate(top_of):
            own[ti].append(li)
        infinite = [t.infinite for t in A.lines]
        traces: dict[frozenset[int], frozenset[int]] = {}
        closures = 0
        for members in own:
            number = {li: n for n, li in enumerate(members)}
            at: dict[int, int] = {}  # point -> its lines in the top, as a bitset
            for n, li in enumerate(members):
                for q in lines[li]:
                    at[q] = at.get(q, 0) | 1 << n
            coplanar = [0] * len(members)
            for p in sorted(at):
                here = at[p]
                while here:
                    a = (here & -here).bit_length() - 1
                    here &= here - 1
                    rest = here & ~coplanar[a]
                    while rest:
                        b = (rest & -rest).bit_length() - 1
                        plane, inside = _join_closure(
                            join, lines, lines[members[a]] | lines[members[b]])
                        closures += 1
                        nums = [number[li] for li in inside]
                        mask = sum(1 << n for n in nums)
                        for n in nums:
                            coplanar[n] |= mask
                        rest &= ~mask
                        traces[plane] = frozenset(infinite[li] for li in inside)
        planes = sorted(traces, key=sorted)
        A._planes = (planes, [traces[pl] for pl in planes], closures)
    return A._planes


def _join_closure(join: list[dict[int, int]], lines: Sequence[frozenset[int]],
                  seed: frozenset[int]) -> tuple[frozenset[int], set[int]]:
    """(closure of seed, the lines joining its point pairs), for a seed
    inside a strong subspace, where every pair is joined: each point is
    joined to every point before it, and a line met adds its points."""
    pts = list(seed)
    held = set(seed)
    inside: set[int] = set()
    n = 1
    while n < len(pts):
        row = join[pts[n]]
        for r in pts[:n]:
            li = row[r]
            if li not in inside:
                inside.add(li)
                fresh = lines[li] - held
                held |= fresh
                pts.extend(fresh)
        n += 1
    return frozenset(held), inside


# ---------------------------------------------------------------------------
# horizon recovery


def recover_horizon_leaf_lines(A: AffineReduct) -> set[frozenset[int]]:
    """Horizon lines inside single-point leaves, as direction sets.

    Three directions are collinear exactly when some plane carries lines
    of all three; every plane's direction trace is then a full horizon
    line, so the recovered family is the set of plane traces, read from
    the traces the plane family cached as each plane closed.
    """
    return {tr for tr in reduct_plane_family(A)[1] if len(tr) >= 3}


def _double_of_top(A: AffineReduct) -> dict[int, int]:
    """Visible top -> its one-top direction: the double of that leaf.

    A top with two one-top directions is refused with ValueError when H is
    degenerate (a radical point r gives each leaf x both 2x and x+r), and
    is a falsification otherwise.  Only that refusal reads the hyperplane.
    Tops that are not the leaves of a level-2 space are refused first.
    """
    _tops_at(A, "the double-line read")
    out: dict[int, int] = {}
    for e, tops in A.direction_tops.items():
        if len(tops) == 1:
            (t,) = tops
            if out.setdefault(t, e) != e:
                if A.hyperplane.degenerate:
                    raise ValueError("the double-line read needs a nondegenerate hyperplane")
                raise FalsificationError(f"top {t} has one-top directions {out[t]} and {e}")
    return out


def recover_horizon_double_lines(A: AffineReduct) -> set[frozenset[int]]:
    """Horizon lines inside the double leaf, read off the visible tops.

    With the double leaf inside H, a proper point x+y lies in the tops of
    x and y, and a one-top direction is the double of its top's leaf.  So
    a line of x + L with top T names the leaves of L by the other top of
    each point and of its direction (T for a one-top direction): their
    doubles make up 2L, and a nondegenerate H cuts every L in some leaf.
    Without one other top, or a double for it, a line names nothing.
    """
    top_of, _ = visible_tops(A)
    double_of = _double_of_top(A)
    through = A.structure.lines_through()

    def across(tops: Collection[int]) -> dict[int, Optional[int]]:
        """Each of two tops -> the double of the other."""
        if len(tops) != 2:
            return {}
        a, b = tops
        return {a: double_of.get(b), b: double_of.get(a)}

    point_across = [across({top_of[li] for li in lines}) for lines in through]
    recovered = set()
    for e, members in A.classes.items():
        tops = A.direction_tops[e]
        dir_across = across(tops) if len(tops) > 1 else dict.fromkeys(tops, e)
        for li in members:
            doubles = {point_across[q].get(top_of[li]) for q in A.lines[li].points}
            doubles.add(dir_across.get(top_of[li]))
            if None not in doubles:
                recovered.add(frozenset(doubles))
    return recovered


def _quadrangle_index(A: AffineReduct) -> tuple[list, frozenset[tuple[int, int]]]:
    """(every proper quadrangle with the fresh crossings of its opposite
    pairs, the completable pairs), cached on A from reduct incidence and
    visible tops alone.  A pair i < j is completable when the lines are
    disjoint and cross the two opposite pairs of one proper quadrangle as
    fresh crossings."""
    if A._quadrangles is None:
        G = A.structure
        top_of, _ = visible_tops(A)
        walk = list(quadrangle_crossings(G, top_of))
        pairs = {(min(i, j), max(i, j)) for _, crossing_l, crossing_k in walk
                 for i in crossing_l for j in crossing_k
                 if not G.lines[i] & G.lines[j]}
        A._quadrangles = (walk, frozenset(pairs))
    return A._quadrangles


def scan_declared_double_triples(A: AffineReduct) -> dict:
    """Negative scan: every declared double triple comes from collinear
    base points.

    Scans every proper quadrangle of the quadrangle index, reads the
    doubles named by the tops of each opposite pair's fresh crossings (a
    top names its one-top direction), and checks them against ambient
    collinearity (an oracle comparison)."""
    V = A.ambient
    top_of, _ = visible_tops(A)
    double_of = _double_of_top(A)
    walk, _ = _quadrangle_index(A)
    declared = 0
    for _, *pairs in walk:
        for crossing in pairs:
            ds = sorted({double_of[top_of[k]] for k in crossing
                         if top_of[k] in double_of})
            if len(ds) >= 3:
                declared += 1
                if not set(ds) <= _join(V.structure, ds[0], ds[1]):
                    raise FalsificationError(
                        f"declared doubles {ds} are not collinear in the ambient space")
    return {"quadrangles_scanned": len(walk), "triples_declared": declared}


# ---------------------------------------------------------------------------
# full recovery


@dataclass
class RecoveryReport:
    point_count: int
    line_count: int
    points_match: bool
    lines_match: bool
    missing_lines: int
    extra_lines: int
    plane_closures: int

    @property
    def ok(self) -> bool:
        return self.points_match and self.lines_match


def recover_veronese(A: AffineReduct) -> RecoveryReport:
    """Rebuild the ambient Veronese space from the reduct.

    Points: proper points plus one per direction (its deleted point).
    Lines: every truncated line completed by its direction, the horizon
    lines recovered inside single-point leaves (plane traces) and inside
    the double leaf (read off the visible tops).  The assembled structure
    is compared line-for-line with the ambient space; any mismatch is a
    falsification, not a warning.
    """
    V = A.ambient
    if A.hyperplane.degenerate:
        raise ValueError("recovery is defined for nondegenerate hyperplanes only")
    recovered_points = set(A.amb_of) | set(A.classes)
    points_match = recovered_points == set(range(len(V.points)))

    recovered_lines: set[frozenset[int]] = set()
    for t in A.lines:
        amb = frozenset(A.amb_of[q] for q in t.points) | {t.infinite}
        recovered_lines.add(amb)
    recovered_lines.update(recover_horizon_leaf_lines(A))
    recovered_lines.update(recover_horizon_double_lines(A))

    ambient_lines = set(V.structure.lines)
    missing = ambient_lines - recovered_lines
    extra = recovered_lines - ambient_lines
    return RecoveryReport(
        point_count=len(recovered_points),
        line_count=len(recovered_lines),
        points_match=points_match,
        lines_match=not missing and not extra,
        missing_lines=len(missing),
        extra_lines=len(extra),
        plane_closures=reduct_plane_family(A)[2],
    )


# ---------------------------------------------------------------------------
# Net axiom violation


def _net_accepts(G: IncidenceStructure, top_of: Sequence[int], quad: Sequence[int],
                 l3: int, k3: int) -> bool:
    """The reduct-incidence acceptance of a Net-violation candidate.

    The sides quad = [l1, k1, l2, k2] are four distinct lines in four
    distinct tops that cross in a cycle at four points, with no diagonal
    (p1, p3 and p2, p4 not collinear); l3 and k3 are no sides, l3 crosses
    k1 and k2, k3 crosses l1 and l2, and l3 and k3 are disjoint.
    """
    lines = G.lines
    l1, k1, l2, k2 = quad
    if len(set(quad)) != 4 or len({top_of[t] for t in quad}) != 4:
        return False
    crossings = [lines[l1] & lines[k1], lines[k1] & lines[l2],
                 lines[l2] & lines[k2], lines[k2] & lines[l1]]
    if not all(crossings):
        return False
    p1, p2, p3, p4 = (next(iter(c)) for c in crossings)
    join = G.join()
    return not (p3 == p1 or p3 in join[p1] or p4 == p2 or p4 in join[p2]
                or l3 in quad or k3 in quad
                or not (lines[l3] & lines[k1] and lines[l3] & lines[k2])
                or not (lines[k3] & lines[l1] and lines[k3] & lines[l2])
                or lines[l3] & lines[k3])


def _bit_indices(mask: int) -> list[int]:
    """The set bits of mask, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _pairs(n: int) -> int:
    """C(n, 2), and 0 below 2."""
    return n * (n - 1) // 2 if n > 1 else 0


class _NetSearch:
    """The reduct data the Net-violation search reads, built once per call,
    and its steps on one mixed class.

    For a point q in two tops s and t, vertex[s, t] is q, meets[s] has bit
    t set and both[q] has bits s and t; both[q] is 0 for a point in one
    top.  A top never lies in its own meets row.  A class's rows are
    (line, number of named points, bitset of their other tops), one per
    line, in class order; the walk alone sorts a line's named points.
    """

    def __init__(self, A: AffineReduct):
        self.top_of, subs = visible_tops(A)
        self.G = A.structure
        self.tops_at = _tops_at(A, "the Net-violation witness")
        self.classes = A.classes
        self.mixed = [(e, min(tops)) for e, tops in A.direction_tops.items()
                      if len(tops) == 2]
        self.vertex: dict[tuple[int, int], int] = {}
        self.meets = [0] * len(subs)
        self.both = [0] * len(self.tops_at)
        for q, tops in enumerate(self.tops_at):
            if len(tops) == 2:
                s, t = tops
                self.vertex[s, t] = self.vertex[t, s] = q
                self.meets[s] |= 1 << t
                self.meets[t] |= 1 << s
                self.both[q] = 1 << s | 1 << t

    def sides(self, e: int, k_top: int) -> tuple[list, list]:
        """The rows of class e's lines in top k_top (the k side) and in the
        other top (the l side)."""
        lines, top_of, both = self.G.lines, self.top_of, self.both
        k_rows, l_rows = [], []
        for li in self.classes[e]:
            t = top_of[li]
            mask = named = 0
            for q in lines[li]:
                if both[q]:
                    mask |= both[q]
                    named += 1
            (k_rows if t == k_top else l_rows).append((li, named, mask & ~(1 << t)))
        return k_rows, l_rows

    def holds_vertex_pair(self, k_rows: list, l_rows: list) -> bool:
        """Whether some candidate of the class may have both vertices:
        some l-side mask has two bits in the live of some k-side pair
        (a1 and b1 are not in their live, so such a q-pair is disjoint
        from the p-pair), or two named points of a line share an other
        top, where the bits undercount the pairs."""
        if any(mask.bit_count() != named for _, named, mask in k_rows + l_rows):
            return True
        meets = self.meets
        lives = {meets[a] & meets[b] for _, _, pm in k_rows
                 for a, b in itertools.combinations(_bit_indices(pm), 2)}
        return any((qm & live).bit_count() > 1 for _, _, qm in l_rows for live in lives)

    @staticmethod
    def count_class(k_rows: list, l_rows: list) -> int:
        """The class's candidates, whose p-pair and q-pair name disjoint
        tops, in closed form; the named points of each line must have
        distinct other tops.  For k3 with np named points and l3 with n,
        c other tops in common: the p-pairs with no, one and two common
        tops take C(n, 2), C(n - 1, 2) and C(n - 2, 2) q-pairs."""
        total = 0
        for _, n, qm in l_rows:
            none, one, two = _pairs(n), _pairs(n - 1), _pairs(n - 2)
            for _, np, pm in k_rows:
                c = (pm & qm).bit_count()
                d = np - c
                total += d * (d - 1) // 2 * none + c * d * one + c * (c - 1) // 2 * two
        return total

    def walk_class(self, e: int, k_rows: list, l_rows: list,
                   checked: int) -> tuple[Optional[dict], int]:
        """Walk class e's candidates one at a time from position checked:
        (the witness dict of the first accepted candidate or None, the
        position reached)."""
        G, top_of, tops_at = self.G, self.top_of, self.tops_at
        lines, join = G.lines, G.join()
        vertex, meets = self.vertex, self.meets

        def point_pairs(li: int) -> list:
            """The pairs ((P, a), (R, b), bitset of a and b) of points on line
            li with other tops a and b."""
            named = [(q, next(t for t in tops_at[q] if t != top_of[li]))
                     for q in sorted(lines[li]) if len(tops_at[q]) == 2]
            return [(P, R, 1 << P[1] | 1 << R[1]) for P, R in itertools.combinations(named, 2)]

        k_side = [(li, point_pairs(li)) for li, _, _ in k_rows]
        l_side = [(li, point_pairs(li)) for li, _, _ in l_rows]
        for (l3, q_pairs), (k3, p_pairs) in itertools.product(l_side, k_side):
            for (P1, a1), (P2, b1), pm in p_pairs:
                live = meets[a1] & meets[b1]  # the tops meeting both a1 and b1
                for (Q1, a2), (Q2, b2), qm in q_pairs:
                    if pm & qm:
                        continue
                    checked += 1
                    if qm & live != qm:  # a vertex is missing
                        continue
                    v1, v3 = vertex[a1, a2], vertex[b1, b2]
                    quad = [join[P1][v1], join[Q1][v1], join[P2][v3], join[Q2][v3]]
                    if _net_accepts(G, top_of, quad, l3, k3):
                        return {"found": True, "quadrangle": quad,
                                "l3": l3, "k3": k3, "ambient_meet": e,
                                "meet_in_hyperplane": True,
                                "configurations_checked": checked}, checked
        return None, checked


def net_violation_witness(A: AffineReduct) -> dict:
    """Search for two reduct lines meeting only at a deleted mixed point,
    completed to a proper quadrangle they cross (one opposite pair each),
    which would witness a Net-axiom failure in the reduct.

    The search reads visible tops, direction classes and reduct incidence
    alone.  It reads each visible top as a leaf reduct, so it refuses a
    reduct with a point in more than two tops (_tops_at): at level 3 and
    up, and over a quadric base.  A mixed direction e is a deleted
    point whose lines lie in two visible tops; k3 runs over the lines of
    class e in the lower-index top and l3 over those in the other.  Each
    point of k3 or l3 with a second top is named by it; the candidates
    are the pairs {P1, P2} on k3 and {Q1, Q2} on l3, in point order, whose
    other tops a1, b1 and a2, b2 are pairwise distinct.  A vertex is the
    one point shared by a top of the k3 side and one of the l3 side (a1,
    a2; b1, a2; b1, b2; a1, b2), and a candidate with a missing vertex is
    rejected; the sides join P1 and Q1 to the first vertex and P2 and Q2
    to the third, as [l1, k1, l2, k2], and _net_accepts decides the rest.
    The meet e is a deleted point, so meet_in_hyperplane is always true.

    Each class is first filtered on bitsets.  A candidate has both
    vertices exactly when a2 and b2 lie in live, the tops meeting both a1
    and b1, so the class holds one exactly when some l3's mask of other
    tops has two bits in the live of some p-pair of a k3.  A class that
    holds one, or where two named points of a line share an other top,
    is walked candidate by candidate, in order.  Every other class is
    counted in closed form (_NetSearch.count_class), since none of its
    candidates reaches _net_accepts.  At level 2 the named points of a
    line have distinct other tops: two with the same one would both lie
    in that top and in the line's, and two leaves share at most one
    point.  configurations_checked is still the position of the
    candidate reached; an exhausted search is a certificate that no
    violation of this kind exists (over GF(3) the vertex conditions are
    in fact unsatisfiable, so every class is counted and the certificate
    is the expected outcome there).  On a
    hyperplane that holds every double 2x these are the candidates of the
    shape on base lines (l3 = y + m and k3 = x + n for a deleted x + y);
    on a leaf pencil no deleted point has lines in two tops, so the
    answer there is "no mixed deleted point".
    """
    search = _NetSearch(A)
    if not search.mixed:
        return {"found": False, "reason": "no mixed deleted point",
                "configurations_checked": 0}
    checked = 0
    for e, k_top in search.mixed:
        k_rows, l_rows = search.sides(e, k_top)
        if search.holds_vertex_pair(k_rows, l_rows):
            found, checked = search.walk_class(e, k_rows, l_rows, checked)
            if found:
                return found
        else:
            checked += search.count_class(k_rows, l_rows)
    return {"found": False, "reason": "complete shape enumeration exhausted",
            "configurations_checked": checked}


def net_violation_shape_on_base(P, xi) -> Optional[tuple]:
    """Search the violating configuration on base coordinates alone.

    All reduct-level conditions of the Net-violation shape (survival of
    the six lines, proper crossings and vertices, the deleted meet) are
    conjugacy conditions on the base, so the search runs the shape on the
    orthogonality table kappa, over every ordered pair (v, w) of distinct
    conjugate points, without building the Veronese space: base lines m
    through v and n through w with w off m, v off n, m not inside
    kappa[w] and n not inside kappa[v]; then disjoint pairs a1 < b1 on
    n - {v, w} off kappa[v] and a2 < b2 on m - {v, w} off kappa[w], every
    a conjugate to no b.  Returns the first hit (v, w, mi, ni, a1, b1, a2,
    b2) or None after complete enumeration; over GF(3) the answer is None,
    over GF(5) a witness exists.
    """
    kappa = perp_rows(xi, [P.labels[i] for i in range(P.point_count)])
    through = P.lines_through()
    for v, w in ((v, w) for v in P.points for w in sorted(kappa[v]) if w != v):
        ms = [mi for mi in through[v] if w not in P.lines[mi] and not P.lines[mi] <= kappa[w]]
        ns = [ni for ni in through[w] if v not in P.lines[ni] and not P.lines[ni] <= kappa[v]]
        for mi, ni in itertools.product(ms, ns):
            m, n = P.lines[mi], P.lines[ni]
            a_pool = [a for a in sorted(n - {v, w}) if a not in kappa[v]]
            b_pool = [b for b in sorted(m - {v, w}) if b not in kappa[w]]
            for (a1, b1), (a2, b2) in itertools.product(itertools.combinations(a_pool, 2),
                                                        itertools.combinations(b_pool, 2)):
                if (a1 != a2 and a1 != b2 and b1 != a2 and b1 != b2
                        and not (a2 in kappa[a1] or b2 in kappa[a1]
                                 or a2 in kappa[b1] or b2 in kappa[b1])):
                    return (v, w, mi, ni, a1, b1, a2, b2)
    return None


# ---------------------------------------------------------------------------
# incidence-only reconstruction of the induced parallelism


def reconstruct_parallel_pair(A: AffineReduct, i: int, j: int) -> bool:
    """Decide i parallel j from reduct data only.

    Same leaf: the Veblen formula.  Distinct leaves: the pair must be
    completable in the quadrangle index (disjoint lines crossing the two
    opposite pairs of one proper quadrangle as fresh crossings); the
    ambient lines then meet, and since the reduct lines are disjoint the
    meet lies on the horizon, which is exactly the induced parallelism.
    """
    if i == j:
        return True
    top_of, _ = visible_tops(A)
    if top_of[i] == top_of[j]:
        return inc.veblen_parallel_lines(A.structure, i, j)
    return (min(i, j), max(i, j)) in _quadrangle_index(A)[1]


def check_parallelism_reconstruction(A: AffineReduct) -> dict:
    """Compare the incidence-only reconstruction with the stored relation
    on every pair it can decide.

    Every stored same-leaf parallel pair goes through the Veblen formula
    and must agree.  Every stored cross-leaf parallel pair is looked up in
    the quadrangle index; over GF(3) no such pair is completable, so these
    pairs are reported apart rather than folded into the verdict.  Every
    pair the index declares completable must be stored-parallel (one that
    is not would contradict the Net law and is a falsification).  Tops
    that are not the leaves of a level-2 space are refused.
    """
    _tops_at(A, "the parallelism reconstruction")
    top_of, _ = visible_tops(A)
    same_leaf, cross_leaf = [], []
    for members in A.classes.values():
        for i, j in itertools.combinations(members, 2):
            (same_leaf if top_of[i] == top_of[j] else cross_leaf).append((i, j))
    class_of = A.class_of_line()
    declared = _quadrangle_index(A)[1]
    same_ok = sum(1 for i, j in same_leaf if reconstruct_parallel_pair(A, i, j))
    cross_ok = sum(1 for i, j in cross_leaf if reconstruct_parallel_pair(A, i, j))
    declared_ok = sum(1 for i, j in declared if class_of[i] == class_of[j])
    return {
        "same_leaf_checked": len(same_leaf), "same_leaf_agree": same_ok,
        "cross_leaf_checked": len(cross_leaf), "cross_leaf_completable": cross_ok,
        "declared_pairs": len(declared), "declared_parallel": declared_ok,
        "sound": same_ok == len(same_leaf) and declared_ok == len(declared),
    }


# ---------------------------------------------------------------------------
# gamma chains on reducts and polar Veronese spaces


def truncated_plane_family(V: VeroneseSpace, H_points: frozenset[int],
                           ambient_planes: Sequence[frozenset[int]],
                           red_of: dict[int, int]) -> list[frozenset[int]]:
    """Proper parts of ambient planes, in reduct indexing, lines preserved."""
    out = set()
    for pl in ambient_planes:
        kept = frozenset(red_of[q] for q in pl - H_points)
        if len(kept) >= 3:
            out.add(kept)
    return sorted(out, key=sorted)
