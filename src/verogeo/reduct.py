"""Affine reducts of Veronese spaces: delete a hyperplane, keep the
truncated lines, and induce the parallelism "same deleted point".

The reduct stores, for every truncated line, its ambient parent and its
unique infinite point; the parallel classes are exactly the fibers of the
infinite-point map, so directions correspond to deleted points.  On top of
that the module implements the definability program: maximal strong
subspaces (the leaf reducts), planes, the Veblen parallelism, the two
direction types, recovery of the horizon lines, and full reconstruction of
the ambient Veronese space from reduct-visible data.

Definability operations are implemented twice where feasible: an oracle
route using stored ambient data, and a visible route using only reduct
incidence plus the induced parallelism; the two are compared.  Ambient
data may guide the *choice* of witnesses for the visible route, but every
acceptance decision on that route is made by reduct-visible predicates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from . import incidence as inc
from .algebra import perp_rows
from .configs import FalsificationError, _join, find_quadrangles, fresh_crossings
from .hyperplanes import FULL, VeroneseHyperplane
from .incidence import IncidenceStructure, subspace_closure
from .multiset import Multiset, scale_point
from .spaces import affine_reduct_of
from .veronese import VeroneseSpace

ONE_LEAF = "ONE_LEAF"
TWO_LEAF = "TWO_LEAF"
DEGENERATE = "DEGENERATE"
PLANE = "PLANE"


@dataclass
class TruncatedLine:
    points: frozenset[int]
    parent: int
    infinite: int


class AffineReduct:
    """V(k, M0) minus a hyperplane, with the induced parallelism.

    classes[e] lists, in line order, the truncated lines whose deleted
    point is e.  The lookups below that name ambient data (lines by their
    parent block, trace rows, double-leaf tops) serve the guided searches,
    which use them to pick witnesses, never to accept one.
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
        self._line_of_parent = {t.parent: li for li, t in enumerate(lines)}
        self._line_at: dict[tuple[int, frozenset[int]], Optional[int]] = {}
        self._tops: Optional[tuple[list[int], list[frozenset[int]]]] = None
        self._planes: Optional[list[frozenset[int]]] = None
        self._veblen_cache: dict[tuple[int, int], bool] = {}

    # -- cached geometry ---------------------------------------------------

    def class_of_line(self) -> dict[int, int]:
        out = {}
        for e, members in self.classes.items():
            for i in members:
                out[i] = e
        return out

    def infinite_label(self, e: int) -> Multiset:
        return self.ambient.points[e]

    def line_at(self, x: int, base_line: frozenset[int]) -> Optional[int]:
        """The reduct line cut from the level-2 block x + base_line, or None
        when that block lies inside the hyperplane."""
        key = (x, base_line)
        if key not in self._line_at:
            V = self.ambient
            block = frozenset(V.pair[x][z] for z in base_line)
            self._line_at[key] = self._line_of_parent.get(
                V.structure.line_index().get(block))
        return self._line_at[key]

    @cached_property
    def rows(self) -> dict[int, frozenset[int]]:
        """rows[x]: the trace of the hyperplane on the leaf of base point x,
        the whole base point set when that leaf lies in the hyperplane."""
        everything = frozenset(self.ambient.base.points)
        rows = {}
        for x in self.ambient.base.points:
            trace = self.hyperplane.h_function[scale_point(1, x)]
            rows[x] = everything if trace == FULL else trace
        return rows

    @cached_property
    def double_tops(self) -> dict[int, int]:
        """Base point x -> the visible top of the first line in direction 2x,
        for every x whose double is deleted."""
        V = self.ambient
        top_of, _ = visible_tops(self)
        out = {}
        for x in range(V.base.point_count):
            members = self.classes.get(V.pair[x][x])
            if members:
                out[x] = top_of[members[0]]
        return out

    @cached_property
    def leaf_reducts(self) -> set[frozenset[int]]:
        """The nonempty leaves minus the hyperplane, in reduct indexing."""
        out = {frozenset(self.red_of[q] for q in leaf - self.hyperplane.points)
               for leaf in self.ambient.leaves.values()}
        out.discard(frozenset())
        return out


def build_reduct(V: VeroneseSpace, H: VeroneseHyperplane) -> AffineReduct:
    """Delete the hyperplane from the Veronese space.

    spaces.affine_reduct_of verifies the hyperplane, the 1-or-all law per
    block and the line floor; its parallel classes, keyed here by deleted
    point, partition the truncated lines.
    """
    data = affine_reduct_of(V.structure, H.points)
    lines = tuple(TruncatedLine(pts, parent, inf) for pts, parent, inf in zip(
        data.structure.lines, data.parents, data.infinite_points))
    classes = {lines[c[0]].infinite: c for c in data.parallel.parallel_classes}
    return AffineReduct(V, H, data.structure, data.kept, lines, classes)


def check_classes_disjoint(A: AffineReduct) -> bool:
    """Lines of one class are pairwise disjoint (they meet only at the
    deleted infinite point)."""
    for members in A.classes.values():
        for i, j in itertools.combinations(members, 2):
            if A.lines[i].points & A.lines[j].points:
                return False
    return True


# ---------------------------------------------------------------------------
# Veblen parallelism on the reduct


def veblen_parallel(A: AffineReduct, i: int, j: int) -> bool:
    """Formula-level Veblen parallelism between reduct lines, cached."""
    key = (min(i, j), max(i, j))
    hit = A._veblen_cache.get(key)
    if hit is None:
        hit = inc.veblen_parallel_lines(A.structure, i, j)
        A._veblen_cache[key] = hit
    return hit


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
        for lj in range(len(G.lines)):
            if top_of[lj] is None and G.lines[lj] <= T:
                top_of[lj] = ti
    A._tops = ([t for t in top_of], subspaces)
    return A._tops


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

    ONE_LEAF (doubles 2x): all class members pairwise Veblen-parallel.
    TWO_LEAF (mixed x+y): two members are not Veblen-parallel and every
    member is Veblen-parallel to exactly one of them, splitting the class
    into exactly two subclasses.  Both horns are re-verified with the
    Veblen formula; degenerate hyperplanes are refused.
    """
    if A.hyperplane.degenerate:
        raise ValueError("direction taxonomy needs a nondegenerate hyperplane")
    kinds: dict[int, str] = {}
    subclasses: dict[int, tuple[tuple[int, ...], ...]] = {}
    dichotomy_ok = True
    for e, members in A.classes.items():
        label = A.infinite_label(e)
        if len(label.support()) == 1:
            kinds[e] = ONE_LEAF
            for i, j in itertools.combinations(members, 2):
                if not veblen_parallel(A, i, j):
                    dichotomy_ok = False
            subclasses[e] = (tuple(members),)
        else:
            kinds[e] = TWO_LEAF
            rep1 = members[0]
            rep2 = next((m for m in members[1:]
                         if not veblen_parallel(A, rep1, m)), None)
            if rep2 is None:
                dichotomy_ok = False
                subclasses[e] = (tuple(members),)
                continue
            part1, part2 = [], []
            for m in members:
                p1 = veblen_parallel(A, rep1, m)
                p2 = veblen_parallel(A, rep2, m)
                if p1 == p2:
                    dichotomy_ok = False
                (part1 if p1 else part2).append(m)
            subclasses[e] = (tuple(part1), tuple(part2))
    one = sum(1 for k in kinds.values() if k == ONE_LEAF)
    two = sum(1 for k in kinds.values() if k == TWO_LEAF)
    return DirectionsReport(kinds, subclasses, one, two, dichotomy_ok)


def veblen_subclass_map(A: AffineReduct) -> dict[int, int]:
    """line index -> Veblen-parallel class id (one or two per direction)."""
    report = classify_directions(A)
    out: dict[int, int] = {}
    next_id = 0
    for e in sorted(report.subclasses):
        for part in report.subclasses[e]:
            for li in part:
                out[li] = next_id
            next_id += 1
    return out


# ---------------------------------------------------------------------------
# planes


def plane_from_triangle(A: AffineReduct, l1: int, l2: int, l3: int
                        ) -> tuple[str, frozenset[int]]:
    """Union of the parallels of l1 crossing both l2 and l3.

    The three lines must form a triangle (pairwise crossing, vertices
    distinct).  Under the side condition (the vertex opposite l1 is
    adjacent to a point of l1 beyond the other two vertices) the union is
    a plane of a leaf reduct; without it the union may collapse or spread
    over several leaves, and is then tagged DEGENERATE.  A plane here
    means: contained in one maximal strong subspace and generated as a
    subspace by two of its crossing lines.
    """
    G = A.structure
    e1 = G.lines[l2] & G.lines[l3]
    e2 = G.lines[l1] & G.lines[l3]
    e3 = G.lines[l1] & G.lines[l2]
    if not (e1 and e2 and e3):
        raise ValueError("the three lines do not pairwise cross")
    e1, e2, e3 = next(iter(e1)), next(iter(e2)), next(iter(e3))
    if len({e1, e2, e3}) != 3:
        raise ValueError("degenerate triangle: concurrent lines")
    class_of = A.class_of_line()
    members = A.classes[class_of[l1]]
    pts: set[int] = set()
    for m in members:
        lm = G.lines[m]
        if lm & G.lines[l2] and lm & G.lines[l3]:
            pts |= lm
    pts = frozenset(pts)
    top_of, subs = visible_tops(A)
    if any(pts <= T for T in subs) and _two_generated(A, pts):
        return PLANE, pts
    return DEGENERATE, pts


def _two_generated(A: AffineReduct, pts: frozenset[int]) -> bool:
    """pts equals the subspace closure of two of its crossing lines."""
    G = A.structure
    inside = [li for li, line in enumerate(G.lines) if line <= pts]
    through: dict[int, list[int]] = {}
    for li in inside:
        for q in G.lines[li]:
            through.setdefault(q, []).append(li)
    for q, lis in through.items():
        for a in range(len(lis)):
            for b in range(a + 1, len(lis)):
                seed = G.lines[lis[a]] | G.lines[lis[b]]
                if subspace_closure(G, seed) == pts:
                    return True
    return False


def reduct_plane_family(A: AffineReduct) -> list[frozenset[int]]:
    """All planes: closures of crossing line pairs inside one leaf reduct."""
    if A._planes is not None:
        return A._planes
    G = A.structure
    top_of, subs = visible_tops(A)
    through = G.lines_through()
    planes: set[frozenset[int]] = set()
    for ti, T in enumerate(subs):
        local_planes: list[frozenset[int]] = []
        for p in sorted(T):
            here = [li for li in through[p] if top_of[li] == ti]
            for a in range(len(here)):
                for b in range(a + 1, len(here)):
                    seed = G.lines[here[a]] | G.lines[here[b]]
                    if any(seed <= pl for pl in local_planes):
                        continue
                    closed = subspace_closure(G, seed)
                    if closed <= T:
                        local_planes.append(closed)
        planes.update(local_planes)
    A._planes = sorted(planes, key=lambda s: tuple(sorted(s)))
    return A._planes


def plane_direction_trace(A: AffineReduct, plane: frozenset[int]) -> frozenset[int]:
    """Directions (deleted ambient points) of the lines inside a plane,
    found among the lines through the plane's points."""
    through = A.structure.lines_through()
    return frozenset(A.lines[li].infinite for q in plane for li in through[q]
                     if A.lines[li].points <= plane)


# ---------------------------------------------------------------------------
# horizon recovery


def recover_horizon_leaf_lines(A: AffineReduct) -> set[frozenset[int]]:
    """Horizon lines inside single-point leaves, as direction sets.

    Three directions are collinear exactly when some plane carries lines
    of all three; every plane's direction trace is then a full horizon
    line, so the recovered family is the set of plane traces.
    """
    traces = set()
    for plane in reduct_plane_family(A):
        tr = plane_direction_trace(A, plane)
        if len(tr) >= 3:
            traces.add(tr)
    return traces


class RecoveryError(RuntimeError):
    """The reduct does not determine the ambient space."""


def recover_horizon_double_lines(A: AffineReduct) -> set[frozenset[int]]:
    """Horizon lines inside the double leaf, via proper quadrangles.

    Doubles 2x, 2x1, 2x2 are collinear when some proper quadrangle admits
    three distinct lines, each crossing both of one opposite pair, whose
    tops are the three leaf reducts.  The witness quadrangle for a triple
    on a base line L0 takes the opposite pair a+L0, b+L0 and anchors the
    other pair on x1+n, x2+n with n joining a and b, so those two sides
    themselves witness 2x1 and 2x2 while x+n witnesses 2x.  Candidates
    for a, b are chosen with ambient guidance (off the conjugates of the
    points involved); every acceptance decision is reduct-visible.
    """
    V = A.ambient
    if A.hyperplane.degenerate:
        raise ValueError("horizon recovery needs a nondegenerate hyperplane")
    base = V.base
    n = base.point_count
    top_of, subs = visible_tops(A)

    def declared(x: int, x1: int, x2: int, L0: frozenset[int]) -> bool:
        """Witness that 2x, 2x1, 2x2 are collinear; validation visible."""
        bad = A.rows[x] | A.rows[x1] | A.rows[x2] | {x, x1, x2}
        candidates = [a for a in range(n) if a not in bad]
        for a, b in itertools.combinations(candidates, 2):
            nline = _join(base, a, b)
            q_lines = _two_line_quadrangle(A, L0, nline, a, b, x1, x2, top_of)
            if q_lines is None:
                continue
            opp1, side1, opp2, side2 = q_lines
            kx = A.line_at(x, nline)
            if kx is None or kx in (opp1, opp2):
                continue
            if not _crosses_both(A, kx, opp1, opp2):
                continue
            # the anchor sides witness x1 and x2; tops pin the leaves
            if top_of[kx] != A.double_tops.get(x):
                continue
            if top_of[side1] != A.double_tops.get(x1):
                continue
            if top_of[side2] != A.double_tops.get(x2):
                continue
            return True
        return False

    recovered = set()
    for bl in base.lines:
        xs = sorted(bl)
        for x in xs:
            others = [y for y in xs if y != x][:2]
            if not declared(x, others[0], others[1], bl):
                raise RecoveryError(
                    f"no quadrangle witnesses the double horizon line over "
                    f"{sorted(bl)} at point {x}")
        line = frozenset(V.pair[x][x] for x in xs)
        recovered.add(line)
    return recovered


def _two_line_quadrangle(A: AffineReduct, m: frozenset[int], n: frozenset[int],
                         a1: int, b1: int, a2: int, b2: int,
                         top_of: Sequence[int]) -> Optional[list[int]]:
    """The reduct lines [a1+m, a2+n, b1+m, b2+n] when all four survive and
    form a proper quadrangle without diagonals, else None.

    The base points and lines only name the candidate lines; the
    acceptance (distinct lines and tops, four crossings, no diagonal) is
    decided on reduct incidence and visible tops.
    """
    q_lines = [A.line_at(a1, m), A.line_at(a2, n), A.line_at(b1, m), A.line_at(b2, n)]
    if None in q_lines:
        return None
    G = A.structure
    l1, k1, l2, k2 = q_lines
    if len(set(q_lines)) != 4 or len({top_of[t] for t in q_lines}) != 4:
        return None
    p1 = G.lines[l1] & G.lines[k1]
    p2 = G.lines[k1] & G.lines[l2]
    p3 = G.lines[l2] & G.lines[k2]
    p4 = G.lines[k2] & G.lines[l1]
    if not (p1 and p2 and p3 and p4):
        return None
    p1, p2, p3, p4 = (next(iter(s)) for s in (p1, p2, p3, p4))
    adj = G.adjacency()
    if p3 in adj[p1] or p4 in adj[p2]:
        return None
    return q_lines


def _crosses_both(A: AffineReduct, k: int, a: int, b: int) -> bool:
    G = A.structure
    return bool(G.lines[k] & G.lines[a]) and bool(G.lines[k] & G.lines[b])


def scan_declared_double_triples(A: AffineReduct, max_quadrangles: int = 400
                                 ) -> dict:
    """Negative scan: every declared double triple comes from collinear
    base points.

    Samples proper quadrangles deterministically, computes the crossing
    lines of each opposite pair with fresh tops, and checks the implied
    doubles against base collinearity (an oracle comparison)."""
    V = A.ambient
    top_of, subs = visible_tops(A)
    sub_to_base = {t: x for x, t in A.double_tops.items()}
    scanned = 0
    declared = 0
    for q in find_quadrangles(A.structure, top_of):
        if scanned >= max_quadrangles:
            break
        scanned += 1
        for (a, b) in q.opposite_pairs:
            xs = []
            for k in fresh_crossings(A.structure, top_of, a, b):
                base_pt = sub_to_base.get(top_of[k])
                if base_pt is not None:
                    xs.append(base_pt)
            if len(set(xs)) >= 3:
                declared += 1
                xs = sorted(set(xs))
                line = _join(V.base, xs[0], xs[1])
                if not set(xs) <= line:
                    raise FalsificationError(
                        f"declared doubles {xs} are not collinear in the base")
    return {"quadrangles_scanned": scanned, "triples_declared": declared}


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

    @property
    def ok(self) -> bool:
        return self.points_match and self.lines_match


def recover_veronese(A: AffineReduct) -> RecoveryReport:
    """Rebuild the ambient Veronese space from the reduct.

    Points: proper points plus one per direction (its deleted point).
    Lines: every truncated line completed by its direction, the horizon
    lines recovered inside single-point leaves (plane traces) and inside
    the double leaf (quadrangle witnesses).  The assembled structure is
    compared line-for-line with the ambient space; any mismatch is a
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
    )


# ---------------------------------------------------------------------------
# Net axiom violation


def _net_frames(base: IncidenceStructure, rows, pairs: Iterable[tuple[int, int]]
                ) -> Iterator[tuple[int, int, int, int]]:
    """The outer part of the Net-violation shape, as (x, y, mi, ni).

    For each (x, y) of pairs in order: base lines m = lines[mi] through x
    and n = lines[ni] through y with y not on m, x not on n, m != n, m not
    inside rows[y] and n not inside rows[x] (so y+m and x+n survive).
    """
    through = base.lines_through()
    for x, y in pairs:
        for mi in through[x]:
            m = base.lines[mi]
            if y in m or m <= rows[y]:
                continue
            for ni in through[y]:
                n = base.lines[ni]
                if x in n or n <= rows[x] or ni == mi:
                    continue
                yield x, y, mi, ni


def _net_sides(rows, x: int, y: int, m: frozenset[int], n: frozenset[int]
               ) -> Iterator[tuple[int, int, int, int]]:
    """The inner part of the shape for fixed x, y, m, n, as (a1, b1, a2, b2):
    disjoint pairs a1 < b1 on n - {x, y} off rows[x] and a2 < b2 on
    m - {x, y} off rows[y], naming the sides a1+m, b1+m, a2+n, b2+n."""
    a_pool = [a for a in sorted(n - {x, y}) if a not in rows[x]]
    b_pool = [b for b in sorted(m - {x, y}) if b not in rows[y]]
    for a1, b1 in itertools.combinations(a_pool, 2):
        for a2, b2 in itertools.combinations(b_pool, 2):
            if a1 != a2 and a1 != b2 and b1 != a2 and b1 != b2:
                yield a1, b1, a2, b2


def _net_completion(A: AffineReduct, m: frozenset[int], n: frozenset[int],
                    a1: int, b1: int, a2: int, b2: int, l: int, k: int,
                    top_of: Sequence[int]) -> Optional[list[int]]:
    """The quadrangle [a1+m, a2+n, b1+m, b2+n] when it is proper, l and k
    are not among its sides, l crosses both n-sides and k both m-sides;
    else None.  Every test is on reduct incidence and visible tops."""
    q_lines = _two_line_quadrangle(A, m, n, a1, b1, a2, b2, top_of)
    if q_lines is None or l in q_lines or k in q_lines:
        return None
    l1, k1, l2, k2 = q_lines
    if _crosses_both(A, l, k1, k2) and _crosses_both(A, k, l1, l2):
        return q_lines
    return None


def net_violation_witness(A: AffineReduct) -> dict:
    """Search for two reduct lines meeting only at a deleted mixed point,
    completed to a proper quadrangle they cross (one opposite pair each),
    which would witness a Net-axiom failure in the reduct.

    By the crossing-line classification every such configuration has the
    shape: base lines m (through x) and n (through y) for a deleted mixed
    point x+y, quadrangle sides a1+m, a2+n, b1+m, b2+n with a1,b1 on n
    and a2,b2 on m, and the disjoint pair y+m, x+n.  The search is a
    complete enumeration over that shape (_net_frames, _net_sides), and
    configurations_checked is the position of the candidate reached; an
    exhausted search is a certificate that no violation of this kind
    exists (over GF(3) the vertex conditions are in fact unsatisfiable,
    so the certificate is the expected outcome there).
    """
    V, H = A.ambient, A.hyperplane
    base = V.base
    rows = A.rows
    top_of, subs = visible_tops(A)
    mixed = [(x, y) for x in range(base.point_count) for y in sorted(rows[x])
             if x < y]
    if not mixed:
        return {"found": False, "reason": "no mixed deleted point",
                "configurations_checked": 0}
    lines = A.structure.lines
    checked = 0
    for x, y, mi, ni in _net_frames(base, rows, mixed):
        m, n = base.lines[mi], base.lines[ni]
        for a1, b1, a2, b2 in _net_sides(rows, x, y, m, n):
            checked += 1
            if (a2 in rows[a1] or b2 in rows[a1]
                    or a2 in rows[b1] or b2 in rows[b1]):
                continue
            # l3 = y + m in leaf y, k3 = x + n in leaf x; ambient meet x+y
            l3, k3 = A.line_at(y, m), A.line_at(x, n)
            q_lines = _net_completion(A, m, n, a1, b1, a2, b2, l3, k3, top_of)
            if q_lines is None or lines[l3] & lines[k3]:
                continue
            meet = V.pair[x][y]
            return {"found": True, "quadrangle": q_lines,
                    "l3": l3, "k3": k3,
                    "ambient_meet": meet,
                    "meet_in_hyperplane": meet in H.points,
                    "configurations_checked": checked}
    return {"found": False, "reason": "complete shape enumeration exhausted",
            "configurations_checked": checked}


def net_violation_shape_on_base(P, xi) -> Optional[tuple]:
    """Search the violating configuration on base coordinates alone.

    All reduct-level conditions of the Net-violation shape (survival of
    the six lines, proper crossings and vertices, the deleted meet) are
    conjugacy conditions on the base, so the search runs the shape
    enumeration on the orthogonality table, over every ordered pair of
    distinct conjugate points, without building the Veronese space.
    Returns the first hit (v, w, mi, ni, a1, b1, a2, b2) or None after
    complete enumeration; over GF(3) the answer is None, over GF(5) a
    witness exists.
    """
    kappa = perp_rows(xi, [P.labels[i] for i in range(P.point_count)])
    pairs = ((v, w) for v in range(P.point_count) for w in sorted(kappa[v])
             if w != v)
    for v, w, mi, ni in _net_frames(P, kappa, pairs):
        for a1, b1, a2, b2 in _net_sides(kappa, v, w, P.lines[mi], P.lines[ni]):
            if not (a2 in kappa[a1] or b2 in kappa[a1]
                    or a2 in kappa[b1] or b2 in kappa[b1]):
                return (v, w, mi, ni, a1, b1, a2, b2)
    return None


# ---------------------------------------------------------------------------
# incidence-only reconstruction of the induced parallelism


def reconstruct_parallel_pair(A: AffineReduct, i: int, j: int) -> bool:
    """Decide i parallel j from reduct data only.

    Same leaf: the Veblen formula.  Distinct leaves: the lines must be
    disjoint and complete to a proper quadrangle they both cross (one per
    opposite pair); the ambient lines then meet, and since the reduct
    lines are disjoint the meet lies on the horizon, which is exactly the
    induced parallelism.  The quadrangle is searched with ambient
    guidance and validated on reduct incidence alone.
    """
    if i == j:
        return True
    top_of, subs = visible_tops(A)
    G = A.structure
    if top_of[i] == top_of[j]:
        return veblen_parallel(A, i, j)
    if G.lines[i] & G.lines[j]:
        return False
    return _net_completion_exists(A, i, j, top_of)


def _net_completion_exists(A: AffineReduct, i: int, j: int,
                           top_of: Sequence[int]) -> bool:
    """Guided search for a proper quadrangle with i crossing one opposite
    pair and j the other; validation is reduct-visible."""
    V = A.ambient
    # parents (guidance): i = x + m and j = y + n with y on m and x on n,
    # the lines l3 and k3 of the Net-violation shape for the pair (y, x)
    (ei, mi) = V.provenance[A.lines[i].parent][0]
    (ej, mj) = V.provenance[A.lines[j].parent][0]
    if ei.degree != 1 or ej.degree != 1:
        return False
    x = next(iter(ei.support()))
    y = next(iter(ej.support()))
    m = V.base.lines[mi]
    n = V.base.lines[mj]
    if y not in m or x not in n:
        return False
    return any(_net_completion(A, m, n, a1, b1, a2, b2, i, j, top_of) is not None
               for a1, b1, a2, b2 in _net_sides(A.rows, y, x, m, n))


def check_parallelism_reconstruction(A: AffineReduct,
                                     sample_per_kind: int = 12) -> dict:
    """Compare the incidence-only reconstruction with the stored relation
    on a deterministic sample, split by pair kind.

    Same-leaf parallel pairs go through the Veblen formula and must agree.
    Cross-leaf parallel pairs need a net completion; over GF(3) the
    completion's vertex conditions are unsatisfiable, so those pairs are
    reported separately rather than folded into a single verdict.
    Non-parallel pairs must never reconstruct as parallel (a completion
    found for one would contradict the Net law and is a falsification).
    """
    top_of, _ = visible_tops(A)
    same_leaf, cross_leaf, non_parallel = [], [], []
    for e, members in sorted(A.classes.items()):
        pairs = list(itertools.combinations(members, 2))
        sl = next(((i, j) for i, j in pairs if top_of[i] == top_of[j]), None)
        cl = next(((i, j) for i, j in pairs if top_of[i] != top_of[j]), None)
        if sl and len(same_leaf) < sample_per_kind:
            same_leaf.append(sl)
        if cl and len(cross_leaf) < sample_per_kind:
            cross_leaf.append(cl)
        if len(same_leaf) >= sample_per_kind and len(cross_leaf) >= sample_per_kind:
            break
    es = sorted(A.classes)
    for a, b in zip(es, es[1:]):
        non_parallel.append((A.classes[a][0], A.classes[b][0]))
        if len(non_parallel) >= sample_per_kind:
            break
    same_ok = sum(1 for i, j in same_leaf if reconstruct_parallel_pair(A, i, j))
    cross_ok = sum(1 for i, j in cross_leaf if reconstruct_parallel_pair(A, i, j))
    neg_ok = sum(1 for i, j in non_parallel
                 if not reconstruct_parallel_pair(A, i, j))
    return {
        "same_leaf_checked": len(same_leaf), "same_leaf_agree": same_ok,
        "cross_leaf_checked": len(cross_leaf), "cross_leaf_completable": cross_ok,
        "non_parallel_checked": len(non_parallel), "non_parallel_agree": neg_ok,
        "sound": neg_ok == len(non_parallel) and same_ok == len(same_leaf),
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
    return sorted(out, key=lambda s: tuple(sorted(s)))


def gamma_matches_leaves(G: IncidenceStructure,
                         planes: Sequence[frozenset[int]],
                         leaves: Iterable[frozenset[int]]) -> bool:
    """Chain classes of the plane family coincide with the leaf family."""
    classes = set(inc.gamma_plane_classes(G, planes))
    return classes == set(leaves)
