"""Reference implementations that only tests compare against: direct
forms of notions the library decides another way, or no longer needs.
is_nondegenerate_alternating is the oracle of VeroneseHyperplane.degenerate;
veronese_by_sums, h_function_by_sums and leaf_planes_by_sums form every
point e + (k-|e|)*x by adding multisets, as the leaf table does once.
veblen_by_provenance, quadrangle_by_provenance and
crossing_line_by_provenance read each block's generator off those sums in
every classifier, where configs reads V.block_top and V.block_line once
per block through _level2_shape;
find_incomplete_veblen lists the Veblen figures one at a time, meeting
lines by intersecting their point sets, and veblen_histogram_per_figure
classifies each, where classify_all_veblen decides the figures of one
apex line pair by bitset rows of lines;
affine_space_by_ranks sorts the lines of AG(n,p) through a rank
permutation.  check_preparallelism and check_euclid decide the
parallelism axioms on a ParallelStructure directly.
bilinear_value evaluates a bilinear form as u^T M v (with mat_vec), where
the library reads its orthogonality rows off algebra.OrthogonalityTable;
alternating_value evaluates an alternating form on its arguments, where
the library reads it off the minors table VeroneseSpace.minors.
leaf_closed_search_two_recursions is the leaf-closed parallelism search
as two nested recursions (one per class, one per block), each counting
its own nodes, which parallelism runs as one.
normalize_vector, projective_points_by_normalizing and line_points build
the points and lines of PG(n,p) by normalizing every vector, where spaces
writes each one down from its reduced echelon basis.
is_partial_linear_by_pairs keeps every joined point pair in a dict, where
incidence.is_partial_linear keeps one bitset row per point.
is_hyperplane_mask tests a bitset against every line, where the scan and
the slice census accept a full choice by their own pruning;
is_hyperplane_two_pass tests l-transversality (is_l_transversal) and the
subspace property in two passes over the lines, where
incidence.is_hyperplane reads each line once.  det_by_permutations sums
a determinant over all permutations, where algebra.extend_minors expands
minors along rows.
gamma_classes_by_through_walk tests every line through every point of a
plane, where gamma_plane_classes tests each line once, from its least
point.  veblen_parallel_by_crossings tests every ordered pair of lines
crossing both, where veblen_parallel_lines reads the adjacent point pairs
of the two lines off the join table.
GuidedLookups, two_line_quadrangle and crosses_both are the ambient
lookups and the quadrangle test the guided Net-violation route named its
candidates with (trace rows, lines by their level-2 block), where reduct
reads visible tops, direction classes and reduct incidence alone.
assert_pinned_verdict compares a verdict with its line in
battery_report.jsonl: the 33 lines of `verogeo verify --suite all`, each
without runtime_s and with sorted keys.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import pathlib
from typing import Iterable, Iterator, Optional, Sequence

from verogeo import configs, incidence as inc
from verogeo.algebra import (AlternatingMultiForm, BilinearForm, QuadraticForm,
                             Vector, extend_minors, is_symplectic,
                             projective_points, vec_add, vec_scale)
from verogeo.configs import (BASE_EMBEDDED, CROSS_DOUBLE_OR_MEET_TRANSLATE,
                             CROSS_POINT_JOIN, CROSS_TRANSLATE_OF_JOIN,
                             FOUR_POINT_TRANSLATE, THREE_LINE_TYPE,
                             THREE_POINT_WITH_2M, TWO_LINE_TYPE, UNCLASSIFIABLE,
                             FalsificationError, QuadrangleFigure, VeblenFigure)
from verogeo.hyperplanes import FULL
from verogeo.incidence import (IncidenceStructure, strong_extensions,
                               subspace_closure)
from verogeo.multiset import (EMPTY, Multiset, enumerate_lower_multisets,
                              enumerate_multisets, scale_point)
from verogeo.parallelism import SearchResult
from verogeo.reduct import AffineReduct, visible_tops
from verogeo.spaces import ParallelStructure
from verogeo.veronese import VeroneseSpace

DEGENERATE = "DEGENERATE"
PLANE = "PLANE"


def normalize_vector(v: Sequence[int], p: int) -> Vector:
    """Scale so the first nonzero coordinate is 1; canonical per 1-space."""
    v = [x % p for x in v]
    for x in v:
        if x:
            inv = pow(x, p - 2, p)
            return tuple((y * inv) % p for y in v)
    raise ValueError("zero vector has no projective normalization")


def projective_points_by_normalizing(dim: int, p: int) -> list[Vector]:
    """Every nonzero vector of GF(p)^dim normalized; the distinct ones, sorted."""
    pts = set()
    for v in itertools.product(range(p), repeat=dim):
        if any(v):
            pts.add(normalize_vector(v, p))
    return sorted(pts)


def line_points(u: Vector, v: Vector, p: int) -> list[Vector]:
    """The normalized points of the line joining u and v, sorted."""
    pts = {normalize_vector(v, p)}
    for t in range(p):
        pts.add(normalize_vector(vec_add(u, vec_scale(t, v, p), p), p))
    return sorted(pts)


def is_partial_linear_by_pairs(G: IncidenceStructure) -> tuple[bool, Optional[tuple]]:
    """The PLS check over a dict of every joined pair, each pair read in
    sorted order line by line."""
    for i, line in enumerate(G.lines):
        if len(line) < 3:
            return False, ("undersized_line", i)
    seen: dict[tuple[int, int], int] = {}
    for i, line in enumerate(G.lines):
        for pair in itertools.combinations(sorted(line), 2):
            if pair in seen:
                return False, ("double_joined", pair[0], pair[1], seen[pair], i)
            seen[pair] = i
    return True, None


def is_l_transversal(G: IncidenceStructure, X: Iterable[int]) -> bool:
    """Every line meets X."""
    X = frozenset(X)
    return all(line & X for line in G.lines)


def is_hyperplane_two_pass(G: IncidenceStructure, X: Iterable[int]) -> bool:
    """Proper l-transversal subspace, one pass over the lines for each
    property, where incidence.is_hyperplane reads each line once."""
    X = frozenset(X)
    if len(X) == G.point_count:
        return False
    return is_l_transversal(G, X) and inc.is_subspace(G, X)


def is_hyperplane_mask(G: IncidenceStructure, X: int) -> bool:
    """incidence.is_hyperplane for a point set given as a bitset (bit q for
    point q): every line meets X in exactly one point or lies inside it,
    and X is not the whole point set."""
    if X == (1 << G.point_count) - 1:
        return False
    for L in G.line_masks():
        m = L & X
        if not m or (m != L and m & (m - 1)):
            return False
    return True


def gamma_classes_by_through_walk(G: IncidenceStructure,
                                  planes: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """Gamma classes from every line through every point of each plane: a
    contained line is tested once per point it has in the plane."""
    if any(len(l) < 2 for l in G.lines):
        raise ValueError("gamma chains need lines of at least 2 points")
    through = G.lines_through()
    parent = list(range(len(planes)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    owner: dict[int, int] = {}
    for idx, pl in enumerate(planes):
        for q in pl:
            for li in through[q]:
                if G.lines[li] <= pl:
                    rx, ry = find(owner.setdefault(li, idx)), find(idx)
                    parent[max(rx, ry)] = min(rx, ry)
    classes: dict[int, set[int]] = {}
    for idx, pl in enumerate(planes):
        classes.setdefault(find(idx), set()).update(pl)
    return sorted((frozenset(c) for c in classes.values()), key=sorted)


def veblen_parallel_by_crossings(G: IncidenceStructure, i: int, j: int) -> bool:
    """veblen_parallel_lines over the lines crossing both: every ordered
    pair of them is tested for a common point off i and j and for adjacent
    crossing points, one on i and one on j."""
    if i == j:
        return True
    li, lj = G.lines[i], G.lines[j]
    if li & lj:
        return False
    candidates = sorted(G.crossing_both(i, j))
    join = G.join()
    for a in candidates:
        la = G.lines[a]
        pa_i = next(iter(la & li))
        for b in candidates:
            if b == a:
                continue
            lb = G.lines[b]
            common = la & lb
            if not common:
                continue
            p = next(iter(common))
            if p in li or p in lj:
                continue
            a2 = next(iter(lb & lj))
            if a2 in join[pa_i]:
                return True
    return False


def adjacency_rows(G: IncidenceStructure) -> list[set[int]]:
    """rows[a]: the points sharing a line with a (a itself when it lies on
    a line), read from the lines alone, without the join table."""
    rows: list[set[int]] = [set() for _ in G.points]
    for line in G.lines:
        for a in line:
            rows[a] |= line
    return rows


def crossing_rows(G: IncidenceStructure) -> list[set[int]]:
    """rows[i]: the other lines sharing a point with line i, by pairwise
    intersection of the lines."""
    return [{j for j, other in enumerate(G.lines) if j != i and line & other}
            for i, line in enumerate(G.lines)]


def is_connected(G: IncidenceStructure) -> bool:
    """Graph connectivity of the adjacency relation; isolated points disconnect."""
    if G.point_count <= 1:
        return True
    adj = adjacency_rows(G)
    seen = {0}
    stack = [0]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return len(seen) == G.point_count


def maximal_strong_subspaces(G: IncidenceStructure) -> list[frozenset[int]]:
    """All inclusion-maximal strong subspaces containing at least one line.

    Grown from each line through every strong one-point extension; a state
    with none is maximal.  Deterministic output order.
    """
    results: set[frozenset[int]] = set()
    seen: set[frozenset[int]] = set()

    def grow(X: frozenset[int]) -> None:
        if X in seen:
            return
        seen.add(X)
        extended = False
        for Y in strong_extensions(G, X):
            extended = True
            grow(Y)
        if not extended:
            results.add(X)

    for line in G.lines:
        grow(subspace_closure(G, line))

    maximal = [X for X in results
               if not any(X < Y for Y in results if Y is not X)]
    return sorted(maximal, key=lambda s: tuple(sorted(s)))


def mat_vec(M: Sequence[Sequence[int]], v: Vector, p: int) -> Vector:
    return tuple(sum(r * x for r, x in zip(row, v)) % p for row in M)


def bilinear_value(xi: BilinearForm, u: Vector, v: Vector) -> int:
    """xi(u, v) = u^T M v, where the library reads xi through
    OrthogonalityTable."""
    return sum(a * b for a, b in zip(u, mat_vec(xi.matrix, v, xi.p))) % xi.p


def alternating_value(eta: AlternatingMultiForm, vectors: Sequence[Vector]) -> int:
    """eta on its arguments, from their k x k minors expanded one row at a
    time, where the library reads eta off VeroneseSpace.minors."""
    if len(vectors) != eta.arity:
        raise ValueError(f"arity {eta.arity} form applied to {len(vectors)} vectors")
    minors: tuple[int, ...] = (1,)
    for rows, v in enumerate(vectors, 1):
        minors = extend_minors(minors, v, rows)
    return eta.on_minors(minors)


def det_by_permutations(rows: Sequence[Sequence[int]], p: int) -> int:
    """det mod p as the signed sum over all permutations, where the library
    expands minors row by row (algebra.extend_minors)."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        prod = 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += _perm_sign(perm) * prod
    return total % p


def _perm_sign(perm: Sequence[int]) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def is_symmetric(xi: BilinearForm) -> bool:
    M = xi.matrix
    return all(M[i][j] == M[j][i] for i in range(xi.dim) for j in range(xi.dim))


def is_reflexive(xi: BilinearForm) -> bool:
    """Shape test: symmetric or alternating (valid in odd characteristic)."""
    return is_symmetric(xi) or is_symplectic(xi)


def quadric_points(Q: QuadraticForm) -> list[Vector]:
    return [v for v in projective_points(Q.dim, Q.p) if Q.evaluate(v) == 0]


def is_nondegenerate_alternating(eta: AlternatingMultiForm,
                                 points: Sequence[Vector]) -> bool:
    """No point annihilates all completions: for every q some tuple with
    first argument q evaluates nonzero."""
    for q in points:
        if not any(alternating_value(eta, (q,) + rest)
                   for rest in itertools.combinations(points, eta.arity - 1)):
            return False
    return True


def affine_plane_family(A: ParallelStructure, p: int) -> list[frozenset[int]]:
    """Plane cosets of AG(n,p); the whole space when n = 2."""
    G = A.base
    pts = [G.labels[i] for i in range(G.point_count)]
    n = len(pts[0])
    if n < 2:
        return []
    if n == 2:
        return [frozenset(range(G.point_count))]
    index = {v: i for i, v in enumerate(pts)}
    dirs = projective_points(n, p)
    planes = set()
    for a_i in range(len(dirs)):
        for b_i in range(a_i + 1, len(dirs)):
            d1, d2 = dirs[a_i], dirs[b_i]
            span = set()
            for s, t in itertools.product(range(p), repeat=2):
                span.add(vec_add(vec_scale(s, d1, p), vec_scale(t, d2, p), p))
            if len(span) != p * p:
                continue
            for base in pts:
                planes.add(frozenset(index[vec_add(base, v, p)] for v in span))
    return sorted(planes, key=lambda s: tuple(sorted(s)))


def singular_plane_family(Q: QuadraticForm,
                          G: IncidenceStructure) -> list[frozenset[int]]:
    """Projective planes fully on the quadric, as point sets of G = PG.

    Q is evaluated once per point of G.  Every point of a singular plane
    through a singular line is joined to each point of that line by a
    singular line, so only those common neighbours extend the line; a point
    already on a singular plane through the line spans that plane again and
    is skipped.
    """
    p = Q.p
    pts = [G.labels[i] for i in range(G.point_count)]
    index = {v: i for i, v in enumerate(pts)}
    on_set = {i for i in range(G.point_count) if Q.evaluate(pts[i]) == 0}
    planes = set()
    sing_lines = [l for l in G.lines if l <= on_set]
    collinear = adjacency_rows(IncidenceStructure(G.point_count, sing_lines))
    for line in sing_lines:
        rep = sorted(line)
        u, v = pts[rep[0]], pts[rep[1]]
        covered = set(line)
        for w_idx in set.intersection(*(collinear[q] for q in line)):
            if w_idx in covered:
                continue
            w = pts[w_idx]
            plane = set()
            ok = True
            for a, b, c in itertools.product(range(p), repeat=3):
                vec = tuple((a * x + b * y + c * z) % p for x, y, z in zip(u, v, w))
                if not any(vec):
                    continue
                q = index[normalize_vector(vec, p)]
                if q not in on_set:
                    ok = False
                    break
                plane.add(q)
            if ok and len(plane) > len(line):
                planes.add(frozenset(plane))
                covered |= plane
    return sorted(planes, key=lambda s: tuple(sorted(s)))


def leaf_adjacency_test(V: VeroneseSpace, point: int, block_index: int) -> bool:
    """A point adjacent to >= 3 points of a block must lie on its leaf.

    Returns the truth of that implication for the given pair.
    """
    adj = adjacency_rows(V.structure)
    block = V.structure.lines[block_index]
    close = sum(1 for q in block if q != point and q in adj[point])
    if point in block:
        close += 1
    if close < 3:
        return True
    return point in V.leaves[V.block_top[block_index]]


def veronese_by_sums(base: IncidenceStructure, level: int) -> dict:
    """Blocks (in index order), every generator (e, base line index) of
    each block, and the leaves of V(level, base), each point e + r*x added
    up and looked up by index."""
    n = base.point_count
    index = {f: i for i, f in enumerate(enumerate_multisets(n, level))}
    raw: dict[frozenset[int], list[tuple[Multiset, int]]] = {}
    for r in range(1, level + 1):
        for e in enumerate_multisets(n, level - r):
            for li, line in enumerate(base.lines):
                block = frozenset(index[e + scale_point(r, x)] for x in sorted(line))
                raw.setdefault(block, []).append((e, li))
    blocks = sorted(raw, key=lambda b: tuple(sorted(b)))
    provenance = {bi: tuple(raw[b]) for bi, b in enumerate(blocks)}
    leaves = {e: frozenset(index[e + scale_point(level - e.degree, x)] for x in range(n))
              for e in enumerate_lower_multisets(n, level)}
    return {"lines": tuple(blocks), "provenance": provenance, "leaves": leaves}


@functools.lru_cache(maxsize=None)
def _generators_by_sums(base: IncidenceStructure, level: int
                        ) -> dict[frozenset[int], tuple[tuple[Multiset, int], ...]]:
    want = veronese_by_sums(base, level)
    return {block: want["provenance"][bi] for bi, block in enumerate(want["lines"])}


def h_function_by_sums(V: VeroneseSpace, H: frozenset[int]) -> dict[Multiset, object]:
    """Leaf traces {x : e + (k-|e|)*x in H}, FULL when the whole base."""
    n = V.base.point_count
    out: dict[Multiset, object] = {}
    for e in V.leaf_keys():
        r = V.level - e.degree
        trace = frozenset(x for x in range(n) if V.index[e + scale_point(r, x)] in H)
        out[e] = FULL if len(trace) == n else trace
    return out


def leaf_planes_by_sums(V: VeroneseSpace,
                        base_planes: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """The planes e + (k-|e|)*P of every leaf e and base plane P, sorted."""
    planes = {frozenset(V.index[e + scale_point(V.level - e.degree, x)] for x in P)
              for e in V.leaves for P in base_planes}
    return sorted(planes, key=lambda s: tuple(sorted(s)))


def assemble_from_h(V: VeroneseSpace, h: dict[Multiset, object]) -> frozenset[int]:
    pts: set[int] = set()
    n = V.base.point_count
    for e, val in h.items():
        r = V.level - e.degree
        base_pts = range(n) if val == FULL else val
        pts.update(V.index[e + scale_point(r, x)] for x in base_pts)
    return frozenset(pts)


def l_transversal_from_h(V: VeroneseSpace, h: dict[Multiset, object]) -> frozenset[int]:
    """Union of the leaf traces; every trace must be FULL or a base
    hyperplane, and the result is verified l-transversal."""
    for e, val in h.items():
        if val == FULL:
            continue
        if not inc.is_hyperplane(V.base, val):
            raise ValueError(f"trace at {e} is neither FULL nor a base hyperplane")
    missing = set(V.leaf_keys()) - set(h)
    if missing:
        raise ValueError(f"h assigns no trace to leaves {sorted(map(str, missing))}")
    pts = assemble_from_h(V, h)
    if not is_l_transversal(V.structure, pts):
        raise FalsificationError("leaf-trace union failed to be l-transversal")
    return pts


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
    for q in pts:
        lis = [li for li in G.lines_through()[q] if G.lines[li] <= pts]
        for la, lb in itertools.combinations(lis, 2):
            if subspace_closure(G, G.lines[la] | G.lines[lb]) == pts:
                return True
    return False


def _meet(G: IncidenceStructure, i: int, j: int) -> Optional[int]:
    common = G.lines[i] & G.lines[j]
    return next(iter(common)) if common else None


def find_incomplete_veblen(G: IncidenceStructure) -> Iterator[VeblenFigure]:
    """All Veblen figures, complete or not, in (apex, l1, l2, m1, m2) order.

    The no-three-concurrent requirement is enforced: the two non-apex
    lines must cross each apex line in distinct points.
    """
    through = G.lines_through()
    for p in range(G.point_count):
        here = through[p]
        for a in range(len(here)):
            for b in range(a + 1, len(here)):
                l1, l2 = here[a], here[b]
                candidates = configs._apex_crossings(G, p, l1, l2)
                for x in range(len(candidates)):
                    for y in range(x + 1, len(candidates)):
                        m1, m2 = candidates[x], candidates[y]
                        if _meet(G, l1, m1) == _meet(G, l1, m2):
                            continue
                        if _meet(G, l2, m1) == _meet(G, l2, m2):
                            continue
                        complete = _meet(G, m1, m2) is not None
                        yield VeblenFigure(p, l1, l2, m1, m2, complete)


def veblen_histogram_per_figure(V: VeroneseSpace) -> dict[str, int]:
    """classify_all_veblen one figure at a time: each figure of
    find_incomplete_veblen must be complete and classifiable, and the first
    that is not raises FalsificationError."""
    counts: dict[str, int] = {}
    for fig in find_incomplete_veblen(V.structure):
        if not fig.complete:
            raise FalsificationError(f"Veblen axiom fails at {fig}")
        tag = configs.classify_veblen_in_veronese(V, fig)
        if tag == UNCLASSIFIABLE:
            raise FalsificationError(f"unclassifiable Veblen figure {fig}")
        counts[tag] = counts.get(tag, 0) + 1
    return counts


def _sole_generator(V: VeroneseSpace, block: int) -> tuple[Multiset, int]:
    gens = _generators_by_sums(V.base, V.level)[V.structure.lines[block]]
    if len(gens) != 1:
        raise FalsificationError(f"block {block} has several presentations: {gens}")
    return gens[0]


def veblen_by_provenance(V: VeroneseSpace, fig: VeblenFigure) -> str:
    """Type of a complete Veblen figure in a level-2 Veronese space.

    BASE_EMBEDDED: all four blocks in one leaf (image of a base figure).
    FOUR_POINT_TRANSLATE: {a + m : a in A} for a 4-subset A of a base line m.
    THREE_POINT_WITH_2M: {a + m : a in A} plus 2m for a 3-subset A of m.
    """
    blocks = [fig.l1, fig.l2, fig.m1, fig.m2]
    gens = [_sole_generator(V, b) for b in blocks]
    if len({e for e, _ in gens}) == 1:
        return BASE_EMBEDDED
    if V.level != 2:
        return UNCLASSIFIABLE
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


def quadrangle_by_provenance(V: VeroneseSpace, q: QuadrangleFigure) -> str:
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


def crossing_line_by_provenance(V: VeroneseSpace, l1: int, l2: int, k: int) -> str:
    """Shape of a line k crossing opposite sides l1, l2 of a proper
    quadrangle, with the three tops pairwise distinct.

    Translates of one line m: k is x + join(a,b) for x on m, or 2m when
    both translate points lie on m.  Double 2n against c+n: k is
    x + join(x,c) for x on n.  Translates of distinct lines meeting at c:
    k is 2 join(a,b) or c + join(a,b).
    """
    if V.level != 2:
        return UNCLASSIFIABLE
    gens = {b: _sole_generator(V, b) for b in (l1, l2, k)}
    if len({gens[b][0] for b in (l1, l2, k)}) != 3:
        raise ValueError("tops of k, l1, l2 must be pairwise distinct")
    ek, lik = gens[k]
    k_line = V.base.lines[lik]

    def translate_of(b):
        e, li = gens[b]
        return next(iter(e.support())), V.base.lines[li]

    doubles = [b for b in (l1, l2) if gens[b][0] == EMPTY]
    if not doubles:
        (a, m1), (b, m2) = translate_of(l1), translate_of(l2)
        if m1 == m2:
            join = configs._join(V.base, a, b)
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
        join = configs._join(V.base, a, b)
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
        if x in n and x != c and k_line == configs._join(V.base, x, c):
            return CROSS_POINT_JOIN
        return UNCLASSIFIABLE

    return UNCLASSIFIABLE


def affine_space_by_ranks(n: int, p: int) -> ParallelStructure:
    """AG(n,p) with its lines flattened class by class, sorted through a
    rank permutation, and each class rebuilt from its run of ranks."""
    pts = sorted(itertools.product(range(p), repeat=n))
    index = {v: i for i, v in enumerate(pts)}
    directions = projective_points(n, p)
    classes = []
    for d in directions:
        seen: set[frozenset[int]] = set()
        cls = []
        for base in pts:
            line = frozenset(index[vec_add(base, vec_scale(t, d, p), p)]
                             for t in range(p))
            if line not in seen:
                seen.add(line)
                cls.append(line)
        classes.append(cls)
    flattened = [l for cls in classes for l in cls]
    order = sorted(range(len(flattened)), key=lambda i: tuple(sorted(flattened[i])))
    rank_of = {old: new for new, old in enumerate(order)}
    structure = IncidenceStructure(len(pts), [flattened[i] for i in order],
                                   labels={i: v for i, v in enumerate(pts)})
    class_tuples = []
    pos = 0
    for cls in classes:
        class_tuples.append(tuple(sorted(rank_of[pos + k] for k in range(len(cls)))))
        pos += len(cls)
    return ParallelStructure(structure, tuple(class_tuples))


def check_preparallelism(P: ParallelStructure) -> tuple[bool, Optional[tuple]]:
    """Classes nonempty with pairwise disjoint distinct lines."""
    for ci, cls in enumerate(P.parallel_classes):
        if not cls:
            return False, ("empty_class", ci)
        for x in range(len(cls)):
            for y in range(x + 1, len(cls)):
                a, b = P.base.lines[cls[x]], P.base.lines[cls[y]]
                if a != b and a & b:
                    return False, ("overlapping_parallels", ci, cls[x], cls[y])
    return True, None


def check_euclid(P: ParallelStructure) -> tuple[bool, Optional[int]]:
    """Every class covers the full point set; else the first class that does not."""
    for ci, cls in enumerate(P.parallel_classes):
        covered = set()
        for li in cls:
            covered |= P.base.lines[li]
        if len(covered) != P.base.point_count:
            return False, ci
    return True, None


def leaf_closed_search_two_recursions(V: VeroneseSpace,
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


class GuidedLookups:
    """The ambient lookups of the guided Net-violation route.

    rows[x] is the trace of the hyperplane on the leaf of base point x,
    the whole base point set when that leaf lies in the hyperplane;
    line_at(x, base_line) is the reduct line cut from the level-2 block
    x + base_line, or None when that block lies inside the hyperplane;
    adjacency is adjacency_rows of the reduct.
    """

    def __init__(self, A: AffineReduct):
        V = A.ambient
        self.ambient = V
        everything = frozenset(V.base.points)
        self.rows: dict[int, frozenset[int]] = {}
        for x in V.base.points:
            trace = A.hyperplane.h_function[scale_point(1, x)]
            self.rows[x] = everything if trace == FULL else trace
        self._line_of_parent = {t.parent: li for li, t in enumerate(A.lines)}
        self.adjacency = adjacency_rows(A.structure)
        self._line_at: dict[tuple[int, frozenset[int]], Optional[int]] = {}

    def line_at(self, x: int, base_line: frozenset[int]) -> Optional[int]:
        key = (x, base_line)
        if key not in self._line_at:
            V = self.ambient
            block = frozenset(V.pair[x][z] for z in base_line)
            self._line_at[key] = self._line_of_parent.get(
                V.structure.line_index().get(block))
        return self._line_at[key]


def two_line_quadrangle(A: AffineReduct, look: GuidedLookups,
                        m: frozenset[int], n: frozenset[int],
                        a1: int, b1: int, a2: int, b2: int,
                        top_of: Sequence[int]) -> Optional[list[int]]:
    """The reduct lines [a1+m, a2+n, b1+m, b2+n] when all four survive and
    form a proper quadrangle without diagonals, else None.

    The base points and lines only name the candidate lines; the
    acceptance (distinct lines and tops, four crossings, no diagonal) is
    decided on reduct incidence and visible tops.
    """
    q_lines = [look.line_at(a1, m), look.line_at(a2, n),
               look.line_at(b1, m), look.line_at(b2, n)]
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
    if p3 in look.adjacency[p1] or p4 in look.adjacency[p2]:
        return None
    return q_lines


def crosses_both(A: AffineReduct, k: int, a: int, b: int) -> bool:
    G = A.structure
    return bool(G.lines[k] & G.lines[a]) and bool(G.lines[k] & G.lines[b])


def holds_vertex_pair_per_pair(meets: Sequence[int], k_rows: list, l_rows: list) -> bool:
    """_NetSearch.holds_vertex_pair with each l-side mask tested against
    each live, one bit_count at a time."""
    if any(mask.bit_count() != named for _, named, mask in k_rows + l_rows):
        return True
    lives = set()
    for _, _, pm in k_rows:
        tops = [t for t in range(pm.bit_length()) if pm >> t & 1]
        lives |= {meets[a] & meets[b] for a, b in itertools.combinations(tops, 2)}
    return any((qm & live).bit_count() > 1 for _, _, qm in l_rows for live in lives)


@functools.lru_cache(maxsize=None)
def _battery_report() -> dict[str, str]:
    path = pathlib.Path(__file__).with_name("battery_report.jsonl")
    return {json.loads(line)["claim"]: line for line in path.read_text().splitlines()}


def assert_pinned_verdict(verdict) -> None:
    """The verdict's report line, runtime_s dropped, is its pinned line."""
    got = verdict.to_json()
    del got["runtime_s"]
    assert json.dumps(got, sort_keys=True) == _battery_report()[verdict.claim], (
        f"{verdict.claim}: verdict content changed")
