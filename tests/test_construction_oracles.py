"""The constructions against their direct definitions.

Each oracle below is the direct construction: join every pair of points,
extend every line by every outside point, test every pair of planes for a
common line, truncate every block of a Veronese space by the hyperplane,
try every subset of points for a maximal strong subspace, a subspace or a
hyperplane, close a set by intersecting every line through it, test every
plane seed against every plane found in its leaf, filter every leaf-trace
row against every earlier row, scan every reduct line for a plane's
directions, evaluate a form on every pair
of points, look every sum x + y up by its multiset, intersect the point
sets of every line pair an affine condition names, write the
Net-violation shape loops out per search, walk the four lines of every
quadrangle one at a time, read every block's generator in each level-2
classifier, sort the lines of AG(n,p) through a rank permutation, keep
every joined point pair in a dict, test every line through every point
of a plane and test every ordered pair of lines crossing two lines for
Veblen parallelism.  The library does less
work and must return exactly the same results, in the same order.
"""

import itertools
import random
import re
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from verogeo.algebra import (AlternatingMultiForm, BilinearForm, OrthogonalityTable,
                             QuadraticForm, alternating_forms_up_to_scalar, nullspace,
                             perp_rows, projective_points, standard_symplectic)
from verogeo import configs
from verogeo.configs import (FalsificationError, QuadrangleFigure, ScanReport,
                             _join, check_net_axiom, check_parallelogram_completion,
                             check_tamaschke, find_quadrangles)
from verogeo.hyperplanes import (FULL, VeroneseHyperplane, census, extract_h_function,
                                 hyperplane_from_symplectic, leaf_pencil,
                                 polar_hyperplane, vari1_construction,
                                 verify_characterization)
from verogeo.incidence import (IncidenceStructure, _scan_hyperplanes,
                               enumerate_hyperplanes, gamma_plane_classes,
                               is_hyperplane, is_partial_linear, is_strong,
                               is_subspace, subspace_closure, veblen_parallel_lines)
from verogeo.multiset import EMPTY, Multiset, scale_point
from verogeo.reduct import (_NetSearch, build_reduct, net_violation_shape_on_base,
                            net_violation_witness,
                            reconstruct_parallel_pair, recover_horizon_leaf_lines,
                            reduct_plane_family, veblen_subclass_map,
                            visible_tops)
from verogeo.spaces import (affine_space, polar_space_quadratic,
                            polar_space_symplectic, projective_plane_family,
                            projective_space)
from verogeo.verify import _reduct_pg33, _symplectic_hyperplane_pg33, _vpg
from verogeo.veronese import build_veronese, leaf_plane_family, leaf_substructure

from oracles import (GuidedLookups, adjacency_rows, affine_space_by_ranks,
                     assemble_from_h, bilinear_value, crosses_both,
                     crossing_line_by_provenance,
                     crossing_rows, det_by_permutations, find_incomplete_veblen,
                     gamma_classes_by_through_walk, h_function_by_sums,
                     is_hyperplane_mask, is_hyperplane_two_pass,
                     is_partial_linear_by_pairs, is_reflexive,
                     leaf_planes_by_sums, line_points,
                     maximal_strong_subspaces, normalize_vector,
                     projective_points_by_normalizing, quadrangle_by_provenance,
                     singular_plane_family, two_line_quadrangle,
                     veblen_by_provenance, veblen_histogram_per_figure,
                     veblen_parallel_by_crossings, veronese_by_sums)


def _sorted_family(sets):
    return sorted(sets, key=lambda s: tuple(sorted(s)))


def all_pairs_lines(n, p):
    pts = projective_points_by_normalizing(n + 1, p)
    index = {v: i for i, v in enumerate(pts)}
    return _sorted_family({frozenset(index[w] for w in line_points(u, v, p))
                           for u, v in itertools.combinations(pts, 2)})


def _span(u, v, w, p, index):
    out = set()
    for a, b, c in itertools.product(range(p), repeat=3):
        vec = tuple((a * x + b * y + c * z) % p for x, y, z in zip(u, v, w))
        if any(vec):
            out.add(index[normalize_vector(vec, p)])
    return frozenset(out)


def all_outside_points_planes(G, p, keep=lambda plane: True):
    """Every line extended by every point off it; planes failing keep dropped."""
    pts = [G.labels[i] for i in range(G.point_count)]
    index = {v: i for i, v in enumerate(pts)}
    planes = set()
    for line in G.lines:
        rep = sorted(line)
        for w in range(G.point_count):
            if w not in line:
                plane = _span(pts[rep[0]], pts[rep[1]], pts[w], p, index)
                if keep(plane):
                    planes.add(plane)
    return _sorted_family(planes)


def pairwise_gamma_classes(G, planes):
    """Planes chain when their intersection contains a line of G."""
    parent = list(range(len(planes)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in itertools.combinations(range(len(planes)), 2):
        shared = planes[a] & planes[b]
        if len(shared) >= 2 and any(l <= shared for l in G.lines):
            ra, rb = find(a), find(b)
            parent[max(ra, rb)] = min(ra, rb)
    classes = {}
    for idx, pl in enumerate(planes):
        classes.setdefault(find(idx), set()).update(pl)
    return _sorted_family(frozenset(c) for c in classes.values())


@st.composite
def structures_with_planes(draw):
    n = draw(st.integers(3, 9))
    subset = lambda lo, hi: st.frozensets(st.integers(0, n - 1), min_size=lo,
                                          max_size=min(hi, n))
    lines = draw(st.lists(subset(2, 4), max_size=12))
    planes = draw(st.lists(subset(0, 6), max_size=10))
    return IncidenceStructure(n, lines), planes


@settings(max_examples=300, deadline=None)
@given(structures_with_planes())
def test_gamma_classes_match_pairwise_rule(case):
    G, planes = case
    classes = gamma_plane_classes(G, planes)
    assert classes == pairwise_gamma_classes(G, planes)
    assert classes == gamma_classes_by_through_walk(G, planes)


@pytest.mark.parametrize("line", [frozenset(), frozenset({0})])
def test_gamma_classes_reject_degenerate_lines(line):
    G = IncidenceStructure(4, [line, {1, 2}])
    with pytest.raises(ValueError):
        gamma_plane_classes(G, [frozenset({0, 1, 2}), frozenset({0, 1, 3})])


@pytest.mark.parametrize("n,p", [(n, p) for n in (1, 2, 3) for p in (2, 3, 5)]
                         + [(4, 3), (5, 2), (2, 7)]
                         + [(n, p) for n in (1, 2) for p in (11, 13)])
def test_projective_space_matches_all_pairs_join(n, p):
    # p = 11 and 13 pack each coordinate into a field of 5 bits
    G = projective_space(n, p)
    assert list(G.lines) == all_pairs_lines(n, p)
    assert G.labels == dict(enumerate(projective_points_by_normalizing(n + 1, p)))


def test_pg53_joins_every_pair_exactly_once():
    G = projective_space(5, 3)
    assert G.point_count == 364 and len(G.lines) == 11011
    assert all(len(l) == 4 for l in G.lines)
    assert len(G.lines) * comb(4, 2) == comb(364, 2)
    pairs = {pair for l in G.lines for pair in itertools.combinations(sorted(l), 2)}
    assert len(pairs) == comb(364, 2)


@pytest.mark.parametrize("p", [2, 3])
def test_projective_plane_family_matches_all_outside_points(p):
    G = projective_space(3, p)
    assert projective_plane_family(G, p) == all_outside_points_planes(G, p)


def test_pg42_plane_family_matches_all_outside_points():
    G = projective_space(4, 2)
    assert projective_plane_family(G, 2) == all_outside_points_planes(G, 2)


def gaussian_binomial(m, k, p):
    """[m choose k]_p, the number of k-dimensional subspaces of GF(p)^m."""
    out = 1
    for i in range(k):
        out = out * (p ** (m - i) - 1) // (p ** (i + 1) - 1)
    return out


@pytest.mark.parametrize("n,p", [(3, 5), (4, 3), (5, 2), (3, 7)])
def test_projective_plane_family_counts_past_the_outside_point_oracle(n, p):
    """Where extending every line by every outside point is too slow: the
    Gaussian count of distinct subspace planes, each line on the planes of
    the quotient PG(n-2,p)."""
    G = projective_space(n, p)
    planes = projective_plane_family(G, p)
    assert len(planes) == gaussian_binomial(n + 1, 3, p)
    assert len(set(planes)) == len(planes)
    assert all(len(plane) == p * p + p + 1 and is_subspace(G, plane) for plane in planes)
    on_planes = [sum(line <= plane for plane in planes) for line in G.lines]
    assert set(on_planes) == {(p ** (n - 1) - 1) // (p - 1)}


@pytest.mark.parametrize("n,p,pairs", [
    (5, 2, ((0, 1), (2, 3), (4, 5))),   # Q+(5,2)
    (4, 3, ((0, 1), (2, 3))),           # cone over Q+(3,3)
    (4, 2, ((0, 1), (2, 3))),           # cone over Q+(3,2)
])
def test_singular_plane_family_matches_all_outside_points(n, p, pairs):
    M = [[0] * (n + 1) for _ in range(n + 1)]
    for i, j in pairs:
        M[i][j] = 1
    Q = QuadraticForm(p, tuple(map(tuple, M)))
    G = projective_space(n, p)
    on = frozenset(i for i in G.points if Q.evaluate(G.labels[i]) == 0)
    singular = IncidenceStructure(G.point_count, [l for l in G.lines if l <= on],
                                  labels=G.labels)
    expected = all_outside_points_planes(singular, p, keep=lambda pl: pl <= on)
    assert expected and singular_plane_family(Q, G) == expected


def block_loop_reduct(V, H):
    """Truncate every block not inside H by its one deleted point."""
    pts = H.points
    amb_of = tuple(i for i in range(len(V.points)) if i not in pts)
    red_of = {a: r for r, a in enumerate(amb_of)}
    lines = []
    for bi, block in enumerate(V.structure.lines):
        deleted = block & pts
        if deleted == block:
            continue
        assert len(deleted) == 1
        lines.append((frozenset(red_of[q] for q in block - pts), bi,
                      next(iter(deleted))))
    lines.sort(key=lambda t: tuple(sorted(t[0])))
    classes = {}
    for i, (_, _, e) in enumerate(lines):
        classes.setdefault(e, []).append(i)
    return {"amb_of": amb_of, "red_of": red_of, "lines": lines,
            "labels": {r: V.points[a] for r, a in enumerate(amb_of)},
            "classes": {e: tuple(v) for e, v in sorted(classes.items())}}


def pg33_symplectic():
    V = build_veronese(projective_space(3, 3), 2)
    return V, hyperplane_from_symplectic(V, standard_symplectic(4, 3))


def w33_polar_intersection():
    xi = standard_symplectic(4, 3)
    VW = build_veronese(polar_space_symplectic(xi), 2)
    HP = hyperplane_from_symplectic(build_veronese(projective_space(3, 3), 2), xi)
    pts = polar_hyperplane(VW, HP)
    return VW, VeroneseHyperplane(VW, pts, extract_h_function(VW, pts),
                                  source="polar-intersection")


@pytest.mark.parametrize("instance", [pg33_symplectic, w33_polar_intersection])
def test_build_reduct_matches_block_loop(instance):
    V, H = instance()
    A = build_reduct(V, H)
    want = block_loop_reduct(V, H)
    assert A.amb_of == want["amb_of"]
    assert A.red_of == want["red_of"]
    assert [(t.points, t.parent, t.infinite) for t in A.lines] == want["lines"]
    assert list(A.structure.lines) == [t[0] for t in want["lines"]]
    assert A.structure.point_count == len(want["amb_of"])
    assert A.structure.labels == want["labels"]
    assert list(A.classes.items()) == list(want["classes"].items())


def brute_force_maximal_strong(G):
    """Inclusion-maximal strong subspaces holding a line, over all subsets."""
    strong = [X for r in range(G.point_count + 1)
              for X in map(frozenset, itertools.combinations(G.points, r))
              if any(l <= X for l in G.lines) and is_strong(G, X)]
    return _sorted_family(X for X in strong if not any(X < Y for Y in strong))


@st.composite
def random_partial_linear_spaces(draw):
    """Random 3- and 4-point lines, each kept if it meets the kept ones at most once."""
    n = draw(st.integers(3, 10))
    candidates = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=3,
                                             max_size=min(4, n)), max_size=15))
    lines = []
    for c in candidates:
        if all(len(c & l) <= 1 for l in lines):
            lines.append(c)
    return IncidenceStructure(n, lines)


PG32 = projective_space(3, 2)


@st.composite
def pg32_pieces(draw):
    """Some lines of PG(3,2) inside up to 10 of its points: dense in
    triangles and planes, so strong subspaces overlap and grow past lines."""
    pts = draw(st.lists(st.integers(0, 14), min_size=3, max_size=10, unique=True))
    new_of = {q: i for i, q in enumerate(pts)}
    inside = [l for l in PG32.lines if l <= new_of.keys()]
    keep = draw(st.lists(st.booleans(), min_size=len(inside), max_size=len(inside)))
    return IncidenceStructure(len(pts), [frozenset(new_of[q] for q in l)
                                         for l, k in zip(inside, keep) if k])


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_partial_linear_spaces(), pg32_pieces()))
def test_maximal_strong_subspaces_match_subset_search(G):
    assert maximal_strong_subspaces(G) == brute_force_maximal_strong(G)


def all_subsets(G):
    return [frozenset(X) for r in range(G.point_count + 1)
            for X in itertools.combinations(G.points, r)]


def pairwise_is_subspace(X, G):
    """Every line through two points of X lies inside X."""
    return all(line <= X for a, b in itertools.combinations(sorted(X), 2)
               for line in G.lines if a in line and b in line)


def subset_search_hyperplanes(G):
    """Proper subspaces meeting every line, over all subsets."""
    return _sorted_family(X for X in all_subsets(G)
                          if len(X) < G.point_count and pairwise_is_subspace(X, G)
                          and all(line & X for line in G.lines))


@st.composite
def structures_with_a_subset(draw):
    G = draw(st.one_of(random_partial_linear_spaces(), pg32_pieces()))
    return G, draw(st.frozensets(st.integers(0, G.point_count - 1)))


@settings(max_examples=100, deadline=None)
@given(structures_with_a_subset())
def test_subspace_closure_is_least_subspace_over_subsets(case):
    G, X = case
    holding = [S for S in all_subsets(G) if X <= S and pairwise_is_subspace(S, G)]
    assert subspace_closure(G, X) == frozenset.intersection(*holding)


def worklist_closure(G, X):
    """subspace_closure as a worklist: pop each line through the set and
    intersect it with the set, closing it when 2 of its points are in."""
    current = set(X)
    through = G.lines_through()
    pending = {i for a in current for i in through[a]}
    while pending:
        i = pending.pop()
        line = G.lines[i]
        if 2 <= len(line & current) < len(line):
            fresh = line - current
            current |= line
            for a in fresh:
                pending.update(through[a])
    return frozenset(current)


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_partial_linear_spaces(), pg32_pieces(),
                 structures_with_planes().map(lambda case: case[0])),
       st.integers(0, 2**32 - 1))
def test_subspace_closure_matches_worklist_closure(G, seed):
    # structures_with_planes draws lines of 2 points, and repeated lines
    rng = random.Random(seed)
    subsets = [frozenset()] + [frozenset({q}) for q in G.points]
    subsets += [frozenset(rng.sample(range(G.point_count),
                                     rng.randint(2, G.point_count)))
                for _ in range(20)]
    for X in subsets:
        assert subspace_closure(G, X) == worklist_closure(G, X)


@st.composite
def small_incidence_structures(draw):
    """Lines of 0 to 4 points, meeting anyhow: no partial linear space needed."""
    n = draw(st.integers(0, 8))
    lines = draw(st.lists(st.frozensets(st.integers(0, n - 1), max_size=min(4, n)),
                          max_size=10)) if n else []
    return IncidenceStructure(n, lines)


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_incidence_structures(), random_partial_linear_spaces(),
                 pg32_pieces()))
@example(IncidenceStructure(3, [frozenset(), frozenset({0, 1, 2})]))
@example(IncidenceStructure(4, [frozenset({0, 1}), frozenset({2}), frozenset({1, 2, 3})]))
def test_is_hyperplane_and_enumeration_match_subset_search(G):
    # the scan accepts a full choice by its pruning alone, so lines of 0,
    # 1 and 2 points, which the pruning treats apart, are drawn too, and
    # the scan is compared where the kernel lists 3-point lines; an empty
    # line is met by no set, so it leaves no hyperplane
    want = subset_search_hyperplanes(G)
    assert _sorted_family(X for X in all_subsets(G) if is_hyperplane(G, X)) == want
    assert enumerate_hyperplanes(G) == want
    assert _scan_hyperplanes(G) == want


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_incidence_structures(), random_partial_linear_spaces(),
                 pg32_pieces()))
def test_mask_hyperplane_test_matches_is_hyperplane(G):
    for X in all_subsets(G):
        assert is_hyperplane_mask(G, sum(1 << q for q in X)) == is_hyperplane(G, X)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_incidence_structures(), random_partial_linear_spaces(),
                 pg32_pieces()), st.data())
def test_one_pass_is_hyperplane_matches_the_two_pass_oracle(G, data):
    # the empty set, every point, a random subset, and each hyperplane with
    # one point flipped: near misses that fail on a single line
    n = G.point_count
    drawn = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    sets = [frozenset(), frozenset(G.points), frozenset(q for q in G.points if drawn[q])]
    for H in enumerate_hyperplanes(G):
        sets += [H] + [H ^ {q} for q in G.points]
    for X in sets:
        assert is_hyperplane(G, X) == is_hyperplane_two_pass(G, X), sorted(X)


@st.composite
def spoiled_partial_linear_spaces(draw):
    """A partial linear space with lines inserted: some listed twice, some
    of fewer than 3 points, some joining a pair a second time."""
    G = draw(st.one_of(random_partial_linear_spaces(), pg32_pieces()))
    lines = list(G.lines)
    points = st.integers(0, G.point_count - 1)
    extra = st.one_of(st.frozensets(points, min_size=3, max_size=min(5, G.point_count)),
                      st.frozensets(points, max_size=2))
    if lines:
        extra = st.one_of(extra, st.sampled_from(lines))
    for line in draw(st.lists(extra, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return IncidenceStructure(G.point_count, lines)


@settings(max_examples=400, deadline=None)
@given(st.one_of(spoiled_partial_linear_spaces(), small_incidence_structures(),
                 random_partial_linear_spaces()))
def test_partial_linear_check_matches_pair_table(G):
    assert is_partial_linear(G) == is_partial_linear_by_pairs(G)


def quadrangles_per_quadruple(G, top_of):
    """find_quadrangles over every quadruple of distinct lines in canonical
    form, with crossings and diagonals found by intersecting point sets."""
    def meet(a, b):
        common = G.lines[a] & G.lines[b]
        return next(iter(common)) if common else None

    def adjacent(p, q):
        return any(p in line and q in line for line in G.lines)

    n = len(G.lines)
    found = []
    for l1, k1, l2, k2 in itertools.product(range(n), repeat=4):
        if l1 >= min(k1, l2, k2) or k1 >= k2 or l2 in (k1, k2):
            continue
        if len({top_of[t] for t in (l1, k1, l2, k2)}) != 4:
            continue
        vertices = (meet(l1, k1), meet(k1, l2), meet(l2, k2), meet(k2, l1))
        if None in vertices:
            continue
        p1, p2, p3, p4 = vertices
        if not (adjacent(p1, p3) or adjacent(p2, p4)):
            found.append(QuadrangleFigure((l1, k1, l2, k2), vertices))
    return found


def quadrangles_by_line_walk(G, top_of):
    """find_quadrangles as a walk over lines l1, k1, l2, k2 in canonical
    order, each crossing the last, tops checked as each line is added."""
    cross = crossing_rows(G)
    adj = adjacency_rows(G)

    def meet(a, b):
        return next(iter(G.lines[a] & G.lines[b]))

    for l1 in range(len(G.lines)):
        for k1 in sorted(k for k in cross[l1] if k > l1):
            if top_of[k1] == top_of[l1]:
                continue
            p1 = meet(l1, k1)
            for l2 in sorted(x for x in cross[k1] if x > l1 and x != k1):
                if top_of[l2] in (top_of[l1], top_of[k1]):
                    continue
                p2 = meet(k1, l2)
                for k2 in sorted(x for x in cross[l2] & cross[l1]
                                 if x > k1 and x != l2):
                    if top_of[k2] in (top_of[l1], top_of[k1], top_of[l2]):
                        continue
                    p3, p4 = meet(l2, k2), meet(k2, l1)
                    if p3 in adj[p1] or p4 in adj[p2]:
                        continue
                    yield QuadrangleFigure((l1, k1, l2, k2), (p1, p2, p3, p4))


@pytest.mark.parametrize("base,count", [
    (projective_space(2, 3), 3003), (affine_space(2, 3).base, 630)],
    ids=["PG(2,3)", "AG(2,3)"])
def test_find_quadrangles_matches_line_walk(base, count):
    V = build_veronese(base, 2)
    G = V.structure
    tops = [V.block_top[i] for i in range(len(G.lines))]
    found = list(find_quadrangles(G, tops))
    assert len(found) == count
    assert found == list(quadrangles_by_line_walk(G, tops))
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        top_of = [rng.randrange(12) for _ in G.lines]
        found = list(find_quadrangles(G, top_of))
        assert found and found == list(quadrangles_by_line_walk(G, top_of))


@st.composite
def grid_nets(draw):
    """Rows and columns of an n x n grid and the symbol classes of the
    cyclic Latin square, each line kept or not: partial linear spaces
    rich in quadrangles, some of them with diagonals."""
    n = draw(st.integers(3, 5))
    lines = [frozenset(n * i + j for j in range(n)) for i in range(n)]
    lines += [frozenset(n * i + j for i in range(n)) for j in range(n)]
    lines += [frozenset(n * i + (s - i) % n for i in range(n)) for s in range(n)]
    keep = draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))
    return IncidenceStructure(n * n, [l for l, k in zip(lines, keep) if k])


@st.composite
def structures_with_tops(draw):
    """A structure and a top for each line out of five, so that some
    crossing lines share a top and some quadrangles are not proper."""
    G = draw(st.one_of(random_partial_linear_spaces(), pg32_pieces(), grid_nets()))
    return G, draw(st.lists(st.integers(0, 4), min_size=len(G.lines),
                            max_size=len(G.lines)))


@settings(max_examples=200, deadline=None)
@given(structures_with_tops())
def test_find_quadrangles_matches_quadruple_search(case):
    G, top_of = case
    assert list(find_quadrangles(G, top_of)) == quadrangles_per_quadruple(G, top_of)


def joins_by_line_search(G):
    """join() by searching the lines for each pair of distinct points."""
    return [{q: i for q in G.points for i, line in enumerate(G.lines)
             if q != p and {p, q} <= line} for p in G.points]


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_partial_linear_spaces(), pg32_pieces(), grid_nets()))
def test_join_matches_pairwise_line_search(G):
    join = G.join()
    assert join == joins_by_line_search(G)
    assert G.join() is join


@settings(max_examples=200, deadline=None)
@given(small_incidence_structures())
def test_join_refuses_exactly_a_doubly_joined_pair(G):
    if not any(len(a & b) >= 2 for a, b in itertools.combinations(G.lines, 2)):
        assert G.join() == joins_by_line_search(G)
        return
    with pytest.raises(ValueError, match="lie on lines") as refusal:
        G.join()
    p, q, i, j = map(int, re.findall(r"\d+", str(refusal.value)))
    assert i != j and {p, q} <= G.lines[i] and {p, q} <= G.lines[j]


def veblen_figures_by_intersection(G):
    """The oracle find_incomplete_veblen by intersecting point sets: for
    each apex p and lines l1 < l2 through it, each pair m1 < m2 of lines
    off p meeting both, which cross each of l1 and l2 at distinct points."""
    def meet(a, b):
        common = G.lines[a] & G.lines[b]
        return next(iter(common)) if common else None

    found = []
    for p in G.points:
        here = [i for i, line in enumerate(G.lines) if p in line]
        for l1, l2 in itertools.combinations(here, 2):
            off = [m for m, line in enumerate(G.lines) if p not in line
                   and meet(m, l1) is not None and meet(m, l2) is not None]
            for m1, m2 in itertools.combinations(off, 2):
                if meet(l1, m1) != meet(l1, m2) and meet(l2, m1) != meet(l2, m2):
                    found.append(configs.VeblenFigure(p, l1, l2, m1, m2,
                                                      meet(m1, m2) is not None))
    return found


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_partial_linear_spaces(), pg32_pieces(), grid_nets()))
def test_find_incomplete_veblen_matches_intersection_search(G):
    assert list(find_incomplete_veblen(G)) == veblen_figures_by_intersection(G)


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_partial_linear_spaces(), pg32_pieces(), grid_nets()))
@example(projective_space(2, 2))
def test_classify_all_veblen_matches_per_figure_oracle(G):
    # level 1 over a non-Veblenian base reaches the incomplete figures,
    # level 2 the figures outside one leaf and their classifier; in the
    # Fano plane two crossing lines can share their point on an apex line,
    # a pair no figure may take
    for level in (1, 2):
        V = build_veronese(G, level)
        try:
            expected = veblen_histogram_per_figure(V)
        except FalsificationError as exc:
            with pytest.raises(FalsificationError) as refusal:
                configs.classify_all_veblen(V)
            assert str(refusal.value) == str(exc)
        else:
            assert configs.classify_all_veblen(V) == expected


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_partial_linear_spaces(), pg32_pieces(), grid_nets()))
def test_crossing_both_matches_pairwise_meets(G):
    for a, b in itertools.product(range(len(G.lines)), repeat=2):
        assert G.crossing_both(a, b) == {
            m for m, line in enumerate(G.lines)
            if m not in (a, b) and line & G.lines[a] and line & G.lines[b]}


def characterization_extras(V, enumerated, constructed):
    """The extras of verify_characterization, with the base hyperplanes
    enumerated again for each extra and the point relation read through
    both orderings of each pair."""
    extras = []
    for H in enumerated:
        if H in constructed:
            continue
        n = V.base.point_count
        symmetric = all(
            (V.index[Multiset.from_expansion([x, y])] in H)
            == (V.index[Multiset.from_expansion([y, x])] in H)
            for x in range(n) for y in range(n))
        traces_ok = all(val == FULL or is_hyperplane(V.base, val)
                        for val in extract_h_function(V, H).values())
        pencil_match = next((sorted(bh) for bh in enumerate_hyperplanes(V.base)
                             if leaf_pencil(V, bh) == H), None)
        extras.append({"points": sorted(H), "traces_hyperplane_or_full": traces_ok,
                       "relation_symmetric": symmetric, "leaf_pencil_over": pencil_match})
    return extras


@pytest.mark.parametrize("n,mode", [(1, "scan"), (2, "leaf-trace")])
def test_characterization_extras_match_per_extra_search(n, mode):
    V = build_veronese(projective_space(n, 3), 2)
    report = verify_characterization(V, mode=mode)
    assert report.extras == characterization_extras(V, report.enumerated,
                                                    set(report.constructed))
    assert report.extras and all(e["leaf_pencil_over"] for e in report.extras)


def leaf_trace_dfs(V, base_hyperplanes):
    """The leaf-trace search with each row filtered against every earlier
    row and each leaf's points assembled from its trace function."""
    n = V.base.point_count
    full_set = frozenset(range(n))
    candidates = _sorted_family(base_hyperplanes) + [full_set]
    admissible_diag = set(candidates)
    rows, found = [], set()

    def dfs(x):
        if x == n:
            diag = frozenset(y for y in range(n) if y in rows[y])
            if diag not in admissible_diag:
                return
            h = {EMPTY: FULL if diag == full_set else diag}
            for y in range(n):
                h[scale_point(1, y)] = FULL if rows[y] == full_set else rows[y]
            pts = assemble_from_h(V, h)
            if len(pts) < len(V.points) and is_hyperplane(V.structure, pts):
                found.add(pts)
            return
        for cand in candidates:
            if all((y in cand) == (x in rows[y]) for y in range(x)):
                rows.append(cand)
                dfs(x + 1)
                rows.pop()

    dfs(0)
    return _sorted_family(found)


Q_PLUS_32 = QuadraticForm(2, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))
CENSUS_BASES = {
    "PG(2,2)": lambda: projective_space(2, 2),
    "PG(1,3)": lambda: projective_space(1, 3),
    "PG(2,3)": lambda: projective_space(2, 3),
    "PG(3,2)": lambda: PG32,
    "Q+(3,2)": lambda: polar_space_quadratic(Q_PLUS_32)[0],
}


@pytest.mark.parametrize("name", CENSUS_BASES)
def test_level2_census_matches_leaf_trace_dfs(name):
    V = build_veronese(CENSUS_BASES[name](), 2)
    want = leaf_trace_dfs(V, enumerate_hyperplanes(V.base))
    assert want and census(V) == want


@st.composite
def relabelled_census_bases(draw):
    base = CENSUS_BASES[draw(st.sampled_from(sorted(CENSUS_BASES)))]()
    perm = draw(st.permutations(range(base.point_count)))
    return IncidenceStructure(base.point_count, [[perm[q] for q in line]
                                                 for line in base.lines])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(relabelled_census_bases())
def test_level2_census_matches_leaf_trace_dfs_relabelled(base):
    V = build_veronese(base, 2)
    assert census(V) == leaf_trace_dfs(V, enumerate_hyperplanes(base))


def plane_direction_trace(A, plane):
    """Directions (deleted ambient points) of the lines inside a plane,
    found among the lines through the plane's points."""
    through = A.structure.lines_through()
    return frozenset(A.lines[li].infinite for q in plane for li in through[q]
                     if A.lines[li].points <= plane)


def test_plane_direction_trace_matches_all_lines_scan():
    A = build_reduct(*pg33_symplectic())
    planes = reduct_plane_family(A)[0]
    assert len(planes) == 1560
    # in a plane or a leaf reduct every direction has a line through every
    # point; a plane short of a point, or two planes, are not like that
    sets = (planes + _sorted_family(A.leaf_reducts)
            + [P - {min(P)} for P in planes]
            + [P | Q for P, Q in zip(planes[::20], planes[1::20])])
    for X in sets:
        want = frozenset(t.infinite for t in A.lines if t.points <= X)
        assert plane_direction_trace(A, X) == want


def test_perp_rows_match_evaluate_on_a_non_reflexive_form():
    rng = random.Random(20261018)
    xi = BilinearForm(5, tuple(tuple(rng.randrange(5) for _ in range(3))
                               for _ in range(3)))
    assert not is_reflexive(xi)
    coords = projective_points(3, 5)
    rows = perp_rows(xi, coords)
    assert rows == [frozenset(j for j, v in enumerate(coords)
                              if bilinear_value(xi, u, v) == 0) for u in coords]
    # row i is xi(c_i, .), not xi(., c_i)
    assert rows != [frozenset(j for j, v in enumerate(coords)
                              if bilinear_value(xi, v, u) == 0) for u in coords]


@st.composite
def forms_on_vectors(draw):
    """An alternating form of arity 1-4 over GF(2), GF(3), GF(5) or GF(7)
    and arguments drawn from a small pool, so that some repeat."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    arity = draw(st.integers(1, 4))
    dim = draw(st.integers(arity, arity + 2))
    subsets = list(itertools.combinations(range(dim), arity))
    coeffs = draw(st.dictionaries(st.sampled_from(subsets), st.integers(0, p - 1)))
    pool = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * dim), min_size=1, max_size=3))
    vectors = draw(st.lists(st.sampled_from(pool), min_size=arity, max_size=arity))
    return AlternatingMultiForm.from_dict(p, arity, dim, coeffs), vectors


@settings(max_examples=400, deadline=None)
@given(forms_on_vectors())
def test_alternating_evaluate_matches_the_permutation_determinant(case):
    eta, vectors = case
    want = sum(c * det_by_permutations([[v[i] for i in idx] for v in vectors], eta.p)
               for idx, c in eta.coeffs) % eta.p
    assert eta.evaluate(vectors) == want
    if len(set(vectors)) < len(vectors):
        assert want == 0


@st.composite
def forms_with_coordinates(draw):
    """A non-reflexive bilinear form of dimension 2-6 over GF(p), p up to
    13, and coordinates that include the all-(p-1) vector, whose dot
    products fill the packed fields the most."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    dim = draw(st.integers(2, 6))
    entries = st.integers(0, p - 1)
    xi = BilinearForm(p, draw(st.tuples(*[st.tuples(*[entries] * dim)] * dim)))
    coords = draw(st.lists(st.tuples(*[entries] * dim), max_size=20))
    return xi, coords + [(p - 1,) * dim]


@settings(max_examples=300, deadline=None)
@given(forms_with_coordinates(), forms_with_coordinates())
def test_packed_perp_rows_match_bilinear_value(case, other):
    xi, coords = case
    assume(not is_reflexive(xi))
    want = [frozenset(j for j, v in enumerate(coords) if bilinear_value(xi, u, v) == 0)
            for u in coords]
    assert perp_rows(xi, coords) == want
    # one table read by a second form, over another field or dimension,
    # then by the first again: the rows are kept apart by p and normal
    table = OrthogonalityTable(coords)
    assert table.rows(xi) == want
    zeta = other[0]
    if zeta.dim == xi.dim:
        assert table.rows(zeta) == [
            frozenset(j for j, v in enumerate(coords) if bilinear_value(zeta, u, v) == 0)
            for u in coords]
    else:
        with pytest.raises(ValueError, match=f"dimension {zeta.dim}"):
            table.rows(zeta)
    assert table.rows(xi) == want


def test_pair_table_matches_multiset_lookup():
    fano = IncidenceStructure(7, [[6, 2, 0], [6, 1, 5], [6, 3, 4], [2, 1, 4],
                                  [2, 3, 5], [0, 1, 3], [0, 4, 5]])
    for base in (projective_space(2, 3), fano):
        V = build_veronese(base, 2)
        n = base.point_count
        assert V.pair == [[V.index[Multiset.from_expansion([x, y])] for y in range(n)]
                          for x in range(n)]
    with pytest.raises(ValueError):
        build_veronese(projective_space(1, 3), 3).pair


def relabelled(G, seed):
    """Copy of G with its points shuffled by a seeded permutation; labels
    travel with their points."""
    perm = list(range(G.point_count))
    random.Random(seed).shuffle(perm)
    labels = None if G.labels is None else {perm[q]: lab for q, lab in G.labels.items()}
    return IncidenceStructure(G.point_count, [[perm[q] for q in line] for line in G.lines],
                              labels=labels)


LEAF_TABLE_CASES = {
    "V(2,PG(2,2))": (lambda: projective_space(2, 2), 2),
    "V(2,PG(2,3))": (lambda: projective_space(2, 3), 2),
    "V(3,PG(1,3))": (lambda: projective_space(1, 3), 3),
    "V(2,AG(2,3))": (lambda: affine_space(2, 3).base, 2),
    "V(2,W(3,3))": (lambda: polar_space_symplectic(standard_symplectic(4, 3)), 2),
}


@pytest.mark.parametrize("name", LEAF_TABLE_CASES)
def test_leaf_table_matches_multiset_sums(name):
    make, k = LEAF_TABLE_CASES[name]
    base = relabelled(make(), 20261019)
    V = build_veronese(base, k)
    n = base.point_count
    assert list(V.leaf_points) == list(V.leaves)
    for e, row in V.leaf_points.items():
        assert row == [V.index[e + scale_point(k - e.degree, x)] for x in range(n)]
    want = veronese_by_sums(base, k)
    assert V.structure.lines == want["lines"]
    # e is the pointwise minimum of two points of e + r*B: one generator a block
    assert list(want["provenance"].values()) == [
        ((top, li),) for top, li in zip(V.block_top, V.block_line)]
    assert list(V.leaves.items()) == list(want["leaves"].items())
    H = frozenset(random.Random(name).sample(range(len(V.points)), len(V.points) // 2))
    assert extract_h_function(V, H) == h_function_by_sums(V, H)
    for e in V.leaf_points:
        assert set(leaf_substructure(V, e).lines) == set(base.lines)


def test_leaf_traces_and_planes_match_multiset_sums():
    # one seed relabels PG(3,3) and W(3,3) alike, so they keep one universe
    xi = standard_symplectic(4, 3)
    P = relabelled(projective_space(3, 3), 20261019)
    VP = build_veronese(P, 2)
    VW = build_veronese(relabelled(polar_space_symplectic(xi), 20261019), 2)
    HP = hyperplane_from_symplectic(VP, xi)
    planes = projective_plane_family(P, 3)
    for V, H in ((VP, HP.points), (VW, polar_hyperplane(VW, HP))):
        assert extract_h_function(V, H) == h_function_by_sums(V, H)
        assert leaf_plane_family(V, planes) == leaf_planes_by_sums(V, planes)


def outcome(classify, *args):
    """The tag classify returns, or the type of the exception it raises."""
    try:
        return classify(*args)
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3)])
def test_block_shape_classifiers_match_provenance_reads(n, p):
    V = _vpg(n, p)
    tops = [V.block_top[i] for i in range(len(V.structure.lines))]
    for fig in find_incomplete_veblen(V.structure):
        assert (outcome(configs.classify_veblen_in_veronese, V, fig)
                == outcome(veblen_by_provenance, V, fig)), fig
    quads = list(configs.quadrangle_crossings(V.structure, tops))
    for i, (q, crossing_l, crossing_k) in enumerate(quads):
        # the next quadrangle's vertices reach the vertex refusals
        shifted = QuadrangleFigure(q.lines, quads[(i + 1) % len(quads)][0].vertices)
        for figure in (q, shifted):
            assert (outcome(configs.classify_proper_quadrangle, V, figure)
                    == outcome(quadrangle_by_provenance, V, figure)), figure
        for (a, b), fresh in zip(q.opposite_pairs, (crossing_l, crossing_k)):
            for k in fresh:
                assert (outcome(configs.classify_crossing_line, V, a, b, k)
                        == outcome(crossing_line_by_provenance, V, a, b, k)), (a, b, k)


def test_crossing_line_classifier_matches_provenance_reads_on_every_triple():
    V = _vpg(2, 2)
    top = V.block_top
    blocks = range(len(V.structure.lines))
    for l1, l2 in itertools.combinations(blocks, 2):
        for k in blocks:
            if len({top[l1], top[l2], top[k]}) == 3:
                assert (outcome(configs.classify_crossing_line, V, l1, l2, k)
                        == outcome(crossing_line_by_provenance, V, l1, l2, k)), (l1, l2, k)


@pytest.mark.parametrize("n,p", [(1, 3), (2, 3), (3, 3), (2, 5), (3, 5), (4, 3)])
def test_affine_space_matches_flattened_class_construction(n, p):
    A, want = affine_space(n, p), affine_space_by_ranks(n, p)
    assert A.base.lines == want.base.lines
    assert A.base.labels == want.base.labels
    assert A.parallel_classes == want.parallel_classes


def symplectic_per_pair(V, xi):
    """(points, h, degenerate) of the symplectic hyperplane, with the form
    evaluated on every pair of points and every x + y looked up by its
    multiset."""
    coords = [V.base.labels[i] for i in range(V.base.point_count)]
    n = len(coords)
    h = {EMPTY: FULL}
    pts = set()
    degenerate = False
    for i in range(n):
        row = frozenset(j for j in range(n) if bilinear_value(xi, coords[i], coords[j]) == 0)
        if len(row) == n:
            h[scale_point(1, i)] = FULL
            degenerate = True
        else:
            h[scale_point(1, i)] = row
        pts.update(V.index[Multiset.from_expansion([i, j])] for j in row)
    pts.update(V.index[Multiset.from_expansion([i, i])] for i in range(n))
    return frozenset(pts), h, degenerate


@pytest.mark.parametrize("n,sample", [(2, None), (3, 40)])
def test_symplectic_hyperplane_matches_per_pair_construction(n, sample):
    V = build_veronese(projective_space(n, 3), 2)
    forms = alternating_forms_up_to_scalar(n + 1, 3)
    if sample:
        forms = random.Random(20261018).sample(forms, sample)
    degenerate_seen = False
    for xi in forms:
        H = hyperplane_from_symplectic(V, xi)
        points, h, degenerate = symplectic_per_pair(V, xi)
        assert H.points == points
        assert list(H.h_function.items()) == list(h.items())
        assert H.degenerate == degenerate
        degenerate_seen |= degenerate
    assert degenerate_seen


def vari1_per_pair(V, xi, h0):
    """vari1_construction with the form evaluated on every pair of points
    and every x + y looked up by its multiset."""
    coords = [V.base.labels[i] for i in range(V.base.point_count)]
    n = len(coords)
    kappa = [frozenset(j for j in range(n) if bilinear_value(xi, coords[i], coords[j]) == 0)
             for i in range(n)]
    pts = set()
    for i in range(n):
        pts.update(V.index[Multiset.from_expansion([i, j])] for j in kappa[i])
    pts.update(V.index[Multiset.from_expansion([x, x])] for x in h0)
    points = frozenset(pts)
    selfconj = frozenset(i for i in range(n) if i in kappa[i])
    report = {"h0_inside_selfconjugate": h0 <= selfconj}
    if not h0 <= selfconj:
        a = min(x for x in sorted(h0) if x not in kappa[x])
        q = min(kappa[a] - h0)
        block = frozenset(V.index[Multiset.from_expansion([a, x])]
                          for x in _join(V.base, a, q))
        report["witness_block"] = sorted(block)
        report["witness_inside"] = sorted(block & points)
        report["witness_outside"] = sorted(block - points)
        report["is_subspace"] = is_subspace(V.structure, points)
    return points, report


def test_vari1_matches_per_pair_construction():
    V = build_veronese(projective_space(2, 3), 2)
    identity = BilinearForm(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    reports = []
    for h0 in V.base.lines:
        got = vari1_construction(V, identity, h0)
        assert got == vari1_per_pair(V, identity, h0)
        reports.append(got[1])
    # the selfconjugate points of the identity form are a conic, so every
    # line leaves it and every report carries a witness block
    assert all("witness_block" in r for r in reports)


def shape_search_per_pair(P, xi):
    """net_violation_shape_on_base with every conjugacy test evaluating
    the form."""
    coords = [P.labels[i] for i in range(P.point_count)]

    def perp(i, j):
        return bilinear_value(xi, coords[i], coords[j]) == 0

    kappa = {i: frozenset(j for j in range(P.point_count) if perp(i, j))
             for i in range(P.point_count)}
    through = P.lines_through()
    for v in range(P.point_count):
        for w in sorted(kappa[v]):
            if w == v:
                continue
            for mi in through[v]:
                m0 = P.lines[mi]
                if w in m0 or m0 <= kappa[w]:
                    continue
                for ni in through[w]:
                    n0 = P.lines[ni]
                    if v in n0 or n0 <= kappa[v] or ni == mi:
                        continue
                    a_pool = [a for a in sorted(n0 - {w}) if a not in kappa[v]]
                    b_pool = [b for b in sorted(m0 - {v}) if b not in kappa[w]]
                    for a1, b1 in itertools.combinations(a_pool, 2):
                        for a2, b2 in itertools.combinations(b_pool, 2):
                            if {a1, b1} & {a2, b2}:
                                continue
                            if any(perp(u, t) for u in (a1, b1) for t in (a2, b2)):
                                continue
                            return (v, w, mi, ni, a1, b1, a2, b2)
    return None


def conjugated_symplectic(rng, p):
    """g^T J g for a random g in GL(4, p)."""
    while True:
        g = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
        if not nullspace(g, p):
            break
    M = standard_symplectic(4, p).matrix
    return BilinearForm(p, tuple(
        tuple(sum(g[k][i] * M[k][l] * g[l][j] for k in range(4) for l in range(4)) % p
              for j in range(4)) for i in range(4)))


def test_net_violation_shape_matches_per_pair_search():
    P = projective_space(3, 5)
    rng = random.Random(20261018)
    forms = [standard_symplectic(4, 5)]
    forms += [conjugated_symplectic(rng, 5) for _ in range(3)]
    hits = [net_violation_shape_on_base(P, xi) for xi in forms]
    assert hits == [shape_search_per_pair(P, xi) for xi in forms]
    assert hits[0] == (0, 6, 6, 31, 1, 11, 33, 34)


def witness_per_frame(A):
    """net_violation_witness with its own shape loop: the pools a1, b1 on
    n - {y} and a2, b2 on m - {x}, disjointness by set intersection, and
    the line survival, side and crossing tests in their first order."""
    V, H = A.ambient, A.hyperplane
    base = V.base
    top_of, _ = visible_tops(A)
    look = GuidedLookups(A)
    rows = look.rows
    mixed = [(x, y) for x in range(base.point_count) for y in sorted(rows[x])
             if x < y]
    if not mixed:
        return {"found": False, "reason": "no mixed deleted point",
                "configurations_checked": 0}
    through = base.lines_through()
    checked = 0
    for x, y in mixed:
        for mi in through[x]:
            m = base.lines[mi]
            if y in m or m <= rows[y]:
                continue
            for ni in through[y]:
                n = base.lines[ni]
                if x in n or n <= rows[x] or n == m:
                    continue
                a_opts = [a for a in sorted(n - {y}) if a not in rows[x]]
                b_opts = [b for b in sorted(m - {x}) if b not in rows[y]]
                for a1, b1 in itertools.combinations(a_opts, 2):
                    for a2, b2 in itertools.combinations(b_opts, 2):
                        if {a1, b1} & {a2, b2}:
                            continue
                        checked += 1
                        if any(t in rows[u] for u in (a1, b1) for t in (a2, b2)):
                            continue
                        q = two_line_quadrangle(A, look, m, n, a1, b1, a2, b2, top_of)
                        if q is None:
                            continue
                        l3, k3 = look.line_at(y, m), look.line_at(x, n)
                        if l3 is None or k3 is None or l3 in q or k3 in q:
                            continue
                        if not (crosses_both(A, l3, q[1], q[3])
                                and crosses_both(A, k3, q[0], q[2])):
                            continue
                        if A.structure.lines[l3] & A.structure.lines[k3]:
                            continue
                        meet = V.pair[x][y]
                        return {"found": True, "quadrangle": q, "l3": l3,
                                "k3": k3, "ambient_meet": meet,
                                "meet_in_hyperplane": meet in H.points,
                                "configurations_checked": checked}
    return {"found": False, "reason": "complete shape enumeration exhausted",
            "configurations_checked": checked}


def reconstruct_both_orientations(A, look, i, j):
    """reconstruct_parallel_pair with its own completion loop, which also
    tries i against the m-sides and j against the n-sides; look is
    GuidedLookups(A)."""
    if i == j:
        return True
    top_of, _ = visible_tops(A)
    G, V = A.structure, A.ambient
    rows = look.rows
    if top_of[i] == top_of[j]:
        return veblen_parallel_lines(G, i, j)
    if G.lines[i] & G.lines[j]:
        return False
    ei, mi = V.block_top[A.lines[i].parent], V.block_line[A.lines[i].parent]
    ej, mj = V.block_top[A.lines[j].parent], V.block_line[A.lines[j].parent]
    if ei.degree != 1 or ej.degree != 1:
        return False
    x, y = next(iter(ei.support())), next(iter(ej.support()))
    m, n = V.base.lines[mi], V.base.lines[mj]
    if y not in m or x not in n:
        return False
    a_opts = [a for a in sorted(n - {x, y}) if a not in rows[y]]
    b_opts = [b for b in sorted(m - {x, y}) if b not in rows[x]]
    for a1, b1 in itertools.combinations(a_opts, 2):
        for a2, b2 in itertools.combinations(b_opts, 2):
            if {a1, b1} & {a2, b2}:
                continue
            q = two_line_quadrangle(A, look, m, n, a1, b1, a2, b2, top_of)
            if q is None or i in q or j in q:
                continue
            l1, k1, l2, k2 = q
            if (crosses_both(A, i, k1, k2) and crosses_both(A, j, l1, l2)) \
                    or (crosses_both(A, j, k1, k2) and crosses_both(A, i, l1, l2)):
                return True
    return False


def seeded_symplectic_reduct(seed):
    """V(2,PG(3,3)) minus the hyperplane of g^T J g for a seeded g."""
    V = _vpg(3, 3)
    form = conjugated_symplectic(random.Random(seed), 3)
    return build_reduct(V, hyperplane_from_symplectic(V, form))


def degenerate_reduct(p):
    """V(2,PG(2,p)) minus the hyperplane of the degenerate alternating form
    with xi(e0, e1) = 1 = -xi(e1, e0) and radical (0,0,1)."""
    V = build_veronese(projective_space(2, p), 2)
    form = BilinearForm(p, ((0, 1, 0), (p - 1, 0, 0), (0, 0, 0)))
    return build_reduct(V, hyperplane_from_symplectic(V, form))


@pytest.mark.parametrize("instance,found,checked", [
    (_reduct_pg33, False, 157680),
    (lambda: seeded_symplectic_reduct(1), False, 157680),
    (lambda: seeded_symplectic_reduct(2), False, 157680),
    (lambda: degenerate_reduct(3), False, 540),
    (lambda: degenerate_reduct(5), True, 4),
], ids=["J", "seed1", "seed2", "degenerate-pg23", "degenerate-pg25"])
def test_net_violation_witness_matches_per_frame_search(instance, found, checked):
    A = instance()
    witness = net_violation_witness(A)
    assert witness == witness_per_frame(A)
    assert (witness["found"], witness["configurations_checked"]) == (found, checked)


def test_direct_net_scan_fails_on_the_degenerate_pg25_reduct():
    # where the shape search finds its violation at position 4, the scan
    # over every proper quadrangle fails too: two crossing lines that miss
    A = degenerate_reduct(5)
    report = check_net_axiom(A.structure, visible_tops(A)[0])
    assert (report.ok, report.checked, report.exhaustive) == (False, 6603, True)
    _, m3, n3 = report.witness
    assert not A.structure.lines[m3] & A.structure.lines[n3]


def test_net_violation_witness_on_the_census_of_v2_pg23():
    # the 13 hyperplanes that hold every double give the per-frame dict;
    # on the 13 leaf pencils no deleted point has lines in two visible
    # tops, where the per-frame search walked its mixed points to no frame
    V = _vpg(2, 3)
    doubles = V.leaves[EMPTY]
    kinds = {True: 0, False: 0}
    for pts in census(V):
        A = build_reduct(V, VeroneseHyperplane(V, pts, extract_h_function(V, pts)))
        witness, old = net_violation_witness(A), witness_per_frame(A)
        kinds[doubles <= pts] += 1
        if doubles <= pts:
            assert witness == old
        else:
            assert old == {"found": False, "configurations_checked": 0,
                           "reason": "complete shape enumeration exhausted"}
            assert witness == {"found": False, "configurations_checked": 0,
                               "reason": "no mixed deleted point"}
    assert kinds == {True: 13, False: 13}


def test_net_violation_whole_walk_matches_per_frame_search(monkeypatch):
    # with every acceptance refused both searches walk to exhaustion on
    # the PG(2,5) reduct: the same 126,000 candidates, of which the same
    # 45,000 have all four vertices (past the conjugacy prefilter)
    A = degenerate_reduct(5)
    reached = {"vertices": 0, "prefilter": 0}

    def refuse(key, answer):
        def call(*args):
            reached[key] += 1
            return answer
        return call

    monkeypatch.setattr("verogeo.reduct._net_accepts", refuse("vertices", False))
    monkeypatch.setitem(globals(), "two_line_quadrangle", refuse("prefilter", None))
    exhausted = {"found": False, "reason": "complete shape enumeration exhausted",
                 "configurations_checked": 126000}
    assert net_violation_witness(A) == witness_per_frame(A) == exhausted
    assert reached == {"vertices": 45000, "prefilter": 45000}


@pytest.mark.parametrize("instance,mixed,walked", [
    (_reduct_pg33, 240, 0),
    (lambda: seeded_symplectic_reduct(1), 240, 0),
    (lambda: seeded_symplectic_reduct(2), 240, 0),
    (lambda: degenerate_reduct(3), 12, 0),
    (lambda: degenerate_reduct(5), 60, 60),
], ids=["J", "seed1", "seed2", "degenerate-pg23", "degenerate-pg25"])
def test_net_class_count_matches_the_exact_walk(monkeypatch, instance, mixed, walked):
    # with every acceptance refused the exact walk of a class reaches all
    # its candidates, and the closed form counts as many, class by class;
    # no instance mixes the two paths, so the sum alone would not show it
    monkeypatch.setattr("verogeo.reduct._net_accepts", lambda *args: False)
    search = _NetSearch(instance())
    held = 0
    for e, k_top in search.mixed:
        k_rows, l_rows = search.sides(e, k_top)
        # two named points of a line never share an other top at level 2
        assert all(mask.bit_count() == named for _, named, mask in k_rows + l_rows)
        held += search.holds_vertex_pair(k_rows, l_rows)
        assert search.walk_class(e, k_rows, l_rows, 0) == (None, search.count_class(k_rows, l_rows))
    assert (len(search.mixed), held) == (mixed, walked)


def test_net_filter_needs_two_tops_of_an_l3_in_a_live():
    # a candidate has both vertices when its two l3 tops lie in the live of
    # its k3 pair; in every class of the PG(2,5) reduct some live holds
    # three tops of an l3, so the whole rows would pass a test for three as
    # well, and rows cut down to one k3 pair and two or one l3 tops pin it
    search = _NetSearch(degenerate_reduct(5))
    k_rows, l_rows = search.sides(*search.mixed[0])
    (k3, _, pm), (l3, _, qm) = k_rows[0], l_rows[0]
    a, b = [t for t in range(pm.bit_length()) if pm >> t & 1][:2]
    live = search.meets[a] & search.meets[b]
    u, v = [t for t in range(qm.bit_length()) if (qm & live) >> t & 1][:2]
    k_cut = [(k3, 2, 1 << a | 1 << b)]
    assert search.holds_vertex_pair(k_cut, [(l3, 2, 1 << u | 1 << v)])
    assert not search.holds_vertex_pair(k_cut, [(l3, 1, 1 << u)])


def test_net_violation_witness_keeps_its_count_across_walked_classes(monkeypatch):
    # forcing the exact walk on every other class of the J reduct: the
    # walked and the counted classes add up to the same certificate
    calls = itertools.count()
    monkeypatch.setattr(_NetSearch, "holds_vertex_pair",
                        lambda self, k_rows, l_rows: next(calls) % 2 == 0)
    assert net_violation_witness(_reduct_pg33()) == {
        "found": False, "reason": "complete shape enumeration exhausted",
        "configurations_checked": 157680}
    assert next(calls) == 240


def test_net_violation_witness_refuses_a_quadric_reduct():
    # over Q+(3,3) a leaf is no strong subspace: its visible tops are
    # lines, four through each point, and the leaves cannot be read off them
    Q = QuadraticForm(3, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))
    polar, _ = polar_space_quadratic(Q)
    V = build_veronese(polar, 2)
    H = hyperplane_from_symplectic(V, standard_symplectic(4, 3))
    with pytest.raises(ValueError, match="4 visible tops"):
        net_violation_witness(build_reduct(V, H))


@pytest.mark.parametrize("instance,parallel", [
    (_reduct_pg33, 0), (lambda: degenerate_reduct(5), 1500)],
    ids=["J", "degenerate-pg25"])
def test_reconstruction_matches_both_orientation_completion(instance, parallel):
    A = instance()
    top_of, _ = visible_tops(A)
    G = A.structure
    cross = [(i, j) for _, members in sorted(A.classes.items())
             for i, j in itertools.combinations(members, 2)
             if top_of[i] != top_of[j]]
    rng = random.Random(20261018)
    disjoint = []
    while len(disjoint) < 500:
        i, j = rng.randrange(len(G.lines)), rng.randrange(len(G.lines))
        if top_of[i] != top_of[j] and not G.lines[i] & G.lines[j]:
            disjoint.append((i, j))
    pairs = cross + disjoint
    got = [reconstruct_parallel_pair(A, i, j) for i, j in pairs]
    look = GuidedLookups(A)
    assert got == [reconstruct_both_orientations(A, look, i, j) for i, j in pairs]
    assert sum(got[:len(cross)]) == parallel


def _veblen_both_ways(G, pairs):
    """veblen_parallel_lines and its crossing-line oracle on each pair."""
    got = [veblen_parallel_lines(G, i, j) for i, j in pairs]
    assert got == [veblen_parallel_by_crossings(G, i, j) for i, j in pairs]
    return got


@pytest.mark.parametrize("instance,parallel", [
    (_reduct_pg33, 18720), (lambda: seeded_symplectic_reduct(1), 18720),
    (lambda: seeded_symplectic_reduct(2), 18720), (lambda: degenerate_reduct(5), 1800)],
    ids=["J", "seed1", "seed2", "degenerate-pg25"])
def test_veblen_parallel_lines_matches_crossing_scan_on_classes(instance, parallel):
    A = instance()
    pairs = [(i, j) for members in A.classes.values()
             for i, j in itertools.combinations(members, 2)]
    assert sum(_veblen_both_ways(A.structure, pairs)) == parallel


@pytest.mark.parametrize("n", [2, 3])
def test_veblen_parallel_lines_matches_crossing_scan_on_random_pairs(n):
    G = _vpg(n, 3).structure
    rng = random.Random(20261020 + n)
    pairs = [(rng.randrange(len(G.lines)), rng.randrange(len(G.lines)))
             for _ in range(20000)]
    got = _veblen_both_ways(G, pairs)
    assert any(got) and not all(got)


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_partial_linear_spaces(), pg32_pieces(), grid_nets()))
def test_veblen_parallel_lines_matches_crossing_scan_on_all_pairs(G):
    _veblen_both_ways(G, list(itertools.product(range(len(G.lines)), repeat=2)))


def scan_plane_family(A):
    """reduct_plane_family closing each seed over all of the reduct, after
    testing it against every plane found in its leaf; also returns the
    seeds it closed."""
    G = A.structure
    top_of, subs = visible_tops(A)
    through = G.lines_through()
    planes, seeds = set(), []
    for ti, T in enumerate(subs):
        local_planes = []
        for p in sorted(T):
            here = [li for li in through[p] if top_of[li] == ti]
            for a, b in itertools.combinations(here, 2):
                seed = G.lines[a] | G.lines[b]
                if any(seed <= pl for pl in local_planes):
                    continue
                closed = worklist_closure(G, seed)
                seeds.append((ti, seed))
                if closed <= T:
                    local_planes.append(closed)
        planes.update(local_planes)
    return _sorted_family(planes), seeds


@pytest.mark.parametrize("instance", [
    _reduct_pg33, lambda: seeded_symplectic_reduct(1),
    lambda: seeded_symplectic_reduct(2)], ids=["J", "seed1", "seed2"])
def test_plane_family_matches_scan_over_found_planes(instance):
    A = instance()
    planes, traces, closures = reduct_plane_family(A)
    want, seeds = scan_plane_family(A)
    assert planes == want
    assert closures == len(seeds) == len(planes) == 1560
    assert traces == [plane_direction_trace(A, pl) for pl in planes]
    leaf_lines = recover_horizon_leaf_lines(A)
    assert leaf_lines == {tr for tr in traces if len(tr) >= 3}
    assert len(leaf_lines) == 520
    # each seed lies in one plane: its closure over the whole reduct, which
    # stays inside the seed's top
    G = A.structure
    _, subs = visible_tops(A)
    planes_at = {}
    for pl in planes:
        for q in pl:
            planes_at.setdefault(q, []).append(pl)
    for ti, seed in seeds:
        closed = worklist_closure(G, seed)
        assert [pl for pl in planes_at[min(seed)] if seed <= pl] == [closed]
        assert closed <= subs[ti]


def tamaschke_per_line(G, class_of, budget_points=200):
    """check_tamaschke with the third sides found, and each parallel tested
    against both apex sides, by intersecting point sets."""
    meeting = {}

    def meets(t):
        if t not in meeting:
            meeting[t] = {m for m, line in enumerate(G.lines) if line & G.lines[t]}
        return meeting[t]

    through = G.lines_through()
    members = {}
    for li, ci in class_of.items():
        members.setdefault(ci, []).append(li)
    apexes, strata = range(G.point_count), None
    exhaustive = G.point_count <= budget_points
    if not exhaustive:
        step = max(1, G.point_count // 20)
        apexes = range(0, G.point_count, step)
        strata = ("apex_in", 0, step, G.point_count)
    checked = 0
    for p in apexes:
        for t2, t3 in itertools.combinations(through[p], 2):
            for t1 in sorted(meets(t2) & meets(t3)):
                if p in G.lines[t1] or class_of.get(t1) is None:
                    continue
                for m in members[class_of[t1]]:
                    checked += 1
                    if bool(G.lines[m] & G.lines[t2]) != bool(G.lines[m] & G.lines[t3]):
                        return ScanReport(False, (p, t1, t2, t3, m), checked,
                                          exhaustive, strata)
    return ScanReport(True, None, checked, exhaustive, strata)


def parallelogram_per_quadruple(G, class_of, budget_points=200):
    """check_parallelogram_completion with all four crossings of every
    four-line configuration tested by intersecting point sets."""
    members = {}
    for li, ci in class_of.items():
        members.setdefault(ci, []).append(li)
    class_ids = sorted(members)
    pick_l, strata = class_ids, None
    exhaustive = G.point_count <= budget_points
    if not exhaustive:
        step = max(1, len(class_ids) // 40)
        pick_l = class_ids[::step]
        strata = ("l_class_in", 0, step, len(class_ids))
    checked = 0
    for cl in pick_l:
        for l1, l2 in itertools.combinations(members[cl], 2):
            for cm in class_ids:
                if cm <= cl:
                    continue
                for m1, m2 in itertools.combinations(members[cm], 2):
                    checked += 1
                    if sum(bool(G.lines[a] & G.lines[b])
                           for a in (l1, l2) for b in (m1, m2)) == 3:
                        return ScanReport(False, (l1, l2, m1, m2), checked,
                                          exhaustive, strata)
    return ScanReport(True, None, checked, exhaustive, strata)


PG23 = projective_space(2, 3)
AG23 = affine_space(2, 3)
VAG23 = build_veronese(AG23.base, 2).structure


def pieces_of(G):
    """Some lines of G inside some of its points, relabelled in order."""
    @st.composite
    def draw_piece(draw):
        pts = sorted(draw(st.sets(st.integers(0, G.point_count - 1), min_size=3)))
        new_of = {q: i for i, q in enumerate(pts)}
        inside = [l for l in G.lines if l <= new_of.keys()]
        keep = draw(st.lists(st.booleans(), min_size=len(inside), max_size=len(inside)))
        return IncidenceStructure(len(pts), [frozenset(new_of[q] for q in l)
                                             for l, k in zip(inside, keep) if k])
    return draw_piece()


@st.composite
def class_maps(draw, G):
    """Lines in a random order, each given one of k classes or left out;
    classes hold about six lines or fewer, so the per-quadruple oracle
    stays quick, and merged classes make violations common."""
    n = len(G.lines)
    k = draw(st.integers(max(1, n // 6), max(1, n)))
    order = draw(st.permutations(range(n)))
    cls = draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n))
    return {li: c for li, c in zip(order, cls) if c >= 0}


@st.composite
def merged_singleton_maps(draw, G):
    """Every line its own class, in a random order, then a few classes
    merged: at least 80 classes, so the sampled parallelogram scan skips
    every other one."""
    n = len(G.lines)
    order = draw(st.permutations(range(n)))
    cls = list(range(n))
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=30)):
        cls[a] = cls[b]
    return {li: c for li, c in zip(order, cls)}


@st.composite
def merged_affine_maps(draw):
    """The parallel classes of AG(2,3), some merged, some lines left out."""
    merge = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    keep = draw(st.lists(st.booleans(), min_size=12, max_size=12))
    return AG23.base, {li: merge[c] for li, c in AG23.class_of().items() if keep[li]}


SCAN_CASES = st.one_of(
    merged_affine_maps(),
    st.one_of(random_partial_linear_spaces(), pg32_pieces(), pieces_of(PG23),
              pieces_of(VAG23), st.just(VAG23)).flatmap(
        lambda G: st.tuples(st.just(G), class_maps(G))),
    st.tuples(st.just(VAG23), merged_singleton_maps(VAG23)))


@settings(max_examples=150, deadline=None)
@given(SCAN_CASES)
def test_affine_scans_match_per_line_loops(case):
    G, class_of = case
    for budget in (200, G.point_count - 1):
        with mock.patch.object(configs, "EXHAUSTIVE_POINT_BUDGET", budget):
            assert (check_tamaschke(G, class_of)
                    == tamaschke_per_line(G, class_of, budget))
            assert (check_parallelogram_completion(G, class_of)
                    == parallelogram_per_quadruple(G, class_of, budget))


def test_affine_scans_on_pg33_reduct_match_per_line_loops():
    A = _reduct_pg33()
    class_of = veblen_subclass_map(A)
    tam = check_tamaschke(A.structure, class_of)
    assert tam == tamaschke_per_line(A.structure, class_of)
    assert tam == ScanReport(True, None, 115560, False, ("apex_in", 0, 27, 540))
    # the classes of the directions through base point 0 and a point
    # outside its perp, as in the benchmark's reduct pass
    kappa0 = _symplectic_hyperplane_pg33().h_function[scale_point(1, 0)]
    x1 = next(x for x in range(A.ambient.base.point_count) if x not in kappa0)
    share = {li: c for li, c in class_of.items()
             if A.infinite_label(A.lines[li].infinite).support() & {0, x1}}
    pcc = check_parallelogram_completion(A.structure, share)
    assert pcc == parallelogram_per_quadruple(A.structure, share)
    assert pcc == ScanReport(True, None, 1587600, False, ("l_class_in", 0, 1, 50))
    # the battery's full scan; the per-quadruple loop takes over 20 s here,
    # so its report is pinned as that loop gave it
    assert (check_parallelogram_completion(A.structure, class_of)
            == ScanReport(True, None, 13763520, False, ("l_class_in", 0, 13, 520)))
