import itertools

import pytest

from verogeo.algebra import (BilinearForm, QuadraticForm, determinant_form,
                             standard_symplectic)
from verogeo.hyperplanes import (FULL, hyperplane_from_alternating,
                                 hyperplane_from_symplectic)
from verogeo.multiset import EMPTY, Multiset, scale_point
from verogeo.configs import FalsificationError
from verogeo.incidence import veblen_parallel_lines
from verogeo.reduct import (AffineReduct, build_reduct,
                            check_parallelism_reconstruction,
                            classify_directions, net_violation_witness,
                            reconstruct_parallel_pair,
                            recover_horizon_double_lines,
                            recover_horizon_leaf_lines, recover_veronese,
                            reduct_plane_family, scan_declared_double_triples,
                            verify_maximal_strong, visible_tops)
from verogeo.spaces import ParallelStructure, polar_space_quadratic, projective_space
from verogeo.verify import _reduct_pg33
from verogeo.veronese import build_veronese

from oracles import (DEGENERATE, PLANE, bilinear_value, check_preparallelism,
                     is_connected, plane_from_triangle)


Q_PLUS_33 = QuadraticForm(3, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))


def pg13_reduct():
    V = build_veronese(projective_space(1, 3), 2)
    H = hyperplane_from_symplectic(V, BilinearForm(3, ((0, 1), (2, 0))))
    return build_reduct(V, H)


def pg33_reduct():
    """V(2,PG(3,3)) minus the standard symplectic hyperplane, shared with
    the battery: no test mutates it, so its caches are built once."""
    return _reduct_pg33()


def test_pg13_reduct_shape():
    A = pg13_reduct()
    assert A.structure.point_count == 6
    assert len(A.lines) == 4
    assert all(len(t.points) == 3 for t in A.lines)
    # four singleton classes: the leaf lines meet the double leaf in 2x
    assert len(A.classes) == 4
    assert all(len(m) == 1 for m in A.classes.values())
    classes = ParallelStructure(A.structure, tuple(A.classes.values()))
    assert check_preparallelism(classes)[0]
    assert is_connected(A.structure)


def test_pg13_reduct_supports():
    A = pg13_reduct()
    for r in range(A.structure.point_count):
        label = A.structure.labels[r]
        assert len(label.support()) == 2


def test_pg33_reduct_counts():
    A = pg33_reduct()
    assert A.structure.point_count == 540
    assert len(A.lines) == 4680
    assert len(A.classes) == 280
    for r in range(540):
        assert len(A.structure.labels[r].support()) == 2


def test_reduct_rejects_non_hyperplane():
    V = build_veronese(projective_space(1, 3), 2)
    H = hyperplane_from_symplectic(V, BilinearForm(3, ((0, 1), (2, 0))))
    fake = type(H)(V, frozenset(list(H.points)[:2]), H.h_function)
    with pytest.raises(ValueError):
        build_reduct(V, fake)


def test_visible_tops_match_ambient_leaves():
    A = pg33_reduct()
    top_of, subs = visible_tops(A)
    V, H = A.ambient, A.hyperplane
    expected = set()
    for e, leaf in V.leaves.items():
        kept = frozenset(A.red_of[q] for q in leaf - H.points)
        if kept:
            expected.add(kept)
    assert set(subs) == expected
    assert len(subs) == 40
    for li, t in enumerate(A.lines):
        amb_leaf = V.leaves[V.block_top[t.parent]]
        kept = frozenset(A.red_of[q] for q in amb_leaf - H.points)
        assert subs[top_of[li]] == kept


def test_maximal_strong_subspaces_of_reduct():
    A = pg33_reduct()
    report = verify_maximal_strong(A)
    assert all(report[k] for k in ("sets_match_leaf_reducts", "all_strong",
                                   "all_maximal", "every_line_covered",
                                   "adjacency_pins_leaf"))
    assert report["count"] == 40


def test_classify_directions_is_cached_on_the_reduct():
    A = pg13_reduct()
    report = classify_directions(A)
    assert classify_directions(A) is report
    assert A._directions is report


def test_directions_pg13_all_one_leaf():
    A = pg13_reduct()
    report = classify_directions(A)
    assert report.one_leaf == 4
    assert report.two_leaf == 0
    assert report.dichotomy_ok


@pytest.mark.parametrize("answer", [False, True])
def test_directions_refuse_the_dichotomy_under_a_constant_veblen_test(monkeypatch, answer):
    # never Veblen-parallel: two members of a one-leaf class are apart, and
    # each two-leaf member is parallel to neither representative; always:
    # a two-leaf class finds no second representative.  A fresh reduct,
    # since the report is cached
    V = build_veronese(projective_space(3, 3), 2)
    A = build_reduct(V, hyperplane_from_symplectic(V, standard_symplectic(4, 3)))
    monkeypatch.setattr("verogeo.incidence.veblen_parallel_lines", lambda G, i, j: answer)
    report = classify_directions(A)
    assert (report.one_leaf, report.two_leaf) == (40, 240)
    assert report.dichotomy_ok is False


def test_veblen_parallel_examples_pg33():
    A = pg33_reduct()
    # two lines of one class inside one leaf reduct are Veblen-parallel;
    # two lines of one class in different leaves are not
    top_of, _ = visible_tops(A)
    mixed = next(e for e in A.classes
                 if len(A.infinite_label(e).support()) == 2)
    members = A.classes[mixed]
    by_top = {}
    for li in members:
        by_top.setdefault(top_of[li], []).append(li)
    groups = sorted(by_top.values(), key=len, reverse=True)
    same_leaf = groups[0][:2]
    assert veblen_parallel_lines(A.structure, same_leaf[0], same_leaf[1])
    cross_leaf = (groups[0][0], groups[1][0])
    assert not veblen_parallel_lines(A.structure, cross_leaf[0], cross_leaf[1])
    # reflexivity and the common-point exclusion
    assert veblen_parallel_lines(A.structure, members[0], members[0])


def test_veblen_parallel_crossing_lines_in_distinct_leaves():
    A = pg33_reduct()
    top_of, _ = visible_tops(A)
    through = A.structure.lines_through()
    p = 0
    here = through[p]
    li = next(a for a in here for b in here
              if a != b and top_of[a] != top_of[b])
    lj = next(b for b in here if top_of[b] != top_of[li])
    assert not veblen_parallel_lines(A.structure, li, lj)


def test_plane_from_triangle_leaf_plane():
    A = pg33_reduct()
    top_of, subs = visible_tops(A)
    # pick two crossing lines in one leaf reduct plus a third crossing both
    through = A.structure.lines_through()
    G = A.structure
    for p in range(G.point_count):
        here = [li for li in through[p]]
        for l2, l3 in itertools.combinations(here, 2):
            if top_of[l2] != top_of[l3]:
                continue
            # third side: crosses both away from p
            for l1 in range(len(G.lines)):
                if l1 in (l2, l3) or top_of[l1] != top_of[l2]:
                    continue
                i2 = G.lines[l1] & G.lines[l2]
                i3 = G.lines[l1] & G.lines[l3]
                if not i2 or not i3 or p in G.lines[l1]:
                    continue
                tag, pts = plane_from_triangle(A, l1, l2, l3)
                assert tag == PLANE
                assert len(pts) == 9
                assert any(pts <= T for T in subs)
                return
    raise AssertionError("no leaf triangle found")


def test_plane_from_triangle_translates_collapse():
    # triangle of three translates of one base line: the parallels of a
    # side pin its base line, so the union collapses; never a plane
    A = pg33_reduct()
    V = A.ambient
    base = V.base
    rows = {x: A.hyperplane.h_function[Multiset.from_pairs([[x, 1]])]
            for x in range(base.point_count)}
    block_lookup = {V.structure.lines[t.parent]: li
                    for li, t in enumerate(A.lines)}
    for m in base.lines:
        xs = sorted(m)
        a1, a2, a3 = xs[0], xs[1], xs[2]
        if (a2 in rows[a1]) or (a3 in rows[a1]) or (a3 in rows[a2]):
            continue
        lines = []
        for a in (a1, a2, a3):
            block = frozenset(V.index[Multiset.from_expansion([a, z])]
                              for z in m)
            lines.append(block_lookup.get(block))
        if any(l is None for l in lines):
            continue
        tag, pts = plane_from_triangle(A, *lines)
        assert tag == DEGENERATE
        return
    raise AssertionError("no translate triangle found")


def test_non_triangle_rejected():
    A = pg13_reduct()
    with pytest.raises(ValueError):
        plane_from_triangle(A, 0, 0, 1)


def test_reduct_plane_family_pg33():
    A = pg33_reduct()
    planes = reduct_plane_family(A)[0]
    assert len(planes) == 40 * 39
    assert all(len(pl) == 9 for pl in planes)


def test_recover_horizon_leaf_lines_pg33():
    A = pg33_reduct()
    got = recover_horizon_leaf_lines(A)
    V, H = A.ambient, A.hyperplane
    expected = {b for b in V.structure.lines if b <= H.points
                and V.block_top[V.structure.line_index()[b]] != EMPTY}
    assert got == expected
    assert len(got) == 520


def test_recover_veronese_pg33_closes_one_seed_per_plane():
    report = recover_veronese(pg33_reduct())
    assert report.ok
    assert (report.point_count, report.line_count) == (820, 5330)
    assert (report.missing_lines, report.extra_lines) == (0, 0)
    # the coplanar-line index skips every seed inside a found plane, so
    # the family closes exactly one seed per plane
    assert report.plane_closures == 1560


def test_recover_veronese_pg13_reads_the_double_line():
    # the reduct over PG(1,3) has no proper quadrangle, but its four tops
    # and their one-top directions still name the one double line
    report = recover_veronese(pg13_reduct())
    assert report.ok
    assert (report.point_count, report.line_count) == (10, 5)
    assert (report.missing_lines, report.extra_lines) == (0, 0)


def test_double_line_read_refuses_two_one_top_directions_on_one_top():
    # split one double's class in two: its top now carries two one-top
    # directions, which no level-2 reduct has
    A = pg33_reduct()
    e = next(e for e, tops in A.direction_tops.items() if len(tops) == 1)
    classes = dict(A.classes)
    classes[e], classes[len(A.ambient.points)] = A.classes[e][:1], A.classes[e][1:]
    split = AffineReduct(A.ambient, A.hyperplane, A.structure, A.amb_of,
                         A.lines, classes)
    with pytest.raises(FalsificationError):
        recover_horizon_double_lines(split)


def test_net_violation_impossible_over_gf3():
    # over GF(3) the witness shape's vertex conditions are unsatisfiable:
    # the complete enumeration must exhaust without a hit
    A = pg33_reduct()
    witness = net_violation_witness(A)
    assert not witness["found"]
    assert witness["reason"] == "complete shape enumeration exhausted"
    assert witness["configurations_checked"] == 157680


def test_net_violation_shape_gf3_vs_gf5():
    # the violating shape does not exist on GF(3) coordinates but does on
    # GF(5); neither search needs the (large) level-2 Veronese space
    from verogeo.reduct import net_violation_shape_on_base
    assert net_violation_shape_on_base(
        projective_space(3, 3), standard_symplectic(4, 3)) is None
    hit = net_violation_shape_on_base(
        projective_space(3, 5), standard_symplectic(4, 5))
    assert hit is not None
    # re-verify the witness conditions independently
    from verogeo.algebra import standard_symplectic as std
    P = projective_space(3, 5)
    J = std(4, 5)
    coords = [P.labels[i] for i in range(P.point_count)]
    v, w, mi, ni, a1, b1, a2, b2 = hit
    assert bilinear_value(J, coords[v], coords[w]) == 0
    assert v in P.lines[mi] and w in P.lines[ni]
    assert {a1, b1} <= P.lines[ni] and {a2, b2} <= P.lines[mi]
    for u in (a1, b1):
        for t in (a2, b2):
            assert bilinear_value(J, coords[u], coords[t]) != 0


def test_net_violation_absent_without_mixed_points():
    A = pg13_reduct()
    witness = net_violation_witness(A)
    assert not witness["found"]
    assert witness["reason"] == "no mixed deleted point"


def test_net_violation_search_on_degenerate_reduct():
    # the form's radical point (0,0,1) is conjugate to every point, so its
    # leaf lies in the hyperplane and its row is the whole base
    P = projective_space(2, 3)
    V = build_veronese(P, 2)
    H = hyperplane_from_symplectic(
        V, BilinearForm(3, ((0, 1, 0), (2, 0, 0), (0, 0, 0))))
    A = build_reduct(V, H)
    radical = next(x for x in P.points if P.labels[x] == (0, 0, 1))
    assert H.degenerate
    assert H.h_function[scale_point(1, radical)] == FULL
    assert net_violation_witness(A) == {
        "found": False, "reason": "complete shape enumeration exhausted",
        "configurations_checked": 540}


def pg25_degenerate_reduct():
    """V(2,PG(2,5)) minus the hyperplane of a degenerate alternating form
    with radical (0,0,1)."""
    V = build_veronese(projective_space(2, 5), 2)
    H = hyperplane_from_symplectic(
        V, BilinearForm(5, ((0, 1, 0), (4, 0, 0), (0, 0, 0))))
    return build_reduct(V, H)


def test_double_line_read_refuses_a_degenerate_hyperplane():
    # the radical r gives the top of each leaf x two one-top directions,
    # 2x and x+r: a refused input, as recover_veronese refuses it
    A = pg25_degenerate_reduct()
    for read in (recover_horizon_double_lines, scan_declared_double_triples):
        with pytest.raises(ValueError, match="nondegenerate hyperplane"):
            read(A)


def level3_determinant_reduct():
    V = build_veronese(projective_space(2, 3), 3)
    return build_reduct(V, hyperplane_from_alternating(V, determinant_form(3, 3)))


def quadric_symplectic_reduct():
    V = build_veronese(polar_space_quadratic(Q_PLUS_33)[0], 2)
    return build_reduct(V, hyperplane_from_symplectic(V, standard_symplectic(4, 3)))


@pytest.mark.parametrize("reduct, tops, shape", [
    (level3_determinant_reduct, 3, (234, 936)),
    (quadric_symplectic_reduct, 4, (72, 96)),
], ids=["V(3,PG(2,3))", "V(2,Q+(3,3))"])
def test_level2_readers_refuse_tops_that_are_not_level2_leaves(reduct, tops, shape):
    # a point of V(3,PG(2,3)) lies in three leaves, and over Q+(3,3) the
    # tops are lines, four through each point: every reader that takes the
    # tops for level-2 leaves refuses, rather than read a falsification
    # ("top 0 has one-top directions 1 and 13") or level-2 kinds off them
    A = reduct()
    assert (A.structure.point_count, len(A.lines)) == shape
    for read in (recover_veronese, scan_declared_double_triples,
                 recover_horizon_double_lines, classify_directions,
                 check_parallelism_reconstruction, net_violation_witness):
        with pytest.raises(ValueError, match=f"{tops} visible tops"):
            read(A)


def test_net_violation_found_on_degenerate_pg25_reduct():
    # over GF(5) the shape's vertex conditions can hold: the search stops
    # at the fourth candidate with a witness
    A = pg25_degenerate_reduct()
    witness = net_violation_witness(A)
    assert witness == {
        "found": True, "quadrangle": [7, 258, 64, 284], "l3": 181, "k3": 2,
        "ambient_meet": 32, "meet_in_hyperplane": True,
        "configurations_checked": 4}
    # re-verify on reduct incidence: a cycle of four crossing lines whose
    # opposite pairs l3 and k3 cross, l3 and k3 disjoint
    lines = A.structure.lines
    l1, k1, l2, k2 = witness["quadrangle"]
    for a, b in ((l1, k1), (k1, l2), (l2, k2), (k2, l1)):
        assert len(lines[a] & lines[b]) == 1
    l3, k3 = witness["l3"], witness["k3"]
    assert all(lines[l3] & lines[k] for k in (k1, k2))
    assert all(lines[k3] & lines[l] for l in (l1, l2))
    assert not lines[l3] & lines[k3]
    # the two lines meet in the ambient space at the deleted point
    V = A.ambient
    parents = V.structure.lines
    assert (parents[A.lines[l3].parent] & parents[A.lines[k3].parent]
            == {witness["ambient_meet"]})
    assert witness["ambient_meet"] in A.hyperplane.points


def test_parallelism_reconstruction_exhaustive():
    # every same-leaf parallel pair reconstructs via the Veblen formula;
    # over GF(3) no cross-leaf pair is completable and the quadrangle
    # index declares no pair
    report = check_parallelism_reconstruction(pg33_reduct())
    assert report == {
        "same_leaf_checked": 18720, "same_leaf_agree": 18720,
        "cross_leaf_checked": 19440, "cross_leaf_completable": 0,
        "declared_pairs": 0, "declared_parallel": 0, "sound": True}


class _BlindLine:
    """A truncated line whose ambient parent cannot be read."""

    def __init__(self, line):
        self.points, self.infinite = line.points, line.infinite

    @property
    def parent(self):
        raise AssertionError("read a line's ambient parent")


def _ambient_read(self):
    raise AssertionError("read ambient data")


class _BlindReduct(AffineReduct):
    """An affine reduct whose ambient space, hyperplane and the lookups
    derived from them raise when read."""

    ambient = hyperplane = infinite_label = leaf_reducts = property(_ambient_read)


def _blind_copy(A):
    blind = AffineReduct(A.ambient, A.hyperplane, A.structure, A.amb_of,
                         A.lines, A.classes)
    blind.lines = tuple(_BlindLine(t) for t in A.lines)
    blind.__class__ = _BlindReduct
    with pytest.raises(AssertionError):
        blind.ambient
    return blind


def test_parallelism_reconstruction_reads_reduct_data_only():
    A = pg25_degenerate_reduct()
    blind = _blind_copy(A)
    assert visible_tops(blind) == visible_tops(A)
    report = check_parallelism_reconstruction(blind)
    assert report == check_parallelism_reconstruction(A) == {
        "same_leaf_checked": 1800, "same_leaf_agree": 1800,
        "cross_leaf_checked": 1500, "cross_leaf_completable": 1500,
        "declared_pairs": 1800, "declared_parallel": 1800, "sound": True}
    G = A.structure
    pairs = [(i, j) for i in range(0, len(G.lines), 7)
             for j in range(i + 1, len(G.lines), 11)]
    assert ([reconstruct_parallel_pair(blind, i, j) for i, j in pairs]
            == [reconstruct_parallel_pair(A, i, j) for i, j in pairs])


def test_double_horizon_lines_read_reduct_data_only():
    A = pg33_reduct()
    blind = _blind_copy(A)
    got = recover_horizon_double_lines(blind)
    assert got == recover_horizon_double_lines(A)
    V = A.ambient
    assert got == {frozenset(V.pair[x][x] for x in bl) for bl in V.base.lines}
    assert len(got) == 130
    # one top exactly for the doubles 2x, two for each mixed direction
    tops = blind.direction_tops
    assert tops == A.direction_tops
    doubles = {e for e in A.classes if len(A.infinite_label(e).support()) == 1}
    assert {e for e in tops if len(tops[e]) == 1} == doubles and len(doubles) == 40
    assert sorted(len(tops[e]) for e in tops if e not in doubles) == [2] * 240


def test_net_violation_witness_reads_reduct_data_only():
    exhausted = {"found": False, "reason": "complete shape enumeration exhausted",
                 "configurations_checked": 157680}
    found = {"found": True, "quadrangle": [7, 258, 64, 284], "l3": 181, "k3": 2,
             "ambient_meet": 32, "meet_in_hyperplane": True,
             "configurations_checked": 4}
    for A, expected in ((pg33_reduct(), exhausted), (pg25_degenerate_reduct(), found)):
        assert net_violation_witness(_blind_copy(A)) == net_violation_witness(A) == expected


def test_gamma_single_leaf_one_class():
    from verogeo.incidence import gamma_plane_classes
    from verogeo.spaces import projective_plane_family
    from verogeo.veronese import build_veronese, leaf_plane_family
    V = build_veronese(projective_space(3, 3), 2)
    planes = leaf_plane_family(V, projective_plane_family(V.base, 3))
    leaf = V.leaves[Multiset.from_pairs([[0, 1]])]
    inside = [pl for pl in planes if pl <= leaf]
    classes = gamma_plane_classes(V.structure, inside)
    assert classes == [frozenset(leaf)]


def test_direct_net_scan_agrees_with_shape_search():
    # an independent exhaustive scan over every proper quadrangle of the
    # reduct corroborates the exhausted shape search: no violation
    from verogeo.configs import check_net_axiom
    A = pg33_reduct()
    top_of, _ = visible_tops(A)
    report = check_net_axiom(A.structure, top_of)
    assert report.ok
    assert report.exhaustive
    assert report.checked == 379080


def test_pg13_reduct_isomorphic_to_ag13_veronese():
    # both are the vertex-edge incidence of the complete graph on 4
    # vertices: 6 points, 4 lines of 3, two lines always meeting in one
    # point, every point on exactly two lines
    from verogeo.spaces import affine_space
    A = pg13_reduct()
    W = build_veronese(affine_space(1, 3).base, 2)
    for G in (A.structure, W.structure):
        assert G.point_count == 6
        assert len(G.lines) == 4
        assert all(len(l) == 3 for l in G.lines)
        through = G.lines_through()
        assert all(len(through[q]) == 2 for q in range(6))
        for i in range(4):
            for j in range(i + 1, 4):
                assert len(G.lines[i] & G.lines[j]) == 1


def test_scan_declared_double_triples_sound():
    report = scan_declared_double_triples(pg33_reduct())
    assert report == {"quadrangles_scanned": 59670, "triples_declared": 56160}


def test_reduct_not_a_veronese_product_by_counting():
    # the only candidate product has two leaves per point over the common
    # leaf structure, and its point count does not match the reduct's
    import math
    A = pg33_reduct()
    top_of, subs = visible_tops(A)
    leaf_sizes = {len(T) for T in subs}
    assert leaf_sizes == {27}
    candidate_points = math.comb(27 + 1, 2)
    assert candidate_points == 378
    assert A.structure.point_count == 540 != candidate_points
