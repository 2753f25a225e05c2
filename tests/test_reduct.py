import itertools

import pytest

from verogeo.algebra import BilinearForm, standard_symplectic
from verogeo.hyperplanes import hyperplane_from_symplectic
from verogeo.incidence import is_connected
from verogeo.multiset import EMPTY, Multiset
from verogeo.reduct import (ONE_LEAF, TWO_LEAF, DEGENERATE, PLANE,
                            scan_declared_double_triples,
                            RecoveryError, build_reduct,
                            check_classes_disjoint,
                            check_parallelism_reconstruction,
                            classify_directions, net_violation_witness,
                            plane_from_triangle, recover_horizon_double_lines,
                            recover_horizon_leaf_lines, recover_veronese,
                            reduct_plane_family, veblen_parallel,
                            verify_maximal_strong, visible_tops)
from verogeo.spaces import projective_space
from verogeo.veronese import build_veronese


def pg13_reduct():
    V = build_veronese(projective_space(1, 3), 2)
    H = hyperplane_from_symplectic(V, BilinearForm(3, ((0, 1), (2, 0))))
    return build_reduct(V, H)


def pg33_reduct():
    V = build_veronese(projective_space(3, 3), 2)
    H = hyperplane_from_symplectic(V, standard_symplectic(4, 3))
    return build_reduct(V, H)


def test_pg13_reduct_shape():
    A = pg13_reduct()
    assert A.structure.point_count == 6
    assert len(A.lines) == 4
    assert all(len(t.points) == 3 for t in A.lines)
    # four singleton classes: the leaf lines meet the double leaf in 2x
    assert len(A.classes) == 4
    assert all(len(m) == 1 for m in A.classes.values())
    assert check_classes_disjoint(A)
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


def test_directions_pg13_all_one_leaf():
    A = pg13_reduct()
    report = classify_directions(A)
    assert report.one_leaf == 4
    assert report.two_leaf == 0
    assert report.dichotomy_ok


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
    assert veblen_parallel(A, same_leaf[0], same_leaf[1])
    cross_leaf = (groups[0][0], groups[1][0])
    assert not veblen_parallel(A, cross_leaf[0], cross_leaf[1])
    # reflexivity and the common-point exclusion
    assert veblen_parallel(A, members[0], members[0])


def test_veblen_parallel_crossing_lines_in_distinct_leaves():
    A = pg33_reduct()
    top_of, _ = visible_tops(A)
    through = A.structure.lines_through()
    p = 0
    here = through[p]
    li = next(a for a in here for b in here
              if a != b and top_of[a] != top_of[b])
    lj = next(b for b in here if top_of[b] != top_of[li])
    assert not veblen_parallel(A, li, lj)


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
    planes = reduct_plane_family(A)
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


def test_recover_horizon_double_lines_fails_on_projective_line():
    # the reduct of the level-2 Veronese over PG(1,3) is isomorphic to a
    # Veronese product, so the double horizon cannot be recovered
    A = pg13_reduct()
    with pytest.raises(RecoveryError):
        recover_horizon_double_lines(A)


def test_net_violation_impossible_over_gf3():
    # over GF(3) the witness shape's vertex conditions are unsatisfiable:
    # the complete enumeration must exhaust without a hit
    A = pg33_reduct()
    witness = net_violation_witness(A)
    assert not witness["found"]
    assert witness["reason"] == "complete shape enumeration exhausted"
    assert witness["configurations_checked"] > 0


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
    assert J.evaluate(coords[v], coords[w]) == 0
    assert v in P.lines[mi] and w in P.lines[ni]
    assert {a1, b1} <= P.lines[ni] and {a2, b2} <= P.lines[mi]
    for u in (a1, b1):
        for t in (a2, b2):
            assert J.evaluate(coords[u], coords[t]) != 0


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
    assert A.rows[radical] == frozenset(P.points)
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


def test_parallelism_reconstruction_sample():
    A = pg33_reduct()
    report = check_parallelism_reconstruction(A, sample_per_kind=8)
    # sound everywhere; same-leaf pairs reconstruct via the Veblen formula;
    # cross-leaf completions do not exist over GF(3)
    assert report["sound"], report
    assert report["cross_leaf_checked"] > 0
    assert report["cross_leaf_completable"] == 0


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
    A = pg33_reduct()
    report = scan_declared_double_triples(A, max_quadrangles=150)
    assert report["quadrangles_scanned"] == 150
    assert report["triples_declared"] > 0


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
