import hashlib
import json
from unittest import mock

import pytest

from verogeo import incidence
from verogeo.algebra import (BilinearForm, QuadraticForm, alternating_forms_up_to_scalar,
                             determinant_form,
                             standard_symplectic)
from verogeo.hyperplanes import (FULL, VeroneseHyperplane, census,
                                 enumerate_hyperplanes_level2, extract_h_function,
                                 hyperplane_from_alternating,
                                 hyperplane_from_symplectic, leaf_pencil,
                                 polar_hyperplane, slice_census, vari1_construction,
                                 verify_characterization)
from verogeo.incidence import (IncidenceStructure, enumerate_hyperplanes, is_hyperplane,
                               is_subspace)
from verogeo.multiset import EMPTY, scale_point
from verogeo.spaces import (affine_space, polar_space_quadratic,
                            polar_space_symplectic, projective_hyperplanes,
                            projective_space)
from verogeo.veronese import build_veronese

from oracles import (assert_pinned_verdict, bilinear_value, is_hyperplane_mask,
                     is_l_transversal, is_nondegenerate_alternating,
                     l_transversal_from_h)


def v2(n, p):
    return build_veronese(projective_space(n, p), 2)


def assert_all_hyperplanes(V, family):
    # the scan and the slice census accept a full choice by their own
    # pruning; the oracle tests each set against every line
    assert all(is_hyperplane_mask(V.structure, sum(1 << q for q in H)) for H in family)


def test_symplectic_hyperplane_projective_line():
    V = v2(1, 3)
    xi = BilinearForm(3, ((0, 1), (2, 0)))
    H = hyperplane_from_symplectic(V, xi)
    doubles = V.leaves[EMPTY]
    assert H.points == doubles
    assert len(H.points) == 4
    assert not H.degenerate


def test_symplectic_hyperplane_pg33_size():
    V = v2(3, 3)
    H = hyperplane_from_symplectic(V, standard_symplectic(4, 3))
    # 40 doubles plus one mixed pair per orthogonal point pair:
    # each of the 40 points has 12 conjugates besides itself
    assert len(H.points) == 40 + 40 * 12 // 2 == 280
    assert V.leaves[EMPTY] <= H.points
    assert H.h_function[EMPTY] == FULL
    for x in range(40):
        assert len(H.h_function[scale_point(1, x)]) == 13


def test_symplectic_rejects_non_symplectic():
    V = v2(2, 3)
    identity = BilinearForm(3, tuple(tuple(1 if i == j else 0 for j in range(3))
                                     for i in range(3)))
    with pytest.raises(ValueError):
        hyperplane_from_symplectic(V, identity)


def test_degenerate_symplectic_tagged():
    V = v2(2, 3)
    xi = BilinearForm(3, ((0, 1, 0), (2, 0, 0), (0, 0, 0)))
    H = hyperplane_from_symplectic(V, xi)
    assert H.degenerate
    assert is_hyperplane(V.structure, H.points)
    # the radical point contributes its entire leaf
    fulls = [e for e, val in H.h_function.items() if val == FULL and e != EMPTY]
    assert len(fulls) == 1
    # a second read returns the stored value and walks no point of V
    H.ambient = None
    assert H.degenerate


def test_vari1_negative_control():
    V = v2(2, 3)
    identity = BilinearForm(3, tuple(tuple(1 if i == j else 0 for j in range(3))
                                     for i in range(3)))
    coords = [V.base.labels[i] for i in range(13)]
    selfconj = {i for i in range(13)
                if bilinear_value(identity, coords[i], coords[i]) == 0}
    assert len(selfconj) == 4  # the conic
    h0 = next(h for h in projective_hyperplanes(V.base, 3)
              if not h <= selfconj)
    points, report = vari1_construction(V, identity, h0)
    assert not report["h0_inside_selfconjugate"]
    assert not report["is_subspace"]
    assert not is_subspace(V.structure, points)
    assert len(report["witness_inside"]) >= 2
    assert report["witness_outside"]
    # the verify suite reads the same conic off the orthogonality rows
    from verogeo import verify as vfy
    (verdict,) = vfy.SUITES["negative-control"]()
    assert verdict.ok and verdict.details == {"selfconjugate_points": len(selfconj)}


def test_extract_h_of_symplectic():
    V = v2(3, 3)
    J = standard_symplectic(4, 3)
    H = hyperplane_from_symplectic(V, J)
    h = extract_h_function(V, H.points)
    assert h == H.h_function
    coords = [V.base.labels[i] for i in range(40)]
    for x in range(40):
        row = frozenset(y for y in range(40)
                        if bilinear_value(J, coords[x], coords[y]) == 0)
        assert h[scale_point(1, x)] == row
    assert h[EMPTY] == FULL


def test_extract_h_unconditional():
    V = v2(1, 3)
    everything = extract_h_function(V, range(10))
    assert all(v == FULL for v in everything.values())
    arbitrary = extract_h_function(V, [0, 3, 5])
    assert set(arbitrary) == set(V.leaf_keys())


def test_l_transversal_from_h_constant_row():
    # one fixed base hyperplane on every leaf: always l-transversal; the
    # union is exactly the leaf pencil over that hyperplane, a subspace
    V = v2(2, 3)
    h0 = projective_hyperplanes(V.base, 3)[0]
    h = {e: h0 for e in V.leaf_keys()}
    pts = l_transversal_from_h(V, h)
    assert is_l_transversal(V.structure, pts)
    assert pts == leaf_pencil(V, h0)
    assert is_subspace(V.structure, pts)
    # every point with a point of h0 in its support lies in the pencil
    assert VeroneseHyperplane(V, pts, extract_h_function(V, pts)).degenerate


def test_l_transversal_from_h_mixed_rows_not_subspace():
    V = v2(2, 3)
    hyps = projective_hyperplanes(V.base, 3)
    h = {e: (hyps[0] if i % 2 else hyps[1])
         for i, e in enumerate(V.leaf_keys())}
    pts = l_transversal_from_h(V, h)
    assert is_l_transversal(V.structure, pts)
    assert not is_subspace(V.structure, pts)


def test_l_transversal_from_h_full_everywhere():
    V = v2(1, 3)
    h = {e: FULL for e in V.leaf_keys()}
    pts = l_transversal_from_h(V, h)
    assert pts == frozenset(range(10))


def test_l_transversal_from_h_rejects_malformed():
    V = v2(1, 3)
    h = {e: frozenset({0, 1}) for e in V.leaf_keys()}
    with pytest.raises(ValueError):
        l_transversal_from_h(V, h)


def test_alternating_level3_pg23():
    V = build_veronese(projective_space(2, 3), 3)
    assert V.structure.point_count == 455
    eta = determinant_form(3, 3)
    H = hyperplane_from_alternating(V, eta)
    complement = set(range(455)) - H.points
    assert len(complement) == 234
    assert all(len(V.points[q].support()) == 3 for q in complement)
    assert not H.degenerate
    assert is_nondegenerate_alternating(eta, [V.base.labels[x] for x in V.base.points])


def test_alternating_level2_matches_symplectic():
    V = v2(1, 3)
    xi = BilinearForm(3, ((0, 1), (2, 0)))
    from verogeo.algebra import AlternatingMultiForm
    eta = AlternatingMultiForm.from_dict(3, 2, 2, {(0, 1): 1})
    assert (hyperplane_from_alternating(V, eta).points
            == hyperplane_from_symplectic(V, xi).points)


def test_alternating_arity_mismatch():
    V = v2(1, 3)
    with pytest.raises(ValueError):
        hyperplane_from_alternating(V, determinant_form(3, 3))


@pytest.mark.parametrize("xi,message", [
    (standard_symplectic(4, 3), "dimension 4"),
    (standard_symplectic(2, 3), "dimension 2"),
    (BilinearForm(5, ((0, 1, 0), (4, 0, 0), (0, 0, 0))), r"GF\(5\)"),
], ids=["dim4", "dim2", "gf5"])
def test_symplectic_refuses_a_form_that_does_not_match_the_base(xi, message):
    # PG(2,3) has 3-entry coordinates over GF(3): none of these forms fits
    # it, and none may yield a hyperplane by truncating the coordinates
    V = v2(2, 3)
    with pytest.raises(ValueError, match=message):
        hyperplane_from_symplectic(V, xi)
    with pytest.raises(ValueError, match=message):
        vari1_construction(V, xi, V.base.lines[0])


def test_alternating_refuses_a_form_over_another_field():
    V = build_veronese(projective_space(2, 3), 3)
    with pytest.raises(ValueError, match=r"GF\(5\) does not match the base over GF\(3\)"):
        hyperplane_from_alternating(V, determinant_form(3, 5))


def test_polar_hyperplane_w33():
    W = polar_space_symplectic(standard_symplectic(4, 3))
    VW = build_veronese(W, 2)
    VP = v2(3, 3)
    H = hyperplane_from_symplectic(VP, standard_symplectic(4, 3))
    pts = polar_hyperplane(VW, H)
    assert is_hyperplane(VW.structure, pts)
    assert len(pts) == 280  # same point universe as the projective Veronese


def test_polar_hyperplane_hyperbolic_quadric():
    Q = QuadraticForm(3, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))
    polar = polar_space_quadratic(Q)[0]
    Vq = build_veronese(polar, 2)
    VP = v2(3, 3)
    H = hyperplane_from_symplectic(VP, standard_symplectic(4, 3))
    pts = polar_hyperplane(Vq, H)
    assert is_l_transversal(Vq.structure, pts)
    assert is_subspace(Vq.structure, pts)
    assert is_hyperplane(Vq.structure, pts)


def test_symplectic_hyperplane_on_a_quadric_base_is_the_polar_intersection():
    # Q+(3,3) has 16 points, not the 40 of PG(3,3); its lines show GF(3),
    # and the form applies to its coordinates
    Q = QuadraticForm(3, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))
    polar = polar_space_quadratic(Q)[0]
    Vq = build_veronese(polar, 2)
    xi = standard_symplectic(4, 3)
    H = hyperplane_from_symplectic(Vq, xi)
    assert H.points == polar_hyperplane(Vq, hyperplane_from_symplectic(v2(3, 3), xi))


@pytest.mark.parametrize("p", [5, 7])
def test_symplectic_refuses_a_form_over_another_field_on_a_quadric_base(p):
    # the form has the quadric's dimension, so only the field read off a
    # base line tells it apart; it is an input error, not a failed check
    Vq = build_veronese(polar_space_quadratic(Q_PLUS_33)[0], 2)
    with pytest.raises(ValueError, match=rf"GF\({p}\) does not match the base over GF\(3\)"):
        hyperplane_from_symplectic(Vq, standard_symplectic(4, p))


def test_polar_hyperplane_rejects_empty_line_set():
    from verogeo.incidence import IncidenceStructure
    V = v2(1, 3)
    H = hyperplane_from_symplectic(V, BilinearForm(3, ((0, 1), (2, 0))))
    bare = build_veronese(projective_space(1, 3), 2)
    bare.structure = IncidenceStructure(10, [])
    with pytest.raises(ValueError):
        polar_hyperplane(bare, H)


def test_characterization_v2_pg13():
    V = v2(1, 3)
    report = verify_characterization(V, mode="scan")
    assert report.constructed_subset_of_enumerated
    assert len(report.constructed) == 1
    # the enumeration also finds the four leaf pencils over base points,
    # so the two sides are NOT equal: the symplectic family is incomplete
    assert len(report.enumerated) == 5
    assert not report.equal
    assert len(report.extras) == 4
    for extra in report.extras:
        assert extra["traces_hyperplane_or_full"]
        assert extra["relation_symmetric"]
        assert extra["leaf_pencil_over"] is not None


@pytest.mark.parametrize("n,p", [(2, 2), (1, 3), (2, 3), (1, 5)])
def test_base_prime_from_line_size(n, p):
    assert v2(n, p).field == p


def test_base_prime_rejects_a_base_that_is_no_projective_space():
    # AG(2,3): 3-point lines would mean GF(2), but its coordinates are over
    # GF(3); AG(2,5): 5-point lines would mean GF(4), which is no prime
    for n, p in ((2, 3), (2, 5)):
        assert build_veronese(affine_space(n, p).base, 2).field is None


@pytest.mark.parametrize("base, p", [
    (lambda: polar_space_quadratic(Q_PLUS_33)[0], 3),
    (lambda: polar_space_symplectic(standard_symplectic(4, 3)), 3),
    (lambda: projective_space(3, 5), 5),
], ids=["Q+(3,3)", "W(3,3)", "PG(3,5)"])
def test_base_prime_read_off_the_first_line(base, p):
    # a polar base has fewer points than its PG(3,p), but each of its
    # lines is a projective line over GF(p) in its coordinates
    assert build_veronese(base(), 1).field == p


Q_PLUS_33 = QuadraticForm(3, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))
Q_PLUS_32 = QuadraticForm(2, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))


@pytest.mark.parametrize("base, count", [
    (lambda: projective_space(1, 3), 5),
    (lambda: projective_space(2, 2), 63),
    (lambda: polar_space_quadratic(Q_PLUS_32)[0], 1023),
    (lambda: projective_space(2, 3), 26),
    (lambda: projective_space(1, 7), 9),
], ids=["PG(1,3)", "PG(2,2)", "Q+(3,2)", "PG(2,3)", "PG(1,7)"])
def test_leaf_trace_enumeration_matches_scan(base, count):
    V = build_veronese(base(), 2)
    got = enumerate_hyperplanes(V.structure)
    assert len(got) == count
    assert_all_hyperplanes(V, got)
    assert enumerate_hyperplanes_level2(V) == got


@pytest.mark.parametrize("base, level, count", [
    (lambda: projective_space(2, 2), 2, 63),
    (lambda: projective_space(2, 2), 3, 127),
    (lambda: polar_space_quadratic(Q_PLUS_32)[0], 2, 1023),
    (lambda: projective_space(3, 2), 2, 1023),
], ids=["V(2,PG(2,2))", "V(3,PG(2,2))", "V(2,Q+(3,2))", "V(2,PG(3,2))"])
def test_kernel_route_matches_scan(base, level, count):
    # on 3-point lines enumerate_hyperplanes lists the GF(2) kernel; the
    # decision scan it replaces there must give the same list, in order
    V = build_veronese(base(), level)
    got = enumerate_hyperplanes(V.structure)
    assert len(got) == count
    assert_all_hyperplanes(V, got)
    assert got == incidence._scan_hyperplanes(V.structure)


W_32 = standard_symplectic(4, 2)


@pytest.mark.parametrize("base, level, d", [
    (lambda: projective_space(1, 2), 1, 2),
    (lambda: projective_space(1, 2), 2, 3),
    (lambda: projective_space(1, 2), 3, 3),
    (lambda: projective_space(1, 2), 4, 3),
    (lambda: projective_space(2, 2), 1, 3),
    (lambda: projective_space(2, 2), 2, 6),
    (lambda: projective_space(2, 2), 3, 7),
    (lambda: projective_space(2, 2), 4, 7),
    (lambda: projective_space(3, 2), 2, 10),
    (lambda: polar_space_quadratic(Q_PLUS_32)[0], 3, 15),
    (lambda: polar_space_symplectic(W_32), 2, 15),
], ids=["PG(1,2)-1", "PG(1,2)-2", "PG(1,2)-3", "PG(1,2)-4", "PG(2,2)-1",
        "PG(2,2)-2", "PG(2,2)-3", "PG(2,2)-4", "PG(3,2)-2", "Q+(3,2)-3", "W(3,2)-2"])
def test_binary_hyperplane_counts(base, level, d):
    # 2^d - 1 hyperplanes of V(level, M) for a kernel of dimension d; on
    # PG(e-1,2) d is the sum of C(e, j) for j <= level, and Q+(3,2) at
    # level 3 exceeds that sum (14) by one
    assert len(enumerate_hyperplanes(build_veronese(base(), level).structure)) == 2 ** d - 1


def test_scan_counts_the_level3_hyperplanes_over_pg22():
    # 2^7 - 1: V(3,PG(2,2)) has a 7-dimensional GF(2) hyperplane kernel
    V = build_veronese(projective_space(2, 2), 3)
    got = enumerate_hyperplanes(V.structure)
    assert len(got) == 127
    assert hyperplane_from_alternating(V, determinant_form(3, 2)).points in got


def test_level2_search_stops_at_its_budget():
    # V(2,PG(2,3)) takes the slice census 790 nodes
    V = v2(2, 3)
    with mock.patch.object(incidence, "SEARCH_NODE_BUDGET", 789):
        with pytest.raises(incidence.CapacityError, match=r"\b790 nodes"):
            census(V)
    with mock.patch.object(incidence, "SEARCH_NODE_BUDGET", 790):
        got = census(V)
    assert len(got) == 26
    assert_all_hyperplanes(V, got)


@pytest.mark.parametrize("n, p, level, count, nodes", [
    (1, 3, 3, 4, 22), (1, 3, 4, 4, 20),
    (2, 2, 3, 127, 1857), (2, 2, 4, 127, 657),
    (2, 3, 3, 14, 228), (2, 3, 4, 13, 176),
], ids=["PG(1,3)-3-4-22", "PG(1,3)-4-4-20", "PG(2,2)-3-127-1857",
        "PG(2,2)-4-127-657", "PG(2,3)-3-14-228", "PG(2,3)-4-13-176"])
def test_slice_census_past_level_2(n, p, level, count, nodes):
    # the census stops at its first node past the budget; over PG(1,3) it
    # equals the scan and over PG(2,2) the GF(2) kernel.  V(3,Q+(3,2)) is
    # left to the kernel: from its 1,023 slice traces the census lists the
    # same 32,767 hyperplanes, but in over 10 s
    V = build_veronese(projective_space(n, p), level)
    V_lower = build_veronese(projective_space(n, p), level - 1)
    lower = census(V_lower)
    assert_all_hyperplanes(V_lower, lower)
    with mock.patch.object(incidence, "SEARCH_NODE_BUDGET", nodes - 1):
        with pytest.raises(incidence.CapacityError, match=rf"\b{nodes} nodes"):
            slice_census(V, lower)
    with mock.patch.object(incidence, "SEARCH_NODE_BUDGET", nodes):
        got = slice_census(V, lower)
    assert len(got) == count
    assert_all_hyperplanes(V, got)
    assert census(V) == got
    if (n, p, level) == (2, 3, 3):
        assert hyperplane_from_alternating(V, determinant_form(3, 3)).points in got
    elif (n, p) != (2, 3):
        assert got == enumerate_hyperplanes(V.structure)


def test_slice_census_refuses_level_1():
    V = build_veronese(projective_space(1, 3), 1)
    with pytest.raises(ValueError, match="level 2 or more"):
        slice_census(V, enumerate_hyperplanes(V.base))


def test_characterization_v2_pg23_leaf_trace():
    V = v2(2, 3)
    report = verify_characterization(V, mode="leaf-trace")
    assert report.constructed_subset_of_enumerated
    assert len(report.constructed) == 13  # one per alternating form class
    # every enumerated hyperplane has symmetric relation and clean traces
    for extra in report.extras:
        assert extra["traces_hyperplane_or_full"]
        assert extra["relation_symmetric"]
        assert extra["leaf_pencil_over"] is not None
    assert len(report.enumerated) == 26
    assert_all_hyperplanes(V, report.enumerated)


@pytest.mark.parametrize("n, pencils", [(1, 4), (2, 13)])
def test_leaf_pencil_over_matches_the_pencil_table(n, pencils):
    # with no constructed family every hyperplane is an extra, degenerate
    # symplectic ones included, whose radical's leaf lies in H; each extra
    # must name the base hyperplane whose leaf pencil it is, if any
    V = v2(n, 3)
    table = {leaf_pencil(V, F): sorted(F) for F in enumerate_hyperplanes(V.base)}
    with mock.patch("verogeo.hyperplanes.alternating_forms_up_to_scalar", return_value=[]):
        report = verify_characterization(V, mode="leaf-trace")
    assert len(report.extras) == len(report.enumerated)
    got = [e["leaf_pencil_over"] for e in report.extras]
    assert got == [table.get(frozenset(e["points"])) for e in report.extras]
    assert sum(g is not None for g in got) == pencils


def test_leaf_pencil_is_hyperplane():
    V = v2(2, 3)
    F = projective_hyperplanes(V.base, 3)[0]
    U = leaf_pencil(V, F)
    assert is_hyperplane(V.structure, U)
    h = extract_h_function(V, U)
    assert h[EMPTY] == F
    for x in range(13):
        expected = FULL if x in F else F
        assert h[scale_point(1, x)] == expected


def test_polar_hyperplane_mismatched_ambient():
    W = polar_space_symplectic(standard_symplectic(4, 3))
    VW = build_veronese(W, 2)
    V12 = build_veronese(projective_space(1, 3), 2)
    H = hyperplane_from_symplectic(V12, BilinearForm(3, ((0, 1), (2, 0))))
    with pytest.raises(ValueError, match="label that no projective base point carries"):
        polar_hyperplane(VW, H)


def test_characterization_capacity_guard():
    # the census lists the 404 hyperplanes of V(2,PG(3,3)) in 31,928
    # nodes; under a lower budget it stops at the first node past it
    V = build_veronese(projective_space(3, 3), 2)
    with mock.patch.object(incidence, "SEARCH_NODE_BUDGET", 1000):
        with pytest.raises(incidence.CapacityError, match=r"\b1001 nodes"):
            census(V)


def test_alternating_level3_traces_hyperplane_or_full():
    # the leaf traces of a hyperplane are full or base hyperplanes,
    # at every leaf degree
    V = build_veronese(projective_space(2, 3), 3)
    H = hyperplane_from_alternating(V, determinant_form(3, 3))
    base_hyps = set(projective_hyperplanes(V.base, 3))
    for e, val in H.h_function.items():
        assert val == FULL or val in base_hyps, (str(e), val)


def test_polar_hyperplane_census_q33():
    # complete census on the smallest admissible polar Veronese: 491
    # hyperplanes, of which 404 come from intersecting the known ambient
    # families (364 symplectic, 40 leaf pencils) and 87 do not.  The count
    # of 491 was pinned from the exhaustive scan; every set the census
    # lists is a hyperplane, since its pruning leaves no block unmet (the
    # tests above check its lists against the oracle), so an equal count
    # makes the two lists equal
    from verogeo import verify as vfy
    verdicts = vfy.SUITES["polar-conjecture"]()
    assert len(verdicts) == 1
    v = verdicts[0]
    assert_pinned_verdict(v)
    assert v.ok
    assert v.details["base_hyperplanes"] == 40
    assert v.details["enumerated"] == 491
    assert v.details["from_ambient_intersections"] == 404
    assert v.details["beyond_intersections"] == 87


def _digest(sets):
    """sha256 of the sorted list of the sorted point tuples, repeats kept."""
    return hashlib.sha256(json.dumps(sorted(sorted(s) for s in sets)).encode()).hexdigest()


HYPERBOLIC_Q33 = QuadraticForm(3, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))

# the relabelling of PG(2,3) that perfbench's build workload draws for seed 1
BUILD_SEED_1_PG23 = [10, 11, 1, 6, 8, 3, 5, 2, 0, 9, 12, 7, 4]


def test_constructed_point_sets_are_pinned():
    # digests taken before the constructors read index tables (the
    # orthogonality table, the minors table, the leaf-row lift): the same
    # point sets, form by form
    VP = v2(3, 3)
    sym = [hyperplane_from_symplectic(VP, xi) for xi in alternating_forms_up_to_scalar(4, 3)]
    assert len(sym) == 364
    assert _digest(H.points for H in sym) == (
        "49a276e63b0992888f03b09a2c4923259f6d674ce7c11b07c8261b403c481e10")
    Vq = build_veronese(polar_space_quadratic(HYPERBOLIC_Q33)[0], 2)
    polar = [polar_hyperplane(Vq, H) for H in sym]
    for F in projective_hyperplanes(VP.base, 3):
        U = leaf_pencil(VP, F)
        polar.append(polar_hyperplane(Vq, VeroneseHyperplane(VP, U, extract_h_function(VP, U))))
    assert len(polar) == 404
    assert _digest(polar) == "200f84c6ee323fa34433593ef3c30fde205824f444e909c617666d6b364eeba9"
    pg23 = projective_space(2, 3)
    relabelled = IncidenceStructure(
        13, [[BUILD_SEED_1_PG23[q] for q in line] for line in pg23.lines],
        labels={BUILD_SEED_1_PG23[q]: c for q, c in pg23.labels.items()})
    for base, want in (
            (pg23, "7101837e7e888176d8dff041c14a85ef65f660469045852e2ef22d6d57a5ef01"),
            (relabelled, "ca130de0efc4652520c17a10cd81e753cd2060ad11d50cf41d394ef78dd9c879")):
        H = hyperplane_from_alternating(build_veronese(base, 3), determinant_form(3, 3))
        assert len(H.points) == 221
        assert _digest([H.points]) == want
