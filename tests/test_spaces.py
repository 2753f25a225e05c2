import itertools

import pytest

from verogeo import spaces
from verogeo.algebra import QuadraticForm, standard_symplectic
from verogeo.hyperplanes import VeroneseHyperplane, extract_h_function
from verogeo.incidence import IncidenceStructure, is_hyperplane, is_partial_linear
from verogeo.reduct import build_reduct
from verogeo.spaces import (ParallelStructure, affine_space,
                            polar_space_quadratic, polar_space_symplectic,
                            projective_hyperplanes, projective_plane_family,
                            projective_space, restriction)
from verogeo.veronese import build_veronese

from oracles import (affine_plane_family, check_euclid, check_preparallelism,
                     is_connected, maximal_strong_subspaces,
                     singular_plane_family)

HYPERBOLIC = QuadraticForm(3, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))


def plain_reduct(M, trace):
    """The affine reduct of M by a hyperplane trace, through V(1, M)."""
    V = build_veronese(M, 1)
    pts = frozenset(trace)
    return build_reduct(V, VeroneseHyperplane(V, pts, extract_h_function(V, pts)))


@pytest.mark.parametrize("n,p,message", [(0, 3, "at least 1"), (2, 4, "is not prime"),
                                         (2, 1, "is not prime")])
def test_projective_space_refuses_before_generating_points(monkeypatch, n, p, message):
    def no_points(dim, p):
        raise AssertionError("points generated before the argument checks")
    monkeypatch.setattr(spaces, "projective_points", no_points)
    with pytest.raises(ValueError, match=message):
        projective_space(n, p)


def test_fano():
    G = projective_space(2, 2)
    assert G.point_count == 7
    assert len(G.lines) == 7
    assert all(len(l) == 3 for l in G.lines)
    ok, _ = is_partial_linear(G)
    assert ok


def test_projective_line():
    G = projective_space(1, 3)
    assert G.point_count == 4
    assert len(G.lines) == 1


def test_pg33_counts():
    G = projective_space(3, 3)
    assert G.point_count == 40
    assert len(G.lines) == 130
    assert all(len(l) == 4 for l in G.lines)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 3), (2, 5), (3, 5)])
def test_projective_is_linear_space(n, p):
    G = projective_space(n, p)
    joined = {}
    for li, line in enumerate(G.lines):
        for a, b in itertools.combinations(sorted(line), 2):
            assert (a, b) not in joined
            joined[(a, b)] = li
    total_pairs = G.point_count * (G.point_count - 1) // 2
    assert len(joined) == total_pairs


def test_projective_hyperplanes_and_planes():
    G = projective_space(3, 3)
    hyps = projective_hyperplanes(G, 3)
    assert len(hyps) == 40
    assert all(len(h) == 13 for h in hyps)
    assert all(is_hyperplane(G, h) for h in hyps[:5])
    planes = projective_plane_family(G, 3)
    assert sorted(map(frozenset, hyps)) == planes  # in PG(3,p) planes are hyperplanes


def test_affine_space_counts():
    A = affine_space(2, 3)
    assert A.base.point_count == 9
    assert len(A.base.lines) == 12
    assert len(A.parallel_classes) == 4
    assert all(len(c) == 3 for c in A.parallel_classes)
    ok, _ = check_preparallelism(A)
    assert ok
    ok, _ = check_euclid(A)
    assert ok


def test_affine_line():
    A = affine_space(1, 3)
    assert A.base.point_count == 3
    assert len(A.base.lines) == 1
    assert len(A.parallel_classes) == 1


def test_affine_rejects_gf2():
    with pytest.raises(ValueError):
        affine_space(2, 2)


def test_symplectic_polar_space():
    W = polar_space_symplectic(standard_symplectic(4, 3))
    assert W.point_count == 40
    assert len(W.lines) == 40
    P = projective_space(3, 3)
    assert set(W.lines) <= set(P.lines)
    through = W.lines_through()
    assert all(len(through[q]) == 4 for q in range(40))
    # same universe as the projective space
    assert W.labels == P.labels


def test_symplectic_polar_rejects_bad_forms():
    from verogeo.algebra import BilinearForm
    with pytest.raises(ValueError):
        polar_space_symplectic(BilinearForm(3, ((1, 0), (0, 1))))
    degenerate = BilinearForm(3, ((0, 1, 0), (2, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        polar_space_symplectic(degenerate)


def test_hyperbolic_quadric_polar_space():
    Q, kept = polar_space_quadratic(HYPERBOLIC)
    assert Q.point_count == 16
    assert len(Q.lines) == 8
    # two reguli: each point on exactly 2 lines, partitioned into 2 spreads
    through = Q.lines_through()
    assert all(len(through[q]) == 2 for q in range(16))


def test_restriction():
    G = projective_space(2, 3)
    line = sorted(G.lines[0])
    sub, kept = restriction(G, line)
    assert sub.point_count == 4
    assert len(sub.lines) == 1
    # labels stay coordinates, or absent: none is invented
    assert sub.labels == {new: G.labels[old] for new, old in enumerate(kept)}
    bare = IncidenceStructure(G.point_count, G.lines)
    assert restriction(bare, line)[0].labels is None
    empty, kept = restriction(G, [])
    assert empty.point_count == 0
    assert len(empty.lines) == 0


def test_affine_polar_space_from_w33():
    W = polar_space_symplectic(standard_symplectic(4, 3))
    P = projective_space(3, 3)
    trace = projective_hyperplanes(P, 3)[0]
    assert is_hyperplane(W, trace)
    red = plain_reduct(W, trace)
    assert red.structure.point_count == 40 - len(trace)
    assert is_connected(red.structure)
    ok, _ = check_preparallelism(
        ParallelStructure(red.structure, tuple(red.classes.values())))
    assert ok
    assert all(len(line) >= 3 for line in red.structure.lines)


def test_affine_polar_maximal_strong_are_affine():
    # maximal strong subspaces of the affine polar space are affine subspaces
    # of the ambient affine space (here: lines of AG(3,3) in chart coordinates)
    W = polar_space_symplectic(standard_symplectic(4, 3))
    P = projective_space(3, 3)
    trace = projective_hyperplanes(P, 3)[0]
    red = plain_reduct(W, trace)
    strongs = maximal_strong_subspaces(red.structure)
    assert strongs
    # chart: delete the same trace from PG(3,3); affine lines = truncated PG lines
    chart = plain_reduct(P, trace)
    affine_lines = set(chart.structure.lines)
    # reindex red points into chart points via shared ambient indexing
    red_to_chart = {}
    chart_pos = {old: new for new, old in enumerate(chart.amb_of)}
    for new, old in enumerate(red.amb_of):
        red_to_chart[new] = chart_pos[old]
    for s in strongs:
        image = frozenset(red_to_chart[q] for q in s)
        assert image in affine_lines


def test_nondegenerate_trace_meets_lines_once_or_fully():
    W = polar_space_symplectic(standard_symplectic(4, 3))
    P = projective_space(3, 3)
    trace = projective_hyperplanes(P, 3)[0]
    for line in W.lines:
        met = len(line & trace)
        assert met == 1 or met == len(line)


def test_singular_plane_family_hyperbolic_5dim():
    # Q+(5,3): singular planes exist and chain through shared lines
    M = [[0] * 6 for _ in range(6)]
    M[0][1] = M[2][3] = M[4][5] = 1
    Q = QuadraticForm(3, tuple(tuple(r) for r in M))
    G = projective_space(5, 3)
    planes = singular_plane_family(Q, G)
    assert len(planes) == 80
    assert all(len(pl) == 13 for pl in planes)


def test_affine_plane_family():
    A = affine_space(3, 3)
    planes = affine_plane_family(A, 3)
    assert len(planes) == 39
    assert all(len(pl) == 9 for pl in planes)
    A2 = affine_space(2, 3)
    assert affine_plane_family(A2, 3) == [frozenset(range(9))]


def test_w33_is_partial_linear():
    W = polar_space_symplectic(standard_symplectic(4, 3))
    ok, witness = is_partial_linear(W)
    assert ok and witness is None


def test_polar_and_affine_polar_strongly_connected():
    # rank-3 instance: the hyperbolic quadric in PG(5,3) carries singular
    # planes, and chains of planes sharing a line connect everything,
    # before and after deleting a hyperplane trace
    from verogeo.incidence import IncidenceStructure, gamma_plane_classes
    M = [[0] * 6 for _ in range(6)]
    M[0][1] = M[2][3] = M[4][5] = 1
    Q = QuadraticForm(3, tuple(map(tuple, M)))
    P = projective_space(5, 3)
    on = frozenset(i for i in range(P.point_count)
                   if Q.evaluate(P.labels[i]) == 0)
    sing_lines = [l for l in P.lines if l <= on]
    polar_pg = IncidenceStructure(P.point_count, sing_lines)
    planes = singular_plane_family(Q, P)
    assert len(on) == 130 and len(sing_lines) == 520 and len(planes) == 80
    classes = gamma_plane_classes(polar_pg, planes)
    assert classes == [on]

    polar, kept = restriction(P, sorted(on))
    kept_pos = {old: new for new, old in enumerate(kept)}
    trace_old = projective_hyperplanes(P, 3)[0]
    trace = sorted(kept_pos[q] for q in trace_old if q in kept_pos)
    red = plain_reduct(polar, trace)
    red_pos = {old: new for new, old in enumerate(red.amb_of)}
    trace_set = set(trace)
    trunc = []
    for pl in planes:
        sub = frozenset(red_pos[kept_pos[q]] for q in pl
                        if kept_pos[q] not in trace_set)
        if len(sub) >= 3:
            trunc.append(sub)
    classes = gamma_plane_classes(red.structure, trunc)
    assert classes == [frozenset(range(red.structure.point_count))]
    assert red.structure.point_count == 81
