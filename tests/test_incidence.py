import json
import random
import time
from unittest import mock

import pytest

from verogeo import incidence
from verogeo.algebra import QuadraticForm, standard_symplectic
from verogeo.incidence import (IncidenceStructure, enumerate_hyperplanes,
                               gamma_plane_classes, is_flappy, is_hyperplane,
                               is_partial_linear, is_spiky, is_strong,
                               is_subspace, subspace_closure, veblen_parallel_lines)
from verogeo.multiset import Multiset
from verogeo.spaces import (polar_space_quadratic, polar_space_symplectic,
                            projective_hyperplanes, projective_plane_family,
                            projective_space)
from verogeo.veronese import build_veronese

from oracles import (adjacency_rows, is_connected, is_l_transversal,
                     maximal_strong_subspaces)


def fano():
    return projective_space(2, 2)


def v2_pg13():
    return build_veronese(projective_space(1, 3), 2)


def test_pls_positive():
    ok, witness = is_partial_linear(fano())
    assert ok and witness is None


def test_pls_undersized_line():
    G = IncidenceStructure(4, [[0, 1], [1, 2, 3]])
    ok, witness = is_partial_linear(G)
    assert not ok
    assert witness[0] == "undersized_line"


def test_pls_double_joined_pair():
    G = IncidenceStructure(4, [[0, 1, 2], [0, 1, 3]])
    ok, witness = is_partial_linear(G)
    assert not ok
    assert witness[:3] == ("double_joined", 0, 1)


def test_pls_refuses_a_repeated_line():
    # a line listed twice is a second line through each of its pairs
    lines = [sorted(l) for l in fano().lines]
    G = IncidenceStructure(7, lines + [lines[3]])
    assert G.lines[3] == G.lines[7]
    ok, witness = is_partial_linear(G)
    assert not ok
    assert witness == ("double_joined", lines[3][0], lines[3][1], 3, 7)


def test_adjacency_and_connectivity():
    G = projective_space(2, 3)
    assert is_connected(G)
    two_fanos = IncidenceStructure(
        14, [sorted(l) for l in fano().lines]
        + [sorted(q + 7 for q in l) for l in fano().lines])
    assert not is_connected(two_fanos)


def test_veronese_adjacency_example():
    V = v2_pg13()
    a = V.index[Multiset.from_pairs([[0, 2]])]
    b = V.index[Multiset.from_pairs([[0, 1], [1, 1]])]
    assert b in adjacency_rows(V.structure)[a]
    assert {a, b} <= V.structure.lines[V.structure.join()[a][b]]


def test_closure_contains_line():
    G = fano()
    line = sorted(G.lines[0])
    c = subspace_closure(G, line[:2])
    assert frozenset(line) <= c


def test_closure_trivial_cases():
    G = fano()
    assert subspace_closure(G, []) == frozenset()
    assert subspace_closure(G, [3]) == frozenset({3})


def test_closure_idempotent_monotone_random():
    V = build_veronese(fano(), 2)
    G = V.structure
    rng = random.Random(20260810)
    for _ in range(50):
        X = frozenset(rng.sample(range(G.point_count), rng.randrange(0, 8)))
        c = subspace_closure(G, X)
        assert subspace_closure(G, c) == c
        assert X <= c
        Y = X | {rng.randrange(G.point_count)}
        assert c <= subspace_closure(G, Y)


def test_leaves_are_strong_in_v2_fano():
    V = build_veronese(fano(), 2)
    for leaf in V.leaves.values():
        assert is_strong(V.structure, leaf)


def test_maximal_strong_subspaces_projective():
    G = projective_space(2, 3)
    assert maximal_strong_subspaces(G) == [frozenset(range(13))]


def test_maximal_strong_subspaces_v2_pg13():
    V = v2_pg13()
    got = maximal_strong_subspaces(V.structure)
    assert got == sorted(set(V.structure.lines), key=lambda s: tuple(sorted(s)))
    assert len(got) == 5


def test_maximal_strong_subspaces_v2_pg23():
    V = build_veronese(projective_space(2, 3), 2)
    got = maximal_strong_subspaces(V.structure)
    leaves = sorted(set(V.leaves.values()), key=lambda s: tuple(sorted(s)))
    assert got == leaves
    assert len(got) == 14


def test_maximal_strong_one_point_extensions():
    V = v2_pg13()
    G = V.structure
    for X in maximal_strong_subspaces(G):
        assert is_strong(G, X)
        for q in range(G.point_count):
            if q not in X:
                assert not is_strong(G, subspace_closure(G, X | {q}))


def test_transversal_and_hyperplane():
    G = projective_space(3, 3)
    everything = frozenset(range(G.point_count))
    assert is_l_transversal(G, everything)
    assert not is_hyperplane(G, everything)
    h = projective_hyperplanes(G, 3)[0]
    assert is_hyperplane(G, h)


def test_multiset_power_of_hyperplane_not_transversal():
    # m_2(h0) is a subspace of V(2, PG(2,3)) but misses the block b + L
    # for any line L off h0 and b in L off h0
    P = projective_space(2, 3)
    h0 = projective_hyperplanes(P, 3)[0]
    V = build_veronese(P, 2)
    X = frozenset(i for i, f in enumerate(V.points) if f.support() <= h0)
    assert is_subspace(V.structure, X)
    assert not is_l_transversal(V.structure, X)
    line = next(l for l in P.lines if not l <= h0)
    b = next(iter(line - h0))
    block = frozenset(V.index[Multiset.from_expansion([b, x])] for x in line)
    assert block in set(V.structure.lines)
    assert not block & X


def test_spiky_empty_vacuous():
    G = fano()
    ok, _ = is_spiky(G, [])
    assert ok


def test_flappy_single_fano_line():
    G = fano()
    X = frozenset(G.lines[0])
    ok, witness = is_flappy(G, X, [frozenset(range(7))])
    assert ok  # the whole plane is not contained in the line
    ok, witness = is_flappy(G, frozenset(range(7)), [frozenset(range(7))])
    assert not ok
    with pytest.raises(ValueError):
        is_flappy(G, X, [])


def test_enumerate_hyperplanes_fano():
    G = fano()
    assert enumerate_hyperplanes(G) == sorted(set(G.lines),
                                              key=lambda s: tuple(sorted(s)))


def test_enumerate_hyperplanes_single_line():
    G = IncidenceStructure(3, [[0, 1, 2]])
    got = enumerate_hyperplanes(G)
    assert got == [frozenset({0}), frozenset({1}), frozenset({2})]


def brute_force_hyperplanes(G):
    # independent oracle: literal scan of all 2^v subsets
    brute = []
    for mask in range(1 << G.point_count):
        X = frozenset(q for q in range(G.point_count) if mask >> q & 1)
        if is_hyperplane(G, X):
            brute.append(X)
    return sorted(brute, key=lambda s: tuple(sorted(s)))


def test_enumerate_hyperplanes_matches_brute_force_scan():
    V = v2_pg13()
    brute = brute_force_hyperplanes(V.structure)
    assert enumerate_hyperplanes(V.structure) == brute
    double_leaf = frozenset(V.leaves[Multiset(())])
    assert double_leaf in brute
    Q = QuadraticForm(3, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))
    q33 = polar_space_quadratic(Q)[0]
    assert enumerate_hyperplanes(q33) == brute_force_hyperplanes(q33)
    # on 3-point lines, through the GF(2) kernel
    for G, count in ((fano(), 7), (projective_space(3, 2), 15)):
        got = enumerate_hyperplanes(G)
        assert len(got) == count
        assert got == brute_force_hyperplanes(G)


def test_enumerate_hyperplanes_with_an_empty_line():
    # no point set meets the empty line, so nothing is a hyperplane
    G = IncidenceStructure(3, [[0, 1, 2], []])
    assert enumerate_hyperplanes(G) == brute_force_hyperplanes(G) == []


def test_enumerate_hyperplanes_capacity():
    # PG(3,3) takes the scan 1,217 nodes: one fewer in the budget refuses it
    G = projective_space(3, 3)
    with mock.patch.object(incidence, "SEARCH_NODE_BUDGET", 1216):
        with pytest.raises(incidence.CapacityError, match=r"\b1217 nodes"):
            enumerate_hyperplanes(G)
    with mock.patch.object(incidence, "SEARCH_NODE_BUDGET", 1217):
        got = enumerate_hyperplanes(G)
    assert len(got) == 40
    assert got == projective_hyperplanes(G, 3)


def test_kernel_route_refuses_past_the_budget():
    # V(2,Q+(3,2)) has a 10-dimensional kernel: 1,023 hyperplanes
    Q = QuadraticForm(2, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))
    G = build_veronese(polar_space_quadratic(Q)[0], 2).structure
    with mock.patch.object(incidence, "SEARCH_NODE_BUDGET", 1022):
        with pytest.raises(incidence.CapacityError,
                           match=r"dimension 10 gives 1023 hyperplanes"):
            enumerate_hyperplanes(G)
    with mock.patch.object(incidence, "SEARCH_NODE_BUDGET", 1023):
        assert len(enumerate_hyperplanes(G)) == 1023


def test_kernel_route_refuses_before_listing():
    # V(3,W(3,2)) has a 26-dimensional kernel, 2^26 - 1 hyperplanes: the
    # refusal is read off the kernel, with none of them listed
    G = build_veronese(polar_space_symplectic(standard_symplectic(4, 2)), 3).structure
    start = time.perf_counter()
    with pytest.raises(incidence.CapacityError,
                       match=r"dimension 26 gives 67108863 hyperplanes"):
        enumerate_hyperplanes(G)
    assert time.perf_counter() - start < 1.0


def test_enumerate_hyperplanes_runs_deeper_than_the_recursion_limit():
    # V(2,PG(2,7)) has 1,653 points, more than Python's default recursion limit
    G = build_veronese(projective_space(2, 7), 2).structure
    assert G.point_count == 1653
    with mock.patch.object(incidence, "SEARCH_NODE_BUDGET", 20_000):
        with pytest.raises(incidence.CapacityError, match=r"\b20001 nodes"):
            enumerate_hyperplanes(G)


def test_hyperplane_implies_parts():
    V = v2_pg13()
    G = V.structure
    for X in enumerate_hyperplanes(G):
        assert is_l_transversal(G, X)
        assert is_subspace(G, X)
        assert len(X) < G.point_count


def test_veblen_parallel_lines_affine_plane():
    from verogeo.spaces import affine_space
    A = affine_space(2, 3)
    G = A.base
    class_of = A.class_of()
    for i in range(len(G.lines)):
        for j in range(len(G.lines)):
            expected = class_of[i] == class_of[j]
            assert veblen_parallel_lines(G, i, j) == expected


def test_gamma_plane_classes_projective():
    G = projective_space(3, 3)
    planes = projective_plane_family(G, 3)
    classes = gamma_plane_classes(G, planes)
    assert classes == [frozenset(range(40))]


def test_json_round_trip(tmp_path):
    V = v2_pg13()
    path = tmp_path / "v.json"
    path.write_text(json.dumps(V.structure.to_json(), sort_keys=True))
    G = IncidenceStructure.from_json(json.loads(path.read_text()))
    assert G.point_count == V.structure.point_count
    assert set(G.lines) == set(V.structure.lines)
    assert G.labels == V.structure.labels


@pytest.mark.parametrize("labels", [
    {"x": [0]}, {"01": [0]}, {"3": [0]}, {"-1": [0]}, {" 1": [0]}, {"١": [0]},
    {"0": {"multiset": [[0, "a"]]}}, {"0": {"multiset": [[0, 0]]}},
    {"0": {"multiset": [[-1, 1]]}}, {"0": {"multiset": [[0, True]]}},
    {"0": {"multiset": [[0, 1, 1]]}}, {"0": {"multiset": [0, 1]}},
    {"0": {"multiset": 7}},
])
def test_from_json_refuses_a_bad_label_naming_labels(labels):
    data = {"point_count": 3, "lines": [[0, 1, 2]], "labels": labels}
    with pytest.raises(ValueError, match="labels"):
        IncidenceStructure.from_json(data)


def test_from_json_reads_point_keys_and_multiset_pairs():
    data = {"point_count": 3, "lines": [[0, 1, 2]],
            "labels": {"2": {"multiset": [[1, 2], [0, 1]]}, "10": [1]}}
    with pytest.raises(ValueError, match="0..2, got '10'"):
        IncidenceStructure.from_json(data)
    del data["labels"]["10"]
    G = IncidenceStructure.from_json(data)
    assert G.labels == {2: Multiset(((0, 1), (1, 2)))}
