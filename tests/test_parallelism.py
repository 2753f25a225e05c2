import itertools
from unittest import mock

import pytest

from verogeo import incidence
from verogeo.incidence import veblen_parallel_lines
from verogeo.parallelism import (check_euclid_failure, counting_identity_solutions,
                                 induced_relation, leaf_preparallelism,
                                 search_leaf_closed_parallelism)
from verogeo.spaces import affine_space, projective_space
from verogeo.veronese import build_veronese

from oracles import leaf_closed_search_two_recursions


def v2_ag23():
    A = affine_space(2, 3)
    return build_veronese(A.base, 2), A


def v2_ag13():
    A = affine_space(1, 3)
    return build_veronese(A.base, 2), A


def test_induced_relation_classes():
    V, A = v2_ag23()
    classes = induced_relation(V, A)
    assert len(classes) == 4
    assert all(len(m) == 30 for m in classes.values())
    total = sum(len(m) for m in classes.values())
    assert total == len(V.structure.lines) == 120


def test_induced_relation_is_equivalence():
    # the classes partition the blocks, and two blocks share a class
    # exactly when their generating base lines are parallel
    V, A = v2_ag23()
    classes = induced_relation(V, A)
    class_of = {b: ci for ci, members in classes.items() for b in members}
    assert sorted(class_of) == list(range(len(V.structure.lines)))
    parallel = A.class_of()
    lines = A.base.line_index()
    directions = [parallel[lines[V.base.lines[li]]] for li in V.block_line]
    for b1, b2 in itertools.combinations(range(len(V.structure.lines)), 2):
        assert (class_of[b1] == class_of[b2]) == (directions[b1] == directions[b2])


def test_translate_and_double_of_one_line_related():
    V, A = v2_ag13()
    classes = induced_relation(V, A)
    assert len(classes) == 1
    members = next(iter(classes.values()))
    assert len(members) == 4  # a+L for 3 points a, plus 2L


def test_euclid_failure_v2_ag23():
    V, A = v2_ag23()
    classes = induced_relation(V, A)
    report = check_euclid_failure(V, classes)
    assert report.classes_cover
    assert report.per_point_count_is_level
    assert not report.is_parallelism
    q, b1, b2 = report.witness
    assert q in V.structure.lines[b1] and q in V.structure.lines[b2]
    assert b1 != b2


def test_euclid_failure_witness_at_double_point():
    # through 2a pass the distinct related blocks a+L and 2L
    V, A = v2_ag13()
    classes = induced_relation(V, A)
    report = check_euclid_failure(V, classes)
    assert report.witness is not None


def test_level_one_no_failure():
    A = affine_space(2, 3)
    V1 = build_veronese(A.base, 1)
    classes = induced_relation(V1, A)
    report = check_euclid_failure(V1, classes)
    assert report.is_parallelism
    assert report.classes_cover


def test_one_class_of_all_lines_is_not_a_parallelism():
    # every point of AG(2,3) lies on 4 of its 12 lines
    V = build_veronese(affine_space(2, 3).base, 1)
    report = check_euclid_failure(V, {0: tuple(range(len(V.structure.lines)))})
    assert report.classes_cover
    assert not report.per_point_count_is_level
    q, b1, b2 = report.witness
    assert b1 != b2 and q in V.structure.lines[b1] & V.structure.lines[b2]
    assert not report.is_parallelism


CAPACITY = "capacity: kappa does not divide v"


@pytest.mark.parametrize("base, level, certificate", [
    (affine_space(1, 3).base, 1, "nodes=2;sha256=ac72368a586a18c1"),
    (affine_space(1, 3).base, 2, "nodes=2;sha256=ac72368a586a18c1"),
    (affine_space(2, 3).base, 1, "nodes=13;sha256=498cb5822d5c2c5b"),
    (affine_space(2, 3).base, 2, "nodes=5;sha256=ac72368a586a18c1"),
    (affine_space(3, 3).base, 1, "nodes=118;sha256=ab04d7e5d4ad4eb3"),
    (affine_space(2, 5).base, 1, "nodes=31;sha256=5a240a70b3205c17"),
    (affine_space(1, 5).base, 2, "nodes=2;sha256=ac72368a586a18c1"),
    (affine_space(1, 3).base, 3, CAPACITY),
    (projective_space(2, 2), 2, CAPACITY),
])
def test_leaf_closed_search_matches_two_recursions(base, level, certificate):
    V = build_veronese(base, level)
    result = search_leaf_closed_parallelism(V)
    assert result == leaf_closed_search_two_recursions(V)
    assert result.certificate == certificate
    assert result.exhaustive
    assert result.none_found == (level > 1)


@pytest.mark.parametrize("budget, nodes, found", [
    (117, 118, False), (10, 11, False), (118, 118, True)])
def test_leaf_closed_search_stops_at_its_budget(budget, nodes, found):
    # V(1,AG(3,3)) finds its parallelism at node 118
    V = build_veronese(affine_space(3, 3).base, 1)
    with mock.patch.object(incidence, "SEARCH_NODE_BUDGET", budget):
        result = search_leaf_closed_parallelism(V)
    assert result.nodes == nodes
    assert result.exhaustive == found
    assert (result.parallelism is not None) == found


def test_leaf_closed_search_v2_ag13_none():
    V, A = v2_ag13()
    result = search_leaf_closed_parallelism(V)
    assert result.none_found
    assert result.exhaustive
    assert result.nodes > 0
    assert "sha256" in result.certificate
    # direct cross-check: every pair of the 4 blocks intersects, so no
    # two blocks can even share a class
    blocks = V.structure.lines
    for b1, b2 in itertools.combinations(range(len(blocks)), 2):
        assert blocks[b1] & blocks[b2]


def test_leaf_closed_search_v2_ag23_none():
    V, A = v2_ag23()
    result = search_leaf_closed_parallelism(V)
    assert result.none_found
    assert result.exhaustive


def test_counting_identity_no_solutions_for_k_at_least_2():
    assert counting_identity_solutions(range(2, 51), range(2, 7)) == []
    # k = 1 always solves it
    assert counting_identity_solutions(range(2, 10), [1]) == [
        (n, 1) for n in range(2, 10)]


def veblen_parallel_dual_route(V, A, b1, b2):
    """Veblen parallelism of two blocks by the coplanarity formula,
    asserted equal to sharing a class of the leaf preparallelism."""
    formula = veblen_parallel_lines(V.structure, b1, b2)
    shape = any(b1 in m and b2 in m for m in leaf_preparallelism(V, A).values())
    assert formula == shape, (b1, b2, formula, shape)
    return formula


def test_veblen_parallel_dual_route():
    V, A = v2_ag23()
    # same leaf, parallel base lines -> parallel by both routes
    pre = leaf_preparallelism(V, A)
    some_class = next(m for m in pre.values() if len(m) >= 2)
    assert veblen_parallel_dual_route(V, A, some_class[0], some_class[1])
    # blocks in different leaves -> false by both routes
    e_keys = {V.block_top[b]: b for b in range(len(V.structure.lines))}
    b1, b2 = list(e_keys.values())[:2]
    if not (V.structure.lines[b1] & V.structure.lines[b2]):
        assert not veblen_parallel_dual_route(V, A, b1, b2)
    # reflexivity
    assert veblen_parallel_dual_route(V, A, 0, 0)


def test_veblen_dual_route_exhaustive_sample():
    V, A = v2_ag23()
    blocks = len(V.structure.lines)
    for b1 in range(0, blocks, 7):
        for b2 in range(b1, blocks, 11):
            veblen_parallel_dual_route(V, A, b1, b2)  # asserts agreement


def test_leaf_preparallelism_is_preparallelism():
    V, A = v2_ag23()
    pre = leaf_preparallelism(V, A)
    for members in pre.values():
        for b1, b2 in itertools.combinations(members, 2):
            assert not (V.structure.lines[b1] & V.structure.lines[b2])
    # classes per (leaf, direction): 10 leaves x 4 directions
    assert len(pre) == 40


def test_class_size_formula():
    V, A = v2_ag23()
    classes = induced_relation(V, A)
    # e-choices with dedup x base direction size: 10 x 3 = 30
    for members in classes.values():
        assert len(members) == 30
