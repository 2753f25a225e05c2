import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from verogeo.incidence import IncidenceStructure, is_partial_linear
from verogeo.multiset import EMPTY, scale_point
from verogeo.spaces import polar_space_symplectic, projective_space
from verogeo.algebra import standard_symplectic
from verogeo.veronese import (build_veronese, check_leaf_covering,
                              check_leaf_isomorphism, leaf_plane_family,
                              leaf_substructure, mu_embedding, parameters,
                              tau_embedding, verify_line_monotonicity,
                              verify_restriction_points)

from oracles import leaf_adjacency_test
from test_construction_oracles import pg32_pieces, random_partial_linear_spaces


def fano():
    return projective_space(2, 2)


def test_level_one_isomorphic_to_base():
    G = fano()
    V = build_veronese(G, 1)
    assert V.structure.point_count == 7
    base_lines = {frozenset(l) for l in G.lines}
    mapped = {frozenset(next(iter(V.points[q].support())) for q in block)
              for block in V.structure.lines}
    assert mapped == base_lines
    # what the plain-structure reduct route through V(1, M) relies on:
    # M's point indices and M's line set, unchanged
    for M in (G, polar_space_symplectic(standard_symplectic(4, 3))):
        V = build_veronese(M, 1)
        assert all(V.points[q] == scale_point(1, q) for q in M.points)
        assert set(V.structure.lines) == set(M.lines)


def test_v2_projective_line():
    V = build_veronese(projective_space(1, 3), 2)
    assert V.structure.point_count == 10
    assert len(V.structure.lines) == 5
    assert all(len(b) == 4 for b in V.structure.lines)


def test_v2_fano_counts():
    V = build_veronese(fano(), 2)
    assert V.structure.point_count == 28
    assert len(V.structure.lines) == 56
    through = V.structure.lines_through()
    assert all(len(through[q]) == 6 for q in V.structure.points)
    assert all(len(b) == 3 for b in V.structure.lines)


def test_parameters_formulas():
    assert parameters(7, 7, 3, 3, 2) == (28, 56, 6, 3)
    assert parameters(5, 4, 3, 2, 1) == (5, 4, 3, 2)
    assert parameters(13, 13, 4, 4, 2) == (91, 182, 8, 4)


def test_parameters_match_enumeration_pg23():
    V = build_veronese(projective_space(2, 3), 2)
    assert V.structure.point_count == 91
    assert len(V.structure.lines) == 182
    through = V.structure.lines_through()
    assert all(len(through[q]) == 8 for q in V.structure.points)


def test_non_pls_base_rejected():
    with pytest.raises(ValueError, match=re.escape("('undersized_line', 0)")):
        build_veronese(IncidenceStructure(3, [[0, 1]]), 2)


def test_base_with_a_repeated_line_rejected():
    lines = [sorted(l) for l in fano().lines]
    with pytest.raises(ValueError, match=re.escape("('double_joined', 0, 1, 0, 7)")):
        build_veronese(IncidenceStructure(7, lines + [lines[0]]), 2)


def test_mu_embedding_level1_to_2():
    V1 = build_veronese(fano(), 1)
    target, mapping = mu_embedding(V1, 2)
    doubles = target.leaves[EMPTY]
    assert frozenset(mapping) == doubles
    for line in fano().lines:
        image = frozenset(mapping[V1.index[scale_point(1, x)]] for x in line)
        assert image in set(target.structure.lines)


def test_tau_embedding():
    # the empty translate is the identity (the battery checks one onto a leaf)
    V = build_veronese(projective_space(1, 3), 1)
    same, identity = tau_embedding(V, EMPTY)
    assert same is V
    assert identity == list(range(4))


def test_top_of_block():
    V = build_veronese(projective_space(2, 3), 2)
    assert len(V.block_top) == len(V.block_line) == len(V.structure.lines)
    for block, e, li in zip(V.structure.lines, V.block_top, V.block_line):
        assert block <= V.leaves[e]
        assert block == frozenset(V.leaf_points[e][x] for x in V.base.lines[li])
    with pytest.raises(IndexError):
        V.block_top[10 ** 6]


def test_leaf_adjacency_exhaustive_small():
    V = build_veronese(projective_space(1, 3), 2)
    for q in V.structure.points:
        for bi in range(len(V.structure.lines)):
            assert leaf_adjacency_test(V, q, bi)


def test_leaf_covering_and_isomorphism():
    for V in (build_veronese(fano(), 2),
              build_veronese(projective_space(1, 3), 3)):
        ok, witness = check_leaf_covering(V)
        assert ok, witness
        assert V.leaf_keys() == sorted(V.leaves, key=lambda e: e.sort_key())
        for e in V.leaf_keys():
            assert check_leaf_isomorphism(V, e)


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_partial_linear_spaces(), pg32_pieces()), st.integers(1, 3))
@example(fano(), 2)
@example(projective_space(1, 3), 3)
@example(projective_space(2, 3), 2)
def test_pls_preserved(base, level):
    # build_veronese checks the base alone: blocks sharing two points share
    # their top and base line, so a PLS base gives a PLS V(level, base)
    assert is_partial_linear(build_veronese(base, level).structure) == (True, None)


def test_leaf_count_formula():
    # one leaf per multiset of degree below k: C(v0 + k - 1, k - 1)
    V = build_veronese(fano(), 2)
    assert len(V.leaves) == math.comb(7 + 2 - 1, 2 - 1) == 8


def test_restriction_compatibility_line_of_pg23():
    P = projective_space(2, 3)
    V = build_veronese(P, 2)
    keep = sorted(P.lines[0])
    assert verify_restriction_points(V, keep)
    assert verify_restriction_points(V, range(P.point_count))


def test_line_monotonicity_polar_in_projective():
    P = projective_space(3, 3)
    W = polar_space_symplectic(standard_symplectic(4, 3))
    assert verify_line_monotonicity(build_veronese(W, 2), build_veronese(P, 2))


def test_leaf_plane_family_v2_pg33():
    from verogeo.spaces import projective_plane_family
    P = projective_space(3, 3)
    V = build_veronese(P, 2)
    planes = leaf_plane_family(V, projective_plane_family(P, 3))
    # 40 leaves of shape x+S carrying 40 planes each, plus 40 in the double leaf
    assert len(planes) == 41 * 40
    assert all(len(pl) == 13 for pl in planes)


def test_leaf_substructure_matches_base():
    V = build_veronese(projective_space(1, 3), 2)
    sub = leaf_substructure(V, EMPTY)
    assert set(sub.lines) == set(V.base.lines)


def test_leaf_substructure_rejects_a_block_off_its_leaf():
    V = build_veronese(fano(), 2)
    bi = next(bi for bi, top in enumerate(V.block_top) if top != EMPTY)
    V.block_top[bi] = EMPTY
    with pytest.raises(AssertionError, match="not a leaf translate"):
        leaf_substructure(V, EMPTY)
