import itertools

import pytest
from hypothesis import given, strategies as st

from verogeo.multiset import (EMPTY, Multiset, enumerate_multisets,
                              enumerate_lower_multisets, scale_point)


def pascal_binomial(n, k):
    # independent oracle: additive Pascal-triangle recurrence
    if k < 0:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k] if k < len(row) else 0


def test_enumeration_count_against_pascal():
    for n in range(1, 9):
        for k in range(5):
            got = enumerate_multisets(n, k)
            assert len(got) == pascal_binomial(n + k - 1, k)
            assert len(set(got)) == len(got)


def test_enumeration_small_cases():
    assert len(enumerate_multisets(3, 2)) == 6
    assert enumerate_multisets(5, 0) == [EMPTY]
    assert len(enumerate_multisets(4, 2)) == 10


def test_enumeration_order_is_expansion_lex():
    got = [f.expansion() for f in enumerate_multisets(3, 2)]
    assert got == sorted(got)
    assert got == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def test_empty_universe():
    assert enumerate_multisets(0, 0) == [EMPTY]
    with pytest.raises(ValueError):
        enumerate_multisets(0, 2)


def test_add_examples():
    e = Multiset.from_expansion([0, 1])
    f = scale_point(1, 1)
    assert e + f == Multiset.from_pairs([[0, 1], [1, 2]])
    assert e + EMPTY == e
    g = scale_point(2, 0) + scale_point(1, 2)
    assert g == Multiset.from_pairs([[0, 2], [2, 1]])
    assert g.degree == 3


def test_add_commutative_associative_exhaustive():
    universe = enumerate_multisets(4, 2)
    for e, f in itertools.product(universe, repeat=2):
        assert e + f == f + e
    for e, f, g in itertools.product(universe[:4], universe[:4], universe[:4]):
        assert (e + f) + g == e + (f + g)


def test_scale_point():
    assert scale_point(2, 5) == Multiset(((5, 2),))
    assert scale_point(1, 0) == Multiset(((0, 1),))
    for r in range(1, 7):
        for x in range(7):
            assert scale_point(r, x).degree == r
    with pytest.raises(ValueError):
        scale_point(0, 1)


def test_support_degree():
    f = Multiset.from_pairs([[0, 2], [1, 1]])
    assert f.support() == {0, 1}
    assert EMPTY.support() == frozenset()
    assert EMPTY.degree == 0
    for f in enumerate_multisets(5, 3):
        assert f.degree == 3
        assert len(f.support()) <= 3


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=8))
def test_canonical_under_permutation(expansion):
    base = Multiset.from_expansion(expansion)
    for perm in itertools.islice(itertools.permutations(expansion), 24):
        assert Multiset.from_expansion(perm) == base


def test_lower_multisets_index_leaves():
    lower = enumerate_lower_multisets(3, 2)
    assert [f.degree for f in lower] == [0, 1, 1, 1]


def test_canonical_form_rejects_bad_entries():
    with pytest.raises(ValueError):
        Multiset(((1, 1), (0, 1)))
    with pytest.raises(ValueError):
        Multiset(((0, 0),))


def test_json_round_trip():
    f = Multiset.from_pairs([[0, 2], [3, 1]])
    assert Multiset.from_pairs(f.to_pairs()) == f
    assert f.to_pairs() == [[0, 2], [3, 1]]
