import itertools
import random

import pytest

from verogeo.algebra import (AlternatingMultiForm, BilinearForm, QuadraticForm,
                             alternating_forms_up_to_scalar, determinant_form,
                             is_nondegenerate, is_prime, is_symplectic,
                             nullspace, perp_rows, projective_points, radical,
                             standard_symplectic)
from verogeo.spaces import polar_space_quadratic

from oracles import (bilinear_value, is_nondegenerate_alternating, is_reflexive,
                     normalize_vector, projective_points_by_normalizing, quadric_points)


def test_prime_field():
    assert [p for p in range(30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert normalize_vector((3, 1), 7) == (1, 5)  # 5 is the inverse of 3


def test_normalization_canonical():
    p = 5
    v = (0, 2, 3)
    for c in range(1, p):
        assert normalize_vector(tuple(c * x % p for x in v), p) == normalize_vector(v, p)
    with pytest.raises(ValueError):
        normalize_vector((0, 0), 3)


def test_projective_point_counts():
    assert len(projective_points(2, 3)) == 4
    assert len(projective_points(3, 3)) == 13
    assert len(projective_points(4, 3)) == 40


@pytest.mark.parametrize("dim,p", [(dim, p) for dim in range(1, 7) for p in (2, 3, 5, 7)
                                   if p ** dim < 200_000])
def test_projective_points_match_the_normalizing_oracle(dim, p):
    assert projective_points(dim, p) == projective_points_by_normalizing(dim, p)


def test_standard_symplectic_classification():
    J = standard_symplectic(4, 3)
    assert is_symplectic(J)
    assert is_reflexive(J)
    assert is_nondegenerate(J)

    identity = BilinearForm(3, tuple(tuple(1 if i == j else 0 for j in range(3))
                                     for i in range(3)))
    assert is_reflexive(identity)
    assert not is_symplectic(identity)
    e1 = (1, 0, 0)
    assert bilinear_value(identity, e1, e1) == 1


def test_rank_deficient_alternating_radical():
    # alternating 3x3 over GF(3): rank 2, radical dimension 1
    M = ((0, 1, 0), (2, 0, 0), (0, 0, 0))
    xi = BilinearForm(3, M)
    assert is_symplectic(xi)
    rad = radical(xi)
    assert len(rad) == 1
    assert rad[0] == (0, 0, 1)


def test_nullspace_oracle():
    # Gaussian elimination against direct kernel scan
    M = ((1, 2, 0), (2, 4, 0))
    basis = nullspace(M, 5)
    kernel = {v for v in itertools.product(range(5), repeat=3)
              if all(sum(r * x for r, x in zip(row, v)) % 5 == 0 for row in M)}
    spanned = set()
    for coeffs in itertools.product(range(5), repeat=len(basis)):
        w = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) % 5 for i in range(3))
        spanned.add(w)
    assert spanned == kernel


def test_quasi_correlation_hyperplane_sizes():
    J = standard_symplectic(4, 3)
    rows = perp_rows(J, projective_points(4, 3))
    for q, kappa_q in enumerate(rows):
        assert len(kappa_q) == 13
        assert q in kappa_q  # symplectic: every point selfconjugate


def test_quasi_correlation_symmetry():
    J = standard_symplectic(4, 3)
    kappa = perp_rows(J, projective_points(4, 3))
    for u in range(len(kappa)):
        for v in range(len(kappa)):
            assert (u in kappa[v]) == (v in kappa[u])


def test_quasi_correlation_projective_line():
    xi = BilinearForm(3, ((0, 1), (2, 0)))
    rows = perp_rows(xi, projective_points(2, 3))
    for q, kappa_q in enumerate(rows):
        assert kappa_q == {q}


def test_perp_rows_refuses_coordinates_of_another_length():
    with pytest.raises(ValueError, match="dimension 4"):
        perp_rows(standard_symplectic(4, 3), projective_points(3, 3))


def test_alternating_matches_determinant():
    rng = random.Random(20260810)
    for p in (3, 5):
        eta = determinant_form(3, p)
        for _ in range(100):
            vs = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(3)]
            det = ((vs[0][0] * (vs[1][1] * vs[2][2] - vs[1][2] * vs[2][1])
                    - vs[0][1] * (vs[1][0] * vs[2][2] - vs[1][2] * vs[2][0])
                    + vs[0][2] * (vs[1][0] * vs[2][1] - vs[1][1] * vs[2][0])) % p)
            assert eta.evaluate(vs) == det


def test_alternating_unit_determinant():
    eta = determinant_form(3, 3)
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert eta.evaluate(basis) == 1
    assert eta.evaluate(basis) != 0


def test_alternating_repeated_argument():
    eta = determinant_form(3, 3)
    pts = projective_points(3, 3)
    rng = random.Random(7)
    for _ in range(30):
        u, v = rng.choice(pts), rng.choice(pts)
        assert eta.evaluate((u, u, v)) == 0


def test_alternating_permutation_invariance():
    rng = random.Random(99)
    pts = projective_points(3, 3)
    eta = AlternatingMultiForm.from_dict(3, 3, 3, {(0, 1, 2): 1})
    triples = [tuple(rng.choice(pts) for _ in range(3)) for _ in range(20)]
    for t in triples:
        zero = eta.evaluate(t) == 0
        for perm in itertools.permutations(t):
            assert (eta.evaluate(perm) == 0) == zero


def test_alternating_scalar_invariance():
    eta = determinant_form(3, 3)
    pts = projective_points(3, 3)
    rng = random.Random(4)
    for _ in range(100):
        t = [rng.choice(pts) for _ in range(3)]
        zero = eta.evaluate(t) == 0
        i = rng.randrange(3)
        c = rng.randrange(1, 3)
        scaled = list(t)
        scaled[i] = tuple(c * x % 3 for x in scaled[i])
        assert (eta.evaluate(scaled) == 0) == zero


def test_arity_mismatch():
    eta = determinant_form(3, 3)
    with pytest.raises(ValueError):
        eta.evaluate([(1, 0, 0), (0, 1, 0)])


def test_hyperbolic_quadric_points():
    # Q(v) = v1 v2 + v3 v4 over GF(3)
    M = ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0))
    Q = QuadraticForm(3, M)
    assert len(quadric_points(Q)) == 16
    assert polar_space_quadratic(Q)[0].lines


def test_elliptic_line_quadric_empty():
    Q = QuadraticForm(3, ((1, 0), (0, 1)))
    assert quadric_points(Q) == []
    with pytest.raises(ValueError):
        polar_space_quadratic(Q)


def test_zero_form_all_singular():
    Q = QuadraticForm(3, ((0, 0), (0, 0)))
    assert len(quadric_points(Q)) == 4


def test_elliptic_quadric_has_no_lines():
    # x1^2 + x2^2 + x3 x4: 10 singular points in PG(3,3), no singular lines
    M = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0))
    Q = QuadraticForm(3, M)
    assert len(quadric_points(Q)) == 10
    with pytest.raises(ValueError):
        polar_space_quadratic(Q)


def test_alternating_forms_up_to_scalar_counts():
    assert len(alternating_forms_up_to_scalar(2, 3)) == 1
    assert len(alternating_forms_up_to_scalar(3, 3)) == 13
    assert len(alternating_forms_up_to_scalar(4, 3)) == 364


def test_nondegenerate_alternating_search():
    pts = projective_points(3, 3)
    eta = determinant_form(3, 3)
    assert is_nondegenerate_alternating(eta, pts)


def test_form_json_round_trip():
    J = standard_symplectic(4, 3)
    assert BilinearForm.from_json(J.to_json()) == J
    eta = determinant_form(3, 3)
    assert AlternatingMultiForm.from_json(eta.to_json()) == eta
    Q = QuadraticForm(3, ((1, 2), (0, 1)))
    assert QuadraticForm.from_json(Q.to_json()) == Q
