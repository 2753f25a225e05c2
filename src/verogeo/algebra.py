"""Exact arithmetic over prime fields GF(p) and bilinear / quadratic /
alternating multilinear forms.

Prime fields only: the form pipelines in this package need nothing more,
and staying prime removes irreducible-polynomial machinery.  Symplectic
forms are recognised by matrix shape (alternating), which is valid over
odd characteristic; for p = 2 only the space constructors are supported,
not the quasi-correlation pipeline.

Projective points are normalized coordinate tuples (first nonzero entry 1),
so equality needs no quotient bookkeeping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

Vector = tuple[int, ...]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def projective_points(dim: int, p: int) -> list[Vector]:
    """Normalized representatives of the 1-spaces of GF(p)^dim, sorted.

    Each is written down as its own reduced echelon basis: the points
    leading at position a, (0,)*a + (1,) + tail, form one block in the
    order of their tails, and the blocks run from the last lead to the
    first.
    """
    return [(0,) * a + (1,) + tail for a in range(dim - 1, -1, -1)
            for tail in itertools.product(range(p), repeat=dim - 1 - a)]


def vec_add(u: Vector, v: Vector, p: int) -> Vector:
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_scale(c: int, v: Vector, p: int) -> Vector:
    return tuple((c * a) % p for a in v)


def nullspace(M: Sequence[Sequence[int]], p: int) -> list[Vector]:
    """Basis of {v : Mv = 0} by Gaussian elimination mod p."""
    if not M:
        return []
    rows = [list(r % p for r in row) for row in M]
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-rows[i][fc]) % p
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# bilinear forms and their orthogonality tables


@dataclass(frozen=True)
class BilinearForm:
    p: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "matrix",
                           tuple(tuple(x % self.p for x in row) for row in self.matrix))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.matrix)

    def to_json(self) -> dict:
        return {"p": self.p, "matrix": [list(r) for r in self.matrix]}

    @staticmethod
    def from_json(data: dict) -> "BilinearForm":
        return BilinearForm(data["p"], tuple(tuple(r) for r in data["matrix"]))


def is_symplectic(xi: BilinearForm) -> bool:
    """Every vector self-orthogonal, i.e. the matrix is alternating."""
    M, p = xi.matrix, xi.p
    return (all(M[i][i] == 0 for i in range(xi.dim))
            and all(M[i][j] == (-M[j][i]) % p
                    for i in range(xi.dim) for j in range(xi.dim)))


def radical(xi: BilinearForm) -> list[Vector]:
    return nullspace(xi.matrix, xi.p)


def is_nondegenerate(xi: BilinearForm) -> bool:
    return not radical(xi)


def perp_rows(xi: BilinearForm, coords: Sequence[Vector]) -> list[frozenset[int]]:
    """rows[i] = {j : xi(coords[i], coords[j]) = 0}, the orthogonality table.

    Row i reads the functional w_i = coords[i]^T M, computed once per
    point, against every point; for a symplectic form row i is the
    quasi-correlation kappa(x_i) = x_i^perp as a set of point indices.
    Coordinates whose length is not xi.dim are refused.
    """
    if any(len(u) != xi.dim for u in coords):
        raise ValueError(f"a form of dimension {xi.dim} needs coordinates of that length")
    p = xi.p
    columns = list(zip(*xi.matrix))
    rows = []
    for u in coords:
        w = [sum(a * b for a, b in zip(u, col)) % p for col in columns]
        rows.append(frozenset(j for j, v in enumerate(coords)
                              if not sum(a * b for a, b in zip(w, v)) % p))
    return rows


def standard_symplectic(dim: int, p: int) -> BilinearForm:
    """Block form: xi(e_{2i}, e_{2i+1}) = 1 = -xi(e_{2i+1}, e_{2i})."""
    if dim % 2:
        raise ValueError("standard symplectic form needs even dimension")
    M = [[0] * dim for _ in range(dim)]
    for i in range(0, dim, 2):
        M[i][i + 1] = 1
        M[i + 1][i] = p - 1
    return BilinearForm(p, tuple(tuple(r) for r in M))


def alternating_forms_up_to_scalar(dim: int, p: int) -> list[BilinearForm]:
    """All nonzero alternating bilinear forms, one per scalar class.

    Coefficient vectors over the strictly-upper-triangular positions are
    normalized so the first nonzero entry is 1.
    """
    positions = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    forms = []
    for coeffs in itertools.product(range(p), repeat=len(positions)):
        if not any(coeffs):
            continue
        if next(c for c in coeffs if c) != 1:
            continue
        M = [[0] * dim for _ in range(dim)]
        for (i, j), c in zip(positions, coeffs):
            M[i][j] = c
            M[j][i] = (-c) % p
        forms.append(BilinearForm(p, tuple(tuple(r) for r in M)))
    return forms


# ---------------------------------------------------------------------------
# quadratic forms


@dataclass(frozen=True)
class QuadraticForm:
    """Q(v) = sum of a_ij v_i v_j over i <= j, stored upper-triangular."""

    p: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.matrix)
        for i, row in enumerate(self.matrix):
            if len(row) != n:
                raise ValueError("matrix must be square")
            for j in range(i):
                if row[j] % self.p:
                    raise ValueError("store quadratic coefficients upper-triangular")
        object.__setattr__(self, "matrix",
                           tuple(tuple(x % self.p for x in row) for row in self.matrix))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def evaluate(self, v: Vector) -> int:
        total = 0
        for i in range(self.dim):
            for j in range(i, self.dim):
                total += self.matrix[i][j] * v[i] * v[j]
        return total % self.p

    def to_json(self) -> dict:
        return {"p": self.p, "kind": "quadratic", "matrix": [list(r) for r in self.matrix]}

    @staticmethod
    def from_json(data: dict) -> "QuadraticForm":
        return QuadraticForm(data["p"], tuple(tuple(r) for r in data["matrix"]))


# ---------------------------------------------------------------------------
# alternating multilinear forms


@dataclass(frozen=True)
class AlternatingMultiForm:
    """k-linear alternating form given by coefficients on increasing k-tuples.

    Evaluation expands each argument tuple against the coefficient table
    via k x k minors, so multilinearity and the alternating law hold by
    construction.
    """

    p: int
    arity: int
    dim: int
    coeffs: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def from_dict(p: int, arity: int, dim: int,
                  coeffs: dict[tuple[int, ...], int]) -> "AlternatingMultiForm":
        cleaned = {}
        for key, val in coeffs.items():
            key = tuple(key)
            if len(key) != arity or any(not 0 <= i < dim for i in key):
                raise ValueError(f"bad index tuple {key}")
            if list(key) != sorted(set(key)):
                raise ValueError(f"index tuple must be strictly increasing: {key}")
            if val % p:
                cleaned[key] = val % p
        return AlternatingMultiForm(p, arity, dim, tuple(sorted(cleaned.items())))

    def evaluate(self, vectors: Sequence[Vector]) -> int:
        if len(vectors) != self.arity:
            raise ValueError(f"arity {self.arity} form applied to {len(vectors)} vectors")
        total = 0
        for idx, c in self.coeffs:
            total += c * _det([[v[i] for i in idx] for v in vectors], self.p)
        return total % self.p

    def to_json(self) -> dict:
        return {"p": self.p, "arity": self.arity, "dim": self.dim,
                "coeffs": {",".join(map(str, k)): v for k, v in self.coeffs}}

    @staticmethod
    def from_json(data: dict) -> "AlternatingMultiForm":
        coeffs = {tuple(map(int, k.split(","))): v for k, v in data["coeffs"].items()}
        return AlternatingMultiForm.from_dict(data["p"], data["arity"], data["dim"], coeffs)


def _det(rows: list[list[int]], p: int) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0] % p
    if n == 2:
        return (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % p
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += sign * prod
    return total % p


def _perm_sign(perm: Sequence[int]) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def determinant_form(dim: int, p: int) -> AlternatingMultiForm:
    """The arity = dim alternating form with det as its evaluation."""
    return AlternatingMultiForm.from_dict(p, dim, dim, {tuple(range(dim)): 1})
