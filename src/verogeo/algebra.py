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
from functools import cached_property, lru_cache
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

    For a symplectic form row i is the quasi-correlation kappa(x_i) =
    x_i^perp as a set of point indices.  Read through a fresh
    OrthogonalityTable; the forms over one coordinate list share one.
    Coordinates whose length is not xi.dim are refused.
    """
    return OrthogonalityTable(coords).rows(xi)


class OrthogonalityTable:
    """perp_rows for every bilinear form over one list of coordinates.

    Row i of a form with matrix M is the base hyperplane with normal
    w = coords[i]^T M: the points j with w . coords[j] = 0, every point
    when w = 0.  Proportional normals give one row, so the rows are held
    in one table keyed by p and w scaled to a first nonzero entry 1, each
    computed the first time a form needs it; the forms read through one
    table share its rows.  A dot product is one multiply and shift on
    packed ints: coords[j] is held with entry t in the field at bit s*t
    and w in the reverse order, so the field at bit s*(d-1) of their
    product is w . coords[j], s being wide enough that no field of the
    product, a sum of at most d terms below p^2, carries into the next.
    """

    def __init__(self, coords: Sequence[Vector]):
        self._coords = [tuple(u) for u in coords]
        self._lengths = {len(u) for u in self._coords}
        self._packed: dict[int, tuple[int, list[int]]] = {}  # p -> (s, packed coords)
        self._rows: dict[tuple[int, Vector], frozenset[int]] = {}

    def rows(self, xi: BilinearForm) -> list[frozenset[int]]:
        if self._lengths - {xi.dim}:
            raise ValueError(f"a form of dimension {xi.dim} needs coordinates of that length")
        p, table = xi.p, self._rows
        columns = list(zip(*xi.matrix))
        out = []
        for u in self._coords:
            w = [sum(a * b for a, b in zip(u, col)) % p for col in columns]
            lead = next((a for a in w if a), 1)
            if lead != 1:
                inv = pow(lead, -1, p)
                w = [a * inv % p for a in w]
            key = (p, tuple(w))
            row = table.get(key)
            if row is None:
                row = table[key] = self._hyperplane(p, w)
            out.append(row)
        return out

    def _hyperplane(self, p: int, w: list[int]) -> frozenset[int]:
        """{j : w . coords[j] = 0 mod p}, read on packed ints."""
        if p not in self._packed:
            s = (len(w) * (p - 1) ** 2).bit_length()
            self._packed[p] = s, [sum(a % p << s * t for t, a in enumerate(u))
                                  for u in self._coords]
        s, packed = self._packed[p]
        shift, mask = s * (len(w) - 1), (1 << s) - 1
        W = sum(a << s * t for t, a in enumerate(reversed(w)))
        return frozenset(j for j, v in enumerate(packed) if not (W * v >> shift & mask) % p)


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
    via its k x k minors (extend_minors), so multilinearity and the
    alternating law hold by construction.
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
        minors: tuple[int, ...] = (1,)
        for rows, v in enumerate(vectors, 1):
            minors = extend_minors(minors, v, rows)
        return self.on_minors(minors)

    def on_minors(self, minors: Sequence[int]) -> int:
        """eta on k vectors from their k x k minors, one per k-subset of
        the coordinates in itertools.combinations order (extend_minors)."""
        return sum(c * minors[i] for i, c in self._weights) % self.p

    @cached_property
    def _weights(self) -> tuple[tuple[int, int], ...]:
        """(position of the index tuple among the k-subsets, coefficient)."""
        position = {idx: i for i, idx in
                    enumerate(itertools.combinations(range(self.dim), self.arity))}
        return tuple((position[idx], c) for idx, c in self.coeffs)

    def to_json(self) -> dict:
        return {"p": self.p, "arity": self.arity, "dim": self.dim,
                "coeffs": {",".join(map(str, k)): v for k, v in self.coeffs}}

    @staticmethod
    def from_json(data: dict) -> "AlternatingMultiForm":
        coeffs = {tuple(map(int, k.split(","))): v for k, v in data["coeffs"].items()}
        return AlternatingMultiForm.from_dict(data["p"], data["arity"], data["dim"], coeffs)


def extend_minors(minors: Sequence[int], u: Vector, rows: int) -> tuple[int, ...]:
    """The rows x rows minors of a matrix with `rows` rows, the last u, from
    the minors of its first rows - 1 (the single minor 1 when there are
    none), one per rows-subset I of the columns in itertools.combinations
    order.  Laplace expansion along u: the minor on I is the sum over the
    positions t of I of (-1)^(rows-1+t) u[I_t] times the minor on I less
    I_t.  Exact integers, never reduced: a product of entries below p keeps
    every minor small, and a form reduces its sum mod p once.
    """
    return tuple(sum(sign * u[b] * minors[j] for sign, b, j in terms)
                 for terms in _laplace_terms(len(u), rows))


@lru_cache(maxsize=None)
def _laplace_terms(dim: int, rows: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each rows-subset I of range(dim): the (sign, column, position of
    I less that column among the (rows-1)-subsets) of its expansion."""
    lower = {I: j for j, I in enumerate(itertools.combinations(range(dim), rows - 1))}
    return tuple(tuple(((-1) ** (rows - 1 + t), I[t], lower[I[:t] + I[t + 1:]])
                       for t in range(rows))
                 for I in itertools.combinations(range(dim), rows))


def determinant_form(dim: int, p: int) -> AlternatingMultiForm:
    """The arity = dim alternating form with det as its evaluation."""
    return AlternatingMultiForm.from_dict(p, dim, dim, {tuple(range(dim)): 1})
