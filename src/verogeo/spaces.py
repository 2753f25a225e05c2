"""Concrete finite geometries: PG(n,p), AG(n,p), symplectic and quadratic
polar spaces, and restrictions.

No hyperplane is deleted here: reduct.build_reduct is the one hyperplane
deletion, and a plain structure M reaches its affine reduct through the
Veronese space V(1, M), which has M's point indices and line set.

Every constructor labels points (coordinate tuples for PG/AG), and
projective_plane_family exports the planes that flappy and
chain-connectivity checks consume.  Point order is deterministic, and the
symplectic polar space reuses the projective point order so both live on
one universe.  The points, lines and planes of PG(n,p) are written down
from their reduced echelon bases, one basis per subspace, so nothing is
normalized or deduplicated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from . import algebra
from .algebra import (BilinearForm, QuadraticForm, Vector, projective_points,
                      vec_add, vec_scale)
from .incidence import IncidenceStructure


@dataclass
class ParallelStructure:
    """An incidence structure with a (pre)parallelism on its lines.

    parallel_classes partitions a subset of the line family (indices into
    base.lines).
    """

    base: IncidenceStructure
    parallel_classes: tuple[tuple[int, ...], ...]

    def class_of(self) -> dict[int, int]:
        out = {}
        for ci, cls in enumerate(self.parallel_classes):
            for li in cls:
                out[li] = ci
        return out


# ---------------------------------------------------------------------------
# projective spaces


def projective_space(n: int, p: int) -> IncidenceStructure:
    """PG(n,p): normalized 1-spaces of GF(p)^(n+1), 2-spaces as lines.

    Each line is written down once from its reduced echelon basis.
    """
    if n < 1:
        raise ValueError("projective dimension must be at least 1")
    if not algebra.is_prime(p):
        raise ValueError(f"{p} is not prime")
    pts = projective_points(n + 1, p)
    return IncidenceStructure(len(pts), _echelon_spans(pts, p, 2),
                              labels=dict(enumerate(pts)))


def _echelon_spans(pts: Sequence[Vector], p: int, k: int) -> list[frozenset[int]]:
    """Point sets of the k-dimensional subspaces of GF(p)^dim, each once,
    from its reduced echelon basis, sorted by their sorted point lists;
    pts holds every normalized point, in any order.

    The rows of that basis lead at increasing positions, and each row is 0
    at the leads of the rows after it.  A point of the span is a row plus a
    combination of the rows after it, so it already leads with that row's
    1 and is looked up as it is.

    Vectors are packed into ints, coordinate i in the field of b + 1 bits
    at bit i * (b + 1), b = p.bit_length().  A sum of two reduced vectors
    has fields below 2p, so it carries nothing between fields; adding
    2^b - p to every field sets bit b of exactly the fields >= p, and p is
    taken off those.
    """
    b = p.bit_length()
    width = b + 1
    field = (1 << width) - 1
    ones = sum(1 << (i * width) for i in range(len(pts[0])))
    lift = ones * ((1 << b) - p)

    def pack(v: Vector) -> int:
        return sum(x << (i * width) for i, x in enumerate(v))

    # multiples[i]: the packed 0, v, ..., (p-1)v of pts[i] = v
    multiples = [[pack([t * x % p for x in v]) for t in range(p)] for v in pts]
    index = {m[1]: i for i, m in enumerate(multiples)}
    leads_of = [v.index(1) for v in pts]
    blocks: list[list[tuple[int, list[int]]]] = [[] for _ in pts[0]]
    for i, a in enumerate(leads_of):
        blocks[a].append((multiples[i][1], multiples[i]))
    # each entry: the points the rows so far span, their packed combinations
    # (0 included, p^rows of them), the least lead and the field mask of
    # the leads.  A recursive closure here would hold index in a reference
    # cycle until a full collection: 0.1 MB more peak RSS.
    stack = [([i], multiples[i], a, field << (a * width)) for i, a in enumerate(leads_of)]
    last = p ** (k - 1)  # the combinations of k - 1 rows
    out = []
    while stack:
        points, combos, lead, leads = stack.pop()
        for a in range(lead):
            for r, mults in blocks[a]:
                if r & leads:
                    continue
                sums = [r + c for c in combos]
                span = points + [index[s - (((s + lift) >> b) & ones) * p] for s in sums]
                if len(combos) == last:
                    out.append(frozenset(span))
                else:
                    sums = [m + c for m in mults for c in combos]
                    stack.append((span, [s - (((s + lift) >> b) & ones) * p for s in sums],
                                  a, leads | field << (a * width)))
    out.sort(key=sorted)
    return out


def projective_hyperplanes(G: IncidenceStructure, p: int) -> list[frozenset[int]]:
    """Hyperplanes of PG from linear functionals; each is a point set."""
    pts = [G.labels[i] for i in range(G.point_count)]
    dim = len(pts[0])
    out = []
    for f in projective_points(dim, p):
        out.append(frozenset(i for i, v in enumerate(pts)
                             if sum(a * b for a, b in zip(f, v)) % p == 0))
    return sorted(set(out), key=sorted)


def projective_plane_family(G: IncidenceStructure, p: int) -> list[frozenset[int]]:
    """Point sets of the 3-dimensional vector subspaces (projective planes).

    Each plane is written down once from its reduced echelon basis over the
    coordinate labels of G; for PG(2,p) this is the whole point set.
    """
    return _echelon_spans([G.labels[i] for i in range(G.point_count)], p, 3)


# ---------------------------------------------------------------------------
# affine spaces


def affine_space(n: int, p: int) -> ParallelStructure:
    """AG(n,p) with its natural parallelism (cosets of a common direction).

    p = 2 is rejected: 2-point lines sit below the line-size floor.
    """
    if n < 1:
        raise ValueError("affine dimension must be at least 1")
    if not algebra.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        raise ValueError("GF(2) affine lines have 2 points, below the PLS floor")
    pts = sorted(itertools.product(range(p), repeat=n))
    index = {v: i for i, v in enumerate(pts)}
    classes = [{frozenset(index[vec_add(base, vec_scale(t, d, p), p)] for t in range(p))
                for base in pts}
               for d in projective_points(n, p)]
    structure = IncidenceStructure(len(pts), sorted((l for cls in classes for l in cls),
                                                    key=sorted),
                                   labels=dict(enumerate(pts)))
    line_index = structure.line_index()
    return ParallelStructure(structure, tuple(tuple(sorted(line_index[l] for l in cls))
                                              for cls in classes))


# ---------------------------------------------------------------------------
# polar spaces


def polar_space_symplectic(xi: BilinearForm) -> IncidenceStructure:
    """All points of PG(n,p) with the totally isotropic lines of xi.

    Point order matches projective_space(n,p), so the polar space and the
    projective space share their universe.
    """
    if not algebra.is_symplectic(xi):
        raise ValueError("form is not symplectic (alternating)")
    if not algebra.is_nondegenerate(xi):
        raise ValueError("degenerate symplectic form rejected")
    p = xi.p
    G = projective_space(xi.dim - 1, p)
    rows = algebra.perp_rows(xi, [G.labels[i] for i in range(G.point_count)])
    # any two points span their line: it is totally isotropic iff they are orthogonal
    lines = [line for line in G.lines if sorted(line)[1] in rows[min(line)]]
    return IncidenceStructure(G.point_count, lines, labels=dict(G.labels))


def restriction(G: IncidenceStructure, S0: Sequence[int]
                ) -> tuple[IncidenceStructure, tuple[int, ...]]:
    """Substructure on S0 keeping exactly the lines fully inside S0.

    Points are reindexed densely with their labels; returns (structure,
    kept) with kept[new] = old.  An empty S0 yields the empty structure.
    """
    kept = tuple(sorted(set(S0)))
    new_of = {old: new for new, old in enumerate(kept)}
    keep_set = frozenset(kept)
    lines = [frozenset(new_of[q] for q in l) for l in G.lines if l <= keep_set]
    labels = None if G.labels is None else {
        new: G.labels[old] for new, old in enumerate(kept) if old in G.labels}
    return IncidenceStructure(len(kept), sorted(set(lines), key=sorted),
                              labels=labels), kept


def polar_space_quadratic(Q: QuadraticForm) -> tuple[IncidenceStructure, tuple[int, ...]]:
    """Restriction of PG to the quadric; requires the quadric to carry lines."""
    G = projective_space(Q.dim - 1, Q.p)
    on = [i for i in range(G.point_count) if Q.evaluate(G.labels[i]) == 0]
    polar, kept = restriction(G, on)
    if not polar.lines:
        raise ValueError("quadric carries no lines: not a polar space")
    return polar, kept
