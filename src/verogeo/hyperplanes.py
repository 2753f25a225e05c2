"""Hyperplanes of Veronese spaces.

Level 2 over a projective space: a symplectic quasi-correlation kappa
yields the point set H = union of x + kappa(x); its leaf trace function h
has h(x) = kappa(x) and h(0) = S, and H is verified (never assumed) to be
a hyperplane.  kappa(x) is the base hyperplane with normal x^T M, read
from the orthogonality table V.orthogonality that every form on V shares
(algebra.OrthogonalityTable), and x + y from the pair table V.pair.
Choosing h(0) equal to a projective hyperplane not inside the
selfconjugate set destroys the subspace property, with an explicit
witness block.

Level k over a projective space: a k-linear alternating form eta yields
H = {q1 + ... + qk : eta vanishes}; the complement consists of k-subsets.
eta is read off V.minors, the k x k minors of each k-subset of base
points, built once per space by Laplace expansion over shared prefixes.

Polar spaces: intersecting a projective-Veronese hyperplane with the
polar point universe yields a hyperplane of the polar Veronese; each polar
point is lifted to the projective one through the leaf tables.

Every construction keeps its hyperplane check, incidence.is_hyperplane,
one pass over the lines of the space.

Exhaustive enumeration has one entry, census(V).  Over 3-point lines
(p = 2) it is linear algebra: the complements of the hyperplanes are the
nonzero vectors of the GF(2) kernel of the line-point incidence matrix
(Ronan, "Embeddings and hyperplanes of discrete geometries", European J.
Combin. 8 (1987)), so a kernel of dimension d gives exactly 2^d - 1, and
incidence.enumerate_hyperplanes lists them unless 2^d - 1 passes the node
budget, which it refuses before listing any.  Past level 1 otherwise, the
slice census lists the hyperplanes of V(k, M) from those of V(k-1, M):
a hyperplane meets each slice x + V(k-1, M) in a hyperplane of V(k-1, M)
or in the whole slice; one trace is chosen per slice, forward-checking
the later slices and the diagonal.  Like the scan, it accepts each full
choice short of every point, which its pruning has made a hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from . import incidence as inc
from .algebra import (AlternatingMultiForm, BilinearForm,
                      alternating_forms_up_to_scalar, is_prime, is_symplectic,
                      vec_add, vec_scale)
from .configs import FalsificationError, _join
from .multiset import EMPTY, Multiset, enumerate_multisets, scale_point
from .veronese import VeroneseSpace, build_veronese

FULL = "full"


@dataclass
class VeroneseHyperplane:
    ambient: VeroneseSpace
    points: frozenset[int]
    h_function: dict[Multiset, object]  # leaf key -> frozenset of base points or FULL
    source: str = ""

    @cached_property
    def degenerate(self) -> bool:
        """Some base point x has every point with x in its support inside
        H; at level 2 that says the trace kappa(x) is the whole base."""
        V = self.ambient
        reached = {x for q, f in enumerate(V.points) if q not in self.points
                   for x in f.support()}
        return len(reached) < V.base.point_count

    def to_json(self) -> dict:
        h_json = {}
        for e, val in self.h_function.items():
            key = str(e.to_pairs())
            h_json[key] = FULL if val == FULL else sorted(val)
        return {"points": sorted(self.points), "h": h_json,
                "degenerate": self.degenerate, "source": self.source}


def extract_h_function(V: VeroneseSpace, H: Sequence[int]) -> dict[Multiset, object]:
    """Leaf traces h(e) = {x : e + (k-|e|)x in H}, FULL when the whole base."""
    H = frozenset(H)
    out: dict[Multiset, object] = {}
    for e in V.leaf_keys():
        row = V.leaf_points[e]
        trace = frozenset(x for x, q in enumerate(row) if q in H)
        out[e] = FULL if len(trace) == len(row) else trace
    return out


# ---------------------------------------------------------------------------
# symplectic construction (level 2)


def hyperplane_from_symplectic(V: VeroneseSpace, xi: BilinearForm) -> VeroneseHyperplane:
    """H = union over base points x of the leaf trace x + kappa(x).

    Requires level 2, odd p, and a symplectic (alternating) form, whose
    xi(x, x) = 0 puts every double 2x in H; H is checked to be a hyperplane.
    Degenerate forms are accepted: radical points contribute whole leaves
    to H, which makes H.degenerate hold.
    """
    if V.level != 2:
        raise ValueError("symplectic construction needs a level-2 Veronese space")
    _refuse_other_field(V, xi.p)
    if xi.p == 2:
        raise ValueError("odd characteristic required")
    if not is_symplectic(xi):
        raise ValueError("form is not symplectic; construction not applicable")
    if xi.is_zero():
        raise ValueError("zero form rejected")
    rows = V.orthogonality.rows(xi)
    n = len(rows)
    # the leaf keys are 0, then the base points x in order
    h: dict[Multiset, object] = dict(zip(V.leaf_points, [FULL] + [
        FULL if len(row) == n else row for row in rows]))
    pair = V.pair
    points = frozenset(pair[i][j] for i, row in enumerate(rows) for j in row)
    if not inc.is_hyperplane(V.structure, points):
        raise FalsificationError("symplectic construction failed the hyperplane check")
    return VeroneseHyperplane(V, points, h, source="symplectic")


def vari1_construction(V: VeroneseSpace, xi: BilinearForm,
                       h0: frozenset[int]) -> tuple[frozenset[int], dict]:
    """Reflexive-form union with the double-leaf trace forced to h0.

    When h0 is not contained in the selfconjugate set the result is not a
    subspace; the returned report carries the witness block (two of its
    points inside the set, one outside), built exactly as the failure is
    proved: a in h0 off kappa(a), q in kappa(a) off h0, block a + join(a,q).
    """
    if V.level != 2:
        raise ValueError("construction needs level 2")
    _refuse_other_field(V, xi.p)
    kappa = V.orthogonality.rows(xi)
    pair = V.pair
    points = frozenset([pair[i][j] for i, row in enumerate(kappa) for j in row]
                       + [pair[x][x] for x in h0])

    selfconj = frozenset(i for i, row in enumerate(kappa) if i in row)
    report: dict = {"h0_inside_selfconjugate": h0 <= selfconj}
    if not h0 <= selfconj:
        a = min(x for x in sorted(h0) if x not in kappa[x])
        q = min(kappa[a] - h0)
        join = _join(V.base, a, q)
        block = frozenset(pair[a][x] for x in join)
        inside = sorted(block & points)
        outside = sorted(block - points)
        assert pair[a][a] in block & points
        assert pair[a][q] in block & points
        report["witness_block"] = sorted(block)
        report["witness_inside"] = inside
        report["witness_outside"] = outside
        report["is_subspace"] = inc.is_subspace(V.structure, points)
    return points, report


# ---------------------------------------------------------------------------
# alternating construction (level k)


def hyperplane_from_alternating(V: VeroneseSpace,
                                eta: AlternatingMultiForm) -> VeroneseHyperplane:
    """H = multisets whose expansions are eta-orthogonal tuples.

    The arity must equal the level, and the coordinate length eta.dim.  A
    repeated point gives every k x k minor two equal rows, so it lands in
    H and the complement consists of genuine k-subsets: eta is read off
    V.minors, the minors of each k-subset of base points, one dot product
    with eta's coefficients per point.  Verified hyperplane.
    """
    if eta.arity != V.level:
        raise ValueError(f"arity {eta.arity} does not match level {V.level}")
    _refuse_other_field(V, eta.p)
    if any(len(u) != eta.dim for u in V.coordinates):
        raise ValueError(f"a form of dimension {eta.dim} needs coordinates of that length")
    outside = {q for q, minors in V.minors if eta.on_minors(minors)}
    pts = frozenset(q for q in range(len(V.points)) if q not in outside)
    if not inc.is_hyperplane(V.structure, pts):
        raise FalsificationError("alternating construction failed the hyperplane check")
    return VeroneseHyperplane(V, pts, extract_h_function(V, pts),
                              source="alternating")


# ---------------------------------------------------------------------------
# polar intersection


def polar_hyperplane(V_polar: VeroneseSpace, H_proj: VeroneseHyperplane) -> frozenset[int]:
    """Intersection of a projective-Veronese hyperplane with the polar
    Veronese point universe, verified to be a hyperplane there.

    A polar base point is the projective base point with its coordinate
    label; a label that none carries is refused.  Each polar point is
    lifted through the leaf tables: every point lies on the leaf of a key
    e of degree k - 1, and e + x lifts to base(e) + base(x), so each such
    key is mapped to the projective one once and its row read entry by
    entry, with no multiset built per point.
    """
    V_proj = H_proj.ambient
    k = V_polar.level
    if k != V_proj.level:
        raise ValueError("levels differ")
    if not V_polar.structure.lines:
        raise ValueError("polar Veronese has no lines: not a partial linear space")
    proj_of = {c: x for x, c in enumerate(V_proj.coordinates)}
    base = [proj_of.get(c) for c in V_polar.coordinates]
    if None in base:
        raise ValueError(f"polar base point {base.index(None)} has a label that "
                         "no projective base point carries")
    lift = [0] * len(V_polar.points)
    for e, row in V_polar.leaf_points.items():
        if e.degree == k - 1:
            proj_row = V_proj.leaf_points[
                Multiset(tuple(sorted((base[x], m) for x, m in e.entries)))]
            for x, q in enumerate(row):
                lift[q] = proj_row[base[x]]
    H = H_proj.points
    pts = frozenset(q for q, l in enumerate(lift) if l in H)
    if not inc.is_hyperplane(V_polar.structure, pts):
        raise FalsificationError("polar intersection failed the hyperplane check")
    return pts


# ---------------------------------------------------------------------------
# exhaustive enumeration: the slice census


def slice_census(V: VeroneseSpace, lower: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """All hyperplanes of V = V(k, M), k >= 2, from lower, the complete
    hyperplane list of V(k-1, M) (census passes no other), indexed as
    enumerate_multisets(n, k-1).

    A hyperplane meets each slice x + V(k-1, M) in a hyperplane of
    V(k-1, M) or in the whole slice, and the points kz in those of a
    diagonal {z : (k-1)z in t} of a trace t, a base hyperplane D (t being
    {f : f meets D}) or all of M.  The search picks one trace per slice on
    one bitset X over V's points, forward-checked: it keeps a domain per
    later slice and one of diagonals, each choice keeps what agrees with
    it, and an empty domain prunes.  A full choice is a hyperplane unless
    it is every point: a block e + rB, e nonempty, lies in the slice of an
    x in e, where X is the chosen trace, and a block kB in the diagonal,
    whose choice is the diagonal of a trace.  Each call is one node; the
    first past inc.SEARCH_NODE_BUDGET raises CapacityError.
    """
    if V.level < 2:
        raise ValueError("the slice census needs level 2 or more")
    n = V.base.point_count
    below = enumerate_multisets(n, V.level - 1)
    traces = [*lower, frozenset(range(len(below)))]
    # masks[x][i]: trace i on slice x, as a bitset over V; the last is the
    # slice.  Row n holds the diagonals: trace i at the point kz of each z
    masks: list[list[int]] = []
    for x in range(n):
        bits = [1 << V.leaf_points[f][x] for f in below]  # the points f + x
        masks.append([sum(bits[j] for j in t) for t in traces])
    kz = V.leaf_points[EMPTY]
    masks.append([sum(masks[z][i] & 1 << kz[z] for z in range(n)) for i in range(len(traces))])
    # the domains are the fields of one int, one per row of masks, each
    # with a guard bit on top; compat[x][i] keeps in field y > x the
    # entries of row y that agree with trace i of slice x where they meet
    width, full = len(traces) + 1, (1 << len(traces)) - 1
    every_point = (1 << len(V.points)) - 1
    ones = sum(full << width * y for y in range(n + 1))
    guards = sum(1 << width * y + width - 1 for y in range(n + 1))
    compat: list[list[int]] = []
    for x in range(n):
        rows = [ones & ((1 << width * (x + 1)) - 1) for _ in traces]
        for y in range(x + 1, n + 1):
            common = masks[x][-1] & masks[y][-1]
            agree: dict[int, int] = {}
            for j, m in enumerate(masks[y]):
                agree[m & common] = agree.get(m & common, 0) | 1 << j
            for i, m in enumerate(masks[x]):
                rows[i] |= agree.get(m & common, 0) << width * y
        compat.append(rows)
    found: list[int] = []
    nodes = 0

    def dfs(x: int, X: int, domains: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > inc.SEARCH_NODE_BUDGET:
            raise inc.CapacityError(f"slice census passed the node budget at {nodes} nodes")
        if x == n:
            if X != every_point:
                found.append(X)
            return
        domain = domains >> width * x & full
        while domain:
            i = (domain & -domain).bit_length() - 1
            domain &= domain - 1
            later = domains & compat[x][i]  # a field is nonempty when adding full sets its guard
            if (later + ones) & guards == guards:
                dfs(x + 1, X | masks[x][i], later)

    dfs(0, 0, ones)
    # each frozenset is copied from a set, which sizes its table to its
    # points; built from the generator it would keep up to twice the room
    return sorted((frozenset({q for q in range(len(V.points)) if X >> q & 1})
                   for X in found), key=sorted)


def census(V: VeroneseSpace) -> list[frozenset[int]]:
    """All hyperplanes of V = V(k, M), sorted by their sorted point tuples:
    incidence.enumerate_hyperplanes on V over 3-point lines or at level 1,
    else the slice census over the list of M (k = 2) or census(V(k-1, M)).
    """
    if V.level == 1 or all(len(l) == 3 for l in V.structure.lines):
        return inc.enumerate_hyperplanes(V.structure)
    if V.level == 2:
        return slice_census(V, inc.enumerate_hyperplanes(V.base))
    return slice_census(V, census(build_veronese(V.base, V.level - 1)))


def enumerate_hyperplanes_level2(V: VeroneseSpace,
                                 base_hyperplanes: Optional[list[frozenset[int]]] = None
                                 ) -> list[frozenset[int]]:
    """census(V) for a level-2 Veronese space; base_hyperplanes is not read."""
    if V.level != 2:
        raise ValueError("the level-2 census applies to level 2 only")
    return census(V)


# ---------------------------------------------------------------------------
# characterization report


@dataclass
class CharacterizationReport:
    enumerated: list[frozenset[int]]
    constructed: list[frozenset[int]]
    constructed_subset_of_enumerated: bool
    equal: bool
    extras: list[dict] = field(default_factory=list)


def leaf_pencil(V: VeroneseSpace, base_hyperplane: frozenset[int]) -> frozenset[int]:
    """Union of the leaves x + S over x in a base hyperplane."""
    pts: set[int] = set()
    for x in base_hyperplane:
        pts.update(V.leaves[scale_point(1, x)])
    return frozenset(pts)


def verify_characterization(V: VeroneseSpace, mode: str) -> CharacterizationReport:
    """Compare exhaustively enumerated hyperplanes with the symplectic family.

    mode is "scan" (incidence.enumerate_hyperplanes on V) or "leaf-trace"
    (census(V)).
    The symplectic side ranges over all nonzero alternating forms up to
    scalar (degenerate ones included).  Each is verified to be a
    hyperplane, so the containment direction is checked rather than
    assumed; any extra enumerated hyperplane is reported with its
    extracted trace function, the symmetry of its point relation, and a
    leaf-pencil match when one exists.
    """
    dim = len(V.coordinates[0])
    p = _base_prime(V)
    if p is None:
        raise ValueError("could not infer the base field size")
    constructed = []
    for xi in alternating_forms_up_to_scalar(dim, p):
        constructed.append(hyperplane_from_symplectic(V, xi).points)
    constructed = sorted(set(constructed), key=sorted)

    if mode == "scan":
        enumerated = inc.enumerate_hyperplanes(V.structure)
    elif mode == "leaf-trace":
        enumerated = census(V)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    n = V.base.point_count
    pair = V.pair
    constructed_set = set(constructed)
    extras = []
    for H in enumerated:
        if H in constructed_set:
            continue
        h = extract_h_function(V, H)
        symmetric = all((pair[x][y] in H) == (pair[y][x] in H)
                        for x in range(n) for y in range(n))
        traces_ok = all(val == FULL or inc.is_hyperplane(V.base, val)
                        for val in h.values())
        F = frozenset(x for x in range(n) if h[scale_point(1, x)] == FULL)
        pencil = F and inc.is_hyperplane(V.base, F) and leaf_pencil(V, F) == H
        extras.append({
            "points": sorted(H),
            "traces_hyperplane_or_full": traces_ok,
            "relation_symmetric": symmetric,
            "leaf_pencil_over": sorted(F) if pencil else None,
        })
    return CharacterizationReport(
        enumerated=enumerated,
        constructed=constructed,
        constructed_subset_of_enumerated=constructed_set <= set(enumerated),
        equal=set(enumerated) == constructed_set,
        extras=extras,
    )


def _base_prime(V: VeroneseSpace) -> Optional[int]:
    """The p of a base whose first line is a line of PG(n, p) in its
    coordinates, else None: with two of its p + 1 points, u and v, the
    nonzero a*u + b*v are the nonzero multiples of its points.  A base
    labelled in part is refused (VeroneseSpace.coordinates)."""
    G = V.base
    line = [V.coordinates[q] for q in sorted(G.lines[0])] if G.labels and G.lines else []
    p = len(line) - 1
    if not is_prime(p):
        return None
    u, v = line[:2]
    span = {vec_add(vec_scale(a, u, p), vec_scale(b, v, p), p)
            for a in range(p) for b in range(p)} - {(0,) * len(u)}
    return p if span == {vec_scale(c, w, p) for w in line for c in range(1, p)} else None


def _refuse_other_field(V: VeroneseSpace, p: int) -> None:
    # a base that shows no field (an affine one, say) is checked for the
    # coordinate length alone
    base_p = _base_prime(V)
    if base_p is not None and p != base_p:
        raise ValueError(f"form over GF({p}) does not match the base over GF({base_p})")
