"""Incidence structures, partial linear spaces, and subspace machinery.

An incidence structure is a point count plus a family of lines, each line a
set of point indices.  A partial linear space (PLS) here requires every line
to carry at least 3 points and any two distinct points to lie on at most one
common line.

Witnesses returned by the checkers are always the lexicographically first
violation, so failure reports are reproducible.  "Plane" is not intrinsic to
an incidence structure: operations that need planes (flappy, gamma chains)
take the plane family explicitly; the concrete space constructors export
their own plane families.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence


class IncidenceStructure:
    """Points 0..point_count-1 plus a family of lines (frozensets of points),
    kept in the order given.

    Instances are immutable after construction and safe to share; the
    point-to-line index and the join table, the one point-pair index, are
    computed lazily and cached.
    Equality is identity; compare line sets explicitly when needed.
    """

    def __init__(self, point_count: int, lines: Iterable[Iterable[int]],
                 labels: Optional[dict] = None):
        self.point_count = point_count
        lines = [frozenset(l) for l in lines]
        for l in lines:
            for q in l:
                if not (0 <= q < point_count):
                    raise ValueError(f"line point {q} out of range 0..{point_count - 1}")
        self.lines: tuple[frozenset[int], ...] = tuple(lines)
        self.labels = dict(labels) if labels else None
        self._lines_through: Optional[list[list[int]]] = None
        self._line_masks: Optional[list[int]] = None
        self._line_index: Optional[dict[frozenset, int]] = None
        self._join: Optional[list[dict[int, int]]] = None

    def __repr__(self):
        return f"IncidenceStructure({self.point_count} points, {len(self.lines)} lines)"

    @property
    def points(self) -> range:
        return range(self.point_count)

    def lines_through(self) -> list[list[int]]:
        if self._lines_through is None:
            through: list[list[int]] = [[] for _ in range(self.point_count)]
            for i, line in enumerate(self.lines):
                for a in line:
                    through[a].append(i)
            self._lines_through = through
        return self._lines_through

    def join(self) -> list[dict[int, int]]:
        """join()[p][q] = index of the line through the distinct points p, q.

        Raises ValueError when two points lie on two lines.
        """
        if self._join is None:
            join: list[dict[int, int]] = [{} for _ in range(self.point_count)]
            for i, line in enumerate(self.lines):
                for p in line:
                    row = join[p]
                    for q in line:
                        if q != p and row.setdefault(q, i) != i:
                            raise ValueError(f"points {p}, {q} lie on lines "
                                             f"{row[q]} and {i}")
            self._join = join
        return self._join

    def crossing_both(self, a: int, b: int) -> set[int]:
        """The lines other than a and b that share a point with each."""
        join, lb = self.join(), self.lines[b]
        out = {join[q][r] for q in self.lines[a] for r in lb if r in join[q]}
        for q in self.lines[a] & lb:
            out.update(self.lines_through()[q])
        return out - {a, b}

    def line_masks(self) -> list[int]:
        """line_masks()[i]: line i as a bitset, bit q set for each point q."""
        if self._line_masks is None:
            self._line_masks = [sum(1 << q for q in line) for line in self.lines]
        return self._line_masks

    def line_index(self) -> dict[frozenset, int]:
        if self._line_index is None:
            self._line_index = {l: i for i, l in enumerate(self.lines)}
        return self._line_index

    def to_json(self) -> dict:
        data = {
            "point_count": self.point_count,
            "lines": [sorted(l) for l in self.lines],
        }
        if self.labels is not None:
            data["labels"] = {str(k): _label_json(v) for k, v in self.labels.items()}
        return data

    @staticmethod
    def from_json(data: dict) -> "IncidenceStructure":
        """Refuses, by a ValueError naming the field, a point_count that is
        not a nonnegative int, lines that are not lists of ints, and labels
        that are not an object keyed by decimal point indices in range or
        that hold a multiset pair other than [point >= 0, multiplicity
        >= 1] of ints; a missing field raises KeyError."""
        if not isinstance(data, dict):
            raise ValueError("an incidence structure must be a JSON object")
        count, lines = data["point_count"], data["lines"]
        if type(count) is not int or count < 0:  # bool is an int subclass
            raise ValueError(f"point_count must be a nonnegative integer, got {count!r}")
        if not (isinstance(lines, list)
                and all(isinstance(l, list) and all(type(q) is int for q in l)
                        for l in lines)):
            raise ValueError("lines must be a list of lists of integer points")
        labels = None
        if "labels" in data:
            if not isinstance(data["labels"], dict):
                raise ValueError("labels must be an object keyed by point")
            labels = {_label_key(k, count): _label_from_json(v)
                      for k, v in data["labels"].items()}
        return IncidenceStructure(count, lines, labels=labels)


def _label_json(v):
    from .multiset import Multiset
    if isinstance(v, Multiset):
        return {"multiset": v.to_pairs()}
    if isinstance(v, tuple):
        return list(v)
    return v


def _label_key(k: str, count: int) -> int:
    if not (k.isascii() and k.isdigit() and str(int(k)) == k and int(k) < count):
        raise ValueError(f"labels must be keyed by point indices 0..{count - 1}, "
                         f"got {k!r}")
    return int(k)


def _label_from_json(v):
    from .multiset import Multiset
    if isinstance(v, dict) and "multiset" in v:
        pairs = v["multiset"]
        if not (isinstance(pairs, list)
                and all(isinstance(pr, list) and len(pr) == 2
                        and type(pr[0]) is int and type(pr[1]) is int
                        and pr[0] >= 0 and pr[1] >= 1 for pr in pairs)):
            raise ValueError("labels: a multiset must be a list of [point, multiplicity] "
                             f"integer pairs, point >= 0 and multiplicity >= 1, got {pairs!r}")
        return Multiset.from_pairs(pairs)
    if isinstance(v, list):
        return tuple(v)
    return v


# ---------------------------------------------------------------------------
# partial linear space axioms


def is_partial_linear(G: IncidenceStructure) -> tuple[bool, Optional[tuple]]:
    """Check the PLS axioms: line floor >= 3 and unique joining lines.

    Returns (ok, witness); the witness is ("undersized_line", line_index)
    or ("double_joined", a, b, line1, line2), first violation in
    deterministic order; a line listed twice joins its points twice.

    joined[x] holds, as a bitset, the points y > x that an earlier line
    joins to x.  Only the first line to join a pair twice is read again,
    pair by pair, for the witness.
    """
    for i, line in enumerate(G.lines):
        if len(line) < 3:
            return False, ("undersized_line", i)
    joined = [0] * G.point_count
    for i, line in enumerate(G.lines):
        above = 0  # the points of the line above x
        for x in sorted(line, reverse=True):
            if joined[x] & above:
                return False, _double_join(G, i)
            joined[x] |= above
            above |= 1 << x
    return True, None


def _double_join(G: IncidenceStructure, i: int) -> tuple:
    """The witness of line i, the first line that joins a pair twice: its
    first such pair in sorted order and the earlier line joining it."""
    pts = sorted(G.lines[i])
    for x in range(len(pts)):
        for y in range(x + 1, len(pts)):
            pair = {pts[x], pts[y]}
            for j in range(i):
                if pair <= G.lines[j]:
                    return ("double_joined", pts[x], pts[y], j, i)
    raise AssertionError(f"line {i} joins no pair twice")


# ---------------------------------------------------------------------------
# subspaces


def subspace_closure(G: IncidenceStructure, X: Iterable[int]) -> frozenset[int]:
    """Least superset of X containing every line that meets it twice.

    Each point added bumps the hit count of its lines; a line closes when
    its count reaches 2.
    """
    lines, through = G.lines, G.lines_through()
    current = set(X)
    stack = list(current)
    hits: dict[int, int] = {}
    while stack:
        for i in through[stack.pop()]:
            n = hits[i] = hits.get(i, 0) + 1
            if n == 2:
                stack.extend(lines[i] - current)
                current |= lines[i]
    return frozenset(current)


def is_subspace(G: IncidenceStructure, X: Iterable[int]) -> bool:
    X = frozenset(X)
    for line in G.lines:
        inside = len(line & X)
        if 2 <= inside < len(line):
            return False
    return True


def is_strong(G: IncidenceStructure, X: Iterable[int]) -> bool:
    """Subspace with all points pairwise adjacent."""
    X = frozenset(X)
    return is_subspace(G, X) and _is_clique(G.join(), X)


def common_neighbours(G: IncidenceStructure, X: frozenset[int]) -> set[int]:
    """Points equal or adjacent to every point of X (empty for empty X)."""
    join = G.join()
    return set.intersection(*(join[a].keys() | {a} for a in X)) if X else set()


def strong_extensions(G: IncidenceStructure, X: frozenset[int]
                      ) -> Iterator[frozenset[int]]:
    """The strong one-point extensions of X, in increasing order of the point.

    For each point p outside X adjacent to all of X, yields the closure of
    X + p when that closure is pairwise adjacent.  Every strong proper
    superset of a strong subspace X contains one of them, so X is maximal
    strong exactly when this yields nothing.
    """
    join = G.join()
    for p in sorted(common_neighbours(G, X) - X):
        Y = subspace_closure(G, X | {p})
        if _is_clique(join, Y):
            yield Y


def _is_clique(join: list[dict[int, int]], X: frozenset[int]) -> bool:
    pts = sorted(X)
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            if b not in join[a]:
                return False
    return True


# ---------------------------------------------------------------------------
# hyperplanes, spiky/flappy


def is_hyperplane(G: IncidenceStructure, X: Iterable[int]) -> bool:
    """Proper l-transversal subspace: X is not every point, and each line
    meets X in all its points or in exactly one.  One pass over the lines,
    reading each overlap once: a line fails when it misses X (not
    l-transversal) or meets it in two or more points but not all (not a
    subspace).  Reads no line masks, so it adds no memory to the space.
    """
    X = frozenset(X)
    if len(X) == G.point_count:
        return False
    for line in G.lines:
        k = len(line & X)
        if k == 0 or 1 < k < len(line):
            return False
    return True


def is_spiky(G: IncidenceStructure, X: Iterable[int]) -> tuple[bool, Optional[int]]:
    """Through each point of X there must go a line not contained in X.

    Returns (ok, witness_point). Vacuously true for empty X; a point of X
    with no lines at all fails.
    """
    X = frozenset(X)
    through = G.lines_through()
    for p in sorted(X):
        if not any(not (G.lines[i] <= X) for i in through[p]):
            return False, p
    return True, None


def is_flappy(G: IncidenceStructure, X: Iterable[int],
              planes: Sequence[frozenset[int]]) -> tuple[bool, Optional[int]]:
    """Through each line inside X there must pass a plane not contained in X.

    Plane families are caller-supplied (they are space-specific).  Raises
    if no planes are given while X contains a line, since the check would
    be indeterminate.
    """
    X = frozenset(X)
    inside = [i for i, line in enumerate(G.lines) if line <= X]
    if inside and not planes:
        raise ValueError("flappy check needs a plane family when X contains lines")
    for i in inside:
        line = G.lines[i]
        if not any(line <= pl and not (pl <= X) for pl in planes):
            return False, i
    return True, None


# ---------------------------------------------------------------------------
# hyperplane enumeration

SEARCH_NODE_BUDGET = 2_000_000


class CapacityError(RuntimeError):
    pass


def enumerate_hyperplanes(G: IncidenceStructure) -> list[frozenset[int]]:
    """Complete list of hyperplanes, sorted by their sorted point tuples.

    When every line has exactly 3 points, X is a hyperplane exactly when
    every line meets the complement of X in 0 or 2 points: the indicator
    of the complement is a nonzero vector of the GF(2) kernel of the
    line-point incidence matrix (Ronan, "Embeddings and hyperplanes of
    discrete geometries", European J. Combin. 8 (1987)).  A kernel of
    dimension d gives 2^d - 1 hyperplanes, listed from a basis in Gray-code
    order, one symmetric difference each.  Each hyperplane counts as one
    node: when 2^d - 1 passes SEARCH_NODE_BUDGET, CapacityError names d
    and the count before any is listed.  Any other line size goes to the
    decision scan, _scan_hyperplanes.
    """
    if not all(len(l) == 3 for l in G.lines):
        return _scan_hyperplanes(G)
    basis = _gf2_kernel(G)
    d, count = len(basis), (1 << len(basis)) - 1
    if count > SEARCH_NODE_BUDGET:
        raise CapacityError(f"hyperplane kernel of dimension {d} gives {count} "
                            f"hyperplanes, past the node budget")
    blocks = [{q for q in range(G.point_count) if v >> q & 1} for v in basis]
    current = set(range(G.point_count))
    mask = (1 << G.point_count) - 1
    found: list[frozenset[int]] = []
    keys: list[str] = []
    for g in range(1, count + 1):
        # Gray code: step g flips basis vector number (trailing zeros of g)
        b = (g & -g).bit_length() - 1
        current ^= blocks[b]
        mask ^= basis[b]
        # each frozenset is copied from a set, which sizes its table to
        # its points
        found.append(frozenset(current))
        keys.append(_sorted_tuple_key(mask))
    return [found[i] for i in sorted(range(count), key=keys.__getitem__)]


_MEMBER_FIRST = str.maketrans("01", "10")


def _sorted_tuple_key(mask: int) -> str:
    """A string that orders point sets, given as bitsets, as their sorted
    tuples do: one character per point from 0 up to the highest member,
    "0" for a member and "1" for a non-member.  At the first point where
    two sets differ the one holding it has the smaller next member; and
    a set whose sorted tuple is a prefix of another's ends first."""
    return bin(mask)[:1:-1].translate(_MEMBER_FIRST) if mask else ""


def _gf2_kernel(G: IncidenceStructure) -> list[int]:
    """A basis, as bitsets, of {v : every line has even overlap with v}.

    The line bitsets are reduced to echelon form keyed by lowest bit; each
    point that is no pivot spans one basis vector, whose pivot bits are
    solved from the highest pivot down.
    """
    pivots: dict[int, int] = {}
    for row in G.line_masks():
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    solve = sorted(pivots.items(), reverse=True)
    basis = []
    for q in range(G.point_count):
        v = 1 << q
        if v in pivots:
            continue
        for low, row in solve:
            if (row & v).bit_count() & 1:
                v |= low
        basis.append(v)
    return basis


def _scan_hyperplanes(G: IncidenceStructure) -> list[frozenset[int]]:
    """Complete list of hyperplanes, via an exhaustive in/out decision scan.

    A depth-first scan on an explicit stack decides the points in order on
    line bitsets, pruning a line with two points in and one out, or with
    every point out.  A line is tested at each of its points, the last
    included, so a full assignment short of every point is a hyperplane;
    an empty line, on no point's list, is met by none.  Each decision step
    is one node; the first node past SEARCH_NODE_BUDGET raises
    CapacityError, since a partial list proves nothing.
    """
    n = G.point_count
    masks = G.line_masks()
    if not all(masks):
        return []
    through = [[masks[i] for i in lines] for lines in G.lines_through()]
    found: list[frozenset[int]] = []
    stack, nodes = [(0, 0)], 0
    while stack:
        q, inside = stack.pop()
        nodes += 1
        if nodes > SEARCH_NODE_BUDGET:
            raise CapacityError(f"hyperplane scan passed the node budget at {nodes} nodes")
        if q == n:
            if inside != (1 << n) - 1:
                found.append(frozenset(p for p in range(n) if inside >> p & 1))
            continue
        for X in (inside, inside | 1 << q):
            out = ~X & (2 << q) - 1  # the points decided so far and left out
            if all(L & out != L and not (L & out and (L & X).bit_count() > 1)
                   for L in through[q]):
                stack.append((q + 1, X))
    found.sort(key=sorted)
    return found


# ---------------------------------------------------------------------------
# Veblen parallelism (line relation over bare incidence)


def veblen_parallel_lines(G: IncidenceStructure, i: int, j: int) -> bool:
    """Coplanarity-style parallelism of lines i, j.

    Holds when i == j, or when the lines are disjoint and there are two
    lines L', L'' through a common point p off both, each crossing both,
    with the crossing points a1 = i cap L' and a2 = j cap L'' adjacent.
    The adjacency clause matters: not every triangle in a Veronese space
    spans a plane.

    Each line crossing the disjoint lines i and j is join[x][y] for one
    adjacent pair x on i, y on j.  Two such pairs (x, y), (x', y') give
    L' and L'' exactly when x != x', y != y', y' is adjacent to x and
    their lines meet: a common point on i or j would be x = x' or y = y'.
    """
    if i == j:
        return True
    li, lj = G.lines[i], G.lines[j]
    if li & lj:
        return False
    join, lines = G.join(), G.lines
    pairs = [(x, y, lines[join[x][y]]) for x in li for y in lj if y in join[x]]
    for x, y, la in pairs:
        row = join[x]
        for x2, y2, lb in pairs:
            if x2 != x and y2 != y and y2 in row and not la.isdisjoint(lb):
                return True
    return False


# ---------------------------------------------------------------------------
# plane-chain (gamma) classes


def gamma_plane_classes(G: IncidenceStructure,
                        planes: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """Chain-connectivity classes of a plane family, returned as point unions.

    Planes are point sets of G.  Two planes chain when both contain a common
    line of G.  Each plane finds the lines it contains among the lines
    whose least point it holds, testing each such line once; the first
    plane to contain a line owns it, and every later plane containing that
    line is unioned with its owner.  Lines of fewer than 2 points are
    rejected: containing one does not make two planes share a line.  The
    union of each class is returned (sorted); points on no plane are not
    represented.
    """
    if any(len(l) < 2 for l in G.lines):
        raise ValueError("gamma chains need lines of at least 2 points")
    least: list[list[int]] = [[] for _ in range(G.point_count)]
    for i, line in enumerate(G.lines):
        least[min(line)].append(i)
    parent = list(range(len(planes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    owner: dict[int, int] = {}
    for idx, pl in enumerate(planes):
        for q in pl:
            for li in least[q]:
                if G.lines[li] <= pl:
                    first = owner.setdefault(li, idx)
                    if first != idx:
                        union(first, idx)

    classes: dict[int, set[int]] = {}
    for idx, pl in enumerate(planes):
        classes.setdefault(find(idx), set()).update(pl)
    return sorted((frozenset(c) for c in classes.values()), key=sorted)
