"""Verification suites: each suite checks one battery of claims on fixed
desk-scale instances and returns machine-readable verdicts.  The suites
are where the library runs the paper's claims (33 verdicts in all).

Every verdict carries a stable claim id, a self-contained description of
the mathematical statement tested, the instance, the outcome, the runtime,
and a witness on failure.  Reports are deterministic: all scans are
exhaustive or use recorded strata, and nothing samples without a seed.

A failing verdict is an honest outcome, not a bug: two suites document
counterexamples found by exhaustive search (the leaf-pencil hyperplanes
beyond the symplectic family, and the absence of a Net-axiom violation in
the GF(3) reduct).
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

from . import incidence as inc
from .algebra import (BilinearForm, QuadraticForm, alternating_forms_up_to_scalar,
                      determinant_form, standard_symplectic)
from .configs import (BASE_EMBEDDED, CROSS_DOUBLE_OR_MEET_TRANSLATE,
                      CROSS_POINT_JOIN, CROSS_TRANSLATE_OF_JOIN,
                      FOUR_POINT_TRANSLATE, THREE_LINE_TYPE, THREE_POINT_WITH_2M,
                      TWO_LINE_TYPE, UNCLASSIFIABLE, check_net_axiom,
                      check_parallelogram_completion, check_tamaschke,
                      classify_all_veblen, classify_crossing_line,
                      classify_proper_quadrangle, quadrangle_crossings)
from .hyperplanes import (VeroneseHyperplane, census, extract_h_function,
                          hyperplane_from_alternating, hyperplane_from_symplectic,
                          leaf_pencil, polar_hyperplane, vari1_construction,
                          verify_characterization)
from .multiset import EMPTY, Multiset, scale_point
from .parallelism import (check_euclid_failure, counting_identity_solutions,
                          induced_relation, leaf_preparallelism,
                          search_leaf_closed_parallelism)
from .reduct import (build_reduct, check_parallelism_reconstruction,
                     classify_directions, net_violation_shape_on_base,
                     net_violation_witness, recover_veronese,
                     scan_declared_double_triples, truncated_plane_family,
                     veblen_subclass_map, verify_maximal_strong)
from .spaces import (affine_space, polar_space_quadratic, polar_space_symplectic,
                     projective_hyperplanes, projective_plane_family,
                     projective_space)
from .veronese import (build_veronese, check_leaf_covering,
                       check_leaf_isomorphism, leaf_plane_family, mu_embedding,
                       parameters, tau_embedding, verify_line_monotonicity,
                       verify_restriction_points)


@dataclass
class Verdict:
    claim: str
    description: str
    instance: str
    ok: bool
    runtime: float
    witness: Optional[object] = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"claim": self.claim, "description": self.description,
               "instance": self.instance, "ok": self.ok,
               "runtime_s": round(self.runtime, 3)}
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness)
        if self.details:
            out["details"] = _jsonable(self.details)
        return out


def _jsonable(v):
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    if isinstance(v, Multiset):
        return v.to_pairs()
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, set, frozenset)):
        items = [_jsonable(x) for x in v]
        if isinstance(v, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    return repr(v)


def _verdict(claim, description, instance, check: Callable[[], tuple[bool, object, dict]]):
    start = time.perf_counter()
    ok, witness, details = check()
    return Verdict(claim, description, instance, ok,
                   time.perf_counter() - start, witness, details)


# ---------------------------------------------------------------------------
# shared instances (built once per process)


@lru_cache(maxsize=None)
def _pg(n, p):
    return projective_space(n, p)


@lru_cache(maxsize=None)
def _vpg(n, p, level=2):
    return build_veronese(_pg(n, p), level)


@lru_cache(maxsize=None)
def _ag(n, p):
    return affine_space(n, p)


@lru_cache(maxsize=None)
def _vag(n, p):
    return build_veronese(_ag(n, p).base, 2)


@lru_cache(maxsize=None)
def _w33():
    return polar_space_symplectic(standard_symplectic(4, 3))


@lru_cache(maxsize=None)
def _vw33():
    return build_veronese(_w33(), 2)


@lru_cache(maxsize=None)
def _symplectic_hyperplane_pg33():
    return hyperplane_from_symplectic(_vpg(3, 3), standard_symplectic(4, 3))


@lru_cache(maxsize=None)
def _reduct_pg33():
    return build_reduct(_vpg(3, 3), _symplectic_hyperplane_pg33())


# ---------------------------------------------------------------------------
# suites


def suite_construction_counts() -> list[Verdict]:
    def check_counts(V, base_parameters):
        through = V.structure.lines_through()
        got = (V.structure.point_count, len(V.structure.lines),
               len(through[0]), len(V.structure.lines[0]))
        expected = parameters(*base_parameters, 2)
        ranks_ok = all(len(through[q]) == expected[2] for q in V.structure.points)
        sizes_ok = all(len(b) == expected[3] for b in V.structure.lines)
        return (got == expected and ranks_ok and sizes_ok,
                None if got == expected else got, {"parameters": list(expected)})

    out = [_verdict(
        "construction-counts-fano",
        "level-2 Veronese space over the 7-point projective plane has "
        "(points, lines, point rank, line size) = (28, 56, 6, 3)",
        "V(2, PG(2,2))", lambda: check_counts(_vpg(2, 2), (7, 7, 3, 3))), _verdict(
        "construction-counts-pg23",
        "level-2 Veronese space over PG(2,3) has (91, 182, 8, 4)",
        "V(2, PG(2,3))", lambda: check_counts(_vpg(2, 3), (13, 13, 4, 4)))]

    def check_leaves():
        details, witness = {}, {}
        for name, V in (("V(2, PG(2,2))", _vpg(2, 2)), ("V(3, PG(1,3))", _vpg(1, 3, 3))):
            covered, bad = check_leaf_covering(V)
            copies = sum(check_leaf_isomorphism(V, e) for e in V.leaves)
            details[name] = {"leaves": len(V.leaves), "copies_of_base": copies}
            if not covered or copies != len(V.leaves):
                witness[name] = bad
        return not witness, witness or None, details

    out.append(_verdict(
        "construction-leaves",
        "exactly k leaves pass through every point, two leaves share at most "
        "one point, and the blocks inside each leaf pull back to the base lines",
        "V(2, PG(2,2)) and V(3, PG(1,3))", check_leaves))

    def check_embeddings():
        # both embeddings raise unless injective and carrying blocks to blocks
        mu_target, mu = mu_embedding(build_veronese(_pg(2, 2), 1), 2)
        x = scale_point(1, 0)
        tau_target, tau = tau_embedding(build_veronese(_pg(1, 3), 1), x)
        mu_ok = frozenset(mu) == mu_target.leaves[EMPTY]
        tau_ok = frozenset(tau) == tau_target.leaves[x]
        return mu_ok and tau_ok, None, {"mu_onto_double_leaf": mu_ok,
                                        "tau_onto_leaf_of_x": tau_ok}

    out.append(_verdict(
        "construction-embeddings",
        "f -> 2f embeds V(1, M) onto the double leaf of V(2, M), and f -> x + f "
        "onto the leaf of x, injectively and carrying blocks to blocks",
        "mu over PG(2,2), tau over PG(1,3)", check_embeddings))
    return out


def suite_hyperplane_characterization() -> list[Verdict]:
    out = []
    V = _vpg(1, 3)
    report = verify_characterization(V, mode="scan")

    def check_sound():
        return (report.constructed_subset_of_enumerated,
                None, {"constructed": len(report.constructed)})

    out.append(_verdict(
        "symplectic-hyperplanes-are-hyperplanes",
        "every symplectic-form point set passes the hyperplane test and "
        "appears in the exhaustive enumeration",
        "V(2, PG(1,3))", check_sound))

    def check_equality():
        # literal subset scan as an independent oracle
        G = V.structure
        brute = []
        for mask in range(1 << G.point_count):
            X = frozenset(q for q in range(G.point_count) if mask >> q & 1)
            if inc.is_hyperplane(G, X):
                brute.append(X)
        scan_agrees = sorted(brute, key=sorted) == report.enumerated
        expected_single = len(report.enumerated) == 1 and report.equal
        witness = None
        if not expected_single:
            witness = {"enumerated": len(report.enumerated),
                       "extras": report.extras}
        return (expected_single and scan_agrees, witness,
                {"subset_scan_matches_enumerator": scan_agrees,
                 "note": "enumeration finds the leaf pencils over base "
                         "hyperplanes besides the symplectic family"})

    out.append(_verdict(
        "hyperplane-enumeration-equals-symplectic-family",
        "the exhaustive 2^10 subset scan of the 10-point level-2 Veronese "
        "space returns exactly the one symplectic hyperplane (the double "
        "leaf)",
        "V(2, PG(1,3))", check_equality))

    def check_leaf_trace_mode():
        V23 = _vpg(2, 3)
        report = verify_characterization(V23, mode="leaf-trace")
        traces_ok = all(e["traces_hyperplane_or_full"] and e["relation_symmetric"]
                        for e in report.extras)
        return (report.constructed_subset_of_enumerated and traces_ok, None,
                {"enumerated": len(report.enumerated),
                 "constructed": len(report.constructed),
                 "extras_are_leaf_pencils": all(
                     e["leaf_pencil_over"] is not None for e in report.extras)})

    out.append(_verdict(
        "leaf-trace-enumeration-pg23",
        "leaf-trace search on V(2, PG(2,3)): every enumerated hyperplane "
        "has a symmetric point relation and hyperplane-or-full traces",
        "V(2, PG(2,3))", check_leaf_trace_mode))
    return out


def suite_symplectic_hyperplane() -> list[Verdict]:
    out = []

    def check_size():
        H = _symplectic_hyperplane_pg33()
        A = _reduct_pg33()
        ok = (len(H.points) == 280 and A.structure.point_count == 540
              and inc.is_hyperplane(H.ambient.structure, H.points))
        return ok, None if ok else (len(H.points), A.structure.point_count), {}

    out.append(_verdict(
        "symplectic-hyperplane-pg33-sizes",
        "the standard symplectic form yields a 280-point hyperplane; the "
        "reduct keeps 540 points",
        "V(2, PG(3,3))", check_size))

    def check_spiky_flappy():
        V = _vpg(3, 3)
        H = _symplectic_hyperplane_pg33()
        spiky, spiky_witness = inc.is_spiky(V.structure, H.points)
        planes = leaf_plane_family(V, projective_plane_family(_pg(3, 3), 3))
        flappy, flappy_witness = inc.is_flappy(V.structure, H.points, planes)
        doubles = V.leaves[EMPTY]
        witness_is_double = (flappy_witness is not None
                             and V.structure.lines[flappy_witness] <= doubles)
        ok = spiky and not flappy and witness_is_double
        return ok, {"flappy_witness_line": flappy_witness}, {
            "spiky": spiky, "flappy": flappy,
            "flappy_witness_inside_double_leaf": witness_is_double}

    out.append(_verdict(
        "symplectic-hyperplane-spiky-not-flappy",
        "the symplectic hyperplane is spiky but not flappy; the flappy "
        "failure happens at a double block",
        "V(2, PG(3,3))", check_spiky_flappy))
    return out


def suite_negative_control() -> list[Verdict]:
    def check():
        V = _vpg(2, 3)
        identity = BilinearForm(3, tuple(tuple(1 if i == j else 0
                                               for j in range(3))
                                         for i in range(3)))
        rows = V.orthogonality.rows(identity)
        selfconj = {i for i, row in enumerate(rows) if i in row}
        h0 = next(h for h in projective_hyperplanes(V.base, 3)
                  if not h <= selfconj)
        points, report = vari1_construction(V, identity, h0)
        ok = (not report["h0_inside_selfconjugate"]
              and not report["is_subspace"]
              and len(report["witness_inside"]) >= 2
              and len(report["witness_outside"]) >= 1)
        return ok, {"witness_block": report.get("witness_block")}, {
            "selfconjugate_points": len(selfconj)}

    return [_verdict(
        "orthogonal-trace-not-subspace",
        "forcing the double-leaf trace to a hyperplane outside the "
        "selfconjugate set breaks the subspace property, with the block "
        "through a doubled point and its conjugate as witness",
        "V(2, PG(2,3)) with the identity correlation", check)]


def suite_veblen_classification() -> list[Verdict]:
    def check_types(V, four_point_translates):
        counts = classify_all_veblen(V)
        ok = (counts.get(UNCLASSIFIABLE, 0) == 0
              and (counts.get(FOUR_POINT_TRANSLATE, 0) > 0) == four_point_translates
              and counts.get(BASE_EMBEDDED, 0) > 0
              and counts.get(THREE_POINT_WITH_2M, 0) > 0)
        return ok, None if ok else counts, {"counts": counts}

    out = [_verdict(
        "veblen-types-v2-fano",
        "every Veblen figure is leaf-embedded or a three-translate figure "
        "with a double block; four-translate figures need line size 4 and "
        "are absent",
        "V(2, PG(2,2))", lambda: check_types(_vpg(2, 2), False)), _verdict(
        "veblen-types-v2-pg23",
        "all three figure types occur and every figure classifies",
        "V(2, PG(2,3))", lambda: check_types(_vpg(2, 3), True))]

    def check_shapes():
        V = _vpg(2, 3)
        quadrangles, crossings = Counter(), Counter()
        for q, *fresh in quadrangle_crossings(V.structure, V.block_top):
            quadrangles[classify_proper_quadrangle(V, q)] += 1
            crossings.update(classify_crossing_line(V, a, b, k)
                             for (a, b), lines in zip(q.opposite_pairs, fresh)
                             for k in lines)
        ok = (set(quadrangles) == {TWO_LINE_TYPE, THREE_LINE_TYPE}
              and set(crossings) == {CROSS_TRANSLATE_OF_JOIN, CROSS_POINT_JOIN,
                                     CROSS_DOUBLE_OR_MEET_TRANSLATE}
              and sum(quadrangles.values()) == 3003
              and sum(crossings.values()) == 20826)
        return ok, None if ok else (dict(quadrangles), dict(crossings)), {
            "quadrangles": sum(quadrangles.values()),
            "crossing_lines": sum(crossings.values()),
            "quadrangle_shapes": dict(quadrangles), "crossing_shapes": dict(crossings)}

    out.append(_verdict(
        "quadrangle-and-crossing-shapes-pg23",
        "each of the 3003 proper quadrangles is of the two-line or three-line "
        "type, each of the 20826 lines crossing an opposite pair with a fresh "
        "top has one of the three crossing shapes, and every shape occurs",
        "V(2, PG(2,3))", check_shapes))
    return out


def suite_net_axiom() -> list[Verdict]:
    out = []

    def check_ag():
        V = _vag(2, 3)
        report = check_net_axiom(V.structure, V.block_top)
        return (report.ok and report.exhaustive, report.witness,
                {"configurations_checked": report.checked})

    out.append(_verdict(
        "net-axiom-holds-v2-ag23",
        "exhaustive scan: any two lines crossing the opposite pairs of a "
        "proper quadrangle (with fresh tops) share a point",
        "V(2, AG(2,3))", check_ag))

    def check_reduct():
        witness = net_violation_witness(_reduct_pg33())
        # the claim under test: the reduct VIOLATES the axiom
        shape_gf5 = net_violation_shape_on_base(
            projective_space(3, 5), standard_symplectic(4, 5))
        return (witness["found"], witness,
                {"note": "over GF(3) the violating shape is unsatisfiable; "
                         "the exhaustion certificate documents it",
                 "shape_exists_over_gf5": shape_gf5 is not None})

    out.append(_verdict(
        "net-axiom-fails-in-pg33-reduct",
        "the symplectic reduct should contain two lines meeting only at a "
        "deleted point yet completing a proper quadrangle they cross",
        "V(2, PG(3,3)) minus the symplectic hyperplane", check_reduct))
    return out


def suite_recovery() -> list[Verdict]:
    out = []

    def check():
        report = recover_veronese(_reduct_pg33())
        ok = (report.ok and report.point_count == 820
              and report.line_count == 5330)
        return ok, None if ok else report, {
            "points": report.point_count, "lines": report.line_count,
            "missing_lines": report.missing_lines,
            "extra_lines": report.extra_lines}

    out.append(_verdict(
        "reduct-recovers-ambient",
        "proper points plus directions, completed truncated lines, plane "
        "traces and double lines read off the visible tops reproduce all 820 "
        "points and 5330 lines exactly",
        "V(2, PG(3,3)) minus the symplectic hyperplane", check))

    def check_parallelism():
        report = check_parallelism_reconstruction(_reduct_pg33())
        counts = (report["same_leaf_checked"], report["cross_leaf_checked"],
                  report["cross_leaf_completable"], report["declared_pairs"])
        return report["sound"] and counts == (18720, 19440, 0, 0), None, report

    out.append(_verdict(
        "parallelism-reconstruction-pg33",
        "from reduct data alone, all 18720 stored same-leaf parallel pairs are "
        "Veblen-parallel; none of the 19440 stored cross-leaf parallel pairs "
        "is completable, and the quadrangle index declares no pair",
        "V(2, PG(3,3)) minus the symplectic hyperplane", check_parallelism))

    def check_double_triples():
        # the scan raises a falsification on a non-collinear triple
        report = scan_declared_double_triples(_reduct_pg33())
        ok = report == {"quadrangles_scanned": 59670, "triples_declared": 56160}
        return ok, None, report

    out.append(_verdict(
        "declared-double-triples-pg33",
        "over all 59670 proper quadrangles, each of the 56160 triples of "
        "doubles named by the tops of the fresh crossings of an opposite "
        "pair lies on one base line",
        "V(2, PG(3,3)) minus the symplectic hyperplane", check_double_triples))
    return out


def suite_direction_taxonomy() -> list[Verdict]:
    def check():
        report = classify_directions(_reduct_pg33())
        splits_ok = all(len(report.subclasses[e]) == 2
                        for e, kind in report.kinds.items() if kind == "TWO_LEAF")
        ok = (report.one_leaf == 40 and report.two_leaf == 240
              and report.dichotomy_ok and splits_ok)
        return ok, None if ok else (report.one_leaf, report.two_leaf), {
            "one_leaf": report.one_leaf, "two_leaf": report.two_leaf,
            "dichotomy": report.dichotomy_ok,
            "two_leaf_splits_in_two": splits_ok}

    def check_maximal_strong():
        report = verify_maximal_strong(_reduct_pg33())
        ok = report["count"] == 40 and all(v for k, v in report.items() if k != "count")
        return ok, None, report

    return [_verdict(
        "direction-taxonomy-pg33",
        "exactly 40 double-point directions (all class members pairwise "
        "Veblen-parallel) and 240 mixed directions, each splitting into "
        "exactly two Veblen subclasses",
        "V(2, PG(3,3)) minus the symplectic hyperplane", check), _verdict(
        "maximal-strong-are-leaf-reducts-pg33",
        "the maximal strong subspaces are exactly the 40 leaf reducts: each "
        "is strong and unextendable by a point, every line lies in one, and "
        "a point adjacent to all of a line lies in that line's subspace",
        "V(2, PG(3,3)) minus the symplectic hyperplane", check_maximal_strong)]


def suite_alternating_level_k() -> list[Verdict]:
    def check():
        V = _vpg(2, 3, 3)
        H = hyperplane_from_alternating(V, determinant_form(3, 3))
        complement = set(range(len(V.points))) - H.points
        supports_ok = all(len(V.points[q].support()) == 3 for q in complement)
        ok = (len(complement) == 234 and supports_ok and not H.degenerate
              and inc.is_hyperplane(V.structure, H.points))
        return ok, None if ok else len(complement), {
            "complement": len(complement), "nondegenerate": not H.degenerate}

    return [_verdict(
        "alternating-hyperplane-level3",
        "the determinant form yields a hyperplane whose complement is the "
        "234 unordered bases (all supports of size 3)",
        "V(3, PG(2,3))", check)]


def suite_polar_pipeline() -> list[Verdict]:
    out = []

    def check_w33():
        W = _w33()
        through = W.lines_through()
        ok = (W.point_count == 40 and len(W.lines) == 40
              and all(len(through[q]) == 4 for q in range(40)))
        return ok, None, {}

    out.append(_verdict(
        "symplectic-polar-space-w33",
        "the symplectic polar space has 40 points and 40 totally isotropic "
        "lines, 4 per point",
        "W(3,3)", check_w33))

    def check_intersection():
        VW = _vw33()
        H = _symplectic_hyperplane_pg33()
        pts = polar_hyperplane(VW, H)
        return (inc.is_hyperplane(VW.structure, pts), None,
                {"size": len(pts)})

    out.append(_verdict(
        "polar-intersection-hyperplane",
        "intersecting the projective-Veronese hyperplane with the polar "
        "point universe yields a hyperplane of the polar Veronese",
        "V(2, W(3,3))", check_intersection))

    def check_gamma():
        VW = _vw33()
        planes = leaf_plane_family(VW, projective_plane_family(_pg(3, 3), 3))
        leaves = set(VW.leaves.values())
        ok_full = set(inc.gamma_plane_classes(VW.structure, planes)) == leaves
        # and on the reduct: truncated planes against truncated leaves
        H = _symplectic_hyperplane_pg33()
        pts = polar_hyperplane(VW, H)
        HW = VeroneseHyperplane(VW, pts, extract_h_function(VW, pts),
                                source="polar-intersection")
        A = build_reduct(VW, HW)
        trunc_planes = truncated_plane_family(VW, pts, planes, A.red_of)
        ok_reduct = (set(inc.gamma_plane_classes(A.structure, trunc_planes))
                     == A.leaf_reducts)
        return (ok_full and ok_reduct, None,
                {"full_space": ok_full, "reduct": ok_reduct})

    out.append(_verdict(
        "gamma-chains-recover-leaves",
        "chain classes of the leaf-plane family (planes linked through "
        "shared lines) are exactly the leaves, before and after deleting "
        "the hyperplane",
        "V(2, W(3,3))", check_gamma))

    def check_restriction():
        V = _vpg(2, 3)
        on_line = verify_restriction_points(V, sorted(V.base.lines[0]))
        on_all = verify_restriction_points(V, V.base.points)
        return on_line and on_all, None, {"line": on_line, "whole_plane": on_all}

    out.append(_verdict(
        "veronese-restriction",
        "the Veronese space over the restriction of the base to S is the "
        "Veronese space restricted to the multisets over S, for S a line and "
        "for S the whole plane",
        "V(2, PG(2,3))", check_restriction))

    out.append(_verdict(
        "veronese-line-monotonicity",
        "on one point set, a sub-family of base lines gives a sub-family of "
        "Veronese blocks",
        "V(2, W(3,3)) inside V(2, PG(3,3))",
        lambda: (verify_line_monotonicity(_vw33(), _vpg(3, 3)), None, {})))
    return out


def suite_polar_conjecture() -> list[Verdict]:
    """Empirical probe, never a verdict: enumerate all hyperplanes of the
    smallest admissible polar Veronese and compare with the intersection
    family inherited from the ambient projective Veronese."""

    def check():
        Q = QuadraticForm(3, ((0, 1, 0, 0), (0, 0, 0, 0),
                              (0, 0, 0, 1), (0, 0, 0, 0)))
        polar = polar_space_quadratic(Q)[0]
        base_hyps = inc.enumerate_hyperplanes(polar)
        Vq = build_veronese(polar, 2)
        enumerated = set(census(Vq))
        VP = _vpg(3, 3)
        intersections = set()
        for xi in alternating_forms_up_to_scalar(4, 3):
            H = hyperplane_from_symplectic(VP, xi)
            intersections.add(polar_hyperplane(Vq, H))
        for F in projective_hyperplanes(_pg(3, 3), 3):
            U = leaf_pencil(VP, F)
            HU = VeroneseHyperplane(VP, U, extract_h_function(VP, U))
            intersections.add(polar_hyperplane(Vq, HU))
        consistent = intersections <= enumerated
        return (consistent, None, {
            "base_hyperplanes": len(base_hyps),
            "enumerated": len(enumerated),
            "from_ambient_intersections": len(intersections),
            "beyond_intersections": len(enumerated - intersections),
            "note": "counts reported as an instance probe; no verdict on "
                    "general polar Veronese hyperplanes"})

    return [_verdict(
        "polar-hyperplane-census-q33",
        "complete hyperplane census of the hyperbolic-quadric Veronese "
        "against the intersections of the known ambient hyperplanes "
        "(symplectic and leaf-pencil families)",
        "V(2, Q+(3,3))", check)]


def suite_parallelism_appendix() -> list[Verdict]:
    out = []

    def check_induced():
        V = _vag(2, 3)
        A = _ag(2, 3)
        classes = induced_relation(V, A)
        report = check_euclid_failure(V, classes)
        ok = (len(classes) == 4 and all(len(m) == 30 for m in classes.values())
              and report.classes_cover and report.per_point_count_is_level
              and not report.is_parallelism and report.witness is not None)
        return ok, report.witness, {"classes": len(classes)}

    out.append(_verdict(
        "induced-relation-euclid-failure",
        "the base parallelism induces an equivalence whose classes cover "
        "the points while two related blocks pass through each point, so "
        "it is not a parallelism",
        "V(2, AG(2,3))", check_induced))

    def check_search():
        V = _vag(1, 3)
        result = search_leaf_closed_parallelism(V)
        ok = result.none_found and result.exhaustive
        return ok, None if ok else result.parallelism, {
            "certificate": result.certificate}

    out.append(_verdict(
        "no-leaf-closed-parallelism-v2-ag13",
        "exhaustive search: the 4 blocks admit no partition into "
        "point-covering leaf-closed classes",
        "V(2, AG(1,3))", check_search))

    def check_identity():
        sols = counting_identity_solutions(range(2, 51), range(2, 7))
        return not sols, sols or None, {"range": "n in 2..50, k in 2..6"}

    out.append(_verdict(
        "direction-counting-identity",
        "the direction count identity C(n+k-1,k) = n C(n+k-1,k-1) has no "
        "solution with k > 1",
        "arithmetic", check_identity))

    def check_veblen_parallelism():
        V = _vag(2, 3)
        class_of = {b: key for key, members in leaf_preparallelism(V, _ag(2, 3)).items()
                    for b in members}
        pairs = list(itertools.combinations(range(len(V.structure.lines)), 2))
        disagree = [(b1, b2) for b1, b2 in pairs
                    if inc.veblen_parallel_lines(V.structure, b1, b2)
                    != (class_of[b1] == class_of[b2])]
        return not disagree, disagree[0] if disagree else None, {
            "block_pairs": len(pairs), "classes": len(set(class_of.values())),
            "parallel_pairs": sum(class_of[b1] == class_of[b2] for b1, b2 in pairs)}

    out.append(_verdict(
        "veblen-parallelism-is-leaf-preparallelism",
        "two blocks are Veblen-parallel exactly when they lie in one leaf over "
        "parallel base lines: the Veblen parallelism is the union of the "
        "leaf parallelisms",
        "V(2, AG(2,3))", check_veblen_parallelism))
    return out


def suite_affine_conditions() -> list[Verdict]:
    def check(scan):
        A = _reduct_pg33()
        report = scan(A.structure, veblen_subclass_map(A))
        return (report.ok, report.witness,
                {"checked": report.checked, "exhaustive": report.exhaustive,
                 "strata": report.strata})

    return [_verdict(
        "tamaschke-on-reduct",
        "a line Veblen-parallel to one side of a triangle crossing a "
        "second side crosses the third (strata-sampled apexes recorded)",
        "V(2, PG(3,3)) minus the symplectic hyperplane",
        lambda: check(check_tamaschke)), _verdict(
        "parallelogram-completion-on-reduct",
        "two pairs of Veblen-parallel lines with three of four crossings "
        "realize the fourth as well",
        "V(2, PG(3,3)) minus the symplectic hyperplane",
        lambda: check(check_parallelogram_completion))]


SUITES: dict[str, Callable[[], list[Verdict]]] = {
    "construction-counts": suite_construction_counts,
    "hyperplane-characterization": suite_hyperplane_characterization,
    "symplectic-hyperplane": suite_symplectic_hyperplane,
    "negative-control": suite_negative_control,
    "veblen-classification": suite_veblen_classification,
    "net-axiom": suite_net_axiom,
    "recovery": suite_recovery,
    "direction-taxonomy": suite_direction_taxonomy,
    "alternating-level-k": suite_alternating_level_k,
    "polar-pipeline": suite_polar_pipeline,
    "polar-conjecture": suite_polar_conjecture,
    "parallelism-appendix": suite_parallelism_appendix,
    "affine-conditions": suite_affine_conditions,
}


def run_suites(names: list[str]) -> list[Verdict]:
    verdicts: list[Verdict] = []
    for name in names:
        if name not in SUITES:
            raise KeyError(name)
        verdicts.extend(SUITES[name]())
    return verdicts
