"""The three benchmark workloads: seeded inputs, one pass each, and the
values every pass must reproduce.

A pass makes the same library calls as the matching `verogeo verify`
suites, on inputs generated from the seed, and builds its geometry from
scratch.  It never touches `verogeo.verify`, whose suites hard-code their
instances and cache them per process, so a second pass there would time
a cache hit.

Every library call goes through ``call(name, fn, *args)``.  The runner
passes a plain call or a span-recording one, so the traced and untraced
passes run the same code.

The seed only changes inputs up to isomorphism (relabelled base points,
a symplectic form xi = g^T J g for g in GL(4,3)), so every recorded value
below is the same for every seed.  Seed 0 is the battery's own instance:
identity relabelling and the standard form J.
"""

from __future__ import annotations

import random
from typing import Callable

from verogeo import configs, hyperplanes, incidence, parallelism, reduct, spaces, veronese
from verogeo.algebra import (BilinearForm, QuadraticForm, determinant_form, nullspace,
                             standard_symplectic)
from verogeo.incidence import IncidenceStructure
from verogeo.multiset import scale_point

Call = Callable[..., object]

# Q+(3,2): the hyperbolic quadric x0 x1 + x2 x3 = 0 over GF(2).
Q_PLUS_32 = QuadraticForm(2, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))

# Point counts of the bases whose points the seed relabels.
BASE_POINTS = {"pg32": 15, "q32": 9, "pg13": 4, "pg23": 13, "pg22": 7, "ag23": 9}


# ---------------------------------------------------------------------------
# inputs


def _permutation(rng: random.Random, seed: int, n: int) -> list[int]:
    return list(range(n)) if seed == 0 else rng.sample(range(n), n)


def _seeded_symplectic(rng: random.Random, seed: int) -> BilinearForm:
    """xi = g^T J g for a random g in GL(4,3); J itself for seed 0."""
    J = standard_symplectic(4, 3)
    if seed == 0:
        return J
    while True:
        g = [[rng.randrange(3) for _ in range(4)] for _ in range(4)]
        if not nullspace(g, 3):
            break
    M = J.matrix
    xi = [[sum(g[k][i] * M[k][l] * g[l][j] for k in range(4) for l in range(4)) % 3
           for j in range(4)] for i in range(4)]
    return BilinearForm(3, tuple(tuple(row) for row in xi))


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a pass needs besides the library, generated from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        return {"perm": {k: _permutation(rng, seed, BASE_POINTS[k])
                         for k in ("pg32", "q32", "pg13", "pg23")}}
    if workload == "reduct":
        return {"xi": _seeded_symplectic(rng, seed),
                "perm": {"ag23": _permutation(rng, seed, BASE_POINTS["ag23"])}}
    if workload == "build":
        return {"xi": _seeded_symplectic(rng, seed),
                "eta": determinant_form(3, 3),
                "perm": {k: _permutation(rng, seed, BASE_POINTS[k])
                         for k in ("pg23", "pg22")}}
    raise KeyError(workload)


def relabel(G: IncidenceStructure, perm: list[int]) -> IncidenceStructure:
    """Copy of G with point q renamed perm[q]; labels travel with their points."""
    labels = None if G.labels is None else {perm[q]: lab for q, lab in G.labels.items()}
    return IncidenceStructure(G.point_count, [[perm[q] for q in line] for line in G.lines],
                              labels=labels)


# ---------------------------------------------------------------------------
# passes: each returns (observed values, work counters)


def census_pass(inputs: dict, call: Call) -> tuple[dict, dict]:
    """Level-2 hyperplane censuses and the characterization reports."""
    perm = inputs["perm"]
    obs: dict = {}
    work: dict = {}
    pg32 = _projective_space(call, work, 3, 2)
    q32, _ = call("spaces.polar_space_quadratic", spaces.polar_space_quadratic, Q_PLUS_32)
    for key, base in (("pg32", pg32), ("q32", q32)):
        base = relabel(base, perm[key])
        base_hyps = call("incidence.enumerate_hyperplanes", incidence.enumerate_hyperplanes, base)
        V = _veronese(call, work, base, 2)
        found = call("hyperplanes.enumerate_hyperplanes_level2",
                     hyperplanes.enumerate_hyperplanes_level2, V, base_hyperplanes=base_hyps)
        obs[f"{key}.base_hyperplanes"] = len(base_hyps)
        obs[f"{key}.veronese_points"] = len(V.points)
        obs[f"{key}.level2_hyperplanes"] = len(found)
        _add(work, "incidence.enumerate_hyperplanes.found", len(base_hyps))
        _add(work, "hyperplanes.enumerate_hyperplanes_level2.found", len(found))

    for key, n, mode in (("pg13", 1, "scan"), ("pg23", 2, "leaf-trace")):
        base = relabel(_projective_space(call, work, n, 3), perm[key])
        V = _veronese(call, work, base, 2)
        report = call("hyperplanes.verify_characterization",
                      hyperplanes.verify_characterization, V, mode=mode)
        obs[f"{key}.enumerated"] = len(report.enumerated)
        obs[f"{key}.constructed"] = len(report.constructed)
        obs[f"{key}.constructed_subset_of_enumerated"] = report.constructed_subset_of_enumerated
        obs[f"{key}.equal"] = report.equal
        obs[f"{key}.extras_leaf_pencils"] = sum(e["leaf_pencil_over"] is not None
                                                for e in report.extras)
        obs[f"{key}.extras_traces_ok"] = all(e["traces_hyperplane_or_full"]
                                             and e["relation_symmetric"] for e in report.extras)
    return obs, work


def reduct_pass(inputs: dict, call: Call) -> tuple[dict, dict]:
    """V(2,PG(3,3)) minus the hyperplane of xi: reduct build, recovery and
    the configuration scans of the affine-conditions and net-axiom suites."""
    obs: dict = {}
    work: dict = {}
    P = _projective_space(call, work, 3, 3)
    V = _veronese(call, work, P, 2)
    H = call("hyperplanes.hyperplane_from_symplectic", hyperplanes.hyperplane_from_symplectic,
             V, inputs["xi"])
    A = call("reduct.build_reduct", reduct.build_reduct, V, H)
    obs["hyperplane_points"] = len(H.points)
    obs["reduct_points"] = A.structure.point_count
    obs["reduct_lines"] = len(A.structure.lines)

    directions = call("reduct.classify_directions", reduct.classify_directions, A)
    obs["one_leaf"] = directions.one_leaf
    obs["two_leaf"] = directions.two_leaf
    obs["dichotomy"] = directions.dichotomy_ok
    obs["two_leaf_splits_in_two"] = all(len(directions.subclasses[e]) == 2
                                        for e, kind in directions.kinds.items()
                                        if kind == reduct.TWO_LEAF)
    class_of = call("reduct.veblen_subclass_map", reduct.veblen_subclass_map, A)
    obs["veblen_classes"] = len(set(class_of.values()))
    _, tops = call("reduct.visible_tops", reduct.visible_tops, A)
    obs["visible_tops"] = len(tops)

    recovery = call("reduct.recover_veronese", reduct.recover_veronese, A)
    obs["recovered_points"] = recovery.point_count
    obs["recovered_lines"] = recovery.line_count
    obs["recovery_missing_lines"] = recovery.missing_lines
    obs["recovery_extra_lines"] = recovery.extra_lines
    _add(work, "reduct.recover_veronese.lines", recovery.line_count)

    witness = call("reduct.net_violation_witness", reduct.net_violation_witness, A)
    obs["net_violation_found"] = witness["found"]
    obs["net_violation_reason"] = witness.get("reason")
    obs["net_violation_checked"] = witness["configurations_checked"]
    _add(work, "reduct.net_violation_witness.checked", witness["configurations_checked"])

    ag = call("spaces.affine_space", spaces.affine_space, 2, 3)
    VA = _veronese(call, work, relabel(ag.base, inputs["perm"]["ag23"]), 2)
    tops_ag = [VA.block_top[i] for i in range(len(VA.structure.lines))]
    net = call("configs.check_net_axiom", configs.check_net_axiom, VA.structure, tops_ag)
    _scan(obs, work, "net_axiom_ag23", "configs.check_net_axiom", net)

    tam = call("configs.check_tamaschke", configs.check_tamaschke, A.structure, class_of)
    _scan(obs, work, "tamaschke", "configs.check_tamaschke", tam)

    # The battery scans 40 sampled classes against all 520 (13.8M checks,
    # about 35 s), too long to repeat within one run.  Here the scan covers
    # the Veblen classes of the directions through base point 0 or through
    # the first base point not xi-orthogonal to it.  Every xi here is
    # equivalent to J and Sp(4,3) is transitive on such pairs of points, so
    # the scanned configuration is the same up to isomorphism for every seed.
    x0 = 0
    x1 = next(x for x in range(P.point_count) if x not in H.h_function[scale_point(1, x0)])
    share = {li: c for li, c in class_of.items()
             if A.infinite_label(A.lines[li].infinite).support() & {x0, x1}}
    pcc = call("configs.check_parallelogram_completion",
               configs.check_parallelogram_completion, A.structure, share)
    obs["parallelogram_classes"] = len(set(share.values()))
    _scan(obs, work, "parallelogram", "configs.check_parallelogram_completion", pcc)
    return obs, work


def build_pass(inputs: dict, call: Call) -> tuple[dict, dict]:
    """Construction-heavy suites: projective spaces, the level-3 alternating
    hyperplane, the polar pipeline with its gamma chains, Veblen
    classification and the parallelism appendix."""
    obs: dict = {}
    work: dict = {}
    perm = inputs["perm"]
    pg = {}
    for n in (5, 4, 3, 2):
        G = pg[n] = _projective_space(call, work, n, 3)
        obs[f"pg{n}3.points"] = G.point_count
        obs[f"pg{n}3.lines"] = len(G.lines)
    pg23 = relabel(pg[2], perm["pg23"])

    V3 = _veronese(call, work, pg23, 3)
    H3 = call("hyperplanes.hyperplane_from_alternating", hyperplanes.hyperplane_from_alternating,
              V3, inputs["eta"])
    complement = [q for q in range(len(V3.points)) if q not in H3.points]
    obs["alternating.complement"] = len(complement)
    obs["alternating.supports_all_3"] = all(len(V3.points[q].support()) == 3 for q in complement)
    obs["alternating.nondegenerate"] = not H3.degenerate

    xi = inputs["xi"]
    W = call("spaces.polar_space_symplectic", spaces.polar_space_symplectic, xi)
    obs["w33.points"] = W.point_count
    obs["w33.lines"] = len(W.lines)
    VW = _veronese(call, work, W, 2)
    VP = _veronese(call, work, pg[3], 2)
    HP = call("hyperplanes.hyperplane_from_symplectic", hyperplanes.hyperplane_from_symplectic,
              VP, xi)
    pts = call("hyperplanes.polar_hyperplane", hyperplanes.polar_hyperplane, VW, HP)
    obs["polar_hyperplane.size"] = len(pts)

    base_planes = call("spaces.projective_plane_family", spaces.projective_plane_family, pg[3], 3)
    planes = call("veronese.leaf_plane_family", veronese.leaf_plane_family, VW, base_planes)
    obs["pg33.planes"] = len(base_planes)
    obs["leaf_planes"] = len(planes)
    classes = call("incidence.gamma_plane_classes", incidence.gamma_plane_classes,
                   VW.structure, planes)
    obs["gamma.full_classes"] = len(classes)
    obs["gamma.full_matches_leaves"] = set(classes) == set(VW.leaves.values())

    h = call("hyperplanes.extract_h_function", hyperplanes.extract_h_function, VW, pts)
    HW = hyperplanes.VeroneseHyperplane(VW, pts, h, source="polar-intersection")
    A = call("reduct.build_reduct", reduct.build_reduct, VW, HW)
    truncated = call("reduct.truncated_plane_family", reduct.truncated_plane_family,
                     VW, pts, planes, A.red_of)
    classes = call("incidence.gamma_plane_classes", incidence.gamma_plane_classes,
                   A.structure, truncated)
    leaves = {frozenset(A.red_of[q] for q in leaf - pts) for leaf in VW.leaves.values()}
    leaves.discard(frozenset())
    obs["gamma.reduct_classes"] = len(classes)
    obs["gamma.reduct_matches_leaves"] = set(classes) == leaves

    fano = relabel(_projective_space(call, work, 2, 2), perm["pg22"])
    for key, base in (("fano", fano), ("pg23", pg23)):
        V = _veronese(call, work, base, 2)
        counts = call("configs.classify_all_veblen", configs.classify_all_veblen, V)
        obs[f"veblen.{key}"] = dict(sorted(counts.items()))

    ag23 = call("spaces.affine_space", spaces.affine_space, 2, 3)
    VA = _veronese(call, work, ag23.base, 2)
    induced = call("parallelism.induced_relation", parallelism.induced_relation, VA, ag23)
    euclid = call("parallelism.check_euclid_failure", parallelism.check_euclid_failure, VA, induced)
    obs["induced.classes"] = len(induced)
    obs["induced.class_sizes"] = sorted({len(m) for m in induced.values()})
    obs["euclid.classes_cover"] = euclid.classes_cover
    obs["euclid.per_point_count_is_level"] = euclid.per_point_count_is_level
    obs["euclid.is_parallelism"] = euclid.is_parallelism
    obs["euclid.witness_found"] = euclid.witness is not None
    ag13 = call("spaces.affine_space", spaces.affine_space, 1, 3)
    VA1 = _veronese(call, work, ag13.base, 2)
    search = call("parallelism.search_leaf_closed_parallelism",
                  parallelism.search_leaf_closed_parallelism, VA1)
    obs["leaf_closed.none_found"] = search.none_found
    obs["leaf_closed.exhaustive"] = search.exhaustive
    obs["leaf_closed.certificate"] = search.certificate
    solutions = call("parallelism.counting_identity_solutions",
                     parallelism.counting_identity_solutions, range(2, 51), range(2, 7))
    obs["counting_identity.solutions"] = len(solutions)
    return obs, work


def _veronese(call: Call, work: dict, base: IncidenceStructure, level: int):
    V = call("veronese.build_veronese", veronese.build_veronese, base, level)
    _add(work, "veronese.build_veronese.points", len(V.points))
    return V


def _projective_space(call: Call, work: dict, n: int, p: int) -> IncidenceStructure:
    G = call("spaces.projective_space", spaces.projective_space, n, p)
    _add(work, "spaces.projective_space.lines", len(G.lines))
    return G


def _add(work: dict, key: str, n: int) -> None:
    work[key] = work.get(key, 0) + n


def _scan(obs: dict, work: dict, key: str, layer: str, report: configs.ScanReport) -> None:
    obs[f"{key}.ok"] = report.ok
    obs[f"{key}.checked"] = report.checked
    obs[f"{key}.exhaustive"] = report.exhaustive
    obs[f"{key}.strata"] = None if report.strata is None else list(report.strata)
    _add(work, f"{layer}.checked", report.checked)
    _add(work, f"{layer}.exhaustive", int(report.exhaustive))


PASSES = {"census": census_pass, "reduct": reduct_pass, "build": build_pass}


# Every library call a pass makes, by module.  The per-layer metrics are
# <call>.s and <call>.calls for each, <module>.s for each module, and the
# work counters below; a call a workload does not make reports 0.
LAYER_CALLS = (
    "spaces.projective_space", "spaces.polar_space_quadratic",
    "spaces.polar_space_symplectic", "spaces.projective_plane_family",
    "spaces.affine_space",
    "incidence.enumerate_hyperplanes", "incidence.gamma_plane_classes",
    "veronese.build_veronese", "veronese.leaf_plane_family",
    "hyperplanes.enumerate_hyperplanes_level2", "hyperplanes.verify_characterization",
    "hyperplanes.hyperplane_from_symplectic", "hyperplanes.hyperplane_from_alternating",
    "hyperplanes.polar_hyperplane", "hyperplanes.extract_h_function",
    "reduct.build_reduct", "reduct.classify_directions", "reduct.veblen_subclass_map",
    "reduct.visible_tops", "reduct.recover_veronese", "reduct.net_violation_witness",
    "reduct.truncated_plane_family",
    "configs.check_net_axiom", "configs.check_tamaschke",
    "configs.check_parallelogram_completion", "configs.classify_all_veblen",
    "parallelism.induced_relation", "parallelism.check_euclid_failure",
    "parallelism.search_leaf_closed_parallelism", "parallelism.counting_identity_solutions",
)
MODULES = ("spaces", "incidence", "veronese", "hyperplanes", "reduct", "configs", "parallelism")
WORK_COUNTERS = (
    "incidence.enumerate_hyperplanes.found",
    "hyperplanes.enumerate_hyperplanes_level2.found",
    "veronese.build_veronese.points",
    "spaces.projective_space.lines",
    "reduct.recover_veronese.lines",
    "reduct.net_violation_witness.checked",
    "configs.check_net_axiom.checked", "configs.check_net_axiom.exhaustive",
    "configs.check_tamaschke.checked", "configs.check_tamaschke.exhaustive",
    "configs.check_parallelogram_completion.checked",
    "configs.check_parallelogram_completion.exhaustive",
)


# ---------------------------------------------------------------------------
# recorded values


EXPECTED: dict[str, dict] = {
    "census": {
        "pg32.base_hyperplanes": 15,
        "pg32.veronese_points": 120,
        "pg32.level2_hyperplanes": 1023,
        "q32.base_hyperplanes": 15,
        "q32.veronese_points": 45,
        "q32.level2_hyperplanes": 1023,
        "pg13.enumerated": 5,
        "pg13.constructed": 1,
        "pg13.constructed_subset_of_enumerated": True,
        "pg13.equal": False,
        "pg13.extras_leaf_pencils": 4,
        "pg13.extras_traces_ok": True,
        "pg23.enumerated": 26,
        "pg23.constructed": 13,
        "pg23.constructed_subset_of_enumerated": True,
        "pg23.equal": False,
        "pg23.extras_leaf_pencils": 13,
        "pg23.extras_traces_ok": True,
    },
    "reduct": {
        "hyperplane_points": 280,
        "reduct_points": 540,
        "reduct_lines": 4680,
        "one_leaf": 40,
        "two_leaf": 240,
        "dichotomy": True,
        "two_leaf_splits_in_two": True,
        "veblen_classes": 520,
        "visible_tops": 40,
        "recovered_points": 820,
        "recovered_lines": 5330,
        "recovery_missing_lines": 0,
        "recovery_extra_lines": 0,
        "net_violation_found": False,
        "net_violation_reason": "complete shape enumeration exhausted",
        "net_violation_checked": 157680,
        "net_axiom_ag23.ok": True,
        "net_axiom_ag23.checked": 4194,
        "net_axiom_ag23.exhaustive": True,
        "net_axiom_ag23.strata": None,
        "tamaschke.ok": True,
        "tamaschke.checked": 115560,
        "tamaschke.exhaustive": False,
        "tamaschke.strata": ["apex_in", 0, 27, 540],
        "parallelogram_classes": 50,
        "parallelogram.ok": True,
        "parallelogram.checked": 1587600,
        "parallelogram.exhaustive": False,
        "parallelogram.strata": ["l_class_in", 0, 1, 50],
    },
    "build": {
        "pg53.points": 364, "pg53.lines": 11011,
        "pg43.points": 121, "pg43.lines": 1210,
        "pg33.points": 40, "pg33.lines": 130,
        "pg23.points": 13, "pg23.lines": 13,
        "alternating.complement": 234,
        "alternating.supports_all_3": True,
        "alternating.nondegenerate": True,
        "w33.points": 40,
        "w33.lines": 40,
        "polar_hyperplane.size": 280,
        "pg33.planes": 40,
        "leaf_planes": 1640,
        "gamma.full_classes": 41,
        "gamma.full_matches_leaves": True,
        "gamma.reduct_classes": 40,
        "gamma.reduct_matches_leaves": True,
        "veblen.fano": {"BASE_EMBEDDED": 336, "THREE_POINT_WITH_2M": 42},
        "veblen.pg23": {"BASE_EMBEDDED": 19656, "FOUR_POINT_TRANSLATE": 78,
                        "THREE_POINT_WITH_2M": 312},
        "induced.classes": 4,
        "induced.class_sizes": [30],
        "euclid.classes_cover": True,
        "euclid.per_point_count_is_level": True,
        "euclid.is_parallelism": False,
        "euclid.witness_found": True,
        "leaf_closed.none_found": True,
        "leaf_closed.exhaustive": True,
        "leaf_closed.certificate": "nodes=2;sha256=ac72368a586a18c1",
        "counting_identity.solutions": 0,
    },
}

# The two battery verdicts that fail by design, and the recorded values
# that refute the claim each one states.  Matching them is the correct
# outcome of a pass.
FINDINGS: dict[str, dict] = {
    "census": {
        "claim": "hyperplane-enumeration-equals-symplectic-family",
        "refuted_by": ["pg13.enumerated", "pg13.constructed", "pg13.equal",
                       "pg13.extras_leaf_pencils"],
        "content": "the exhaustive census of V(2,PG(1,3)) finds 5 hyperplanes, "
                   "not only the symplectic one: the other 4 are the leaf "
                   "pencils over the base hyperplanes",
    },
    "reduct": {
        "claim": "net-axiom-fails-in-pg33-reduct",
        "refuted_by": ["net_violation_found", "net_violation_reason",
                       "net_violation_checked"],
        "content": "the complete enumeration of the violating shape over "
                   "GF(3) exhausts 157680 configurations without a witness",
    },
}
