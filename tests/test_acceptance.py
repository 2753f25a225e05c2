"""Acceptance battery: one test per criterion, at the stated tolerances
(exact counts and boolean claims throughout; tolerance zero).

Each test prints one pass/fail line (run pytest with -s to stream them).
Two criteria assert expectations that exhaustive search refutes; they are
implemented as stated and fail honestly, with the counterexample analysis
in the verdict details (see also the verification suites, which carry the
same information machine-readably).
"""

import time

from verogeo import verify as V

from oracles import assert_pinned_verdict


def run_criterion(number, budget_s, suite, claims):
    """Run a suite, print the criterion line, assert its claims, pin each
    verdict's content to tests/battery_report.jsonl, then assert its verdicts."""
    start = time.perf_counter()
    verdicts = V.SUITES[suite]()
    elapsed = time.perf_counter() - start
    ok = all(v.ok for v in verdicts)
    tag = "PASS" if ok else "FAIL"
    names = ", ".join(v.claim for v in verdicts)
    print(f"{tag} criterion {number} [{elapsed:.1f}s < {budget_s}s]: {names}")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"
    assert [v.claim for v in verdicts] == claims, f"criterion {number}: claims {names}"
    for v in verdicts:
        assert_pinned_verdict(v)
    for v in verdicts:
        assert v.ok, (f"criterion {number}: {v.claim} failed on {v.instance}; "
                      f"witness={v.witness!r} details={v.details!r}")
    return verdicts


def test_criterion_01_construction_counts():
    run_criterion(1, 1.0, "construction-counts", [
        "construction-counts-fano", "construction-counts-pg23",
        "construction-leaves", "construction-embeddings"])


def test_criterion_02_hyperplane_characterization_small():
    # stated expectation: the 2^10 subset scan returns exactly the
    # symplectic hyperplane; the honest scan also finds the leaf pencils
    run_criterion(2, 5.0, "hyperplane-characterization", [
        "symplectic-hyperplanes-are-hyperplanes",
        "hyperplane-enumeration-equals-symplectic-family",
        "leaf-trace-enumeration-pg23"])


def test_criterion_03_symplectic_hyperplane_mid():
    run_criterion(3, 60.0, "symplectic-hyperplane", [
        "symplectic-hyperplane-pg33-sizes", "symplectic-hyperplane-spiky-not-flappy"])


def test_criterion_04_negative_control():
    run_criterion(4, 5.0, "negative-control", ["orthogonal-trace-not-subspace"])


def test_criterion_05_configuration_classification():
    run_criterion(5, 120.0, "veblen-classification", [
        "veblen-types-v2-fano", "veblen-types-v2-pg23",
        "quadrangle-and-crossing-shapes-pg23"])


def test_criterion_06_net_axiom():
    # stated expectation: holds on V(2, AG(2,3)) and fails on the PG(3,3)
    # reduct; over GF(3) the violating shape does not exist, so the second
    # half fails honestly (certificate in the verdict details)
    run_criterion(6, 300.0, "net-axiom", [
        "net-axiom-holds-v2-ag23", "net-axiom-fails-in-pg33-reduct"])


def test_criterion_07_recovery():
    run_criterion(7, 600.0, "recovery", [
        "reduct-recovers-ambient", "parallelism-reconstruction-pg33",
        "declared-double-triples-pg33"])


def test_criterion_08_direction_taxonomy():
    run_criterion(8, 60.0, "direction-taxonomy", [
        "direction-taxonomy-pg33", "maximal-strong-are-leaf-reducts-pg33"])


def test_criterion_09_alternating_level_k():
    run_criterion(9, 60.0, "alternating-level-k", ["alternating-hyperplane-level3"])


def test_criterion_10_polar_pipeline():
    run_criterion(10, 120.0, "polar-pipeline", [
        "symplectic-polar-space-w33", "polar-intersection-hyperplane",
        "gamma-chains-recover-leaves", "veronese-restriction",
        "veronese-line-monotonicity"])


def test_criterion_11_appendix():
    run_criterion(11, 60.0, "parallelism-appendix", [
        "induced-relation-euclid-failure", "no-leaf-closed-parallelism-v2-ag13",
        "direction-counting-identity", "veblen-parallelism-is-leaf-preparallelism"])


def test_criterion_12_affine_conditions():
    run_criterion(12, 600.0, "affine-conditions", [
        "tamaschke-on-reduct", "parallelogram-completion-on-reduct"])
