"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench

They take about two minutes, most of it in the battery comparison.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from spans import (BestTimes, Span, Tracer, layer_metrics, self_times, untraced,  # noqa: E402
                   well_formed)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(W.PASSES))
def test_two_seeds_give_the_recorded_values(workload):
    runs = [W.PASSES[workload](W.make_inputs(workload, seed), untraced) for seed in (0, 7)]
    assert runs[0][0] == runs[1][0] == W.EXPECTED[workload]
    assert runs[0][1] == runs[1][1]


def test_seeds_change_the_inputs():
    for workload in W.PASSES:
        a, b = W.make_inputs(workload, 0), W.make_inputs(workload, 7)
        assert a["perm"] != b["perm"]
    assert W.make_inputs("reduct", 0)["xi"] != W.make_inputs("reduct", 7)["xi"]


def test_traced_span_tree_is_well_formed():
    tracer = Tracer()
    inputs = W.make_inputs("census", 3)
    for pass_id in (1, 3):
        tracer.begin_pass(pass_id)
        W.census_pass(inputs, tracer.call)
        tracer.end_pass()
    assert well_formed(tracer.spans) == []
    names = {s.name for s in tracer.spans if s.parent is not None}
    assert names <= set(W.LAYER_CALLS)
    for pass_id, times in self_times(tracer.spans).items():
        root = next(s for s in tracer.spans if s.parent is None and s.pass_id == pass_id)
        assert sum(times.values()) == pytest.approx(root.end - root.start, abs=1e-9)
        assert times["pass"] >= 0
    layers = layer_metrics(tracer.spans)
    assert layers["hyperplanes.s"] > 0.5 * layers["traced.wall_s"]


def test_malformed_span_trees_are_reported():
    tracer = Tracer()
    tracer.begin_pass(0)
    tracer.call("spaces.projective_space", lambda: None)
    tracer.end_pass()
    child = tracer.spans[1]
    child.end = tracer.spans[0].end + 1.0
    assert well_formed(tracer.spans) == ["span 1 lies outside its pass"]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_the_declared_metrics(trace, section):
    done = _run(ROOT, "--workload", "census", "--seed", "5", "--seconds", "1",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    out = ROOT / ".perfbench-results"
    record = json.loads((out / f"census-seed5-trace{trace}.json").read_text())
    assert {"commit", "nproc", "python", "seed"} <= set(record)
    if trace == "1":
        lines = (out / "census-seed5-trace1.spans.jsonl").read_text().splitlines()
        spans = [Span(**json.loads(line)) for line in lines]
        assert well_formed(spans) == []
        assert sum(s.parent is None for s in spans) == record["passes"] // 2


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "census", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_seed_zero_matches_the_battery_verdicts():
    """Seed 0 is the battery's own instance; its recorded values must equal
    the details of the matching `verogeo verify` verdicts."""
    from verogeo.verify import SUITES

    def verdicts(*suites):
        return {v.claim: v for name in suites for v in SUITES[name]()}

    E = W.EXPECTED["census"]
    v = verdicts("hyperplane-characterization")
    sound = v["symplectic-hyperplanes-are-hyperplanes"]
    assert sound.details["constructed"] == E["pg13.constructed"]
    refuted = v["hyperplane-enumeration-equals-symplectic-family"]
    assert not refuted.ok and not E["pg13.equal"]
    assert refuted.witness["enumerated"] == E["pg13.enumerated"]
    assert sum(e["leaf_pencil_over"] is not None
               for e in refuted.witness["extras"]) == E["pg13.extras_leaf_pencils"]
    d = v["leaf-trace-enumeration-pg23"].details
    assert (d["enumerated"], d["constructed"]) == (E["pg23.enumerated"], E["pg23.constructed"])
    assert d["extras_are_leaf_pencils"] == (E["pg23.extras_leaf_pencils"]
                                            == E["pg23.enumerated"] - E["pg23.constructed"])

    E = W.EXPECTED["reduct"]
    v = verdicts("symplectic-hyperplane", "direction-taxonomy", "recovery", "net-axiom",
                 "affine-conditions")
    assert v["symplectic-hyperplane-pg33-sizes"].ok
    assert (E["hyperplane_points"], E["reduct_points"]) == (280, 540)
    d = v["direction-taxonomy-pg33"].details
    assert (d["one_leaf"], d["two_leaf"], d["dichotomy"], d["two_leaf_splits_in_two"]) == (
        E["one_leaf"], E["two_leaf"], E["dichotomy"], E["two_leaf_splits_in_two"])
    d = v["reduct-recovers-ambient"].details
    assert (d["points"], d["lines"], d["missing_lines"], d["extra_lines"]) == (
        E["recovered_points"], E["recovered_lines"], E["recovery_missing_lines"],
        E["recovery_extra_lines"])
    net = v["net-axiom-holds-v2-ag23"]
    assert net.ok == E["net_axiom_ag23.ok"]
    assert net.details["configurations_checked"] == E["net_axiom_ag23.checked"]
    refuted = v["net-axiom-fails-in-pg33-reduct"]
    assert not refuted.ok
    assert (refuted.witness["found"], refuted.witness["reason"],
            refuted.witness["configurations_checked"]) == (
        E["net_violation_found"], E["net_violation_reason"], E["net_violation_checked"])
    d = v["tamaschke-on-reduct"].details
    assert (d["checked"], d["exhaustive"], list(d["strata"])) == (
        E["tamaschke.checked"], E["tamaschke.exhaustive"], E["tamaschke.strata"])
    # The benchmark scans a share of the parallelogram classes, so only the
    # verdict, not the count, is comparable.
    assert v["parallelogram-completion-on-reduct"].ok == E["parallelogram.ok"]

    E = W.EXPECTED["build"]
    v = verdicts("alternating-level-k", "polar-pipeline", "veblen-classification",
                 "parallelism-appendix")
    d = v["alternating-hyperplane-level3"].details
    assert (d["complement"], d["nondegenerate"]) == (E["alternating.complement"],
                                                     E["alternating.nondegenerate"])
    assert v["symplectic-polar-space-w33"].ok
    assert v["polar-intersection-hyperplane"].details["size"] == E["polar_hyperplane.size"]
    d = v["gamma-chains-recover-leaves"].details
    assert (d["full_space"], d["reduct"]) == (E["gamma.full_matches_leaves"],
                                              E["gamma.reduct_matches_leaves"])
    assert v["veblen-types-v2-fano"].details["counts"] == E["veblen.fano"]
    assert v["veblen-types-v2-pg23"].details["counts"] == E["veblen.pg23"]
    assert v["induced-relation-euclid-failure"].details["classes"] == E["induced.classes"]
    assert (v["no-leaf-closed-parallelism-v2-ag13"].details["certificate"]
            == E["leaf_closed.certificate"])
    assert v["direction-counting-identity"].ok == (E["counting_identity.solutions"] == 0)


def test_best_times_keep_each_calls_fastest_time():
    best = BestTimes()
    for delay in (0.02, 0.0, 0.01):
        best.begin_pass()
        best.call("a", time.sleep, delay)
        best.call("b", time.sleep, 0.02 - delay)
        best.end_pass()
    assert [k for k in best.calls] == [(0, "a"), (1, "b")]
    assert best.calls[(0, "a")][0] < 0.005 and best.calls[(1, "b")][0] < 0.005
    wall, cpu = best.pass_seconds()
    assert 0 <= wall < 0.01 and 0 <= cpu < 0.01
