import json

import pytest

from verogeo import cli
from verogeo.cli import main
from verogeo.configs import FalsificationError
from verogeo.spaces import projective_space


def run(argv):
    return main(argv)


def test_build_pg(tmp_path):
    out = tmp_path / "pg33.json"
    assert run(["build", "pg", "3", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["point_count"] == 40
    assert len(data["lines"]) == 130


@pytest.mark.parametrize("n,p", [("0", "3"), ("2", "4")])
def test_build_pg_refuses_bad_arguments(tmp_path, capsys, n, p):
    out = tmp_path / "pg.json"
    assert run(["build", "pg", n, p, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_build_quadric(tmp_path):
    out = tmp_path / "q.json"
    assert run(["build", "quadric", "3", "3", "--quadric-type", "hyperbolic",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["point_count"] == 16
    assert len(data["lines"]) == 8


def test_quadric_without_lines_rejected(tmp_path, capsys):
    rc = run(["build", "quadric", "3", "3", "--quadric-type", "elliptic",
              "--out", str(tmp_path / "q.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_build_elliptic_quadric_over_gf2(tmp_path):
    out = tmp_path / "q.json"
    assert run(["build", "quadric", "5", "2", "--quadric-type", "elliptic",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["point_count"] == 27
    assert len(data["lines"]) == 45


def test_elliptic_quadric_over_gf2_without_lines_rejected(tmp_path, capsys):
    rc = run(["build", "quadric", "3", "2", "--quadric-type", "elliptic",
              "--out", str(tmp_path / "q.json")])
    assert rc == 2
    assert "quadric carries no lines" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["w", "3", "3"],
                                  ["quadric", "4", "3", "--quadric-type", "parabolic"]])
def test_build_w33_and_the_parabolic_quadric(tmp_path, argv):
    # W(3,3) and Q(4,3) are dual generalized quadrangles: 40 points, 40 lines
    out = tmp_path / "g.json"
    assert run(["build"] + argv + ["--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["point_count"] == 40
    assert len(data["lines"]) == 40


@pytest.mark.parametrize("argv,message", [
    (["w", "2", "3"], "symplectic polar spaces need even"),
    (["quadric", "3", "3", "--quadric-type", "parabolic"], "parabolic quadrics need odd"),
    (["quadric", "2", "3"], "hyperbolic quadrics need even"),
    (["quadric", "2", "3", "--quadric-type", "elliptic"], "elliptic quadrics need even"),
])
def test_build_refuses_a_vector_dimension_of_the_wrong_parity(tmp_path, capsys, argv,
                                                               message):
    out = tmp_path / "g.json"
    assert run(["build"] + argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_build_without_out_prints_the_json(capsys):
    assert run(["build", "pg", "1", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["point_count"] == 4
    assert data["lines"] == [[0, 1, 2, 3]]


@pytest.mark.parametrize("token", ["quadric:3:3:foo", "bogus:1"])
def test_veronese_refuses_a_bad_named_base(capsys, token):
    assert run(["veronese", "--base", token, "--level", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_commands_refuse_a_file_of_the_wrong_kind(tmp_path, capsys):
    base, v = tmp_path / "base.json", tmp_path / "v.json"
    assert run(["build", "pg", "1", "3", "--out", str(base)]) == 0
    assert run(["veronese", "--base", str(base), "--level", "2", "--out", str(v)]) == 0
    capsys.readouterr()
    assert run(["verify", "--suite", "recovery", "--space", str(v)]) == 2
    assert "net-axiom suite only" in capsys.readouterr().err
    assert run(["recover", "--reduct", str(v)]) == 2
    assert "does not hold a reduct" in capsys.readouterr().err
    assert run(["parallelism-search", "--space", str(base)]) == 2
    assert "does not hold a Veronese space" in capsys.readouterr().err


def test_full_pipeline(tmp_path):
    v = tmp_path / "v.json"
    h = tmp_path / "h.json"
    r = tmp_path / "r.json"
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"p": 3, "matrix": [[0, 1], [2, 0]]}))

    assert run(["veronese", "--base", "pg:1:3", "--level", "2",
                "--out", str(v)]) == 0
    assert run(["hyperplane", "--space", str(v), "--form", str(form),
                "--out", str(h)]) == 0
    hyp = json.loads(h.read_text())
    assert len(hyp["points"]) == 4

    assert run(["reduct", "--space", str(v), "--hyperplane", str(h),
                "--out", str(r)]) == 0
    red = json.loads(r.read_text())
    assert len(red["proper_points"]) == 6
    assert len(red["lines"]) == 4
    # the double horizon line is read off the four visible tops
    out = tmp_path / "rec.json"
    assert run(["recover", "--reduct", str(r), "--check-against", str(v),
                "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["points"] == 10 and rec["lines"] == 5
    assert rec["lines_match"] and rec["ambient_agrees"]


def test_recover_on_pg33(tmp_path):
    v = tmp_path / "v.json"
    h = tmp_path / "h.json"
    r = tmp_path / "r.json"
    out = tmp_path / "rec.json"
    form = tmp_path / "form.json"
    form.write_text(json.dumps(
        {"p": 3, "matrix": [[0, 1, 0, 0], [2, 0, 0, 0],
                            [0, 0, 0, 1], [0, 0, 2, 0]]}))
    assert run(["veronese", "--base", "pg:3:3", "--level", "2",
                "--out", str(v)]) == 0
    assert run(["hyperplane", "--space", str(v), "--form", str(form),
                "--out", str(h)]) == 0
    assert run(["reduct", "--space", str(v), "--hyperplane", str(h),
                "--out", str(r)]) == 0
    assert run(["recover", "--reduct", str(r), "--check-against", str(v),
                "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["points"] == 820 and rec["lines"] == 5330
    assert rec["lines_match"] and rec["ambient_agrees"]


def test_parallelism_search_cli(tmp_path):
    v = tmp_path / "v.json"
    out = tmp_path / "s.json"
    assert run(["veronese", "--base", "ag:1:3", "--level", "2",
                "--out", str(v)]) == 0
    assert run(["parallelism-search", "--space", str(v), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["found"] is False
    assert data["exhaustive"] is True


def test_parallelism_search_has_no_budget_option(tmp_path):
    v = tmp_path / "v.json"
    assert run(["veronese", "--base", "ag:1:3", "--level", "2",
                "--out", str(v)]) == 0
    assert run(["parallelism-search", "--budget", "5", "--space", str(v)]) == 2


def test_verify_single_suite(tmp_path, capsys):
    rc = run(["verify", "--suite", "construction-counts"])
    captured = capsys.readouterr()
    assert rc == 0
    rows = [json.loads(line) for line in captured.out.splitlines() if line]
    assert all(r["ok"] for r in rows)
    assert {r["claim"] for r in rows} == {
        "construction-counts-fano", "construction-counts-pg23",
        "construction-leaves", "construction-embeddings"}


def test_verify_net_axiom_on_reduct_space(tmp_path, capsys):
    # the reduct carries no Net violation over GF(3): exit 0 with the
    # exhaustion certificate in the details
    v = tmp_path / "v.json"
    h = tmp_path / "h.json"
    r = tmp_path / "r.json"
    form = tmp_path / "form.json"
    form.write_text(json.dumps(
        {"p": 3, "matrix": [[0, 1, 0, 0], [2, 0, 0, 0],
                            [0, 0, 0, 1], [0, 0, 2, 0]]}))
    run(["veronese", "--base", "pg:3:3", "--level", "2", "--out", str(v)])
    run(["hyperplane", "--space", str(v), "--form", str(form), "--out", str(h)])
    run(["reduct", "--space", str(v), "--hyperplane", str(h), "--out", str(r)])
    rc = run(["verify", "--suite", "net-axiom", "--space", str(r)])
    captured = capsys.readouterr()
    verdict = json.loads(captured.out.splitlines()[-1])
    assert rc == 0
    assert verdict["ok"]
    assert verdict["details"]["reason"] == "complete shape enumeration exhausted"


def test_reduct_file_without_hyperplane_exits_2(tmp_path, capsys):
    v = tmp_path / "v.json"
    h = tmp_path / "h.json"
    r = tmp_path / "r.json"
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"p": 3, "matrix": [[0, 1], [2, 0]]}))
    run(["veronese", "--base", "pg:1:3", "--level", "2", "--out", str(v)])
    run(["hyperplane", "--space", str(v), "--form", str(form), "--out", str(h)])
    run(["reduct", "--space", str(v), "--hyperplane", str(h), "--out", str(r)])
    data = json.loads(r.read_text())
    del data["hyperplane"]
    r.write_text(json.dumps(data))
    capsys.readouterr()
    rc = run(["verify", "--suite", "net-axiom", "--space", str(r)])
    assert rc == 2
    assert "hyperplane" in capsys.readouterr().err


def test_reduct_refuses_a_point_set_that_is_not_a_hyperplane(tmp_path, capsys):
    # one point of V(2, PG(1,3)) misses most blocks: no hyperplane to delete
    v = tmp_path / "v.json"
    h = tmp_path / "h.json"
    run(["veronese", "--base", "pg:1:3", "--level", "2", "--out", str(v)])
    h.write_text(json.dumps({"points": [0]}))
    capsys.readouterr()
    rc = run(["reduct", "--space", str(v), "--hyperplane", str(h),
              "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "not a hyperplane" in capsys.readouterr().err


def test_base_file_without_lines_exits_2(tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"point_count": 3}))
    rc = run(["veronese", "--base", str(base), "--level", "2"])
    assert rc == 2
    assert "'lines'" in capsys.readouterr().err


@pytest.mark.parametrize("data,field", [
    ({"point_count": "x", "lines": [[0, 1, 2]]}, "point_count"),
    ({"point_count": True, "lines": []}, "point_count"),
    ({"point_count": 3, "lines": [[0, 1, "a"]]}, "lines"),
    ({"point_count": 3, "lines": 7}, "lines"),
    ({"point_count": 3, "lines": [[0, 1, 2]], "labels": [0, 1, 2]}, "labels"),
])
def test_base_file_with_a_mistyped_field_exits_2(tmp_path, capsys, data, field):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(data))
    assert run(["veronese", "--base", str(base), "--level", "2"]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("labels,message", [
    ({"0": {"multiset": [[0, "a"]]}},
     "error: labels: a multiset must be a list of [point, multiplicity] integer pairs, "
     "point >= 0 and multiplicity >= 1, got [[0, 'a']]"),
    ({"x": [0]}, "error: labels must be keyed by point indices 0..2, got 'x'"),
])
def test_base_file_with_a_bad_label_exits_2(tmp_path, capsys, labels, message):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"point_count": 3, "lines": [[0, 1, 2]], "labels": labels}))
    assert run(["veronese", "--base", str(base), "--level", "2"]) == 2
    assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize("form", [
    {"p": 3, "matrix": [[0, 1], [2, 0]]},
    {"p": 3, "arity": 2, "dim": 2, "coeffs": {"0,1": 1}},
], ids=["symplectic", "alternating"])
def test_base_labelled_in_part_exits_2_naming_the_point(tmp_path, capsys, form):
    # PG(1,3) with the label of point 0 alone: the space builds, and a form
    # read on its coordinates names the first unlabelled point
    base, v, f = tmp_path / "base.json", tmp_path / "v.json", tmp_path / "form.json"
    data = projective_space(1, 3).to_json()
    data["labels"] = {"0": data["labels"]["0"]}
    base.write_text(json.dumps(data))
    f.write_text(json.dumps(form))
    assert run(["veronese", "--base", str(base), "--level", "2", "--out", str(v)]) == 0
    capsys.readouterr()
    rc = run(["hyperplane", "--space", str(v), "--form", str(f),
              "--out", str(tmp_path / "h.json")])
    assert rc == 2
    assert "base point 1 carries no coordinate label" in capsys.readouterr().err
    assert not (tmp_path / "h.json").exists()


def test_base_with_a_repeated_line_exits_2(tmp_path, capsys):
    # the Fano plane with one line listed twice is no partial linear space
    base = tmp_path / "base.json"
    data = projective_space(2, 2).to_json()
    data["lines"].append(data["lines"][0])
    base.write_text(json.dumps(data))
    out = tmp_path / "v.json"
    rc = run(["veronese", "--base", str(base), "--level", "2", "--out", str(out)])
    assert rc == 2
    assert "double_joined" in capsys.readouterr().err
    assert not out.exists()


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    def lookup_fails(names):
        raise KeyError("internal")
    monkeypatch.setattr(cli.verify_mod, "run_suites", lookup_fails)
    with pytest.raises(KeyError):
        run(["verify", "--suite", "construction-counts"])


def test_unknown_flag_exit_2(capsys):
    assert run(["verify", "--no-such-flag"]) == 2


def test_unknown_suite_exit_2(capsys):
    assert run(["verify", "--suite", "nonsense"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_report_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    rc = run(["verify", "--suite", "negative-control", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    rc = run(["report", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "pass" in captured.out


def test_reports_are_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    run(["verify", "--suite", "construction-counts", "--out", str(a)])
    run(["verify", "--suite", "construction-counts", "--out", str(b)])
    strip = lambda text: [
        {k: v for k, v in json.loads(line).items() if k != "runtime_s"}
        for line in text.splitlines() if line]
    assert strip(a.read_text()) == strip(b.read_text())


def test_hyperplane_from_arity2_alternating_form(tmp_path):
    v = tmp_path / "v.json"
    h = tmp_path / "h.json"
    form = tmp_path / "form.json"
    form.write_text(json.dumps(
        {"p": 3, "arity": 2, "dim": 2, "coeffs": {"0,1": 1}}))
    assert run(["veronese", "--base", "pg:1:3", "--level", "2",
                "--out", str(v)]) == 0
    assert run(["hyperplane", "--space", str(v), "--form", str(form),
                "--out", str(h)]) == 0
    assert len(json.loads(h.read_text())["points"]) == 4


def test_verify_net_axiom_on_veronese_space(tmp_path, capsys):
    v = tmp_path / "va.json"
    run(["veronese", "--base", "ag:2:3", "--level", "2", "--out", str(v)])
    rc = run(["verify", "--suite", "net-axiom", "--space", str(v)])
    captured = capsys.readouterr()
    verdict = json.loads(captured.out.splitlines()[-1])
    assert rc == 0
    assert verdict["ok"]
    assert verdict["checked"] > 0


def degenerate_pg23_reduct(tmp_path):
    """Write V(2,PG(2,3)) minus the hyperplane of a degenerate form (every
    alternating form on a 3-dimensional space is degenerate); return the
    reduct file."""
    v = tmp_path / "v.json"
    h = tmp_path / "h.json"
    r = tmp_path / "r.json"
    form = tmp_path / "form.json"
    form.write_text(json.dumps(
        {"p": 3, "matrix": [[0, 1, 0], [2, 0, 0], [0, 0, 0]]}))
    assert run(["veronese", "--base", "pg:2:3", "--level", "2",
                "--out", str(v)]) == 0
    assert run(["hyperplane", "--space", str(v), "--form", str(form),
                "--out", str(h)]) == 0
    assert json.loads(h.read_text())["degenerate"]
    assert run(["reduct", "--space", str(v), "--hyperplane", str(h),
                "--out", str(r)]) == 0
    return r


def test_recover_refuses_degenerate_hyperplane(tmp_path, capsys):
    # the recovery must refuse a degenerate hyperplane with a diagnostic,
    # read from the hyperplane's points whatever flag the file stores
    r = degenerate_pg23_reduct(tmp_path)
    data = json.loads(r.read_text())
    for flag in (True, False):
        data["hyperplane"]["degenerate"] = flag
        r.write_text(json.dumps(data))
        assert run(["recover", "--reduct", str(r)]) == 2
        assert "nondegenerate" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["recover", "--reduct"], ["verify", "--suite", "net-axiom", "--space"]])
def test_reduct_file_with_inconsistent_space_exits_2(tmp_path, capsys, command):
    r = degenerate_pg23_reduct(tmp_path)
    data = json.loads(r.read_text())
    data["space"]["structure"]["lines"] = data["space"]["structure"]["lines"][:5]
    r.write_text(json.dumps(data))
    assert run(command + [str(r)]) == 2
    assert "inconsistent" in capsys.readouterr().err


def pg13_reduct_file(tmp_path):
    """Write V(2,PG(1,3)) minus its symplectic hyperplane; return the
    reduct file."""
    v, h, r = tmp_path / "v.json", tmp_path / "h.json", tmp_path / "r.json"
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"p": 3, "matrix": [[0, 1], [2, 0]]}))
    assert run(["veronese", "--base", "pg:1:3", "--level", "2", "--out", str(v)]) == 0
    assert run(["hyperplane", "--space", str(v), "--form", str(form), "--out", str(h)]) == 0
    assert run(["reduct", "--space", str(v), "--hyperplane", str(h), "--out", str(r)]) == 0
    return r


TAMPERS = {
    "proper_points": lambda rows: rows[::-1],
    "lines": lambda rows: rows[:1],
    "classes": lambda rows: dict(zip(rows, [*rows.values()][1:] + [*rows.values()][:1])),
}


@pytest.mark.parametrize("key", sorted(TAMPERS))
@pytest.mark.parametrize("command", [
    ["recover", "--reduct"], ["verify", "--suite", "net-axiom", "--space"]])
def test_reduct_file_with_tampered_rows_exits_2(tmp_path, capsys, command, key):
    # the space and hyperplane rebuild the reduct; rows stored beside them
    # that differ from the rebuild make the file inconsistent
    r = pg13_reduct_file(tmp_path)
    assert run(command + [str(r)]) == 0
    data = json.loads(r.read_text())
    tampered = TAMPERS[key](data[key])
    assert tampered != data[key]
    data[key] = tampered
    r.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(command + [str(r)]) == 2
    assert f"inconsistent: stored {key} differ" in capsys.readouterr().err


def test_verify_net_axiom_on_degenerate_reduct(tmp_path, capsys):
    # the leaf of the form's radical point lies in the hyperplane; the
    # shape search still runs to exhaustion
    r = degenerate_pg23_reduct(tmp_path)
    rc = run(["verify", "--suite", "net-axiom", "--space", str(r)])
    verdict = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 0
    assert verdict["ok"] is True
    assert verdict["details"]["configurations_checked"] == 540


def test_hyperplane_rejects_quadratic_form(tmp_path, capsys):
    v = tmp_path / "v.json"
    form = tmp_path / "form.json"
    form.write_text(json.dumps(
        {"p": 3, "kind": "quadratic", "matrix": [[1, 0], [0, 1]]}))
    run(["veronese", "--base", "pg:1:3", "--level", "2", "--out", str(v)])
    rc = run(["hyperplane", "--space", str(v), "--form", str(form),
              "--out", str(tmp_path / "h.json")])
    assert rc == 2


@pytest.mark.parametrize("form,message", [
    ({"p": 3, "matrix": [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]]},
     "dimension 4"),
    ({"p": 5, "matrix": [[0, 1, 0], [4, 0, 0], [0, 0, 0]]}, "GF(5) does not match"),
    ({"p": 5, "arity": 3, "dim": 3, "coeffs": {"0,1,2": 1}}, "GF(5) does not match"),
], ids=["dim4", "gf5", "gf5-arity3"])
def test_hyperplane_refuses_a_form_that_does_not_match_the_base(tmp_path, capsys, form,
                                                                message):
    v = tmp_path / "v.json"
    f = tmp_path / "form.json"
    f.write_text(json.dumps(form))
    level = str(form.get("arity", 2))
    assert run(["veronese", "--base", "pg:2:3", "--level", level, "--out", str(v)]) == 0
    rc = run(["hyperplane", "--space", str(v), "--form", str(f),
              "--out", str(tmp_path / "h.json")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "h.json").exists()


def test_hyperplane_on_a_quadric_base(tmp_path, capsys):
    # the form applies to the quadric's coordinates; the Net witness then
    # refuses the reduct, whose visible tops are lines and not leaves
    v, h, r = tmp_path / "v.json", tmp_path / "h.json", tmp_path / "r.json"
    f = tmp_path / "form.json"
    f.write_text(json.dumps({"p": 3, "matrix": [[0, 1, 0, 0], [2, 0, 0, 0],
                                                [0, 0, 0, 1], [0, 0, 2, 0]]}))
    assert run(["veronese", "--base", "quadric:3:3:hyperbolic", "--level", "2",
                "--out", str(v)]) == 0
    assert run(["hyperplane", "--space", str(v), "--form", str(f), "--out", str(h)]) == 0
    assert run(["reduct", "--space", str(v), "--hyperplane", str(h), "--out", str(r)]) == 0
    capsys.readouterr()
    assert run(["verify", "--suite", "net-axiom", "--space", str(r)]) == 2
    assert "4 visible tops" in capsys.readouterr().err


@pytest.mark.parametrize("p", [5, 7])
def test_hyperplane_refuses_a_form_over_another_field_on_a_quadric_base(tmp_path, capsys, p):
    # Q+(3,3) shows GF(3) on its lines; a symplectic form of the right
    # dimension over GF(5) or GF(7) is an input error, not a failed check
    v, h, f = tmp_path / "v.json", tmp_path / "h.json", tmp_path / "form.json"
    f.write_text(json.dumps({"p": p, "matrix": [[0, 1, 0, 0], [p - 1, 0, 0, 0],
                                                [0, 0, 0, 1], [0, 0, p - 1, 0]]}))
    assert run(["veronese", "--base", "quadric:3:3:hyperbolic", "--level", "2",
                "--out", str(v)]) == 0
    assert run(["hyperplane", "--space", str(v), "--form", str(f), "--out", str(h)]) == 2
    assert f"GF({p}) does not match the base over GF(3)" in capsys.readouterr().err
    assert not h.exists()


def test_hyperplane_from_arity1_alternating_form(tmp_path, capsys):
    # a linear form is the alternating route at level 1 and is refused,
    # with its arity named, at level 2
    v1, v2, f = tmp_path / "v1.json", tmp_path / "v2.json", tmp_path / "form.json"
    h = tmp_path / "h.json"
    f.write_text(json.dumps({"p": 3, "arity": 1, "dim": 2, "coeffs": {"0": 1}}))
    assert run(["veronese", "--base", "pg:1:3", "--level", "1", "--out", str(v1)]) == 0
    assert run(["hyperplane", "--space", str(v1), "--form", str(f), "--out", str(h)]) == 0
    assert json.loads(h.read_text())["points"] == [0]
    h.unlink()
    assert run(["veronese", "--base", "pg:1:3", "--level", "2", "--out", str(v2)]) == 0
    capsys.readouterr()
    assert run(["hyperplane", "--space", str(v2), "--form", str(f), "--out", str(h)]) == 2
    assert "arity 1 does not match level 2" in capsys.readouterr().err
    assert not h.exists()


def test_recover_refuses_a_level3_reduct(tmp_path, capsys):
    # V(3,PG(2,3)) minus the determinant hyperplane: the double-line read
    # is level-2 structure, so the recovery refuses it as input out of scope
    v, h, r = tmp_path / "v.json", tmp_path / "h.json", tmp_path / "r.json"
    f = tmp_path / "form.json"
    f.write_text(json.dumps({"p": 3, "arity": 3, "dim": 3, "coeffs": {"0,1,2": 1}}))
    assert run(["veronese", "--base", "pg:2:3", "--level", "3", "--out", str(v)]) == 0
    assert run(["hyperplane", "--space", str(v), "--form", str(f), "--out", str(h)]) == 0
    assert run(["reduct", "--space", str(v), "--hyperplane", str(h), "--out", str(r)]) == 0
    data = json.loads(r.read_text())
    assert (len(data["proper_points"]), len(data["lines"])) == (234, 936)
    capsys.readouterr()
    assert run(["recover", "--reduct", str(r), "--out", str(tmp_path / "rec.json")]) == 2
    assert "3 visible tops" in capsys.readouterr().err
    assert not (tmp_path / "rec.json").exists()


def test_falsification_exits_1_with_its_message(monkeypatch, capsys):
    def falsified(n, p):
        raise FalsificationError(f"PG({n},{p}) lost a line")
    monkeypatch.setattr(cli, "projective_space", falsified)
    rc = run(["build", "pg", "3", "3"])
    assert rc == 1
    assert "falsified: PG(3,3) lost a line" in capsys.readouterr().err
