"""Command-line interface: build geometries, run verification suites, and
emit machine-readable reports.

Exit codes: 0 when every requested check passes, 1 when a check fails
(the report names the claim and carries the witness, or counts the
missing and extra lines of a recovery; a falsification is named on
stderr), 2 for usage or capacity errors, a Veronese or reduct file whose
stored data differ from its rebuild included.  Reports on equal inputs are
identical across runs once each verdict's runtime_s is dropped.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Optional

from . import verify as verify_mod
from .algebra import (AlternatingMultiForm, BilinearForm, QuadraticForm,
                      standard_symplectic)
from .hyperplanes import (VeroneseHyperplane, extract_h_function,
                          hyperplane_from_alternating,
                          hyperplane_from_symplectic)
from .incidence import CapacityError, IncidenceStructure
from .reduct import (AffineReduct, build_reduct, net_violation_witness,
                     recover_veronese)
from .configs import FalsificationError, check_net_axiom
from .parallelism import search_leaf_closed_parallelism
from .spaces import (affine_space, polar_space_quadratic,
                     polar_space_symplectic, projective_space)
from .veronese import VeroneseSpace, build_veronese


class UsageError(RuntimeError):
    pass


def _write_json(data: dict, path: Optional[str]) -> None:
    text = json.dumps(data, sort_keys=True, indent=1)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _standard_quadric(n: int, p: int, kind: str) -> QuadraticForm:
    dim = n + 1
    M = [[0] * dim for _ in range(dim)]
    if kind == "hyperbolic":
        if dim % 2:
            raise UsageError("hyperbolic quadrics need even vector dimension")
        for i in range(0, dim, 2):
            M[i][i + 1] = 1
    elif kind == "parabolic":
        if dim % 2 == 0:
            raise UsageError("parabolic quadrics need odd vector dimension")
        M[0][0] = 1
        for i in range(1, dim, 2):
            M[i][i + 1] = 1
    elif kind == "elliptic":
        if dim % 2:
            raise UsageError("elliptic quadrics need even vector dimension")
        M[0][0] = 1
        if p == 2:  # x0^2 + x0 x1 + x1^2 is anisotropic over GF(2)
            M[0][1] = M[1][1] = 1
        else:
            M[1][1] = -next(a for a in range(2, p)
                            if all(b * b % p != a for b in range(p))) % p
        for i in range(2, dim, 2):
            M[i][i + 1] = 1
    else:
        raise UsageError(f"unknown quadric type {kind!r}")
    return QuadraticForm(p, tuple(tuple(r) for r in M))


def _build_named(kind: str, n: int, p: int, quadric_type: str = "hyperbolic"
                 ) -> IncidenceStructure:
    if kind == "pg":
        return projective_space(n, p)
    if kind == "ag":
        return affine_space(n, p).base
    if kind == "w":
        if (n + 1) % 2:
            raise UsageError("symplectic polar spaces need even vector dimension")
        return polar_space_symplectic(standard_symplectic(n + 1, p))
    # kind is "quadric": argparse choices and _load_base admit no other
    structure, _kept = polar_space_quadratic(_standard_quadric(n, p, quadric_type))
    return structure


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


@contextmanager
def _fields_of(path: str):
    """A key missing from a loaded file is a usage error naming the key."""
    try:
        yield
    except KeyError as exc:
        raise UsageError(f"{path} lacks the key {exc}") from None


def _load_base(token: str) -> IncidenceStructure:
    if ":" in token:
        parts = token.split(":")
        kind = parts[0]
        if kind in ("pg", "ag", "w") and len(parts) == 3:
            return _build_named(kind, int(parts[1]), int(parts[2]))
        if kind == "quadric" and len(parts) == 4:
            return _build_named(kind, int(parts[1]), int(parts[2]), parts[3])
        raise UsageError(f"bad named space {token!r}")
    with _fields_of(token):
        return IncidenceStructure.from_json(_read_json(token))


def _veronese_from_json(data: dict, path: str) -> VeroneseSpace:
    """Rebuild a stored Veronese space from its base and level, refusing a
    file whose stored lines differ from the rebuild."""
    if data.get("kind") != "veronese":
        raise UsageError(f"{path} does not hold a Veronese space")
    with _fields_of(path):
        base = IncidenceStructure.from_json(data["base"])
        level = data["level"]
        stored = IncidenceStructure.from_json(data["structure"])
    V = build_veronese(base, level)
    if set(stored.lines) != set(V.structure.lines):
        raise UsageError(f"{path} is inconsistent: stored lines differ from "
                         "the deterministic rebuild")
    return V


def _load_veronese(path: str) -> VeroneseSpace:
    return _veronese_from_json(_read_json(path), path)


def _load_form(path: str):
    data = _read_json(path)
    with _fields_of(path):
        if "arity" in data:
            return AlternatingMultiForm.from_json(data)
        if data.get("kind") == "quadratic":
            return QuadraticForm.from_json(data)
        return BilinearForm.from_json(data)


def _load_hyperplane(data: dict, V: VeroneseSpace, path: str) -> VeroneseHyperplane:
    with _fields_of(path):
        points = frozenset(data["points"])
    return VeroneseHyperplane(V, points, extract_h_function(V, points),
                              source=data.get("source", "file"))


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(args) -> int:
    structure = _build_named(args.kind, args.n, args.p, args.quadric_type)
    _write_json(structure.to_json(), args.out)
    return 0


def cmd_veronese(args) -> int:
    base = _load_base(args.base)
    V = build_veronese(base, args.level)
    _write_json(V.to_json(), args.out)
    return 0


def cmd_hyperplane(args) -> int:
    V = _load_veronese(args.space)
    form = _load_form(args.form)
    if isinstance(form, AlternatingMultiForm) and form.arity != 2:
        H = hyperplane_from_alternating(V, form)
    elif isinstance(form, AlternatingMultiForm):
        M = [[0] * form.dim for _ in range(form.dim)]
        for (i, j), c in form.coeffs:
            M[i][j] = c
            M[j][i] = (-c) % form.p
        H = hyperplane_from_symplectic(V, BilinearForm(form.p, tuple(map(tuple, M))))
    elif isinstance(form, BilinearForm):
        H = hyperplane_from_symplectic(V, form)
    else:
        raise UsageError("quadratic forms do not define Veronese hyperplanes")
    _write_json(H.to_json(), args.out)
    return 0


def _reduct_rows(A: AffineReduct) -> dict:
    """The data a reduct file stores beside its space and hyperplane."""
    V = A.ambient
    return {
        "proper_points": [list(V.points[a].to_pairs()) for a in A.amb_of],
        "lines": [{"points": sorted(t.points), "parent": t.parent,
                   "infinite": t.infinite} for t in A.lines],
        "classes": {str(e): list(members) for e, members in A.classes.items()},
    }


def cmd_reduct(args) -> int:
    V = _load_veronese(args.space)
    H = _load_hyperplane(_read_json(args.hyperplane), V, args.hyperplane)
    A = build_reduct(V, H)
    _write_json({"kind": "reduct", "space": V.to_json(), "hyperplane": H.to_json(),
                 **_reduct_rows(A)}, args.out)
    return 0


def _rebuild_reduct(data: dict, path: str) -> AffineReduct:
    """Rebuild a stored reduct from its space and hyperplane, refusing a
    file whose stored rows differ from the rebuild."""
    if data.get("kind") != "reduct":
        raise UsageError(f"{path} does not hold a reduct")
    with _fields_of(path):
        space, hyperplane = data["space"], data["hyperplane"]
    V = _veronese_from_json(space, path)
    A = build_reduct(V, _load_hyperplane(hyperplane, V, path))
    rebuilt = _reduct_rows(A)
    with _fields_of(path):
        differs = [key for key in rebuilt if data[key] != rebuilt[key]]
    if differs:
        raise UsageError(f"{path} is inconsistent: stored {differs[0]} differ "
                         "from the deterministic rebuild")
    return A


def cmd_recover(args) -> int:
    A = _rebuild_reduct(_read_json(args.reduct), args.reduct)
    report = recover_veronese(A)
    result = {"points": report.point_count, "lines": report.line_count,
              "points_match": report.points_match,
              "lines_match": report.lines_match,
              "missing_lines": report.missing_lines,
              "extra_lines": report.extra_lines}
    if args.check_against:
        V = _load_veronese(args.check_against)
        result["ambient_agrees"] = (
            set(V.structure.lines) == set(A.ambient.structure.lines))
    _write_json(result, args.out)
    ok = report.ok and result.get("ambient_agrees", True)
    return 0 if ok else 1


def cmd_parallelism_search(args) -> int:
    V = _load_veronese(args.space)
    result = search_leaf_closed_parallelism(V)
    _write_json({"found": result.parallelism is not None,
                 "exhaustive": result.exhaustive,
                 "nodes": result.nodes,
                 "certificate": result.certificate,
                 "note": "unconstrained parallelism existence stays open"},
                args.out)
    return 0


def cmd_verify(args) -> int:
    if args.space:
        return _verify_on_space(args)
    names = sorted(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    if any(n not in verify_mod.SUITES for n in names):
        raise UsageError(f"unknown suite {args.suite!r}; known: "
                         + ", ".join(sorted(verify_mod.SUITES)) + ", all")
    verdicts = verify_mod.run_suites(names)
    lines = [json.dumps(v.to_json(), sort_keys=True) for v in verdicts]
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    failed = [v for v in verdicts if not v.ok]
    print(f"# {len(verdicts) - len(failed)}/{len(verdicts)} checks passed",
          file=sys.stderr)
    return 1 if failed else 0


def _verify_on_space(args) -> int:
    if args.suite != "net-axiom":
        raise UsageError("--space applies to the net-axiom suite only")
    data = _read_json(args.space)
    if data.get("kind") == "reduct":
        A = _rebuild_reduct(data, args.space)
        witness = net_violation_witness(A)
        verdict = {"claim": "net-axiom-on-reduct", "ok": not witness["found"],
                   "witness": witness if witness["found"] else None,
                   "details": witness}
        print(json.dumps(verdict, sort_keys=True))
        return 1 if witness["found"] else 0
    V = _veronese_from_json(data, args.space)
    report = check_net_axiom(V.structure, V.block_top)
    verdict = {"claim": "net-axiom-on-space", "ok": report.ok,
               "witness": None if report.ok else repr(report.witness),
               "checked": report.checked}
    print(json.dumps(verdict, sort_keys=True))
    return 0 if report.ok else 1


def cmd_report(args) -> int:
    with open(args.infile) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    with _fields_of(args.infile):
        verdicts = [(r["claim"], r["ok"]) for r in rows]
    width = max((len(claim) for claim, _ in verdicts), default=8)
    for r, (claim, ok) in zip(rows, verdicts):
        print(f"{'pass' if ok else 'FAIL'}  {claim:<{width}}  {r.get('runtime_s', '')}"
              f"  {r.get('instance', '')}")
    failed = sum(not ok for _, ok in verdicts)
    print(f"{len(rows) - failed}/{len(rows)} passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verogeo",
        description="finite incidence geometry: Veronese spaces, "
                    "hyperplanes, reducts, and verification suites")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a named geometry")
    p.add_argument("kind", choices=["pg", "ag", "w", "quadric"])
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.add_argument("--quadric-type", default="hyperbolic",
                   choices=["hyperbolic", "elliptic", "parabolic"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("veronese", help="build a Veronese space")
    p.add_argument("--base", required=True,
                   help="incidence json file or named space like pg:3:3")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_veronese)

    p = sub.add_parser("hyperplane", help="hyperplane from a form")
    p.add_argument("--space", required=True)
    p.add_argument("--form", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_hyperplane)

    p = sub.add_parser("reduct", help="affine reduct of a Veronese space")
    p.add_argument("--space", required=True)
    p.add_argument("--hyperplane", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduct)

    p = sub.add_parser("recover", help="rebuild the ambient space from a reduct")
    p.add_argument("--reduct", required=True)
    p.add_argument("--check-against")
    p.add_argument("--out")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("parallelism-search",
                       help="search for a leaf-closed parallelism")
    p.add_argument("--space", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_parallelism_search)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--space", help="check one space instead of the battery")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="summarize a verdict report")
    p.add_argument("infile")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except FalsificationError as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return 1
    except (UsageError, CapacityError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
