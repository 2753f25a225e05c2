"""Every public name of the library has a caller in the library, and
every name a test module or a module of src/verogeo imports is read
there.

A top-level public name (a function, class or constant of a module in
src/verogeo, without a leading underscore) counts as used when any file
under src/ or perfbench/ reads it outside its own definition.  The unused
ones must be exactly UNUSED below, which is empty: a new helper that
nothing calls fails the test.  A public member of a class (a method, a
property or a dataclass field) counts as used when any such file reads
its name outside the member's own definition; the unused ones must be
exactly UNREAD_MEMBERS.  Reference implementations that only tests
compare against live in tests/oracles.py.  Every parameter of every
function in src/verogeo is read in that function's body, save those in
UNREAD_PARAMETERS.  Imports from __future__ are exempt from the import
check.  The library's own absolute imports all name standard-library
modules: pyproject.toml declares no dependencies.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "verogeo"

UNUSED: set[str] = set()

UNREAD_MEMBERS = {
    # figure data, printed in the repr a FalsificationError carries
    "VeblenFigure.apex",
    "VeblenFigure.complete",
    # a work counter, kept out of the verdict on purpose
    "RecoveryReport.plane_closures",
}

UNREAD_PARAMETERS = {
    # perfbench/workloads.py passes both, so they stay until the
    # benchmark stops passing them
    "reduct.py: truncated_plane_family(V)",
    "hyperplanes.py: enumerate_hyperplanes_level2(base_hyperplanes)",
}


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _reads(node):
    """Names read as identifiers or attributes anywhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def _library_trees():
    return {path: ast.parse(path.read_text())
            for folder in (ROOT / "src", ROOT / "perfbench")
            for path in sorted(folder.rglob("*.py"))}


def unused_public_names():
    trees = _library_trees()
    public = {name for path, tree in trees.items() if path.parent == PACKAGE
              for name, _ in _top_level_names(tree) if not name.startswith("_")}
    read = set()
    for path, tree in trees.items():
        own = dict(_top_level_names(tree)) if path.parent == PACKAGE else {}
        for node in tree.body:
            mine = {name for name, n in own.items() if n is node}
            read.update(name for name in _reads(node) if name not in mine)
    return public - read


def test_unused_public_names_match_the_closed_list():
    unused = unused_public_names()
    assert not unused - UNUSED, f"public names nothing calls: {sorted(unused - UNUSED)}"
    assert not UNUSED - unused, f"drop from UNUSED: {sorted(UNUSED - unused)}"


def _members(cls):
    """(name, node) for each method, property and annotated field of cls."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def unread_public_members():
    trees = _library_trees()
    read = Counter(name for tree in trees.values() for name in _reads(tree))
    return {f"{cls.name}.{name}"
            for path, tree in trees.items() if path.parent == PACKAGE
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for name, node in _members(cls)
            if not name.startswith("_") and read[name] == Counter(_reads(node))[name]}


def test_unread_public_members_match_the_closed_list():
    unread = unread_public_members()
    extra, stale = sorted(unread - UNREAD_MEMBERS), sorted(UNREAD_MEMBERS - unread)
    assert not extra, f"members nothing reads: {extra}"
    assert not stale, f"drop from UNREAD_MEMBERS: {stale}"


def unread_parameters():
    """'file: function(parameter)' for each parameter of a function or
    lambda in src/verogeo that its body never reads."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            out.update(f"{path.name}: {name}({arg.arg})" for arg in params
                       if arg is not None and arg.arg not in read)
    return out


def test_every_parameter_is_read():
    unread = unread_parameters()
    extra, stale = sorted(unread - UNREAD_PARAMETERS), sorted(UNREAD_PARAMETERS - unread)
    assert not extra, f"parameters nothing reads: {extra}"
    assert not stale, f"drop from UNREAD_PARAMETERS: {stale}"


def unread_test_imports():
    """(file, name) for each name a module under tests/ or src/verogeo
    imports and never reads."""
    out = []
    for path in sorted([*(ROOT / "tests").glob("*.py"), *PACKAGE.glob("*.py")]):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        read = {sub.id for sub in ast.walk(tree)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        out.extend((str(path.relative_to(ROOT)), name) for name in sorted(imported - read))
    return out


def test_every_test_import_is_read():
    assert not unread_test_imports(), f"imported, never read: {unread_test_imports()}"


def absolute_imports():
    """(file, top-level module) for each absolute import in src/verogeo."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            out.extend((path.name, name.split(".")[0]) for name in names)
    return out


def test_library_imports_only_the_standard_library():
    imports = absolute_imports()
    assert ("incidence.py", "typing") in imports
    outside = [(f, m) for f, m in imports if m not in sys.stdlib_module_names]
    assert not outside, f"imports outside the standard library: {outside}"
