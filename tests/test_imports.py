import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dynstress"

# Names the tests import that the library itself never calls, each because a
# test needs it as an independent oracle.
ORACLES = {
    "numerical_gradient": "central finite differences, the oracle of every gradient test",
    "mfcc_frames": "the dense per-window MFCC that window_mfcc's blocks must equal",
}


def imported_names():
    """(test file, name) for each name a test imports from a dynstress
    module; a module of the package, such as ``from dynstress import cli``,
    is not a name."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    found = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dynstress":
                for alias in node.names:
                    if not (node.module == "dynstress" and alias.name in modules):
                        found.add((path.name, alias.name))
    return found


def used_names(tree):
    """Every name a module reads, as a ``Name`` or an ``Attribute``, outside
    the definition that binds it; a recursive call does not count, and
    neither does an import."""
    used = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in enclosing:
                used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in enclosing:
                used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return used


def library_trees():
    return {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def reached(name, used, perfbench):
    """Whether ``name`` is read by the library, named in the benchmark's code
    (``perfbench/*.py``, whose tracer looks functions up by name) or one of
    the oracles above."""
    return (name in used or name in ORACLES
            or re.search(rf"\b{re.escape(name)}\b", perfbench) is not None)


def test_every_name_the_tests_import_is_used_by_the_library():
    """A library name that only tests reach is a second copy of a rule the
    library runs elsewhere, so the tests would check the copy, not the rule.
    Each name a test imports from ``dynstress`` is reached (see
    :func:`reached`); the oracles stay on the list only while tests import
    them and the library does not."""
    used = set().union(*map(used_names, library_trees().values()))
    imported = imported_names()
    perfbench = "\n".join(p.read_text() for p in (ROOT / "perfbench").glob("*.py"))
    unused = sorted(f"{test}: {name}" for test, name in imported
                    if not reached(name, used, perfbench))
    assert not unused, "imported by tests, unused by the library:\n" + "\n".join(unused)
    assert set(ORACLES) <= {name for _, name in imported} - used


def test_every_library_definition_is_reached():
    """A top-level function or class that nothing reaches is dead code, such
    as a helper that a refactor left behind: each one in ``src/dynstress``
    is read in ``src/`` outside its own definition, or else reached through
    the benchmark or the oracle list."""
    trees = library_trees()
    used = set().union(*map(used_names, trees.values()))
    perfbench = "\n".join(p.read_text() for p in (ROOT / "perfbench").glob("*.py"))
    unreached = sorted(
        f"{module}: {node.name}" for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not reached(node.name, used, perfbench)
    )
    assert not unreached, "defined in src/dynstress, reached by nothing:\n" + "\n".join(unreached)
