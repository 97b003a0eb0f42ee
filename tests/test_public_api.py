"""Every public name has a reader outside the test suite.

A name in ``specpredict.__all__`` stays only if a paper claim or a non-test
caller needs it.  A caller is found by ``ast``: a name or attribute read,
or a ``from ... import``, in a library module other than the one that
defines it, in a demo, or in the benchmark harness.  The names that only a
paper claim needs are listed with the claim.
"""

import ast
from pathlib import Path

import specpredict

ROOT = Path(__file__).resolve().parent.parent

# name -> the claim it checks; no non-test code calls these
CLAIM_ONLY = {
    "uniformity_check": "the error-to-class-norm ratio behind the uniform bound over the class",
    "LineWitness": "the type of line_witness's result, read by the causality and "
    "orthogonality criteria",
}


def _reads(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _defines(tree) -> set:
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _non_test_reads() -> set:
    package = Path(specpredict.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used |= _reads(tree) - _defines(tree)
    for folder in ("demos", "perfbench"):
        for path in (ROOT / folder).glob("*.py"):
            used |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    return used


def test_every_public_name_has_a_reader_outside_the_tests():
    # a module's reads of its own top-level names do not count
    tree = ast.parse("from m import a\ndef f():\n    return b.c + d\nd = 1\n")
    assert _reads(tree) - _defines(tree) == {"a", "b", "c"}
    unread = set(specpredict.__all__) - _non_test_reads()
    assert unread == set(CLAIM_ONLY)
