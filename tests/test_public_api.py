"""The public API is what the package itself, the acceptance criteria and the
benchmark's traced spans use.

Every public top-level function or class in `cyclic_spectra` must be named by
another top-level statement of the package, by `tests/test_acceptance.py`, or
by `SPANNED` in `bench/spans.py`.  A name only the other tests call is a
second route to a quantity, and belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cyclic_spectra"

#: graph helpers the tests build inputs and references with
TEST_SIDE = {("graphs", "delete_root"), ("graphs", "format_graph_text")}


def _names(node: ast.AST) -> set[str]:
    """Every identifier that node reads, imports or reaches as an attribute."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _spanned() -> set[str]:
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and stmt.targets[0].id == "SPANNED":
            return {entry.elts[1].value.split(".")[0] for entry in stmt.value.elts}
    raise AssertionError("bench/spans.py defines no SPANNED")


def _public_definitions_and_uses():
    """[(module, name)] of public top-level definitions, and for each top-level
    statement of the package the names it uses."""
    definitions, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            name = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_"):
                definitions.append((path.stem, name))
            uses.append(((path.stem, name), _names(stmt)))
    return definitions, uses


def test_every_public_name_has_a_caller():
    definitions, uses = _public_definitions_and_uses()
    assert TEST_SIDE | {("models", "matrix_power_moments")} <= set(definitions)
    outside = _names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    outside |= _spanned()
    unused = [
        f"{module}.{name}"
        for module, name in definitions
        if (module, name) not in TEST_SIDE
        and name not in outside
        and not any(name in names for owner, names in uses if owner != (module, name))
    ]
    assert not unused, f"public names with no caller outside the tests: {unused}"
