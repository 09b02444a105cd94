"""The package exports only what the program itself uses."""

import ast
from pathlib import Path

import logictop

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logictop"

# exported for the tests alone, each for a stated reason
ALLOWED = {
    "random_logic": "the property tests build their random logics with it",
    "quotient_logic": "the property tests build their quotient instances with it",
    "is_strongly_connected": "criterion 9's prelinearity check is to call it",
}


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _references(path: Path) -> set[str]:
    """Every name path's code reads, attribute names and imported names
    included; definitions, docstrings and comments are no reference."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_export_has_a_caller_in_the_program():
    files = [*(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), *(ROOT / "demos").glob("*.py")]
    used = set().union(*map(_references, files))
    exports = _exports()
    assert all(hasattr(logictop, name) for name in exports)
    unused = exports - used
    assert sorted(unused - set(ALLOWED)) == [], "exported, but nothing in src/ or demos/ calls it"
    assert sorted(set(ALLOWED) - unused) == [], "allowed, but now called or no longer exported"
