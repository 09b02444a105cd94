"""The package exports only what the program itself uses, and its classes
define no public member that the program does not read."""

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

# (class, member) defined for the tests alone, each for a stated reason
ALLOWED_MEMBERS: dict[tuple[str, str], str] = {}


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


def _attributes(path: Path) -> set[str]:
    """Every attribute name path's code reads, as _references walks it."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}


def _public_members() -> set[tuple[str, str]]:
    """(class, member) for each public method, property and classmethod
    defined in a class of the package."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                found.update((node.name, item.name) for item in node.body
                             if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return found


def test_every_export_has_a_caller_in_the_program():
    files = [*(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), *(ROOT / "demos").glob("*.py")]
    used = set().union(*map(_references, files))
    exports = _exports()
    assert all(hasattr(logictop, name) for name in exports)
    unused = exports - used
    assert sorted(unused - set(ALLOWED)) == [], "exported, but nothing in src/ or demos/ calls it"
    assert sorted(set(ALLOWED) - unused) == [], "allowed, but now called or no longer exported"


def test_every_public_member_is_read_by_the_program():
    files = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py")]
    read = set().union(*map(_attributes, files))
    unread = {(cls, name) for cls, name in _public_members() if name not in read}
    assert sorted(unread - set(ALLOWED_MEMBERS)) == [], "defined, but nothing in src/ or demos/ reads it"
    assert sorted(set(ALLOWED_MEMBERS) - unread) == [], "allowed, but now read or no longer defined"
