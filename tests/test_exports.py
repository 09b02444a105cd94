"""The package exports only what the program itself uses, its classes
define no public member that the program does not read, every cache it
keeps is listed with its reason, and no check in it rests on assert."""

import ast
from pathlib import Path

import logictop

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logictop"

# exported for the tests alone, each for a stated reason
ALLOWED = {
    "is_strongly_connected": "criterion 9's prelinearity check is to call it",
}

# (class, member) defined for the tests alone, each for a stated reason
ALLOWED_MEMBERS: dict[tuple[str, str], str] = {}

_VALUE_CACHE = "value cache that perfbench/tracer.py reads through cache_info(); folds once it no longer does"
_CORPUS_LIST = "corpus list: the criteria share one object per max-points"

# every lru_cache and cached_property in the package, as module.name or
# module.Class.name, each for a stated reason
CACHES = {
    "core.theory_spectrum": _VALUE_CACHE,
    "connectives.verify_connectives": _VALUE_CACHE,
    "duality.logic_space": _VALUE_CACHE,
    "duality.space_logic": _VALUE_CACHE,
    "topology.opens": _VALUE_CACHE,
    "corpus.corpus_frames": _CORPUS_LIST,
    "corpus.corpus_logics": _CORPUS_LIST,
    "corpus.corpus_spaces": _CORPUS_LIST,
    "core.AbstractLogic._hash": "per-object state: the hash of a logic's value, computed once",
    "core.AbstractLogic._index": "per-object state: the logic's compiled index",
    "topology.FiniteSpace._index": "per-object state: the space's compiled index",
    "topology.FiniteSpace._report": "per-object state: analyze_space returns one report per space",
}
_CACHING = {"cache", "lru_cache", "cached_property"}


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


def _decorator_name(node: ast.expr) -> str | None:
    """The name a decorator applies: lru_cache for @lru_cache(maxsize=None)
    and for @functools.lru_cache alike."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _caches() -> set[str]:
    """module.name, or module.Class.name, of every function in the
    package decorated with a cache."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(path.stem, tree), *((f"{path.stem}.{node.name}", node) for node in ast.walk(tree)
                                       if isinstance(node, ast.ClassDef))]
        found.update(f"{prefix}.{item.name}" for prefix, scope in scopes for item in scope.body
                     if isinstance(item, ast.FunctionDef)
                     and any(_decorator_name(d) in _CACHING for d in item.decorator_list))
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


def test_every_cache_is_on_the_allowlist():
    caches = _caches()
    assert sorted(caches - set(CACHES)) == [], "a cache with no stated reason"
    assert sorted(set(CACHES) - caches) == [], "allowed, but no longer a cache"


def test_no_check_in_the_package_rests_on_assert():
    # python -O strips assert statements, so none may guard an invariant
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Assert)]
    assert found == [], "assert statements in src/logictop"
