"""JSON documents for every object the workbench exchanges.

Six kinds: logic, poset, lattice, space, logic_map, point_map.  Maps
embed their endpoints as full sub-documents.  Emission is canonical
(fixed key order, index sets sorted ascending, families sorted, two
space indent, LF, trailing newline) so identical objects produce
byte-identical text.  Parsing is strict: unknown keys are rejected,
every index is range-checked and every name must be text that UTF-8 can
encode (JSON's escapes can spell a lone surrogate, which it cannot),
with errors carrying a JSON-pointer path like /theories/0/0.

The document layer checks the shape and entry types of each index field
(theories, basis, tables, map rows) and leaves the range to the
constructor that takes the field, which checks it once.  Each kind's
parser notes the index fields it reads; when a document is refused,
_document_from_obj, the one refusal path, walks the fields read so far
and names the first fault in reading order; if they hold none, the
refusal stands.

parse_document keeps each document it accepts for the life of the
process, keyed by the SHA-256 digest of its text.  A map's endpoint is
looked up in the same table, under the digest of its canonical text,
before it is parsed: an endpoint written as emit_document writes it
shares one object with the equal standalone document, and the two
endpoints of an identity map are one object.  An endpoint is parsed
only on a miss, at its own path; the endpoints parsed on the way are
kept only when the whole document is accepted.

A space document is refused at its basis path when the basis closes
under union to more than OPEN_BOUND opens; the count is taken once per
distinct text or endpoint, before any analysis of the space starts.

Orders travel as pairs of element names; reflexive and transitive
closure is applied on parse, and the full non-reflexive order is
written on emit, so a document stays stable under reparsing even when
a hand-written input listed only the covering pairs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from json.encoder import encode_basestring
from operator import itemgetter

from .builders import FiniteLattice, FinitePoset
from .core import AbstractLogic, ConnectiveTables, TheoryFamily
from .duality import LogicMap, PointMap
from .errors import BoundExceeded, ParseError, SchemaError
from .topology import OPEN_BOUND, FiniteSpace, opens

KINDS = ("logic", "poset", "lattice", "space", "logic_map", "point_map")


@dataclass(frozen=True)
class Document:
    kind: str
    value: object

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown document kind {self.kind!r}")


# SHA-256 digest of a text -> the Document parsed from it, for the life
# of the process: each accepted document's text and the canonical text of
# each map endpoint parsed on the way; refused texts are not kept
_DOCUMENTS: dict[bytes, Document] = {}


def parse_document(text: str) -> Document:
    """The document that text spells.  Equal texts give one shared object,
    so its indices and cached facts are computed once per process;
    documents are immutable, so sharing is safe.  A refused text is
    parsed again, and refused at the same path, on every call, and
    leaves the table as it was."""
    key = _digest(text)
    doc = _DOCUMENTS.get(key)
    if doc is None:
        endpoints: dict[bytes, Document] = {}
        doc = _parse(text, endpoints)
        _DOCUMENTS.update(endpoints)
        _DOCUMENTS[key] = doc
    return doc


def _digest(text: str) -> bytes:
    import hashlib  # on first use: importing logictop parses nothing

    # surrogatepass: any str has a digest, even one read with surrogateescape
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).digest()


def _parse(text: str, endpoints: dict) -> Document:
    try:
        return _document_from_obj(_decode(text), "", endpoints)
    except RecursionError:
        raise ParseError("document nested too deeply") from None


def _decode(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}", witness=(e.lineno, e.colno)) from None
    except ValueError:  # an int literal past the interpreter's conversion limit
        raise ParseError(f"an integer has more than {sys.get_int_max_str_digits()} digits") from None


def emit_document(doc: Document) -> str:
    """The document's canonical text: exactly
    ``json.dumps(obj, indent=2, ensure_ascii=False)`` plus a newline."""
    return _encode(_EMITTERS[doc.kind](doc.value), "\n") + "\n"


# parsing


def _fail(path: str, message: str):
    raise SchemaError(message, path or "/")


def _as_object(v, path: str, allowed: tuple[str, ...]) -> dict:
    if not isinstance(v, dict):
        _fail(path, "expected an object")
    for key in v:
        if key not in allowed:
            _fail(f"{path}/{key}", "unexpected key")
    return v


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        _fail(f"{path}/{key}", "missing required key")
    return obj[key]


def _as_list(v, path: str) -> list:
    if not isinstance(v, list):
        _fail(path, "expected an array")
    return v


def _as_names(v, path: str) -> tuple[str, ...]:
    items = _as_list(v, path)
    for i, s in enumerate(items):
        if not isinstance(s, str):
            _fail(f"{path}/{i}", "expected a string")
        if not s.isascii():
            try:
                s.encode("utf-8")
            except UnicodeEncodeError:
                _fail(f"{path}/{i}", "name holds a lone surrogate, which UTF-8 cannot encode")
    if len(set(items)) != len(items):
        _fail(path, "names must be distinct")
    return tuple(items)


def _as_index(v, path: str, n: int) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(path, "expected an integer")
    if not 0 <= v < n:
        _fail(path, f"index {v} out of range 0..{n - 1}")
    return v


def _as_name_pairs(v, path: str, names: tuple[str, ...]) -> list[tuple[str, str]]:
    rows = _as_list(v, path)
    out = []
    for i, row in enumerate(rows):
        items = _as_list(row, f"{path}/{i}")
        if len(items) != 2:
            _fail(f"{path}/{i}", "expected a pair")
        for j, s in enumerate(items):
            if not isinstance(s, str):
                _fail(f"{path}/{i}/{j}", "expected a string")
            if s not in names:
                _fail(f"{path}/{i}/{j}", f"unknown element {s!r}")
        out.append((items[0], items[1]))
    return out


# An index field's shape: (k,) for a row of k indices, (k, w) for k rows
# of w indices each; None stands for any length, so index sets are _SETS.
_SETS = (None, None)


def _int_rows(rows, shape: tuple) -> bool:
    """Whether rows has the shape and every entry is an int (bool
    excluded), checked with C builtins; a row is checked as a table of one."""
    if len(shape) == 1:
        rows, shape = [rows], (1, *shape)
    count, width = shape
    return (type(rows) is list and (count is None or len(rows) == count)
            and set(map(type, rows)) <= {list}
            and (width is None or set(map(len, rows)) <= {width})
            and set(map(type, chain.from_iterable(rows))) <= {int})


def _index_field(read: list, v, path: str, bound: int, shape: tuple) -> list:
    """The index field v, noted in read for _explain.  A field of the wrong
    shape or entry type fails here; the range is left to the constructor
    that takes the field."""
    read.append((v, path, bound, shape))
    if not _int_rows(v, shape):
        _walk(v, path, bound, shape)
    return v


def _walk(v, path: str, bound: int, shape: tuple) -> None:
    """Raise the first fault of an index field, in reading order, with its
    path: a non-array, a length other than the shape's, an entry that is
    no integer or lies outside range(bound)."""
    if not shape:
        _as_index(v, path, bound)
        return
    items = _as_list(v, path)
    count, *inner = shape
    if count is not None and len(items) != count:
        _fail(path, f"expected {count} {'rows' if inner else 'entries'}")
    for i, x in enumerate(items):
        _walk(x, f"{path}/{i}", bound, inner)


def _built(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError reported at path."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        _fail(path, str(e))


def _explain(read: list) -> None:
    """Raise the first fault of the index fields read, in reading order,
    if there is one: a refused document reports it rather than the
    refusal, as if every field had been walked when it was read."""
    for field in read:
        _walk(*field)


def _parse_logic(obj: dict, path: str, read: list) -> AbstractLogic:
    _as_object(obj, path, ("kind", "exprs", "theories", "connectives"))
    names = _as_names(_require(obj, "exprs", path), f"{path}/exprs")
    n = len(names)
    sets = _index_field(read, _require(obj, "theories", path), f"{path}/theories", n, _SETS)
    family = _built(f"{path}/theories", TheoryFamily, n, frozenset(map(frozenset, sets)))
    tables = None
    if "connectives" in obj:
        cp = f"{path}/connectives"
        c = _as_object(obj["connectives"], cp, ("join", "meet", "impl", "neg", "top", "bottom"))
        if "join" not in c:
            _fail(f"{cp}/join", "missing required key")
        shapes = {"join": (n, n), "meet": (n, n), "impl": (n, n), "neg": (n,)}
        kwargs = {key: _index_field(read, c[key], f"{cp}/{key}", n, shape)
                  for key, shape in shapes.items() if key in c}
        for key in ("top", "bottom"):
            if key in c:
                kwargs[key] = _as_index(c[key], f"{cp}/{key}", n)
        tables = ConnectiveTables(**kwargs)
    return _built(path, AbstractLogic, names, family, tables)


def _parse_poset(obj: dict, path: str, read: list) -> FinitePoset:
    _as_object(obj, path, ("kind", "elements", "leq"))
    names = _as_names(_require(obj, "elements", path), f"{path}/elements")
    pairs = _as_name_pairs(_require(obj, "leq", path), f"{path}/leq", names)
    return _built(f"{path}/leq", FinitePoset.from_pairs, names, pairs)


def _parse_lattice(obj: dict, path: str, read: list) -> FiniteLattice:
    _as_object(obj, path, ("kind", "elements", "leq", "impl", "top", "bottom"))
    names = _as_names(_require(obj, "elements", path), f"{path}/elements")
    n = len(names)
    pairs = _as_name_pairs(_require(obj, "leq", path), f"{path}/leq", names)
    order = _built(f"{path}/leq", FinitePoset.from_pairs, names, pairs)
    impl = _index_field(read, obj["impl"], f"{path}/impl", n, (n, n)) if "impl" in obj else None
    lattice = _built(f"{path}/leq", FiniteLattice, names, order.leq, impl=impl)
    top = _as_index(obj["top"], f"{path}/top", n) if "top" in obj else None
    bottom = _as_index(obj["bottom"], f"{path}/bottom", n) if "bottom" in obj else None
    return _built(path, replace, lattice, top=top, bottom=bottom)


def _parse_space(obj: dict, path: str, read: list) -> FiniteSpace:
    _as_object(obj, path, ("kind", "points", "basis", "basis_names"))
    names = _as_names(_require(obj, "points", path), f"{path}/points")
    sets = _index_field(read, _require(obj, "basis", path), f"{path}/basis", len(names), _SETS)
    basis_names = ()
    if "basis_names" in obj:
        basis_names = _as_names(obj["basis_names"], f"{path}/basis_names")
        if basis_names and len(basis_names) != len(sets):
            _fail(f"{path}/basis_names", "one display name per basis element")
    space = _built(f"{path}/basis", FiniteSpace, names, sets, basis_names)
    try:
        opens(space)  # once per distinct text or endpoint: parse_document keeps what it accepts
    except BoundExceeded:
        _fail(f"{path}/basis", f"more than {OPEN_BOUND} opens; space documents may have at most {OPEN_BOUND}")
    return space


def _parse_endpoint(obj, path: str, kind: str, endpoints: dict):
    """The value of the kind that the endpoint obj spells.

    An object of that kind is looked up first, under the digest of its
    canonical text, among the documents kept and the endpoints parsed
    so far; a miss is parsed at path and noted in endpoints.  Anything
    else is parsed, and refused, as it stands.
    """
    key = doc = None
    if type(obj) is dict and obj.get("kind") == kind:
        try:
            key = _digest(_encode(obj, "\n") + "\n")
        except RecursionError:  # a value nested past the encoder's reach: the parse refuses it
            pass
        else:
            doc = _DOCUMENTS.get(key) or endpoints.get(key)
    if doc is None:
        doc = _document_from_obj(obj, path, endpoints)
        if key is not None:
            endpoints[key] = doc
    if doc.kind != kind:
        _fail(f"{path}/kind", f"expected a {kind} document")
    return doc.value


def _parse_map(kind: str, obj: dict, path: str, read: list, endpoints: dict) -> LogicMap | PointMap:
    endpoint, cls, size = _MAPS[kind]
    _as_object(obj, path, ("kind", "source", "target", "map"))
    source = _parse_endpoint(_require(obj, "source", path), f"{path}/source", endpoint, endpoints)
    target = _parse_endpoint(_require(obj, "target", path), f"{path}/target", endpoint, endpoints)
    row = _index_field(read, _require(obj, "map", path), f"{path}/map", getattr(target, size),
                       (getattr(source, size),))
    return _built(f"{path}/map", cls, source, target, row)


def _document_from_obj(obj, path: str, endpoints: dict) -> Document:
    """The document obj spells, at path; the one refusal path, which
    explains a refusal from the index fields the parser noted in read."""
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    kind = obj.get("kind")
    if kind not in KINDS:
        _fail(f"{path}/kind", f"expected one of {', '.join(KINDS)}")
    read: list = []
    try:
        if kind in _MAPS:
            return Document(kind, _parse_map(kind, obj, path, read, endpoints))
        return Document(kind, _PARSERS[kind](obj, path, read))
    except SchemaError:
        _explain(read)
        raise


# emission

# The decimal text of each int an index row of a document holds in
# practice, fixed at import; a row with any other int, negative or past
# the table, is written through str().
_DECIMALS = {i: str(i) for i in range(1024)}


def _encode(obj, newline: str) -> str:
    """json.dumps(obj, indent=2, ensure_ascii=False) for the document
    shapes: dicts with string keys, lists, ints and strings.

    ``newline`` is a line break plus the indentation of the line obj
    starts on.  The text is written into one list of parts and joined
    once, so each level of nesting is copied once, not once per
    enclosing level.  Each level takes two stack frames (_write and
    _write_container): a value nested past about 490 levels raises
    RecursionError, on which _parse_endpoint parses the endpoint as it
    stands.
    """
    parts: list[str] = []
    _write(obj, newline, parts)
    return "".join(parts)


def _write(obj, newline: str, parts: list[str]) -> None:
    """Append obj's text to parts.  Booleans and null are written here,
    and any other scalar (a float) goes to json.dumps."""
    kind = type(obj)
    if kind is str:
        parts.append(encode_basestring(obj))
    elif kind is int:
        parts.append(str(obj))
    elif kind is bool:
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    elif kind is dict or kind is list:
        if obj:
            _write_container(obj, kind is dict, newline, parts)
        else:
            parts.append("{}" if kind is dict else "[]")
    else:
        parts.append(json.dumps(obj))


def _write_container(obj, is_dict: bool, newline: str, parts: list[str]) -> None:
    """Append the text of a non-empty dict or list.  Rows of ints or of
    strings are joined in one pass, ints read off _DECIMALS."""
    inner = newline + "  "
    lead, sep = ("{" if is_dict else "[") + inner, "," + inner
    if is_dict:
        for k, v in obj.items():
            parts += (lead, encode_basestring(k), ": ")
            lead = sep
            _write(v, inner, parts)
    else:
        types = set(map(type, obj))
        if types == {int}:
            try:
                items = itemgetter(*obj)(_DECIMALS) if len(obj) > 1 else (_DECIMALS[obj[0]],)
            except KeyError:  # negative, or past the table
                items = map(str, obj)
            parts += (lead, sep.join(items))
        elif types == {str}:
            parts += (lead, sep.join(map(encode_basestring, obj)))
        else:
            for v in obj:
                parts.append(lead)
                lead = sep
                _write(v, inner, parts)
    parts.append(newline + ("}" if is_dict else "]"))


def _order_pairs(names: tuple[str, ...], leq) -> list[list[str]]:
    n = len(names)
    return [[names[i], names[j]] for i in range(n) for j in range(n) if i != j and leq[i][j]]


def _logic_to_obj(logic: AbstractLogic) -> dict:
    obj = {
        "kind": "logic",
        "exprs": list(logic.expr_names),
        "theories": [sorted(t) for t in logic.theories],
    }
    c = logic.connectives
    if c is not None:
        tables = {}
        for key in ("join", "meet", "impl"):
            table = getattr(c, key)
            if table is not None:
                tables[key] = [list(row) for row in table]
        if c.neg is not None:
            tables["neg"] = list(c.neg)
        for key in ("top", "bottom"):
            v = getattr(c, key)
            if v is not None:
                tables[key] = v
        obj["connectives"] = tables
    return obj


def _poset_to_obj(poset: FinitePoset) -> dict:
    return {
        "kind": "poset",
        "elements": list(poset.element_names),
        "leq": _order_pairs(poset.element_names, poset.leq),
    }


def _lattice_to_obj(lattice: FiniteLattice) -> dict:
    obj = {
        "kind": "lattice",
        "elements": list(lattice.element_names),
        "leq": _order_pairs(lattice.element_names, lattice.leq),
    }
    if lattice.impl is not None:
        obj["impl"] = [list(row) for row in lattice.impl]
    if lattice.top is not None:
        obj["top"] = lattice.top
    if lattice.bottom is not None:
        obj["bottom"] = lattice.bottom
    return obj


def _space_to_obj(space: FiniteSpace) -> dict:
    return {
        "kind": "space",
        "points": list(space.point_names),
        "basis": [sorted(b) for b in space.basis],
        "basis_names": list(space.basis_names),
    }


def _map_to_obj(kind: str, m: LogicMap | PointMap) -> dict:
    endpoint_to_obj = _EMITTERS[_MAPS[kind][0]]
    return {
        "kind": kind,
        "source": endpoint_to_obj(m.source),
        "target": endpoint_to_obj(m.target),
        "map": list(m.mapping),
    }


# map kind: (endpoint kind, map class, endpoint size attribute)
_MAPS = {
    "logic_map": ("logic", LogicMap, "universe_size"),
    "point_map": ("space", PointMap, "n_points"),
}

# the parser of each kind that is no map; maps go through _parse_map
_PARSERS = {
    "logic": _parse_logic,
    "poset": _parse_poset,
    "lattice": _parse_lattice,
    "space": _parse_space,
}

_EMITTERS = {
    "logic": _logic_to_obj,
    "poset": _poset_to_obj,
    "lattice": _lattice_to_obj,
    "space": _space_to_obj,
    **{kind: partial(_map_to_obj, kind) for kind in _MAPS},
}
