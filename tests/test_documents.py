"""JSON document layer: canonical emission, strict parsing, error paths."""

import contextlib
import functools
import io
import json
import operator
import sys
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from logictop.builders import FinitePoset, heyting_from_upsets
from logictop.cli import run_cli
from logictop.core import AbstractLogic
from logictop.corpus import (
    corpus_frames,
    corpus_logics,
    corpus_spaces,
    discrete_two,
    l3,
    l22,
    lv3,
    sierpinski,
    v_frame,
)
from logictop.documents import _DOCUMENTS, KINDS, Document, _encode, emit_document, parse_document
from logictop.dot import export_dot
from logictop.duality import LogicMap, PointMap, basic_open_embedding
from logictop.errors import ParseError, SchemaError, WorkbenchError
from logictop.topology import FiniteSpace

from oracles import oracle_emit, random_logic

L3_DOC = """
{
  "kind": "logic",
  "exprs": ["bot", "m", "top"],
  "theories": [[2], [1, 2]],
  "connectives": {
    "join": [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
    "meet": [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
    "impl": [[2, 2, 2], [0, 2, 2], [0, 1, 2]],
    "neg": [2, 0, 0],
    "top": 2,
    "bottom": 0
  }
}
"""

VFRAME_DOC = '{"kind": "poset", "elements": ["r", "b", "c"], "leq": [["r", "b"], ["r", "c"]]}'


def samples():
    return [
        Document("logic", l3()),
        Document("logic", l22()),
        Document("logic", lv3()),
        Document("poset", v_frame()),
        Document("lattice", heyting_from_upsets(v_frame())),
        Document("space", sierpinski()),
        Document("logic_map", LogicMap(l22(), l22(), (0, 2, 0, 3))),
        Document("point_map", PointMap(discrete_two(), sierpinski(), (1, 1))),
    ]


def test_parse_the_worked_logic_document(chain3_logic):
    doc = parse_document(L3_DOC)
    assert doc.kind == "logic"
    assert doc.value == chain3_logic


def test_parse_the_vframe_poset_document(vframe):
    assert parse_document(VFRAME_DOC).value == vframe


def test_emit_parse_roundtrip():
    for doc in samples():
        text = emit_document(doc)
        back = parse_document(text)
        assert back == doc, doc.kind
        assert emit_document(back) == text, doc.kind


def test_emission_is_canonical():
    text = emit_document(Document("logic", l3()))
    assert text == emit_document(Document("logic", l3()))
    assert text.endswith("\n") and "\r" not in text
    obj = json.loads(text)
    assert list(obj) == ["kind", "exprs", "theories", "connectives"]
    assert obj["theories"] == sorted(obj["theories"])


def test_poset_emission_lists_nonreflexive_pairs(vframe):
    obj = json.loads(emit_document(Document("poset", vframe)))
    assert obj["leq"] == [["r", "b"], ["r", "c"]]


def test_lattice_document_carries_bounds(vframe):
    obj = json.loads(emit_document(Document("lattice", heyting_from_upsets(vframe))))
    assert obj["top"] == 4 and obj["bottom"] == 0
    assert "impl" in obj


def test_map_documents_embed_endpoints():
    doc = Document("logic_map", LogicMap(l22(), l22(), (0, 2, 0, 3)))
    obj = json.loads(emit_document(doc))
    assert obj["source"]["kind"] == "logic"
    assert obj["target"]["kind"] == "logic"
    assert obj["map"] == [0, 2, 0, 3]


def test_unknown_kind_is_rejected():
    with pytest.raises(SchemaError) as err:
        parse_document('{"kind": "widget"}')
    assert err.value.path == "/kind"


def test_out_of_range_theory_index_names_its_path():
    with pytest.raises(SchemaError) as err:
        parse_document('{"kind": "logic", "exprs": ["a"], "theories": [[3]]}')
    assert err.value.path == "/theories/0/0"


def test_unknown_keys_are_rejected():
    with pytest.raises(SchemaError) as err:
        parse_document('{"kind": "poset", "elements": ["a"], "leq": [], "colour": 1}')
    assert "colour" in str(err.value)


def test_booleans_do_not_pass_as_indices():
    with pytest.raises(SchemaError):
        parse_document('{"kind": "logic", "exprs": ["a", "b"], "theories": [[true]]}')


def test_unclosed_family_is_a_schema_error():
    with pytest.raises(SchemaError) as err:
        parse_document('{"kind": "logic", "exprs": ["a", "b"], "theories": [[0], [1]]}')
    assert err.value.path == "/theories"


def test_malformed_json_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_document('{"kind": bogus}')
    assert err.value.witness == (1, 10)


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_document("[" * 100_000)
    # well-formed JSON, but map endpoints nested far past the recursion limit
    nested = '{"kind": "logic_map", "map": [], "source": ' * 400 + "{}" + "}" * 400
    with pytest.raises(ParseError):
        parse_document(nested)


@pytest.mark.parametrize("endpoint", ["source", "target"])
def test_an_endpoint_key_nested_past_the_encoder_is_refused_at_the_key(endpoint):
    # 600 arrays deep: json decodes it, the canonical encoder cannot recurse
    # that far, and the parse refuses the key before it reads the value
    obj = json.loads(emit_document(Document("logic_map", LogicMap(l22(), l22(), (0, 1, 2, 3)))))
    obj[endpoint]["junk"] = json.loads("[" * 600 + "]" * 600)
    with pytest.raises(RecursionError):
        _encode(obj[endpoint], "\n")
    kept = dict(_DOCUMENTS)
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps(obj))
    assert str(err.value) == f"/{endpoint}/junk: unexpected key"
    assert _DOCUMENTS == kept


def test_map_length_must_match_source():
    bad = json.loads(emit_document(Document("logic_map", LogicMap(l22(), l22(), (0, 1, 2, 3)))))
    bad["map"] = [0, 1]
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps(bad))
    assert err.value.path == "/map"


def test_dot_export_of_poset_chain():
    two = FinitePoset.from_pairs(("a", "b"), [("a", "b")])
    text = export_dot(two)
    assert '"a" -> "b";' in text
    assert text.count("->") == 1


def test_dot_export_of_vframe(vframe):
    text = export_dot(vframe)
    assert '"r" -> "b";' in text and '"r" -> "c";' in text
    assert text.count("->") == 2


def test_dot_export_of_sierpinski(chain_space):
    text = export_dot(chain_space)
    assert '"s0" -> "s1";' in text
    assert "basis U1 = {s1}" in text


def test_dot_export_rejects_other_types(chain3_logic):
    with pytest.raises(TypeError):
        export_dot(chain3_logic)


def _index_rows(obj):
    """Every index row of a document object: (JSON path, row, index bound)."""
    if obj["kind"] == "space":
        return [(f"/basis/{i}", row, len(obj["points"])) for i, row in enumerate(obj["basis"])]
    if obj["kind"] in ("logic_map", "point_map"):
        target = obj["target"]
        return [("/map", obj["map"], len(target["exprs"] if "exprs" in target else target["points"]))]
    n = len(obj["exprs"])
    rows = [(f"/theories/{i}", row, n) for i, row in enumerate(obj["theories"])]
    connectives = obj.get("connectives", {})
    for key in ("join", "meet", "impl"):
        rows += [(f"/connectives/{key}/{i}", row, n) for i, row in enumerate(connectives.get(key, ()))]
    if "neg" in connectives:
        rows.append(("/connectives/neg", connectives["neg"], n))
    return rows


_VALID = [
    json.loads(emit_document(doc))
    for doc in (
        Document("logic", l3()),
        Document("logic", lv3()),
        Document("logic", l22()),
        Document("space", sierpinski()),
        Document("space", discrete_two()),
        Document("logic_map", LogicMap(l22(), l3(), (0, 1, 1, 2))),
        Document("point_map", PointMap(discrete_two(), sierpinski(), (1, 1))),
    )
]
# "n" stands for the row's index bound, the first index out of range
_BAD = (True, 1.5, "0", -1, "n", None)


def _expected_error(value, n):
    if type(value) is not int:
        return "expected an integer"
    return f"index {value} out of range 0..{n - 1}"


def _containing_table(obj, path):
    """The rows of the table (theories, basis, join, meet or impl) holding
    the row at path, and the width every row of it must have (None for
    index sets); None when path names a lone row (neg, map)."""
    parent, _, index = path.rpartition("/")
    if not index.isdigit():
        return None
    rows = obj
    for key in parent.strip("/").split("/"):
        rows = rows[key]
    return rows, (len(rows) if parent.startswith("/connectives") else None)


@st.composite
def _bad_entries(draw):
    """A valid document with one or two entries of one index row replaced
    by bad values, and perhaps another row of the same table cut short or
    replaced by a non-array; returns the document text and the path and
    message of the first fault in reading order."""
    obj = json.loads(json.dumps(draw(st.sampled_from(_VALID))))
    path, row, n = draw(st.sampled_from([r for r in _index_rows(obj) if r[1]]))
    positions = sorted(draw(st.sets(st.integers(0, len(row) - 1), min_size=1, max_size=2)))
    values = [n if v == "n" else v for v in (draw(st.sampled_from(_BAD)) for _ in positions)]
    for j, v in zip(positions, values):
        row[j] = v
    first = (f"{path}/{positions[0]}", _expected_error(values[0], n))
    rows, width = _containing_table(obj, path) or ([], None)
    if len(rows) > 1 and draw(st.booleans()):
        here = int(path.rpartition("/")[2])
        other = draw(st.sampled_from([i for i in range(len(rows)) if i != here]))
        other_path = f"{path.rpartition('/')[0]}/{other}"
        if width is not None and draw(st.booleans()):
            rows[other] = rows[other][:-1]
            fault = (other_path, f"expected {width} entries")
        else:
            rows[other] = draw(st.sampled_from([7, "row", None, {}]))
            fault = (other_path, "expected an array")
        if other < here:
            first = fault
    return json.dumps(obj), *first


@settings(max_examples=300, deadline=None)
@given(_bad_entries())
def test_a_bad_index_reports_its_path_and_message(drawn):
    text, path, message = drawn
    with pytest.raises(SchemaError) as err:
        parse_document(text)
    assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")
    stderr = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stderr(stderr):
        assert run_cli(["roundtrip"]) == 2
    assert stderr.getvalue() == f"error: {path}: {message}\n"


@pytest.mark.parametrize("key, row, message", [
    ("join", [0, 1], "expected 3 entries"),
    ("meet", [0, 1, 2, 0], "expected 3 entries"),
    ("impl", 7, "expected an array"),
    ("theories", "row", "expected an array"),
])
def test_a_lone_malformed_row_reports_its_path(key, row, message):
    obj = json.loads(emit_document(Document("logic", l3())))
    table = obj["theories"] if key == "theories" else obj["connectives"][key]
    table[1] = row
    path = "/theories/1" if key == "theories" else f"/connectives/{key}/1"
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps(obj))
    assert str(err.value) == f"{path}: {message}"


def test_the_first_of_two_bad_entries_is_reported():
    obj = json.loads(emit_document(Document("logic", l3())))
    obj["connectives"]["join"][2][1:] = [True, -1]
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps(obj))
    assert str(err.value) == "/connectives/join/2/1: expected an integer"


_UNJOINED = {"kind": "lattice", "elements": ["a", "b"], "leq": []}


@pytest.mark.parametrize("obj, message", [
    # the impl field is read, and walked, before the order is built
    ({**_UNJOINED, "impl": [[0, 5], [1, 1]]}, "/impl/0/1: index 5 out of range 0..1"),
    # the order is built before top is read
    ({**_UNJOINED, "impl": [[0, 1], [1, 1]], "top": "x"}, "/leq: no least upper bound for 0,1"),
    # the basis is walked before its names are read
    ({"kind": "space", "points": ["x", "y"], "basis": [[0], [0, 7]], "basis_names": ["U", 3]},
     "/basis/1/1: index 7 out of range 0..1"),
    # the theories are walked before the connectives are read
    ({"kind": "logic", "exprs": ["a", "b"], "theories": [[0], [0, 9]], "connectives": {"meet": [[0, 0], [0, 1]]}},
     "/theories/1/1: index 9 out of range 0..1"),
])
def test_a_document_with_faults_in_two_fields_is_refused_at_the_first_read(obj, message):
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps(obj))
    assert str(err.value) == message


def _corpus_documents():
    """Every document kind, built from the corpus."""
    logics = [logic for _, logic in corpus_logics(4)]
    frames = [frame for _, frame in corpus_frames(4)]
    spaces = [space for _, space in corpus_spaces(4)]
    docs = [Document("logic", logic) for logic in logics]
    docs += [Document("poset", frame) for frame in frames]
    docs += [Document("lattice", heyting_from_upsets(frame)) for frame in frames]
    docs += [Document("space", space) for space in spaces]
    docs += [Document("logic_map", LogicMap(logic, logic, tuple(logic.exprs))) for logic in logics[::5]]
    docs += [Document("point_map", PointMap(space, space, tuple(range(space.n_points)))) for space in spaces[::5]]
    return docs


def test_emission_matches_the_standard_encoder():
    for doc in _corpus_documents():
        assert emit_document(doc) == oracle_emit(doc), doc.kind


def _renamed(doc, names):
    """The document with its element names replaced by the first of names."""
    value = doc.value
    if doc.kind == "logic":
        k = value.universe_size
        return Document("logic", AbstractLogic(names[:k], value.theories, value.connectives))
    if doc.kind == "space":
        k, b = value.n_points, len(value.basis)
        return Document("space", FiniteSpace(names[:k], value.basis, names[k:k + b]))
    if doc.kind == "poset":
        return Document("poset", FinitePoset(names[:value.n], value.leq))
    if doc.kind == "lattice":
        return Document("lattice", replace(value, element_names=names[:value.n]))
    endpoint = _renamed(Document("logic" if doc.kind == "logic_map" else "space", value.source), names).value
    return Document(doc.kind, type(value)(endpoint, endpoint, value.mapping))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_corpus_documents()), st.lists(st.text(), min_size=64, max_size=64, unique=True))
def test_emission_of_any_names_matches_the_standard_encoder(doc, names):
    """Names with quotes, backslashes, control characters and non-ASCII
    text are escaped exactly as the standard library escapes them."""
    renamed = _renamed(doc, tuple(names))
    assert emit_document(renamed) == oracle_emit(renamed)


def _nested(levels):
    """A value nested levels deep, dicts and lists in turn, around a row
    of ints and strings."""
    value = [0, 1, "a"]
    for level in range(levels - 1):
        value = {"k": value, "n": level} if level % 2 else [value, None]
    return value


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_JSON)
@example(True)
@example(None)
@example({"status": False, "witness": None, "rows": [[True, None], [], [0, False]]})
@example(_nested(400))
def test_the_encoder_writes_any_json_value_as_the_standard_library(value):
    assert _encode(value, "\n") == json.dumps(value, indent=2, ensure_ascii=False)


# Rows as wide as a 64-expression table and wider: indices, ints on
# both sides of the encoder's text table and below zero, and bools and
# nulls, which must still read true, false and null.
_ROWS = st.one_of(
    st.lists(st.integers(0, 70), max_size=70),
    st.lists(st.integers(-3, 1100), max_size=70),
    st.lists(st.integers(), max_size=70),
    st.lists(st.booleans(), max_size=70),
    st.lists(st.integers(0, 3) | st.booleans() | st.none(), max_size=70),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_ROWS, max_size=70))
def test_the_encoder_writes_tables_of_int_rows_as_the_standard_library(table):
    assert _encode(table, "\n") == json.dumps(table, indent=2, ensure_ascii=False)


def _positions(obj, path=()):
    """The path of every value in a JSON tree, the root included."""
    out = [path]
    if isinstance(obj, dict):
        for key, v in obj.items():
            out += _positions(v, (*path, key))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out += _positions(v, (*path, i))
    return out


def _substituted(obj, path, value):
    if not path:
        return value
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return obj


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(samples()), st.integers(1, 2), st.data())
def test_any_substituted_value_keeps_the_exit_code_contract(doc, count, data):
    """One or two values anywhere in a valid document of any kind replaced
    by arbitrary JSON: parsing yields a document or a ParseError or
    SchemaError, and roundtrip exits 0, 1 or 2 without raising."""
    obj = json.loads(emit_document(doc))
    for _ in range(count):
        obj = _substituted(obj, data.draw(st.sampled_from(_positions(obj))), data.draw(_JSON))
    text = json.dumps(obj)
    try:
        assert isinstance(parse_document(text), Document)
    except (ParseError, SchemaError):
        pass
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run_cli(["roundtrip"]) in (0, 1, 2)


DOCUMENT_COMMANDS = (
    "classify", "spectrum", "space", "dualize", "roundtrip", "check-map", "godel-witness", "export-dot",
)


def _name_paths(obj, path=""):
    """The path of every name in a document object: the entries of exprs,
    elements, points and basis_names, in map endpoints too."""
    out = []
    for key, v in obj.items():
        if key in ("exprs", "elements", "points", "basis_names"):
            out += [f"{path}/{key}/{i}" for i in range(len(v))]
        elif key in ("source", "target"):
            out += _name_paths(v, f"{path}/{key}")
    return out


def _surrogate_documents():
    """Every sample document with one name given a lone surrogate, as the
    JSON escape spells it, and that name's path."""
    out = []
    for doc in samples():
        obj = json.loads(emit_document(doc))
        for path in _name_paths(obj):
            steps = [int(s) if s.isdigit() else s for s in path.split("/")[1:]]
            name = functools.reduce(operator.getitem, steps, obj)
            broken = _substituted(json.loads(emit_document(doc)), steps, name + "\ud800")
            out.append((json.dumps(broken), path))
    return out


def test_a_name_with_a_lone_surrogate_is_refused_at_its_path():
    documents = _surrogate_documents()
    assert {path.rsplit("/", 2)[-2] for _, path in documents} == {"exprs", "elements", "points", "basis_names"}
    assert any(path.startswith("/target/") for _, path in documents)
    for text, path in documents:
        assert "\\ud800" in text
        with pytest.raises(SchemaError) as err:
            parse_document(text)
        assert err.value.path == path


def test_every_command_refuses_a_name_with_a_lone_surrogate(capsys):
    # stdout and --output both encode strictly, so such a name, had it
    # been accepted, would end spectrum, space, dualize and export-dot in
    # a UnicodeEncodeError
    for text, path in _surrogate_documents():
        for command in DOCUMENT_COMMANDS:
            with mock.patch.object(sys, "stdin", io.StringIO(text)):
                assert run_cli([command]) == 2, (command, path)
            captured = capsys.readouterr()
            assert captured.out == "" and f"error: {path}: " in captured.err, (command, path)


def test_non_ascii_names_are_accepted_and_written_as_text():
    names = ("ä", "𝔽", "名")
    logic = AbstractLogic(names, l3().theories, l3().connectives)
    text = emit_document(Document("logic", logic))
    assert all(f'"{name}"' in text for name in names)
    assert parse_document(text) == Document("logic", logic)


def test_the_same_text_returns_the_same_object(fresh_documents):
    text = emit_document(Document("logic", lv3()))
    first = parse_document(text)
    assert parse_document(text) is first
    assert first == Document("logic", lv3())
    assert len(_DOCUMENTS) == 1


def test_a_text_that_differs_in_whitespace_is_parsed_apart(fresh_documents):
    text = emit_document(Document("logic", lv3()))
    compact = json.dumps(json.loads(text))
    assert compact != text
    first, second = parse_document(text), parse_document(compact)
    assert second == first and second is not first
    assert second.value is not first.value
    assert len(_DOCUMENTS) == 2


def test_a_refused_text_is_refused_at_the_same_path_every_time(fresh_documents):
    text = '{"kind": "logic", "exprs": ["a", "b"], "theories": [[0], [1]]}'
    for _ in range(3):
        with pytest.raises(SchemaError) as err:
            parse_document(text)
        assert err.value.path == "/theories"
    with pytest.raises(ParseError):
        parse_document('{"kind": bogus}')
    assert _DOCUMENTS == {}


@pytest.mark.parametrize("text, message", [
    # lone surrogates as UTF-8 mode's stdin, with surrogateescape, hands
    # over undecodable bytes: in a name, and outside any string
    ('{"kind": "logic", "exprs": ["a\udcff"], "theories": [[0]]}', "error: /exprs/0: "),
    ('{"kind": "logic", \udcff}', "error: line 1, column 19: "),
])
def test_a_lone_surrogate_on_stdin_exits_2(fresh_documents, capsys, text, message):
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        assert run_cli(["classify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(message)
    assert _DOCUMENTS == {}


def _map_text(m) -> str:
    return emit_document(Document("logic_map" if isinstance(m, LogicMap) else "point_map", m))


def test_an_identity_maps_endpoints_are_one_object(fresh_documents):
    logic_map = parse_document(_map_text(LogicMap(lv3(), lv3(), tuple(lv3().exprs)))).value
    assert logic_map.source is logic_map.target
    point_map = parse_document(_map_text(PointMap(sierpinski(), sierpinski(), (1, 1)))).value
    assert point_map.source is point_map.target
    # each map and its one endpoint
    assert len(_DOCUMENTS) == 4


def test_an_endpoint_is_the_standalone_documents_value(fresh_documents):
    logic = parse_document(emit_document(Document("logic", l22()))).value
    m = parse_document(_map_text(LogicMap(l22(), l3(), (0, 2, 1, 2)))).value
    assert m.source is logic
    assert m.target == l3()
    # the target's canonical text, given after the map, is not parsed again
    with mock.patch.object(json, "loads", side_effect=AssertionError("decoded")):
        assert parse_document(emit_document(Document("logic", l3()))).value is m.target
    assert len(_DOCUMENTS) == 3


@pytest.mark.parametrize("edit, path, message", [
    (lambda obj: obj["map"].__setitem__(3, 9), "/map/3", "index 9 out of range 0..3"),
    (lambda obj: obj["target"]["theories"].append([7]), "/target/theories/3/0", "index 7 out of range 0..3"),
], ids=["map", "target"])
def test_a_refused_map_keeps_none_of_its_endpoints(fresh_documents, edit, path, message):
    kept = parse_document(emit_document(Document("logic", l3())))
    obj = json.loads(_map_text(LogicMap(l22(), l22(), (0, 1, 2, 3))))
    edit(obj)
    for text in (json.dumps(obj), json.dumps(obj, indent=2)):
        with pytest.raises(SchemaError) as err:
            parse_document(text)
        assert str(err.value) == f"{path}: {message}"
        assert list(_DOCUMENTS.values()) == [kept]


def test_a_non_canonical_endpoint_gives_an_equal_value(fresh_documents):
    logic = parse_document(emit_document(Document("logic", lv3()))).value
    obj = json.loads(_map_text(LogicMap(lv3(), lv3(), tuple(lv3().exprs))))
    # compact text: each endpoint re-encodes to the canonical text
    assert parse_document(json.dumps(obj)).value.source is logic
    # reordered keys and theories: another text, an equal value
    obj["source"] = dict(reversed(obj["source"].items()))
    obj["source"]["theories"].reverse()
    m = parse_document(json.dumps(obj)).value
    assert m.source == logic and m.source is not logic
    assert m.target is logic


def test_an_emitted_endpoint_re_encodes_to_its_standalone_text():
    """The key a map endpoint is looked up under is the digest of exactly
    the text emit_document writes for it alone."""
    maps = [doc for doc in samples() + _corpus_documents() if doc.kind in ("logic_map", "point_map")]
    for _, logic in corpus_logics(3):
        with contextlib.suppress(WorkbenchError):  # a logic with no dual logic of its spectrum
            maps.append(Document("logic_map", basic_open_embedding(logic)))
    assert {doc.kind for doc in maps} == {"logic_map", "point_map"}
    for doc in maps:
        obj = json.loads(emit_document(doc))
        kind = "logic" if doc.kind == "logic_map" else "space"
        for endpoint in ("source", "target"):
            text = emit_document(Document(kind, getattr(doc.value, endpoint)))
            assert _encode(obj[endpoint], "\n") + "\n" == text


_LONG_INTEGER = '{"kind": "logic", "exprs": ["a"], "theories": [[' + "9" * 5000 + "]]}"


def _kind_objects():
    """An object naming a document kind, with up to five more keys drawn
    from the documents' keys or arbitrary, holding arbitrary JSON values."""
    keys = ("exprs", "theories", "connectives", "elements", "leq", "impl", "top", "bottom",
            "points", "basis", "basis_names", "source", "target", "map")
    return st.builds(
        lambda kind, rest: {"kind": kind, **rest},
        st.sampled_from(KINDS),
        st.dictionaries(st.sampled_from(keys) | st.text(max_size=3), _JSON, max_size=5),
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.builds(json.dumps, _JSON | _kind_objects()),
    st.builds(lambda doc, text: emit_document(doc)[:len(text)], st.sampled_from(samples()), st.text()),
))
@example(_LONG_INTEGER)
@example("[" + "1" * 5000 + "]")
def test_any_text_is_a_document_or_a_refusal(text):
    kept = len(_DOCUMENTS)
    try:
        doc = parse_document(text)
    except (ParseError, SchemaError):
        assert len(_DOCUMENTS) == kept
        return
    assert isinstance(doc, Document)
    assert parse_document(text) is doc


def test_an_integer_past_the_conversion_limit_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_document(_LONG_INTEGER)
    assert str(err.value) == f"an integer has more than {sys.get_int_max_str_digits()} digits"


@st.composite
def _random_values(draw):
    """A random logic on 1-8 expressions or a random space on up to five
    points, with named basis elements or not."""
    if draw(st.booleans()):
        return "logic", random_logic(draw(st.integers(1, 8)), draw(st.integers(0, 2**32)))
    n = draw(st.integers(0, 5))
    points = st.frozensets(st.integers(0, n - 1), max_size=n) if n else st.just(frozenset())
    basis = draw(st.lists(points, unique=True, max_size=8))
    names = draw(st.sampled_from([(), tuple(f"B{i}" for i in range(len(basis)))]))
    return "space", FiniteSpace(tuple(f"p{x}" for x in range(n)), tuple(basis), names)


@settings(max_examples=200, deadline=None)
@given(_random_values(), st.randoms(use_true_random=False))
def test_emit_after_parse_is_idempotent(drawn, rng):
    kind, value = drawn
    canonical = emit_document(Document(kind, value))
    # the same object written by hand: compact, its sets in another order
    obj = json.loads(canonical)
    for row in obj.get("theories", []):
        rng.shuffle(row)
    rng.shuffle(obj.get("theories", []))
    text = json.dumps(obj)
    doc = parse_document(text)
    assert doc.value == value
    once = emit_document(doc)
    assert once == canonical
    assert emit_document(parse_document(once)) == once
    assert parse_document(text) is doc
