"""JSON document layer: canonical emission, strict parsing, error paths."""

import contextlib
import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from logictop.builders import FinitePoset, heyting_from_upsets
from logictop.cli import run_cli
from logictop.corpus import discrete_two, l3, l22, lv3, sierpinski, v_frame
from logictop.documents import Document, emit_document, parse_document
from logictop.dot import export_dot
from logictop.duality import LogicMap, PointMap
from logictop.errors import ParseError, SchemaError

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


@st.composite
def _bad_entries(draw):
    """A valid document with one or two entries of one index row replaced
    by bad values; returns the document text and the first bad entry's
    path and message."""
    obj = json.loads(json.dumps(draw(st.sampled_from(_VALID))))
    path, row, n = draw(st.sampled_from([r for r in _index_rows(obj) if r[1]]))
    positions = sorted(draw(st.sets(st.integers(0, len(row) - 1), min_size=1, max_size=2)))
    values = [n if v == "n" else v for v in (draw(st.sampled_from(_BAD)) for _ in positions)]
    for j, v in zip(positions, values):
        row[j] = v
    return json.dumps(obj), f"{path}/{positions[0]}", _expected_error(values[0], n)


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


def test_the_first_of_two_bad_entries_is_reported():
    obj = json.loads(emit_document(Document("logic", l3())))
    obj["connectives"]["join"][2][1:] = [True, -1]
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps(obj))
    assert str(err.value) == "/connectives/join/2/1: expected an integer"
