"""Exit codes, output shapes, and determinism of the command line."""

import argparse
import contextlib
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from logictop import cli, core, duality
from logictop.builders import FinitePoset, heyting_from_upsets, logic_from_lattice_filters
from logictop.cli import run_cli
from logictop.connectives import verify_connectives
from logictop.core import theory_spectrum
from logictop.corpus import (
    antichain,
    corpus_logics,
    discrete_two,
    l3,
    l22,
    lv3,
    run_all,
    sierpinski,
    v_frame,
)
from logictop.documents import Document, _encode, emit_document, parse_document
from logictop.duality import (
    LogicMap,
    PointMap,
    analyze_logic_map,
    is_spectral_map,
    logic_space,
    roundtrip_logic,
    roundtrip_space,
    space_logic,
    stable_iff_disjunction,
)
from logictop.errors import WorkbenchError
from logictop.topology import FiniteSpace

from oracles import lattice_from_leq, oracle_jsonable


@pytest.fixture()
def docs(tmp_path):
    """A directory of ready-made documents, one per interesting case."""
    files = {
        "l3.json": Document("logic", l3()),
        "l22.json": Document("logic", l22()),
        "v.json": Document("poset", v_frame()),
        "sierpinski.json": Document("space", sierpinski()),
        "bad_map.json": Document("logic_map", LogicMap(l22(), l22(), (0, 2, 0, 3))),
        "id_map.json": Document("logic_map", LogicMap(l22(), l22(), (0, 1, 2, 3))),
        "swap_points.json": Document("point_map", PointMap(sierpinski(), sierpinski(), (1, 0))),
        "onto_discrete.json": Document("point_map", PointMap(sierpinski(), discrete_two(), (0, 1))),
    }
    for name, doc in files.items():
        (tmp_path / name).write_text(emit_document(doc), encoding="utf-8")
    (tmp_path / "broken.json").write_text('{"kind": bogus}', encoding="utf-8")
    (tmp_path / "noconn.json").write_text(
        '{"kind": "logic", "exprs": ["a", "b"], "theories": [[0], [0, 1]]}',
        encoding="utf-8",
    )
    return tmp_path


def test_classify_worked_logic(docs, capsys):
    code = run_cli(["classify", "--input", str(docs / "l3.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "class: intuitionistic"


def test_classify_json_format(docs, capsys):
    code = run_cli(["classify", "--input", str(docs / "l3.json"), "--format", "json"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["classification"] == "intuitionistic"


def test_spectrum_lists_primes(docs, capsys):
    code = run_cli(["spectrum", "--input", str(docs / "l22.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "primes: {a,top} {b,top}" in out


L22_SPECTRUM_TEXT = """\
primes: {a,top} {b,top}
totally_primes: {a,top} {b,top}
maximals: {a,top} {b,top}
minimal_generators: {a,top} {b,top}
"""

L22_SPECTRUM_JSON = json.dumps(
    {key: [[1, 3], [2, 3]] for key in ("primes", "totally_primes", "maximals", "minimal_generators")},
    indent=2,
) + "\n"


def test_spectrum_output_is_pinned(docs, capsys):
    # all four printed fields, in this order, in both formats
    assert run_cli(["spectrum", "--input", str(docs / "l22.json")]) == 0
    assert capsys.readouterr().out == L22_SPECTRUM_TEXT
    assert run_cli(["spectrum", "--input", str(docs / "l22.json"), "--format", "json"]) == 0
    assert capsys.readouterr().out == L22_SPECTRUM_JSON


def test_space_emits_a_space_document(docs, capsys):
    code = run_cli(["space", "--input", str(docs / "l3.json")])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "space"
    assert obj["basis"] == [[], [1], [0, 1]]


def test_dualize_space_to_logic(docs, capsys):
    code = run_cli(["dualize", "--input", str(docs / "sierpinski.json")])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "logic"
    assert obj["theories"] == [[1, 2], [2]]


def test_roundtrip_reports_iso(docs, capsys):
    code = run_cli(["roundtrip", "--input", str(docs / "l22.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "iso_ok: true" in out


def test_roundtrip_accepts_a_map_document(docs, capsys):
    code = run_cli(["roundtrip", "--input", str(docs / "id_map.json")])
    assert code == 0
    assert "square_ok: true" in capsys.readouterr().out


def test_check_map_fails_on_unstable_map(docs, capsys):
    code = run_cli(["check-map", "--input", str(docs / "bad_map.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "is_stable: false" in out
    assert "witness is_stable: {1,3}" in out
    assert "stable_iff_disjunction: true" in out


def test_check_map_passes_on_identity(docs, capsys):
    code = run_cli(["check-map", "--input", str(docs / "id_map.json")])
    assert code == 0
    assert "is_isomorphism: true" in capsys.readouterr().out


def test_check_map_on_point_maps(docs, capsys):
    code = run_cli(["check-map", "--input", str(docs / "swap_points.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "is_spectral_map: false" in out


def test_check_map_json_between_logics_with_joins(docs, capsys):
    code = run_cli(["check-map", "--input", str(docs / "bad_map.json"), "--format", "json"])
    assert code == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["analysis"]["is_logic_map"] is True
    assert obj["analysis"]["is_stable"] is False
    assert obj["disjunction"]["preserves_join"] is False
    assert obj["disjunction"]["agree"] is True


def test_check_map_json_on_non_spectral_point_map(docs, capsys):
    code = run_cli(["check-map", "--input", str(docs / "onto_discrete.json"), "--format", "json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {"is_spectral_map": False, "witness": [0]}


@pytest.mark.parametrize("name", ["bad_map.json", "id_map.json"])
def test_check_map_analyses_a_logic_map_once(docs, capsys, monkeypatch, name):
    def answers():
        out = []
        for fmt in ("text", "json"):
            code = run_cli(["check-map", "--input", str(docs / name), "--format", fmt])
            out.append((code, capsys.readouterr().out))
        return out

    # the reference: the disjunction check analysing the map afresh
    with monkeypatch.context() as fresh:
        fresh.setattr(cli, "stable_iff_disjunction", lambda m, analysis: duality.stable_iff_disjunction(m))
        expected = answers()
    calls = []
    real = duality.analyze_logic_map

    def counting(m):
        calls.append(m.mapping)
        return real(m)

    # wherever a module binds it, so a second call would count
    monkeypatch.setattr(cli, "analyze_logic_map", counting)
    monkeypatch.setattr(duality, "analyze_logic_map", counting)
    assert answers() == expected
    assert len(calls) == 2


def test_godel_witness_text(docs, capsys):
    code = run_cli(["godel-witness", "--input", str(docs / "v.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "witness: p={b} q={c} lhs={r,b,c} rhs={b,c}" in out


def test_godel_witness_refuses_a_lattice_that_is_not_heyting(tmp_path, capsys):
    # a poset's upsets are scanned with no algebra built or checked; a
    # lattice document still goes through the Heyting check
    chain = lattice_from_leq(("a", "b"), ((True, True), (False, True)))
    path = tmp_path / "chain.json"
    path.write_text(emit_document(Document("lattice", chain)), encoding="utf-8")
    assert run_cli(["godel-witness", "--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: the double-negation scan needs implication and bottom\n"


def test_godel_witness_bounds_the_upsets_of_a_poset(tmp_path, capsys):
    # 2**10 upsets are scanned; 2**11 are refused before any scan, at the
    # elements that make them
    for k, code, out, err in [
        (10, 0, "witness: none\n", ""),
        (11, 2, "", "error: /elements: more than 1024 upsets; godel-witness scans posets with at most 1024\n"),
    ]:
        path = tmp_path / f"antichain{k}.json"
        path.write_text(emit_document(Document("poset", antichain(k))), encoding="utf-8")
        assert run_cli(["godel-witness", "--input", str(path)]) == code
        assert capsys.readouterr() == (out, err)


def _discrete(k):
    """The discrete space on k points, its singletons listed as the basis."""
    return FiniteSpace(tuple(f"x{i}" for i in range(k)), tuple(frozenset({i}) for i in range(k)))


def test_a_space_document_is_bounded_before_its_union_closure(tmp_path, capsys):
    # 2**10 opens are read, and the space is then refused as no
    # distributive space; 2**11 are refused while the basis is read
    for k, code, err in [
        (10, 1, "error: not a distributive space: ('open-not-basic', frozenset({0, 1}))\n"),
        (11, 2, "error: /basis: more than 1024 opens; space documents may have at most 1024\n"),
    ]:
        path = tmp_path / f"discrete{k}.json"
        path.write_text(emit_document(Document("space", _discrete(k))), encoding="utf-8")
        assert run_cli(["dualize", "--input", str(path)]) == code
        assert capsys.readouterr() == ("", err)


def test_a_space_with_no_points_has_no_dual_logic(tmp_path, capsys):
    """A space with no points passes as distributive, with or without the
    empty basic open, but it has no point filter to make a theory of:
    dualize and roundtrip refuse it with exit 1 and say why."""
    err = "error: a space with no points has no point filter, and a logic needs at least one theory\n"
    for basis in ([], [[]]):
        path = tmp_path / f"no-points-{len(basis)}.json"
        path.write_text(json.dumps({"kind": "space", "points": [], "basis": basis}), encoding="utf-8")
        for command in ("dualize", "roundtrip"):
            assert run_cli([command, "--input", str(path)]) == 1, (basis, command)
            assert capsys.readouterr() == ("", err), (basis, command)


def test_text_witnesses_list_members_in_the_json_order(tmp_path, capsys):
    """Indices past 9 print by value, as the JSON output lists them, and a
    set of sets prints its members in set_key order."""
    logic = logic_from_lattice_filters(heyting_from_upsets(antichain(4)))
    join = [list(row) for row in logic.connectives.join]
    join[0][1] = 0
    logic = dataclasses.replace(logic, connectives=dataclasses.replace(logic.connectives, join=join))
    path = tmp_path / "join-fails.json"
    path.write_text(emit_document(Document("logic", logic)), encoding="utf-8")
    assert run_cli(["classify", "--input", str(path)]) == 0
    assert "join witness: ({1,5,6,7,11,12,13,15}, 0, 1)\n" in capsys.readouterr().out
    assert run_cli(["classify", "--input", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["conditions"][0]["witness"] == [[1, 5, 6, 7, 11, 12, 13, 15], 0, 1]
    assert cli._show(frozenset({frozenset({0, 1}), frozenset({0})})) == "{{0},{0,1}}"


def test_a_point_map_is_bounded_at_the_endpoint_past_the_bound(tmp_path, capsys):
    big = _discrete(11)
    for end, m in [("source", PointMap(big, sierpinski(), (0,) * 11)), ("target", PointMap(sierpinski(), big, (0, 1)))]:
        path = tmp_path / f"{end}.json"
        path.write_text(emit_document(Document("point_map", m)), encoding="utf-8")
        assert run_cli(["check-map", "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: /{end}/basis: more than 1024 opens; space documents may have at most 1024\n")


def test_export_dot(docs, capsys):
    code = run_cli(["export-dot", "--input", str(docs / "v.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert '"r" -> "b";' in out


_DOT_ID = r'"(?:[^"\\\x00-\x1f]|\\.)*"'


def test_export_dot_quotes_names_that_hold_quotes_backslashes_or_line_breaks(tmp_path, capsys):
    """Each node line is one quoted id that reads back as its name, and a
    line break in a point or basis name stays inside its legend line."""
    poset = FinitePoset.from_pairs(('a"b', "c\\"), [('a"b', "c\\")])
    space = FiniteSpace(("x\ny", "z"), (frozenset(), frozenset({0}), frozenset({0, 1})), ("U0", "U\n1", "U2"))
    for name, obj in (("poset", poset), ("space", space)):
        path = tmp_path / f"{name}.json"
        path.write_text(emit_document(Document(name, obj)), encoding="utf-8")
        assert run_cli(["export-dot", "--input", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = poset.element_names if name == "poset" else space.point_names
        legend = [line for line in lines if line.startswith("  // basis ")]
        nodes = [line[2:-1] for line in lines if re.fullmatch(f"  {_DOT_ID};", line)]
        edges = [line for line in lines if re.fullmatch(f"  {_DOT_ID} -> {_DOT_ID};", line)]
        assert [json.loads(node) for node in nodes] == list(names)
        assert len(legend) == (3 if name == "space" else 0)
        assert lines == ["digraph {", *legend, *(f"  {node};" for node in nodes), *edges, "}"]
        assert len(edges) == 1


def test_output_file_writing(docs, tmp_path):
    target = tmp_path / "out.txt"
    code = run_cli(["classify", "--input", str(docs / "l3.json"), "--output", str(target)])
    assert code == 0
    assert target.read_text(encoding="utf-8").startswith("class: intuitionistic")


def test_stdin_input(docs, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO((docs / "l3.json").read_text(encoding="utf-8")))
    code = run_cli(["classify"])
    assert code == 0
    assert "class: intuitionistic" in capsys.readouterr().out


def test_parse_error_exits_2(docs, capsys):
    code = run_cli(["classify", "--input", str(docs / "broken.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_wrong_kind_exits_2(docs, capsys):
    code = run_cli(["classify", "--input", str(docs / "v.json")])
    assert code == 2
    assert "expects a logic document" in capsys.readouterr().err


def test_missing_file_exits_2(docs, capsys):
    code = run_cli(["classify", "--input", str(docs / "nope.json")])
    assert code == 2


def test_deeply_nested_input_exits_2(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000))
    assert run_cli(["classify"]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_non_utf8_stdin_exits_2(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8"))
    assert run_cli(["classify"]) == 2
    assert "error: input is not UTF-8" in capsys.readouterr().err


def test_non_utf8_input_file_exits_2(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    assert run_cli(["classify", "--input", str(binary)]) == 2
    assert "error: input is not UTF-8" in capsys.readouterr().err


def test_an_integer_past_the_conversion_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"kind": "logic", "exprs": ["a"], "theories": [[' + "9" * 5000 + "]]}", encoding="utf-8")
    assert run_cli(["classify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: an integer has more than {sys.get_int_max_str_digits()} digits\n"


def test_commands_on_one_file_parse_it_once(tmp_path, capsys, monkeypatch, fresh_documents):
    # names no other test gives this logic, so no value cache knows it
    logic = lv3()
    logic = dataclasses.replace(logic, expr_names=tuple(f"once-{name}" for name in logic.expr_names))
    path = tmp_path / "logic.json"
    path.write_text(emit_document(Document("logic", logic)), encoding="utf-8")
    decoded, indexed = [], []
    loads, of = json.loads, core.LogicIndex.of.__func__
    monkeypatch.setattr(json, "loads", lambda *args, **kwargs: decoded.append(1) or loads(*args, **kwargs))
    monkeypatch.setattr(core.LogicIndex, "of", classmethod(lambda cls, l: indexed.append(l) or of(cls, l)))
    for command in ("classify", "spectrum", "space", "dualize", "roundtrip"):
        assert run_cli([command, "--input", str(path)]) == 0, command
    capsys.readouterr()
    assert len(decoded) == 1
    # the dual of the logic's spectrum is the parsed logic itself: one index
    assert indexed == [logic]
    parsed = parse_document(path.read_text(encoding="utf-8")).value
    assert space_logic(logic_space(parsed).space) is parsed is indexed[0]


def test_basis_names_of_the_wrong_length_are_reported_at_their_path(capsys, monkeypatch):
    import io

    doc = '{"kind": "space", "points": ["x"], "basis": [[0]], "basis_names": ["u", "v"]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert run_cli(["roundtrip"]) == 2
    assert capsys.readouterr().err == "error: /basis_names: one display name per basis element\n"


def test_usage_error_exits_2(capsys):
    assert run_cli(["no-such-command"]) == 2
    assert run_cli([]) == 2
    assert run_cli(["classify", "--format", "dot"]) == 2


def test_domain_error_exits_1(docs, capsys):
    code = run_cli(["space", "--input", str(docs / "noconn.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


CORPUS_2_TEXT = """\
criterion 1 logic-roundtrip: pass (3 logics, poset counts (1, 2))
criterion 2 space-roundtrip: pass (3 spaces)
criterion 3 spectrality: pass (4 bounded logics, 4 spectral)
criterion 4 generic-points: pass (16 irreducible closed sets)
criterion 5 prime-extension: pass (39 admissible pairs)
criterion 6 stability-lemma: pass (24500 samples over 7^2 logic pairs, 4549 logic maps)
criterion 7 spectral-distributive: pass (6 spectral spaces)
criterion 8 heyting-agreement: pass (9 covering spaces, 2 non-covering skipped)
criterion 9 godel-witness: pass (V-frame witness (1, 2, 4, 3); Boolean algebras up to 16 elements clean)
criterion 10 constructible-topology: pass (6 spectral spaces refined)
criterion 11 degenerate-primes: pass (4 logics, all flag combinations)
passed 11/11
"""


def test_corpus_small_run(capsys):
    code = run_cli(["corpus", "--max-points", "2"])
    assert code == 0
    assert capsys.readouterr().out == CORPUS_2_TEXT


@pytest.mark.parametrize("points", ["0", "6"])
def test_corpus_max_points_outside_the_enumeration_bound_exits_2(points, capsys):
    assert run_cli(["corpus", "--max-points", points]) == 2
    assert "--max-points must be in 1..5" in capsys.readouterr().err


def test_corpus_under_python_O_matches_the_golden_output():
    # no invariant may rest on assert, which -O strips
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-O", "-m", "logictop.cli", "corpus", "--max-points", "2"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == CORPUS_2_TEXT


def test_corpus_deterministic_across_jobs(capsys):
    # --jobs is accepted and has no effect
    for fmt in ("text", "json"):
        outputs = []
        for jobs in ("1", "2"):
            code = run_cli(["corpus", "--max-points", "3", "--format", fmt, "--jobs", jobs])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1], fmt


@pytest.mark.parametrize("value", ["abc", "0", "-1"], ids="flag-{}".format)
def test_corpus_jobs_must_be_a_positive_integer(value, capsys):
    assert run_cli(["corpus", "--max-points", "1", "--jobs", value]) == 2
    err = capsys.readouterr().err
    assert f"--jobs must be a positive integer, got {value!r}" in err


def test_corpus_reads_no_jobs_variable(capsys, monkeypatch):
    monkeypatch.setenv("WORKBENCH_JOBS", "abc")
    assert run_cli(["corpus", "--max-points", "2"]) == 0
    assert capsys.readouterr().out == CORPUS_2_TEXT


def test_corpus_json_format(capsys):
    code = run_cli(["corpus", "--max-points", "2", "--format", "json"])
    assert code == 0
    results = json.loads(capsys.readouterr().out)
    assert [r["number"] for r in results] == list(range(1, 12))
    assert all(r["passed"] for r in results)


def test_json_reports_are_written_as_documents_are(docs, capsys, tmp_path):
    # one encoder: two-space indent, and names as UTF-8 text, not escapes
    named = tmp_path / "named.json"
    named.write_text(emit_document(Document("logic", dataclasses.replace(l3(), expr_names=("⊥", "ä", "⊤")))),
                     encoding="utf-8")
    requests = [
        ["classify", "--input", str(docs / "l3.json")],
        ["spectrum", "--input", str(docs / "l22.json")],
        ["roundtrip", "--input", str(docs / "sierpinski.json")],
        ["roundtrip", "--input", str(named)],
        ["check-map", "--input", str(docs / "bad_map.json")],
        ["check-map", "--input", str(docs / "onto_discrete.json")],
        ["godel-witness", "--input", str(docs / "v.json")],
        ["corpus", "--max-points", "1"],
    ]
    outputs = []
    for argv in requests:
        run_cli([*argv, "--format", "json"])
        outputs.append(capsys.readouterr().out)
        assert outputs[-1] == json.dumps(json.loads(outputs[-1]), indent=2, ensure_ascii=False) + "\n", argv
    assert '"ä"' in outputs[3]


_REPORT_LOGICS = [logic for _, logic in corpus_logics(3)]


def _reports_of(m: LogicMap) -> list:
    """Every report a command writes about m and its source, as it nests them."""
    spectrum = theory_spectrum(m.source)
    analysis = analyze_logic_map(m)
    reports = [
        verify_connectives(m.source),
        {"primes": spectrum.primes, "maximals": spectrum.maximals},
        analysis,
        {"analysis": analysis, "disjunction": stable_iff_disjunction(m, analysis)},
    ]
    with contextlib.suppress(WorkbenchError):
        reports.append(roundtrip_logic(m.source, m))
    with contextlib.suppress(WorkbenchError):
        space = logic_space(m.source).space
        reports.append(roundtrip_space(space))
        spectral, witness = is_spectral_map(PointMap(space, space, (0,) * space.n_points))
        reports.append({"is_spectral_map": spectral, "witness": witness})
    return reports


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_REPORT_LOGICS), st.sampled_from(_REPORT_LOGICS), st.data())
def test_json_reports_read_as_the_reflective_oracle(source, target, data):
    """Bools, nulls, witnesses and nested reports are written as the
    standard library writes what dataclasses.fields reads off them."""
    mapping = data.draw(st.lists(st.integers(0, target.universe_size - 1),
                                 min_size=source.universe_size, max_size=source.universe_size))
    reports = _reports_of(LogicMap(source, target, tuple(mapping)))
    reports += [run_all(max_points=1), {"witness": None}, {"witness": [1, 2]}]
    for report in reports:
        expected = oracle_jsonable(report)
        assert cli._jsonable(report) == expected
        assert _encode(cli._jsonable(report), "\n") == json.dumps(expected, indent=2, ensure_ascii=False)


SUBCOMMANDS = (
    "classify", "spectrum", "space", "dualize", "roundtrip",
    "check-map", "corpus", "godel-witness", "export-dot",
)


def test_the_reused_parser_answers_as_a_fresh_one(docs, capsys, monkeypatch):
    # usage errors, help, documents in both formats, and a corpus call
    steps = [["corpus", "--jobs", "0"], ["corpus", "--max-points", "x"], ["--help"], ["check-map", "--help"]]
    for fmt in ("text", "json"):
        steps += [["classify", "--input", str(docs / "l3.json"), "--format", fmt],
                  ["check-map", "--input", str(docs / "bad_map.json"), "--format", fmt]]
    steps += [["corpus", "--max-points", "1"]]

    def answer(argv):
        code = run_cli(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    codes = []
    for argv in steps:
        reused = answer(argv)
        with monkeypatch.context() as fresh:
            parser, commands = cli._build_parser()
            fresh.setattr(cli, "_PARSER", parser)
            fresh.setattr(cli, "_COMMANDS", commands)
            assert answer(argv) == reused, argv
        codes.append(reused[0])
    assert codes == [2, 2, 0, 0, 0, 1, 0, 1, 0]


def test_the_command_parser_answers_as_the_full_parser(docs, capsys, monkeypatch):
    """A command's own parser serves argv only when it takes every
    argument; anything else goes through the full parser.  Either way
    run_cli answers as the full parser alone would."""
    l3_path, v_path = str(docs / "l3.json"), str(docs / "v.json")
    edges = [
        [], ["-h"], ["--help"], ["no-such-command"], ["classif", "--input", l3_path],
        ["--format", "json", "classify", "--input", l3_path],
        ["classify", "--input", l3_path], ["classify", f"--input={l3_path}"], ["classify", "--inp", l3_path],
        ["classify", "--in", l3_path, "--form", "json"], ["classify", "--input", l3_path, "extra"],
        ["classify", "--input", l3_path, "--bogus"], ["classify", "--input"],
        ["classify", "--format", "xml", "--input", l3_path], ["classify", "-h"],
        ["classify", "--input", l3_path, "--", "more"],
        ["classify", "--input", str(docs / "l22.json"), "--input", l3_path],
        ["godel-witness", "--input", v_path, "--format=json"], ["export-dot", "--input", v_path, "--help"],
        ["corpus", "--max-points", "x"], ["corpus", "--max-point", "1", "--jobs", "0"],
    ]

    def answer(argv):
        code = run_cli(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    full_parses = []
    parse_args = cli._PARSER.parse_args
    monkeypatch.setattr(cli._PARSER, "parse_args", lambda argv: full_parses.append(argv) or parse_args(argv))
    direct, refused = [], []
    for argv in edges:
        full_parses.clear()
        mine = answer(argv)
        took_full = bool(full_parses)
        with monkeypatch.context() as full:
            full.setattr(cli, "_COMMANDS", {})
            assert answer(argv) == mine, argv
        if took_full:
            continue
        try:
            args = cli._parse_args(argv)
        except SystemExit:
            refused.append(argv)
        else:
            direct.append(argv)
            assert args == parse_args(argv), argv
        capsys.readouterr()
    assert direct == [edges[i] for i in (6, 7, 8, 9, 16, 17, 20)]
    assert refused == [edges[i] for i in (12, 13, 14, 18, 19)]


def test_run_cli_builds_no_parser(docs, capsys, monkeypatch):
    built = []
    construct = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["classify", "--input", str(docs / "l3.json")], ["--help"], ["corpus", "--jobs", "0"],
                 ["no-such-command"]):
        run_cli(argv)
    capsys.readouterr()
    assert built == []


def test_help_under_python_O():
    # the parser is built at import, which -O must not change
    script = (
        "import contextlib, io, json, sys\n"
        "from logictop.cli import run_cli\n"
        "answers = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        answers.append((run_cli(argv), out.getvalue()))\n"
        "print(json.dumps(answers))\n"
    )
    argvs = [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    answers = json.loads(done.stdout)
    for argv, (code, out) in zip(argvs, answers, strict=True):
        usage = " ".join(["usage: logictop", *argv[:-1], "[-h]"])
        assert code == 0, argv
        assert out.startswith(usage), (argv, out)
