"""Command line front end.

Every subcommand reads one JSON document (``--input`` or stdin) and
writes text or JSON (``--output`` or stdout); ``export-dot`` always
writes DOT.  Exit codes: 0 on success, 1 when a requested verification
flag comes back false or a precondition fails with a witness, 2 on
usage or document errors.

Verification flags are the booleans a command exists to check: the
map analysis fields for ``check-map``, ``iso_ok``/``square_ok`` for
``roundtrip``, and per-criterion results for ``corpus``.  Descriptive
output (``classify``, ``spectrum``, witnesses) never fails by itself.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .builders import POSET_ENUMERATION_BOUND, UPSET_BOUND, frame_godel_witness, godel_witness
from .connectives import verify_connectives
from .core import AbstractLogic, set_key, sorted_sets, theory_spectrum
from .corpus import run_all
from .documents import Document, _encode, emit_document, parse_document
from .dot import export_dot
from .duality import (
    analyze_logic_map,
    is_spectral_map,
    logic_space,
    roundtrip_logic,
    roundtrip_space,
    space_logic,
    stable_iff_disjunction,
)
from .errors import BoundExceeded, ParseError, SchemaError, WorkbenchError


class _UsageError(Exception):
    pass


def _read_document(args) -> Document:
    try:
        if args.input is None:
            text = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"input is not UTF-8: {e}") from None
    return parse_document(text)


def _write(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _ordered(s) -> list:
    """A set's members in emission order: sets by set_key, ints by value,
    anything else by repr."""
    if all(isinstance(e, frozenset) for e in s):
        return sorted_sets(s)
    return sorted(s) if all(isinstance(e, int) for e in s) else sorted(s, key=repr)


def _jsonable(x):
    """A report as JSON values: a dataclass as an object of its fields,
    sets as sorted arrays, tuples as arrays.

    Dispatches on the exact type.  A report class's fields are read off
    its ``__dataclass_fields__``, which lists what ``dataclasses.fields``
    does since no report class declares a ClassVar or InitVar.
    """
    kind = type(x)
    if kind is list or kind is tuple:
        return [_jsonable(e) for e in x]
    if kind is dict:
        return {k: _jsonable(v) for k, v in x.items()}
    if kind is set or kind is frozenset:
        if all(isinstance(e, frozenset) for e in x):
            return [_jsonable(e) for e in sorted_sets(x)]
        return _ordered(x)
    fields = getattr(kind, "__dataclass_fields__", None)
    if fields is not None:
        return {name: _jsonable(getattr(x, name)) for name in fields}
    return x


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _show(witness) -> str:
    if isinstance(witness, (set, frozenset)):
        return "{" + ",".join(_show(e) for e in _ordered(witness)) + "}"
    if isinstance(witness, tuple):
        return "(" + ", ".join(_show(e) for e in witness) + ")"
    return str(witness)


def _expect(doc: Document, command: str, *kinds: str):
    if doc.kind not in kinds:
        raise _UsageError(f"{command} expects a {' or '.join(kinds)} document, got {doc.kind}")
    return doc.value


def _theory_names(logic: AbstractLogic, theories) -> str:
    rendered = [
        "{" + ",".join(logic.expr_names[i] for i in sorted(t)) + "}"
        for t in sorted_sets(theories)
    ]
    return " ".join(rendered) if rendered else "(none)"


def _emit_report(args, report, text_lines) -> None:
    if args.format == "json":
        _write(args, _encode(_jsonable(report), "\n"))
    else:
        _write(args, "\n".join(text_lines))


def _cmd_classify(args) -> int:
    logic = _expect(_read_document(args), "classify", "logic")
    report = verify_connectives(logic)
    lines = [f"class: {report.classification}"]
    for check in report.conditions:
        status = "absent" if check.status is None else _flag(check.status)
        lines.append(f"{check.connective}: {status}")
        if check.status is False:
            lines.append(f"{check.connective} witness: {_show(check.witness)}")
    lines.append(f"maximals_equal_totally_primes: {_flag(report.maximals_equal_totally_primes)}")
    lines.append(f"has_valid_formula: {_flag(report.has_valid_formula)}")
    lines.append(f"has_inconsistent_formula: {_flag(report.has_inconsistent_formula)}")
    _emit_report(args, report, lines)
    return 0


def _cmd_spectrum(args) -> int:
    logic = _expect(_read_document(args), "spectrum", "logic")
    spectrum = theory_spectrum(logic)
    fields = {
        "primes": spectrum.primes,
        "totally_primes": spectrum.totally_primes,
        "maximals": spectrum.maximals,
        "minimal_generators": spectrum.minimal_generators,
    }
    lines = [f"{name}: {_theory_names(logic, theories)}" for name, theories in fields.items()]
    _emit_report(args, fields, lines)
    return 0


def _cmd_space(args) -> int:
    logic = _expect(_read_document(args), "space", "logic")
    _write(args, emit_document(Document("space", logic_space(logic).space)))
    return 0


def _cmd_dualize(args) -> int:
    doc = _read_document(args)
    value = _expect(doc, "dualize", "logic", "space")
    if doc.kind == "logic":
        _write(args, emit_document(Document("space", logic_space(value).space)))
    else:
        _write(args, emit_document(Document("logic", space_logic(value))))
    return 0


def _cmd_roundtrip(args) -> int:
    doc = _read_document(args)
    value = _expect(doc, "roundtrip", "logic", "space", "logic_map", "point_map")
    if doc.kind == "logic":
        report = roundtrip_logic(value)
    elif doc.kind == "space":
        report = roundtrip_space(value)
    elif doc.kind == "logic_map":
        report = roundtrip_logic(value.source, value)
    else:
        report = roundtrip_space(value.source, value)
    lines = [
        f"direction: {report.direction}",
        f"iso_ok: {_flag(report.iso_ok)}",
        f"square_ok: {_flag(report.square_ok)}",
        f"squares: {len(report.squares)} checked",
    ]
    for label, ok, witness in report.squares:
        if not ok:
            lines.append(f"failed square {label}: {_show(witness)}")
    for label, witness in report.witnesses:
        lines.append(f"witness {label}: {_show(witness)}")
    _emit_report(args, report, lines)
    return 0 if report.iso_ok and report.square_ok else 1


def _cmd_check_map(args) -> int:
    doc = _read_document(args)
    value = _expect(doc, "check-map", "logic_map", "point_map")
    if doc.kind == "point_map":
        spectral, witness = is_spectral_map(value)
        lines = [f"is_spectral_map: {_flag(spectral)}"]
        if witness is not None:
            lines.append(f"witness: basic open with non-open preimage {set_key(witness)}")
        _emit_report(args, {"is_spectral_map": spectral, "witness": witness}, lines)
        return 0 if spectral else 1

    analysis = analyze_logic_map(value)
    lines = [
        f"is_logic_map: {_flag(analysis.is_logic_map)}",
        f"is_stable: {_flag(analysis.is_stable)}",
        f"is_normal: {_flag(analysis.is_normal)}",
        f"is_L_surjective: {_flag(analysis.is_L_surjective)}",
        f"is_isomorphism: {_flag(analysis.is_isomorphism)}",
    ]
    for label, witness in analysis.witnesses:
        lines.append(f"witness {label}: {_show(witness)}")
    payload: object = analysis
    src, tgt = value.source.connectives, value.target.connectives
    if src is not None and src.join is not None and tgt is not None and tgt.join is not None:
        check = stable_iff_disjunction(value, analysis)
        lines.append(f"preserves_join: {_flag(check.preserves_join)}")
        lines.append(f"stable_iff_disjunction: {_flag(check.agree)}")
        if check.witness is not None:
            lines.append(f"disjunction witness: {_show(check.witness)}")
        payload = {"analysis": analysis, "disjunction": check}
    _emit_report(args, payload, lines)
    flags = (
        analysis.is_logic_map,
        analysis.is_stable,
        analysis.is_normal,
        analysis.is_L_surjective,
        analysis.is_isomorphism,
    )
    return 0 if all(flags) else 1


def _cmd_corpus(args) -> int:
    if not 1 <= args.max_points <= POSET_ENUMERATION_BOUND:
        raise _UsageError(f"--max-points must be in 1..{POSET_ENUMERATION_BOUND}, got {args.max_points}")
    try:
        jobs = int(args.jobs)
    except ValueError:
        jobs = 0
    if jobs < 1:  # the value has no effect: the corpus runs in this process
        raise _UsageError(f"--jobs must be a positive integer, got {args.jobs!r}")
    results = run_all(max_points=args.max_points, seed=args.seed)
    lines = [
        f"criterion {r.number} {r.name}: {'pass' if r.passed else 'FAIL'} ({r.detail})"
        for r in results
    ]
    lines.append(f"passed {sum(r.passed for r in results)}/{len(results)}")
    _emit_report(args, results, lines)
    return 0 if all(r.passed for r in results) else 1


def _cmd_godel_witness(args) -> int:
    doc = _read_document(args)
    value = _expect(doc, "godel-witness", "poset", "lattice")
    if doc.kind == "poset":
        try:
            named = frame_godel_witness(value)
        except BoundExceeded:
            raise SchemaError(f"more than {UPSET_BOUND} upsets; godel-witness scans posets with at "
                              f"most {UPSET_BOUND}", "/elements") from None
    else:
        found = godel_witness(value)
        named = None if found is None else (found, [value.element_names[i] for i in found])
    if named is None:
        _emit_report(args, {"witness": None}, ["witness: none"])
        return 0
    found, (p, q, lhs, rhs) = named
    lines = [f"witness: p={p} q={q} lhs={lhs} rhs={rhs}"]
    _emit_report(args, {"witness": list(found)}, lines)
    return 0


def _cmd_export_dot(args) -> int:
    doc = _read_document(args)
    value = _expect(doc, "export-dot", "poset", "space")
    _write(args, export_dot(value))
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each subcommand's own parser by name."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", metavar="PATH", help="document to read (default: stdin)")
    common.add_argument("--output", metavar="PATH", help="where to write (default: stdout)")
    common.add_argument("--format", choices=("json", "text"), default="text")

    parser = argparse.ArgumentParser(
        prog="logictop",
        description="Finite workbench for abstract logics and their dual spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    handlers = {
        "classify": (_cmd_classify, "connective conditions and classification of a logic"),
        "spectrum": (_cmd_spectrum, "prime, totally prime and maximal theories"),
        "space": (_cmd_space, "emit the prime spectrum of a logic as a space document"),
        "dualize": (_cmd_dualize, "map a logic to its spectrum or a space to its dual logic"),
        "roundtrip": (_cmd_roundtrip, "double-dualize and verify the comparison maps"),
        "check-map": (_cmd_check_map, "analyze a logic map or point map"),
        "corpus": (_cmd_corpus, "run the built-in acceptance corpus"),
        "godel-witness": (_cmd_godel_witness, "search a Heyting algebra for the classical-translation obstruction"),
        "export-dot": (_cmd_export_dot, "render a poset or space order diagram as DOT"),
    }
    for name, (handler, help_text) in handlers.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)

    corpus = sub.choices["corpus"]
    corpus.add_argument("--max-points", type=int, default=4, metavar="N",
                        help=f"largest poset size feeding the corpus, 1..{POSET_ENUMERATION_BOUND} (default 4)")
    corpus.add_argument("--seed", type=int, default=0, help="criterion 6's sampling seed (default 0)")
    corpus.add_argument("--jobs", default="1", metavar="N",
                        help="accepted for compatibility and without effect: the corpus runs in one "
                             "process; must be a positive integer (default 1)")
    return parser, sub.choices


# Built once per process: parsing leaves no state in them.
_PARSER, _COMMANDS = _build_parser()


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """argv as _PARSER reads it, parsed once.

    _PARSER hands everything after a command name to that command's own
    parser; when that parser takes every argument, its answer is used
    directly.  Anything else (no command, an unknown one, arguments left
    over) goes through _PARSER, so usage messages and exit codes are its
    own.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return _PARSER.parse_args(argv)


def run_cli(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.handler(args)
    except (ParseError, SchemaError, _UsageError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except WorkbenchError as e:
        print(f"error: {e}", file=sys.stderr)
        if e.witness is not None:
            print(f"witness: {e.witness}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
