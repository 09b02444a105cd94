"""One fresh interpreter of a benchmark run.

    python3 perfbench/worker.py MODE ARGS_JSON

Prints ``ready`` once ``logictop`` is imported (the parent times
interpreter start and import up to that line), then does the mode's
work and prints one JSON result line.  Modes:

- ``import``: nothing more; a set-up sample.
- ``corpus``: ``logictop corpus`` through ``run_cli``, captured.
- ``docgen``: writes the doc-requests document set, prints ``written``
  (the parent's end of set-up), then optionally its reference facts.
- ``requests``: serves the seeded request mix through ``run_cli``.

``corpus`` and ``requests`` take ``trace``; when set, the layer
wrappers of ``tracer.py`` are installed for the timed part only.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import logictop
import logictop.cli

print("ready", flush=True)

import docset  # noqa: E402  (imported after the ready line: not part of set-up)
from tracer import Tracer  # noqa: E402


def _usage() -> tuple[float, int, int]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime, me.ru_maxrss, kids.ru_maxrss


def _timed(args: dict, body):
    """Run ``body`` untraced or traced, returning its result and resource use."""
    tracer = Tracer().install() if args.get("trace") else None
    cpu0, _, _ = _usage()
    start = time.perf_counter()
    try:
        result = body(tracer)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    cpu1, rss_self, rss_kids = _usage()
    measured = {"wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mb": (rss_self + rss_kids) / 1024}
    if tracer is not None:
        tracer.write_spans(args["spans"])
        measured["trace"] = {
            "stats": tracer.stats,
            "hit_ratios": tracer.hit_ratios(),
            "bytes_parsed": tracer.bytes_parsed,
            "spans": len(tracer.spans),
            "spans_dropped": tracer.spans_dropped,
            "criterion_wall_s": tracer.criterion_wall_s,
        }
    return result, measured


def corpus(args: dict) -> dict:
    argv = ["corpus", "--max-points", str(args["max_points"]), "--jobs", str(args["jobs"]),
            "--format", "json", "--seed", str(args["seed"])]

    def body(tracer):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = logictop.cli.run_cli(argv)
        return code, out.getvalue(), err.getvalue()

    (code, out, err), measured = _timed(args, body)
    return {"code": code, "stdout": out, "stderr": err, **measured}


def requests(args: dict) -> dict:
    docdir = Path(args["docdir"])
    manifest = json.loads((docdir / "manifest.json").read_text(encoding="utf-8"))
    mix = docset.request_mix(manifest, args["seed"])
    argvs = [[command, "--input", str(docdir / manifest[pool][index]["file"]), "--format", fmt]
             for command, pool, index, fmt in mix]

    def body(tracer):
        responses, latencies = [], []
        for i, argv in enumerate(argvs):
            if tracer is not None:
                tracer.unit = i
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = logictop.cli.run_cli(argv)
                raised = None
            except Exception as e:  # an escaped exception is a broken exit-code contract
                code, raised = None, f"{type(e).__name__}: {e}"
            latencies.append(time.perf_counter() - start)
            responses.append((code, out.getvalue(), raised))
        return responses, latencies

    (responses, latencies), measured = _timed(args, body)
    ref = json.loads(Path(args["reference"]).read_text(encoding="utf-8"))
    failed, wrong = [], []
    for request, (code, text, raised) in zip(mix, responses):
        if raised is not None or code not in (0, 1, 2):
            failed.append(f"{request[0]} {request[1]}[{request[2]}] --format {request[3]}: {raised or code}")
            continue
        try:
            problem = docset.check_response(request, code, text, ref)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            problem = f"unreadable response ({type(e).__name__}: {e})"
        if problem is not None:
            wrong.append(f"{request[0]} {request[1]}[{request[2]}] --format {request[3]}: {problem}")
    return {"attempted": len(mix), "failed": failed, "wrong": wrong,
            "latencies_s": latencies, **measured}


def docgen(args: dict) -> dict:
    """Write the document set, print ``written`` (the end of set-up), then
    optionally write the reference facts, which set-up does not include."""
    manifest = docset.generate(Path(args["docdir"]), args["seed"])
    print("written", flush=True)
    out = {pool: len(manifest[pool]) for pool in ("logics", "spaces", "posets", "maps")}
    if args.get("reference"):
        ref = docset.reference(Path(args["docdir"]), Path(args["oracles"]))
        Path(args["reference"]).write_text(json.dumps(ref), encoding="utf-8")
        out["problems"] = ref["problems"]
    return out


MODES = {
    "import": lambda args: {},
    "corpus": corpus,
    "requests": requests,
    "docgen": docgen,
}

if __name__ == "__main__":
    mode, raw = sys.argv[1], sys.argv[2]
    result = MODES[mode](json.loads(raw))
    result["logictop_file"] = logictop.__file__
    print(json.dumps(result))
