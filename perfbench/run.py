"""The logictop benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md for why):

- ``corpus-gate``: ``logictop corpus --max-points 4 --jobs 1``;
- ``corpus-wide``: ``logictop corpus --max-points 5 --jobs 2``;
- ``doc-requests``: one closed-loop client calling ``run_cli`` in one
  interpreter on a seeded mix of single-document requests.

Every pass starts a fresh interpreter (``worker.py``) with ``src`` on its
path.  ``--trace 0`` repeats passes for ``--seconds`` (``doc-requests``
makes at least ``REQUEST_PASSES``) and reports the end-to-end metrics as
medians over passes; ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics.  Every
pass's output is checked.  The human-readable report comes first; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = ROOT / ".perfbench"
RUN_DEADLINE_S = 170
IMPORT_SAMPLES = 15
DOCGEN_SAMPLES = 3
# doc-requests makes at least this many passes, so that the median pass,
# not a burst of contention in a single one, sets the request percentiles.
REQUEST_PASSES = 3

# max points, jobs, corpus logics (criterion 1), criterion-6 samples
CORPUS = {"corpus-gate": (4, 1, 24, 112_500), "corpus-wide": (5, 2, 87, 128_000)}
WORKLOADS = ("corpus-gate", "corpus-wide", "doc-requests")
CRITERIA = 11

# These faults are counted in ``failed`` and stay visible; see README.md.
KNOWN_FAULTS = (
    "corpus-wide criterion 1 FAILs: POSET_COUNTS in corpus.py stops at 4 points",
    "check-map --format json on two logics with joins raises TypeError "
    "(MapAnalysis is not JSON serializable) out of run_cli",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "throughput_rps": "1/s",
}

PER_LAYER = {
    "core.consequence.calls": "count",
    "core.consequence.self_s": "s",
    "core.logically_equivalent.calls": "count",
    "core.logically_equivalent.self_s": "s",
    "core.theory_spectrum.hit_ratio": "ratio",
    "core.close_under_intersection.self_s": "s",
    "duality.stable_iff_disjunction.calls": "count",
    "duality.analyze_logic_map.self_s": "s",
    "duality.logic_space.self_s": "s",
    "duality.logic_space.hit_ratio": "ratio",
    "duality.space_logic.self_s": "s",
    "duality.space_logic.hit_ratio": "ratio",
    "duality.roundtrip_logic.self_s": "s",
    "duality.roundtrip_space.self_s": "s",
    "connectives.verify_connectives.self_s": "s",
    "connectives.verify_connectives.hit_ratio": "ratio",
    "connectives.prime_extension.self_s": "s",
    "topology.opens.self_s": "s",
    "topology.opens.hit_ratio": "ratio",
    "topology.specialization_order.hit_ratio": "ratio",
    "topology.analyze_space.self_s": "s",
    "topology.is_distributive_space.self_s": "s",
    "topology.constructible_topology.self_s": "s",
    "builders.enumerate_posets.self_s": "s",
    "builders.heyting_from_upsets.self_s": "s",
    "builders.logic_from_lattice_filters.self_s": "s",
    "documents.parse_document.self_s": "s",
    "documents.emit_document.self_s": "s",
    "documents.bytes_parsed": "bytes",
    "dot.export_dot.self_s": "s",
    "cli.run_cli.self_s": "s",
    "cli.requests.failed": "count",
    **{f"corpus.criterion_{n}.wall_s": "s" for n in range(1, CRITERIA + 1)},
    "corpus.stability.samples": "count",
    "corpus.stability.logic_map_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.spans_dropped": "count",
}


class BenchError(Exception):
    """The benchmark could not run the program; no result is printed."""


class Run:
    """State of one benchmark run: its work directory and what it saw."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
        self.setups: list[float] = []
        self.passes: list[dict] = []
        self.traced: dict | None = None
        self.attempted = 0
        self.failed: list[str] = []
        self.wrong: list[str] = []
        self.notes: list[str] = []
        self.begin = time.perf_counter()

    def spawn(self, mode: str, args: dict, marker: str = "ready") -> dict:
        """Run one worker interpreter; its set-up ends when it prints ``marker``."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        errors = self.work / "worker.stderr"
        start = time.perf_counter()
        with open(errors, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, str(WORKER), mode, json.dumps(args)],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err, text=True,
                start_new_session=True,
            )
            # Kill the worker's whole process group, pool workers included,
            # if the run would otherwise outlive its deadline.
            remaining = max(1.0, RUN_DEADLINE_S - (start - self.begin))
            watchdog = threading.Timer(remaining, os.killpg, (proc.pid, signal.SIGKILL))
            watchdog.start()
            try:
                setup, lines = None, []
                for line in proc.stdout:
                    if line.strip() == marker and setup is None:
                        setup = time.perf_counter() - start
                    lines.append(line)
            finally:
                watchdog.cancel()
                proc.stdout.close()
                proc.wait()
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or setup is None or not lines:
            tail = errors.read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"worker {mode} exited {proc.returncode}:\n{tail}")
        result = json.loads(lines[-1])
        if not Path(result["logictop_file"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"imported logictop from {result['logictop_file']}, not from this checkout")
        result["setup_s"], result["process_s"] = setup, elapsed
        return result

    def repeat(self, one_pass, least: int = 1) -> None:
        """Untraced passes until the run, set-up included, would outlast
        ``seconds``; always at least ``least``."""
        longest = 0.0
        while len(self.passes) < least or time.perf_counter() - self.begin + longest <= self.seconds:
            result = one_pass(False)
            longest = max(longest, result["process_s"])
            self.passes.append(result)

    def traced_pair(self, one_pass) -> None:
        self.passes.append(one_pass(False))
        self.traced = one_pass(True)

    def spans_path(self) -> Path:
        return OUT / "traces" / f"{self.workload}-seed{self.seed}.jsonl"


# corpus workloads


def corpus_verdict(run: Run, result: dict) -> dict:
    """Check one corpus pass and count its criteria; returns its criteria."""
    logics, samples = CORPUS[run.workload][2:]
    try:
        criteria = json.loads(result["stdout"])
    except json.JSONDecodeError:
        run.attempted += CRITERIA
        run.failed += [f"corpus printed no JSON (exit {result['code']})"] * CRITERIA
        run.wrong.append(f"corpus output is not JSON (exit {result['code']}): {result['stderr'][-300:]}")
        return {}
    by_number = {c["number"]: c for c in criteria}
    run.attempted += len(criteria)
    run.failed += [f"criterion {c['number']} {c['name']}: FAIL ({c['detail']})" for c in criteria if not c["passed"]]
    if sorted(by_number) != list(range(1, CRITERIA + 1)):
        run.wrong.append(f"criteria numbered {sorted(by_number)}")
        return by_number
    if result["code"] != (0 if all(c["passed"] for c in criteria) else 1):
        run.wrong.append(f"exit {result['code']} disagrees with the pass flags")
    if not by_number[1]["detail"].startswith(f"{logics} logics,"):
        run.wrong.append(f"criterion 1 checked {by_number[1]['detail']!r}, expected {logics} logics")
    if not by_number[6]["detail"].startswith(f"{samples} samples "):
        run.wrong.append(f"criterion 6 checked {by_number[6]['detail']!r}, expected {samples} samples")
    return by_number


def run_corpus(run: Run) -> None:
    max_points, jobs = CORPUS[run.workload][:2]
    run.spawn("import", {})  # compiles bytecode before anything is timed
    run.setups += [run.spawn("import", {})["setup_s"] for _ in range(IMPORT_SAMPLES)]

    def one_pass(traced: bool) -> dict:
        args = {"max_points": max_points, "jobs": jobs, "seed": run.seed}
        if traced:
            args |= {"trace": True, "spans": str(run.spans_path())}
        result = run.spawn("corpus", args)
        result["criteria"] = corpus_verdict(run, result)
        result["operations"] = CRITERIA
        run.setups.append(result["setup_s"])
        return result

    if run.trace:
        run.traced_pair(one_pass)
        run.notes.append(f"pool workers are not traced (--jobs {jobs})")
    else:
        run.repeat(one_pass)


# doc-requests workload


def run_docs(run: Run) -> None:
    docdir, reference = run.work / "docs", run.work / "reference.json"
    oracles = ROOT / "tests"
    run.spawn("import", {})
    counts = None
    for i in range(1 if run.trace else DOCGEN_SAMPLES):
        args = {"docdir": str(docdir), "seed": run.seed}
        if i == 0:
            args |= {"reference": str(reference), "oracles": str(oracles)}
        result = run.spawn("docgen", args, marker="written")
        run.setups.append(result["setup_s"])
        run.wrong += [f"reference: {p}" for p in result.pop("problems", [])]
        made = {k: result[k] for k in ("logics", "spaces", "posets", "maps")}
        if counts is not None and made != counts:
            run.wrong.append(f"document set changed between set-ups: {made} vs {counts}")
        counts = made
    run.notes.append("documents: " + ", ".join(f"{v} {k}" for k, v in counts.items()))

    def one_pass(traced: bool) -> dict:
        args = {"docdir": str(docdir), "seed": run.seed, "reference": str(reference)}
        if traced:
            args |= {"trace": True, "spans": str(run.spans_path())}
        result = run.spawn("requests", args)
        run.attempted += result["attempted"]
        run.failed += result["failed"]
        run.wrong += result["wrong"]
        result["operations"] = result["attempted"]
        return result

    if run.trace:
        run.traced_pair(one_pass)
    else:
        run.repeat(one_pass, least=REQUEST_PASSES)


# metrics


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta((n+1)q, (n+1)(1-q))
    weighted mean of the order statistics.  A single order statistic such
    as the 21st-largest of 2,082 latencies jumps with whichever heavy
    request a moment of contention hits; this spreads the weight over the
    neighbouring ranks (about +-5 at q = 0.99)."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = [
        math.exp(log_beta + (a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n))
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def end_to_end(run: Run) -> dict[str, float]:
    """Medians over passes; a corpus pass is one request."""
    passes = run.passes
    latencies = [p.get("latencies_s", [p["wall_s"]]) for p in passes]
    return {
        "setup_s": statistics.median(run.setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "req_p50_ms": statistics.median(quantile(x, 0.50) for x in latencies) * 1000,
        "req_p99_ms": statistics.median(quantile(x, 0.99) for x in latencies) * 1000,
        "throughput_rps": statistics.median(p["operations"] / p["wall_s"] for p in passes),
    }


def per_layer(run: Run) -> dict[str, float]:
    trace = run.traced["trace"]
    stats, ratios = trace["stats"], trace["hit_ratios"]
    out = {}
    for name in PER_LAYER:
        function, _, field = name.rpartition(".")
        if field in ("calls", "self_s") and function in stats:
            out[name] = stats[function][0] if field == "calls" else stats[function][2]
        elif field == "hit_ratio" and function in ratios:
            out[name] = ratios[function]
        else:
            out[name] = 0
    criteria = run.traced.get("criteria", {})
    for n in range(1, CRITERIA + 1):
        out[f"corpus.criterion_{n}.wall_s"] = trace["criterion_wall_s"].get(str(n), 0)
    if 6 in criteria:
        found = re.match(r"(\d+) samples .*?, (\d+) logic maps", criteria[6]["detail"])
        samples, maps = int(found[1]), int(found[2])
        out["corpus.stability.samples"] = samples
        out["corpus.stability.logic_map_ratio"] = maps / samples
    out["documents.bytes_parsed"] = trace["bytes_parsed"]
    out["cli.requests.failed"] = len(run.traced["failed"]) if "attempted" in run.traced else sum(
        not c["passed"] for c in criteria.values())
    out["trace.overhead_s"] = run.traced["wall_s"] - run.passes[-1]["wall_s"]
    out["trace.spans_dropped"] = trace["spans_dropped"]
    return out


def report(run: Run) -> dict:
    untraced = end_to_end(run)
    if run.trace:
        metrics, units = per_layer(run), PER_LAYER
    else:
        metrics, units = untraced, END_TO_END
    failed = len(run.failed)
    print(f"workload {run.workload}  seed {run.seed}  passes {len(run.passes)}"
          f"{' + 1 traced' if run.trace else ''}  set-up samples {len(run.setups)}")
    for note in run.notes:
        print(f"  note: {note}")
    print("end-to-end (untraced):")
    for name, value in untraced.items():
        print(f"  {name:<16} {value:12.4f} {END_TO_END[name]}")
    print(f"  {'error_rate':<16} {failed / run.attempted:12.4f} ratio ({failed} failed / {run.attempted} attempted)")
    if run.trace:
        trace = run.traced["trace"]
        print(f"per-layer (traced pass; {trace['spans']} spans, {trace['spans_dropped']} dropped, "
              f"written to {run.spans_path().relative_to(ROOT)}):")
        for name, value in metrics.items():
            print(f"  {name:<42} {value:14.6f} {PER_LAYER[name]}")
        top = sorted(trace["stats"].items(), key=lambda kv: -kv[1][2])[:12]
        print("  top self time: " + ", ".join(f"{name} {s[2]:.3f}s/{s[0]}" for name, s in top))
    print(f"output checks: {'all responses match' if not run.wrong else f'{len(run.wrong)} WRONG'}")
    for line in run.wrong[:5]:
        print(f"  wrong: {line}")
    for line in sorted(set(run.failed))[:5]:
        print(f"  failed: {line}")
    print("known faults counted in error_rate: " + "; ".join(KNOWN_FAULTS))
    return {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "logictop" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no logictop checkout (src/logictop, tests/oracles.py)", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True, exist_ok=True)
    run.spans_path().parent.mkdir(parents=True, exist_ok=True)
    try:
        (run_docs if args.workload == "doc-requests" else run_corpus)(run)
        result = report(run)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
