"""The benchmark's own tests; not part of any timed run.

    python3 perfbench/selfcheck.py [--seed N]

1. ``logictop corpus --max-points 5`` prints byte-identical output, with
   the same exit code, for ``--jobs 1`` and ``--jobs 2`` (the README
   promises this), in both output formats.
2. The doc-requests inputs depend on the seed alone: two document sets
   generated for one seed are byte-identical, and so are the request
   mixes drawn from them.
3. ``docset.FRAME_PROFILE`` is what ``docset.frame_profile`` derives from
   its fixed-seed draw of unconstrained frames.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench" / f"selfcheck-{os.getpid()}"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def corpus_output(jobs: int, fmt: str, seed: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "logictop.cli", "corpus", "--max-points", "5",
         "--jobs", str(jobs), "--format", fmt, "--seed", str(seed)],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout


def check_jobs(seed: int) -> list[str]:
    problems = []
    for fmt in ("json", "text"):
        serial, parallel = corpus_output(1, fmt, seed), corpus_output(2, fmt, seed)
        verdict = "identical" if serial == parallel else "DIFFERENT"
        print(f"corpus --max-points 5 --format {fmt}: --jobs 1 and --jobs 2 {verdict} "
              f"(exit {serial[0]} / {parallel[0]}, {len(serial[1])} bytes)")
        if serial != parallel:
            problems.append(f"--jobs 2 output differs from --jobs 1 ({fmt})")
    return problems


def check_inputs(seed: int) -> list[str]:
    sets = [WORK / "a", WORK / "b"]
    for docdir in sets:
        subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "docgen", json.dumps({"docdir": str(docdir), "seed": seed})],
            cwd=ROOT, env=ENV, check=True, capture_output=True, timeout=300,
        )
    names = sorted(p.name for p in sets[0].iterdir())
    match, mismatch, errors = filecmp.cmpfiles(sets[0], sets[1], names, shallow=False)
    sys.path.insert(0, str(BENCH))
    from docset import request_mix

    mixes = [request_mix(json.loads((d / "manifest.json").read_text(encoding="utf-8")), seed) for d in sets]
    print(f"doc-requests inputs for seed {seed}: {len(match)} of {len(names)} documents identical, "
          f"request mixes {'identical' if mixes[0] == mixes[1] else 'DIFFERENT'}")
    problems = [f"document {name} differs between generations" for name in mismatch + errors]
    if mixes[0] != mixes[1]:
        problems.append("request mix differs between generations")
    return problems


def check_profile() -> list[str]:
    sys.path.insert(0, str(BENCH))
    import docset

    derived = docset.frame_profile()
    same = derived == docset.FRAME_PROFILE
    print(f"frame profile: FRAME_PROFILE {'matches' if same else 'DIFFERS FROM'} the derivation "
          f"from {docset.PROFILE_DRAWS} draws")
    return [] if same else [f"FRAME_PROFILE should be {derived}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args().seed
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        problems = check_profile() + check_jobs(seed) + check_inputs(seed)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selfcheck " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
