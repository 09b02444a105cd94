"""The demo scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_demo_runs_and_prints():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 3
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for demo in demos:
        done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, (demo.name, done.stderr)
        assert done.stdout.strip(), demo.name
