"""The benchmark's tracer wraps package functions by name; it must still find them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_command_runs():
    proc = subprocess.run(
        [sys.executable, "perfbench/trace_cli.py", "stable", "--lambda", "2", "--format", "json"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    envelope = json.loads(proc.stdout)
    assert envelope["exit"] == 0
    assert json.loads(envelope["stdout"])["result"] == 1
