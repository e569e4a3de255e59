"""The benchmark's tracer wraps package functions by name; it must still find them."""

import json
import os
import subprocess
import sys
from pathlib import Path

from plethysm import verify

ROOT = Path(__file__).resolve().parent.parent


def traced(*argv):
    proc = subprocess.run(
        [sys.executable, "perfbench/trace_cli.py", *argv],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    envelope = json.loads(proc.stdout)
    assert envelope["exit"] == 0
    return envelope


def test_traced_command_runs():
    envelope = traced("stable", "--lambda", "2", "--format", "json")
    assert json.loads(envelope["stdout"])["result"] == 1


def test_module_matrices_feed_the_pair_and_entry_counters():
    # the per-layer benchmark metrics read these names; a change that stops
    # calling them through the traced functions must fail here
    envelope = traced("module", "--r", "3", "--info", "matrices", "--format", "json")
    counters = envelope["counters"]
    assert counters["setpartitions.pairs"] == 72  # A000258(3) = 12 pairs, 6 calls
    assert counters["foulkes.action_matrix.entries"] == 48  # 4 generators x 12 columns
    assert envelope["spans"]["setpartitions.foulkes_pairs"][0] > 0


def test_table_feeds_the_stable_and_character_spans():
    # the table pairs its character with every label in one walk, through
    # neither stable_plethysm nor character_value
    envelope = traced("table", "--r", "6", "--format", "json")
    spans = envelope["spans"]
    assert spans["coefficients.stable_table"][0] == 1


def test_coeff_feeds_the_query_workload_spans():
    # the oracle regime: one power-sum plethysm over the characters
    spans = traced("coeff", "--m", "4", "--n", "4", "--lambda", "5,3")["spans"]
    for name in (
        "coefficients.plethysm_coefficient",
        "characters.homogeneous_plethysm",
        "characters.generalized_plethysm",
    ):
        assert spans[name][0] == 1, name
    # the stable regime
    spans = traced("coeff", "--m", "7", "--n", "8", "--lambda", "4,2")["spans"]
    assert spans["coefficients.stable_plethysm"][0] == 1


def test_verify_feeds_the_check_and_diagram_spans():
    envelope = traced("verify", "--suite", "fast", "--format", "json")
    spans = envelope["spans"]
    assert len(verify.CHECKS) == 30
    for name, _ in verify.CHECKS:
        assert spans[f"verify.{name}"][0] == 1, name
    assert spans["foulkes.layer_matrix"][0] >= 1
    assert spans["diagrams.multiply_diagrams"][0] >= 1
    assert spans["characters.character_value"][0] >= 1  # through characters.orthogonality
    assert envelope["counters"]["verify.checks_failed"] == 0
