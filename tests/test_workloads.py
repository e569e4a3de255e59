"""The benchmark's own answer check, run in process.

Every command of each ``perfbench`` workload goes through ``cli.main``, and
its answer must pass ``workloads.Checker``: the schema, the captured
expectations and the closed-form identities that the benchmark applies.
"""

import importlib.util
import os
from pathlib import Path

import pytest

from plethysm import cli

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.fixture(scope="module")
def checker():
    return workloads.Checker(ROOT / "src" / "plethysm" / "schema.json")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["query", "table", "verify"])
def test_every_answer_passes_the_benchmark_check(workload, seed, checker, capsys, monkeypatch):
    for name in list(os.environ):  # the benchmark runs its commands without them
        if name.startswith("PLETHYSM_"):
            monkeypatch.delenv(name)
    for argv in workloads.commands_for(workload, seed):
        code = cli.main(list(argv))
        assert checker.problem(argv, code, capsys.readouterr().out) is None, argv
