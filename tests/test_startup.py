"""The package loads its submodules on first use.

The coefficient queries (`stable`, `coeff`, `table`) must run without the
set-partition, diagram, module, tensor and verification code, and without the
stdlib ``dataclasses`` that those modules need.  Every public name still
resolves through ``plethysm`` itself.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import plethysm

SRC = Path(__file__).resolve().parent.parent / "src"
NOT_ON_THE_QUERY_PATH = (
    "dataclasses",
    "plethysm.setpartitions",
    "plethysm.diagrams",
    "plethysm.foulkes",
    "plethysm.tensor",
    "plethysm.verify",
)
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(plethysm.__path__))


@pytest.mark.parametrize(
    "argv",
    [
        ["stable", "--lambda", "4,2"],
        ["coeff", "--m", "2", "--n", "3", "--lambda", "3"],  # oracle regime
        ["coeff", "--m", "9", "--n", "9", "--lambda", "4,2"],  # stable regime
        ["table", "--r", "6"],
    ],
    ids=["stable", "coeff-oracle", "coeff-stable", "table"],
)
def test_queries_load_no_module_they_do_not_run(argv):
    script = (
        "import sys; from plethysm.cli import main; "
        f"code = main({argv!r} + ['--format', 'json']); "
        f"print(sorted(set(sys.modules) & set({NOT_ON_THE_QUERY_PATH!r})), file=sys.stderr); "
        "sys.exit(code)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from plethysm import *", namespace)
    for name in plethysm.__all__:
        value = getattr(plethysm, name)
        assert namespace[name] is value
        # the defining module's object, not a copy
        assert getattr(sys.modules[value.__module__], name) is value


def test_every_submodule_is_an_attribute():
    assert {"characters", "cli", "coefficients", "verify"} <= set(SUBMODULES)
    for name in SUBMODULES:
        assert getattr(plethysm, name) is importlib.import_module(f"plethysm.{name}")


def test_dir_lists_the_public_names():
    assert set(plethysm.__all__) <= set(dir(plethysm))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        plethysm.no_such_name
    assert not hasattr(plethysm, "StableTable")
