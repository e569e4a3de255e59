"""Every resource cap refuses through ``characters.check_cap``, in one wording.

Each cap site is one row: the call that crosses its cap and the exact
message, ``{what}={value} exceeds {name} = {cap}``, where a value of more
than ``MAX_DIGITS`` digits reads ``{what} of more than 640 digits``.  The rows
that the CLI reaches also give the command, which exits 3 with that message
on stderr.
"""

import argparse
import ast
import sys
from pathlib import Path

import pytest

from plethysm import cli
from plethysm.characters import (
    character_value,
    generalized_plethysm,
    homogeneous_plethysm,
)
from plethysm.coefficients import stable_plethysm, stable_table
from plethysm.diagrams import PartitionDiagram, generators
from plethysm.errors import ResourceCapError
from plethysm.foulkes import action_matrix, depth_quotient_basis, orbit_decomposition
from plethysm.setpartitions import (
    ENUMERATION_CAP,
    FoulkesPair,
    SetPartition,
    foulkes_pairs,
    pair_runs,
    set_partitions,
)
from plethysm.tensor import (
    block_constant_support,
    diagram_tensor_matrix,
    foulkes_image_rank,
    tensor_basis_orbits,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "plethysm"

# (call, message, CLI arguments or None); the default PLETHYSM_MAX_R of 12
CAP_SITES = {
    "homogeneous_plethysm": (
        lambda: homogeneous_plethysm(5, 4, (20,)), "mn=20 exceeds ORACLE_CAP = 16", None
    ),
    "generalized_plethysm": (
        lambda: generalized_plethysm((17,), (17,)), "|mu|=17 exceeds ORACLE_CAP = 16", None
    ),
    "character_value": (
        lambda: character_value((51,), (1,) * 51), "|lam|=51 exceeds CHARACTER_CAP = 50", None
    ),
    "character_value, a part too large for its bead bitmask": (
        lambda: character_value((10**5,), (10**5,)),
        "|lam|=100000 exceeds CHARACTER_CAP = 50",
        None,
    ),
    "stable_plethysm": (
        lambda: stable_plethysm((13,)),
        "|lam|=13 exceeds PLETHYSM_MAX_R = 12",
        ["stable", "--lambda", "13"],
    ),
    "stable_table": (
        lambda: stable_table(13), "r=13 exceeds PLETHYSM_MAX_R = 12", ["table", "--r", "13"]
    ),
    "set_partitions": (
        lambda: next(set_partitions(13)), "r=13 exceeds PLETHYSM_MAX_R = 12", None
    ),
    "orbit_decomposition": (
        lambda: orbit_decomposition(13), "r=13 exceeds PLETHYSM_MAX_R = 12", None
    ),
    "generators": (lambda: generators(13), "r=13 exceeds PLETHYSM_MAX_R = 12", None),
    "pair_runs": (lambda: next(pair_runs(10)), "r=10 exceeds PAIR_BASIS_CAP = 9", None),
    "foulkes_pairs": (lambda: foulkes_pairs(10), "r=10 exceeds PAIR_BASIS_CAP = 9", None),
    "depth_quotient_basis": (
        lambda: depth_quotient_basis(10), "r=10 exceeds PAIR_BASIS_CAP = 9", None
    ),
    "action_matrix": (
        lambda: action_matrix(generators(8)["p1"], 8), "r=8 exceeds MODULE_CAP = 7", None
    ),
    "cli._cmd_module": (
        lambda: cli._cmd_module(argparse.Namespace(r=8, info="matrices", format="text")),
        "r=8 exceeds MODULE_CAP = 7",
        ["module", "--r", "8", "--info", "matrices"],
    ),
    "cli._cmd_module, counted infos": (
        lambda: cli._cmd_module(argparse.Namespace(r=13, info="dims", format="text")),
        "r=13 exceeds PLETHYSM_MAX_R = 12",
        ["module", "--r", "13", "--info", "dims"],
    ),
    "diagram_tensor_matrix support": (
        lambda: diagram_tensor_matrix(PartitionDiagram(3, SetPartition.singletons(6)), 4, 4),
        f"tensor support={16**6} exceeds VECTOR_CAP = 100000",
        None,
    ),
    "block_constant_support support": (
        lambda: block_constant_support(FoulkesPair(*[SetPartition.singletons(5)] * 2), 4, 4),
        f"tensor support={4**10} exceeds VECTOR_CAP = 100000",
        None,
    ),
    # 6**10000 and 4**(10**9) are refused unbuilt, as too long to print
    "tensor_basis_orbits dimension": (
        lambda: tensor_basis_orbits(10**4, 2, 3),
        "tensor dimension of more than 640 digits exceeds VECTOR_CAP = 100000",
        None,
    ),
    "tensor_basis_orbits dimension, r = 10**9": (
        lambda: tensor_basis_orbits(10**9, 2, 2),
        "tensor dimension of more than 640 digits exceeds VECTOR_CAP = 100000",
        None,
    ),
    "foulkes_image_rank pair basis": (
        lambda: foulkes_image_rank(10, 1, 1), "r=10 exceeds PAIR_BASIS_CAP = 9", None
    ),
    "foulkes_image_rank dimension": (
        lambda: foulkes_image_rank(5, 4, 4),
        f"tensor dimension={16**5} exceeds VECTOR_CAP = 100000",
        None,
    ),
    "foulkes_image_rank Gram matrix": (
        lambda: foulkes_image_rank(5, 1, 1),
        f"Gram matrix size={358**2} exceeds VECTOR_CAP = 100000",
        None,
    ),
}


@pytest.mark.parametrize("call, message, argv", CAP_SITES.values(), ids=CAP_SITES)
def test_each_cap_refuses_in_the_one_wording(call, message, argv, capsys, monkeypatch):
    monkeypatch.delenv("PLETHYSM_MAX_R", raising=False)
    with pytest.raises(ResourceCapError) as refused:
        call()
    assert str(refused.value) == message
    if argv is not None:
        assert cli.main(argv) == cli.EXIT_CAP == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_raised_cap_stops_enumeration_at_its_ceiling(monkeypatch):
    # the growth strings nest one generator frame per point, so the ceiling
    # refuses before the recursion limit does, however far PLETHYSM_MAX_R goes
    monkeypatch.setenv("PLETHYSM_MAX_R", "2000")
    assert ENUMERATION_CAP * 4 <= sys.getrecursionlimit()
    first = next(set_partitions(ENUMERATION_CAP))
    assert first == SetPartition(ENUMERATION_CAP, (0,) * ENUMERATION_CAP)
    with pytest.raises(ResourceCapError) as refused:
        next(set_partitions(1000))
    assert str(refused.value) == f"r=1000 exceeds ENUMERATION_CAP = {ENUMERATION_CAP}"


def cap_raises():
    """Each ``raise ResourceCapError`` in the package, as "module.function"."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}
        for node in ast.walk(tree):  # breadth first, so a nested def overwrites its parent
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update(dict.fromkeys(ast.walk(node), node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "ResourceCapError":
                    yield f"{path.stem}.{scope.get(node, '<module>')}"


def test_only_check_cap_raises_a_cap_error():
    assert list(cap_raises()) == ["characters.check_cap"]
