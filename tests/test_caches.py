"""Every process-wide memo in the package, declared with the cap that bounds it.

An ``lru_cache(maxsize=None)`` keeps each result for the life of the process,
so the package keeps one only where a result is read again, on keys that a
cap bounds.  ``CACHES`` is the inventory: each memo with the cap that bounds
its keys and a ceiling on its size after ``MIX``, one fresh process running a
stated mix of commands and closed-form counts.  A memo found in the package
and missing here, or declared here and gone, fails the first test.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import plethysm
from plethysm.characters import cap, partitions, singleton_free_count

PACKAGE = Path(plethysm.__file__).resolve().parent

# the cycle types of at most ORACLE_CAP points: every class function's keys
# under the default caps, since ORACLE_CAP is above PLETHYSM_MAX_R
CYCLE_TYPES = sum(1 for size in range(cap("ORACLE_CAP") + 1) for _ in partitions(size))

# the largest rank whose pair basis, index or matrices a verify check builds
VERIFY_TOP_RANK = 5

# "module.function": (the cap that bounds its keys, its size after MIX at most);
# a ceiling is what the cap allows where that is small, else the size that MIX
# left when measured (77 entries) rounded up
CACHES = {
    "characters.cycle_type_centralizer": (
        "cycle types of at most max(PLETHYSM_MAX_R, ORACLE_CAP) points", CYCLE_TYPES
    ),
    "characters._power_sum_of_h": ("k*a at most max(PLETHYSM_MAX_R, ORACLE_CAP)", 50),
    "characters._plethystic_exp": ("degree at most max(PLETHYSM_MAX_R, ORACLE_CAP)", 80),
    "foulkes.monomial_text": ("exponents at most MODULE_CAP", (cap("MODULE_CAP") + 1) ** 2),
    "foulkes._basis_index": ("rank at most MODULE_CAP", cap("MODULE_CAP")),
    "setpartitions._pair_basis": ("rank at most PAIR_BASIS_CAP", cap("PAIR_BASIS_CAP")),
    "verify._generator_matrices": ("rank at most 5, verify's top module rank", VERIFY_TOP_RANK),
}

# run with the caches' names as arguments; prints each one's size
MIX = """
import contextlib, importlib, io, json, sys
from plethysm import cli
for argv in (
    ["table", "--r", "12"],
    ["stable", "--lambda", "6,3,2"],
    ["coeff", "--m", "4", "--n", "4", "--lambda", "5,3"],
    ["module", "--r", "7", "--info", "matrices", "--format", "csv"],
    ["module", "--r", "7", "--info", "dq"],
    ["verify", "--suite", "full"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
from plethysm.characters import cayley_sylvester
from plethysm.setpartitions import pair_counts_by_depth
cayley_sylvester(40, 40, 800)
pair_counts_by_depth(300)
sizes = {}
for name in sys.argv[1:]:
    module, _, function = name.rpartition(".")
    cache = getattr(importlib.import_module("plethysm." + module), function)
    sizes[name] = cache.cache_info().currsize
print(json.dumps(sizes))
"""


def found_caches():
    """Every memo that a package module defines at its top level."""
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"plethysm.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)) and obj.__module__ == module.__name__:
                yield f"{info.name}.{name}"


def decorated_caches():
    """Each function the source decorates with lru_cache or cache, wherever it
    is defined, as "module.function"."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = getattr(target, "id", getattr(target, "attr", None))
                    if name in ("lru_cache", "cache"):
                        yield f"{path.stem}.{node.name}"


def test_every_cache_is_declared_with_its_cap():
    assert sorted(found_caches()) == sorted(CACHES)
    # a memo defined in a class or a function escapes the walk over module
    # namespaces, but not the count of decorators
    assert sorted(decorated_caches()) == sorted(CACHES)
    assert all(cap and ceiling > 0 for cap, ceiling in CACHES.values())


def run_fresh(script, names):
    """The JSON that script prints, run in a fresh process with the caches'
    names as arguments, at the default caps."""
    done = subprocess.run(
        [sys.executable, "-c", script, *names],
        capture_output=True,
        text=True,
        env={
            **{k: v for k, v in os.environ.items() if not k.startswith("PLETHYSM_")},
            "PYTHONPATH": str(PACKAGE.parent),
        },
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


def test_cache_sizes_after_the_mix_stay_under_their_ceilings():
    sizes = run_fresh(MIX, CACHES)
    over = {name: size for name, size in sizes.items() if size > CACHES[name][1]}
    assert not over, over


# run with the caches' names as arguments; prints each one's ranks 1..k as k,
# or None if it holds a key outside 1..k
TOP_RANKS_AFTER_VERIFY = """
import importlib, json, sys
from plethysm import verify
assert all(result.ok for result in verify.run_suite("full"))
tops = {}
for name in sys.argv[1:]:
    module, _, function = name.rpartition(".")
    cache = getattr(importlib.import_module("plethysm." + module), function)
    before = cache.cache_info()
    for r in range(1, before.currsize + 1):
        cache(r)
    # keyed by rank alone, it holds ranks 1..k exactly when reading them misses none
    tops[name] = before.currsize if cache.cache_info().misses == before.misses else None
print(json.dumps(tops))
"""


def test_verify_builds_no_module_rank_above_its_top():
    """No verify check builds a rank-6 pair basis, pair index or set of
    generator matrices: the depth quotient's character is read on its own basis."""
    names = ["setpartitions._pair_basis", "foulkes._basis_index", "verify._generator_matrices"]
    assert run_fresh(TOP_RANKS_AFTER_VERIFY, names) == dict.fromkeys(names, VERIFY_TOP_RANK)


# run with the caches' names as arguments; prints the size of the quotient
# basis at PAIR_BASIS_CAP and then each cache's size
QUOTIENT_AT_THE_BASIS_CAP = """
import importlib, json, sys
from plethysm.foulkes import depth_quotient_basis
from plethysm.characters import cap
sizes = {"quotient": len(depth_quotient_basis(cap("PAIR_BASIS_CAP")))}
for name in sys.argv[1:]:
    module, _, function = name.rpartition(".")
    cache = getattr(importlib.import_module("plethysm." + module), function)
    sizes[name] = cache.cache_info().currsize
print(json.dumps(sizes))
"""


def test_the_quotient_basis_builds_no_pair_basis():
    """The rank-9 quotient holds 3,425 pairs of the 1,606,137 in the pair
    basis, and is built without it or its index."""
    names = ["setpartitions._pair_basis", "foulkes._basis_index"]
    expected = {"quotient": singleton_free_count(cap("PAIR_BASIS_CAP")), **dict.fromkeys(names, 0)}
    assert expected["quotient"] == 3425
    assert run_fresh(QUOTIENT_AT_THE_BASIS_CAP, names) == expected
