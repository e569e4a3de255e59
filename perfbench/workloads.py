"""Command lists for the benchmark workloads, and the checks on their answers.

Every command is an argument list for the ``plethysm`` CLI, always with
``--format json``.  ``query`` is drawn from a seed with a fixed size mix, so
its cost does not depend on the seed; ``table`` and ``verify`` are fixed.

Answers are checked two ways: against ``expected.json``, captured from the
seed commit by ``capture_expected.py``, and against closed-form identities
computed here without importing the package under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from math import comb, factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent

# query mix: |lam| of the stable queries, (m, n) of the oracle-regime coeff
# queries (8 <= mn <= 16), and |lam| of the stable-regime coeff queries
STABLE_SIZES = (9, 9, 10, 10, 10, 11, 11, 11)
ORACLE_SHAPES = ((2, 4), (4, 2), (3, 3), (2, 6), (6, 2), (3, 5), (5, 3), (4, 4))
STABLE_COEFF_SIZES = (3, 4, 5, 6, 7, 8)
MAX_STABLE_R = max(STABLE_SIZES)

TABLE_RANKS = range(1, 9)
MODULE_RANK = 6
MODULE_INFOS = ("dims", "dq", "filtration")

SETUP_COMMAND = ("stable", "--lambda", "-", "--format", "json")


# ------------------------------------------------------------- combinatorics
# Written from the definitions, independently of the package.


def partitions(n: int, max_part: int | None = None):
    """Partitions of n as tuples, in descending lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def fmt(lam) -> str:
    return ",".join(map(str, lam)) if lam else "-"


def parse(text: str) -> tuple[int, ...]:
    return () if text == "-" else tuple(int(p) for p in text.split(","))


def no_ones_count(r: int) -> int:
    """Partitions of r with no part 1: the stable value of the one-row label."""
    return sum(1 for lam in partitions(r) if not lam or lam[-1] >= 2)


def hook_dimension(lam) -> int:
    if not lam:
        return 1
    cols = [sum(1 for row in lam if row > j) for j in range(lam[0])]
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return factorial(sum(lam)) // hooks


@lru_cache(maxsize=None)
def singleton_free(n: int) -> int:
    """OEIS A000296: set partitions of an n-set with no singleton block."""
    if n == 0:
        return 1
    # the block holding element n has j >= 1 further elements
    return sum(comb(n - 1, j) * singleton_free(n - 1 - j) for j in range(1, n))


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if n == 0 or k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def refining_pairs(n: int) -> int:
    """OEIS A000258: pairs (inner, outer) of set partitions, inner refining outer.

    Choose inner with k blocks, then any set partition of those k blocks.
    """
    bell = [sum(stirling2(k, j) for j in range(k + 1)) for k in range(n + 1)]
    return sum(stirling2(n, k) * bell[k] for k in range(n + 1))


def box_count(k: int, rows: int, cols: int) -> int:
    if k < 0:
        return 0
    return sum(1 for lam in partitions(k) if len(lam) <= rows and (not lam or lam[0] <= cols))


def cayley_sylvester(m: int, n: int, k: int) -> int:
    """Multiplicity of the two-row label (mn-k, k) in h_n[h_m], for 2k <= mn."""
    return box_count(k, n, m) - box_count(k - 1, n, m)


# ------------------------------------------------------------------ commands


def _json(*argv) -> tuple[str, ...]:
    return tuple(str(a) for a in argv) + ("--format", "json")


def query_commands(seed: int) -> list[tuple[str, ...]]:
    """About two dozen single-coefficient queries; the seed picks the labels only."""
    rng = random.Random(seed)
    commands = []
    for size in STABLE_SIZES:
        lam = rng.choice(list(partitions(size)))
        commands.append(_json("stable", "--lambda", fmt(lam)))
    for m, n in ORACLE_SHAPES:
        while True:
            lam = rng.choice(list(partitions(m * n)))[1:]
            if not (m >= sum(lam) and n >= sum(lam)):
                break
        commands.append(_json("coeff", "--m", m, "--n", n, "--lambda", fmt(lam)))
    for size in STABLE_COEFF_SIZES:
        lam = rng.choice(list(partitions(size)))
        m, n = size + rng.randrange(6), size + rng.randrange(6)
        commands.append(_json("coeff", "--m", m, "--n", n, "--lambda", fmt(lam)))
    rng.shuffle(commands)
    return commands


def table_commands() -> list[tuple[str, ...]]:
    commands = [_json("table", "--r", r) for r in TABLE_RANKS]
    commands += [_json("module", "--r", MODULE_RANK, "--info", info) for info in MODULE_INFOS]
    return commands


def verify_commands() -> list[tuple[str, ...]]:
    return [
        _json("module", "--r", MODULE_RANK, "--info", "matrices"),
        _json("verify", "--suite", "full"),
    ]


def commands_for(workload: str, seed: int) -> list[tuple[str, ...]]:
    if workload == "query":
        return query_commands(seed)
    if workload == "table":
        return table_commands()
    if workload == "verify":
        return verify_commands()
    raise ValueError(f"unknown workload {workload!r}")


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


# -------------------------------------------------------------------- checks


class Checker:
    """Validates one CLI answer: schema, expected value and identities."""

    def __init__(self, schema_path: Path, expected_path: Path = HERE / "expected.json"):
        from jsonschema import Draft202012Validator

        self.validator = Draft202012Validator(json.loads(schema_path.read_text()))
        self.expected = json.loads(expected_path.read_text())

    def problem(self, argv: tuple[str, ...], exit_code: int, stdout: str) -> str | None:
        """None when the answer is right, else a one-line reason."""
        if exit_code != 0:
            return f"exit code {exit_code}"
        try:
            record = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        error = next(iter(self.validator.iter_errors(record)), None)
        if error is not None:
            return f"schema: {error.message[:120]}"
        if record["command"] != argv[0]:
            return f"command echoed as {record['command']!r}"
        opts = dict(zip(argv[1::2], argv[2::2]))
        try:
            return getattr(self, "_" + argv[0])(opts, record)
        except (KeyError, TypeError, ValueError) as exc:  # a shape the schema leaves open
            return f"malformed answer: {exc!r}"

    def _stable(self, opts, record):
        lam = opts["--lambda"]
        if record["query"] != {"lambda": lam}:
            return f"query echoed as {record['query']}"
        return self._stable_value(parse(lam), record["result"])

    def _stable_value(self, lam, value):
        want = self.expected["stable"][str(sum(lam))][fmt(lam)]
        if value != want:
            return f"stable({fmt(lam)}) = {value}, expected {want}"
        if len(lam) <= 1 and value != no_ones_count(sum(lam)):
            return f"stable({fmt(lam)}) = {value} != no-ones count {no_ones_count(sum(lam))}"
        return None

    def _coeff(self, opts, record):
        m, n, lam = int(opts["--m"]), int(opts["--n"]), parse(opts["--lambda"])
        if record["query"] != {"m": m, "n": n, "lambda": fmt(lam)}:
            return f"query echoed as {record['query']}"
        value = record["result"]
        if m >= sum(lam) and n >= sum(lam):
            if record["regime"] != "stable":
                return f"regime {record['regime']!r}, expected 'stable'"
            return self._stable_value(lam, value)
        if record["regime"] != "oracle":
            return f"regime {record['regime']!r}, expected 'oracle'"
        want = self.expected["oracle"][f"{m},{n}"][fmt(lam)]
        if value != want:
            return f"coeff({m},{n},{fmt(lam)}) = {value}, expected {want}"
        if len(lam) == 1 and value != cayley_sylvester(m, n, lam[0]):
            return f"coeff({m},{n},{fmt(lam)}) = {value} breaks Cayley-Sylvester"
        return None

    def _table(self, opts, record):
        r = int(opts["--r"])
        rows = record["result"]
        labels = [row["lambda"] for row in rows]
        if labels != [fmt(lam) for lam in partitions(r)]:
            return f"table r={r}: rows are not the partitions of {r} in order"
        for row in rows:
            problem = self._stable_value(parse(row["lambda"]), row["value"])
            if problem:
                return f"table r={r}: {problem}"
        weighted = sum(row["value"] * hook_dimension(parse(row["lambda"])) for row in rows)
        if weighted != singleton_free(r):
            return f"table r={r}: sum value*dim = {weighted}, A000296 gives {singleton_free(r)}"
        return None

    def _module(self, opts, record):
        r, info = int(opts["--r"]), opts["--info"]
        payload = record["result"]
        expected = self.expected["module"][str(r)]
        pairs, quotient = refining_pairs(r), singleton_free(r)
        if info == "matrices":
            if digest(payload) != expected["matrices_sha256"]:
                return "matrices differ from the captured output"
            if len(payload["basis"]) != pairs:
                return f"basis size {len(payload['basis'])}, A000258 gives {pairs}"
            for name, entries in payload["matrices"].items():
                if sorted(col for _, col, _ in entries) != list(range(pairs)):
                    return f"matrix {name} is not one monomial per column"
            return None
        if payload != expected[info]:
            return f"module {info} differs from the captured output"
        if info == "dims":
            if (payload["pairs"], payload["depth_quotient"]) != (pairs, quotient):
                return f"dims {payload}, identities give pairs {pairs}, quotient {quotient}"
        elif info == "dq":
            if sum(row["orbit_size"] for row in payload) != quotient:
                return f"orbit sizes do not sum to A000296({r}) = {quotient}"
        elif sum(row["dimension"] for row in payload) != pairs:
            return f"filtration does not sum to A000258({r}) = {pairs}"
        return None

    def _verify(self, opts, record):
        if record["ok"] is not True:
            return "verify reports ok=false"
        names = [row["name"] for row in record["result"]]
        if names != self.expected["verify"][opts["--suite"]]:
            return "verify ran a different list of checks"
        failed = [row["name"] for row in record["result"] if not row["ok"]]
        if failed:
            return f"verify checks failed: {failed}"
        return None
