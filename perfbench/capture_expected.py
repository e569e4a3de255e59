"""Write expected.json: the answers every benchmark command may be asked for.

Run from the repository root, on the commit whose answers are the reference:

    python3 perfbench/capture_expected.py

The file is a frozen reference; later commits must reproduce it, so do not
regenerate it from code that is being benchmarked.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from workloads import (
    HERE,
    MAX_STABLE_R,
    MODULE_INFOS,
    MODULE_RANK,
    ORACLE_SHAPES,
    digest,
    fmt,
    partitions,
)

sys.path.insert(0, str(HERE.parent / "src"))

from plethysm import cli, coefficients  # noqa: E402


def cli_result(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--format", "json"])
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    return json.loads(out.getvalue())["result"]


def main() -> None:
    stable = {
        str(r): {fmt(lam): coefficients.stable_plethysm(lam) for lam in partitions(r)}
        for r in range(MAX_STABLE_R + 1)
    }
    oracle = {}
    for m, n in ORACLE_SHAPES:
        labels = [alpha[1:] for alpha in partitions(m * n)]
        oracle[f"{m},{n}"] = {
            fmt(lam): coefficients.plethysm_coefficient(m, n, lam)
            for lam in labels
            if coefficients.coefficient_regime(m, n, lam) == coefficients.ORACLE_REGIME
        }
    module = {info: cli_result("module", "--r", str(MODULE_RANK), "--info", info)
              for info in MODULE_INFOS}
    module["matrices_sha256"] = digest(
        cli_result("module", "--r", str(MODULE_RANK), "--info", "matrices")
    )
    verify = {"full": [row["name"] for row in cli_result("verify", "--suite", "full")]}
    expected = {
        "stable": stable,
        "oracle": oracle,
        "module": {str(MODULE_RANK): module},
        "verify": verify,
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
