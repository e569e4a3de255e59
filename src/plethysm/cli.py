"""Command-line surface: coefficient queries, tables, module dumps, verification.

Exit codes: 0 success, 1 parse/usage, 2 unsupported regime, 3 resource cap,
4 verification failure.  JSON output is deterministic (sorted keys, stable
row order) and validates against the shipped schema.json.  The module and
verify commands import their modules when they run, so the coefficient
queries load only ``characters``, ``coefficients`` and ``errors``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import coefficients
from .characters import format_partition, parse_partition, singleton_free_count
from .errors import (
    MalformedPartitionError,
    PlethysmError,
    ResourceCapError,
    SizeMismatchError,
    UnsupportedRegimeError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REGIME = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(record: dict, fmt: str, text_lines: list[str], csv_rows: list[list] | None = None):
    if fmt == "json":
        print(json.dumps(record, sort_keys=True, indent=2))
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for row in csv_rows or []:
            writer.writerow(row)
        sys.stdout.write(buffer.getvalue())
    else:
        for line in text_lines:
            print(line)


def _cmd_stable(args) -> int:
    lam = parse_partition(args.lam)
    value = coefficients.stable_plethysm(lam)
    record = {
        "command": "stable",
        "query": {"lambda": format_partition(lam)},
        "result": value,
    }
    _emit(record, args.format, [str(value)], [["lambda", "value"], [format_partition(lam), value]])
    return EXIT_OK


def _cmd_coeff(args) -> int:
    lam = parse_partition(args.lam)
    regime = coefficients.coefficient_regime(args.m, args.n, lam)
    value = coefficients.plethysm_coefficient(args.m, args.n, lam)
    record = {
        "command": "coeff",
        "query": {"m": args.m, "n": args.n, "lambda": format_partition(lam)},
        "result": value,
        "regime": regime,
    }
    _emit(
        record,
        args.format,
        [f"{value} (regime: {regime})"],
        [["m", "n", "lambda", "value", "regime"],
         [args.m, args.n, format_partition(lam), value, regime]],
    )
    return EXIT_OK


def _cmd_table(args) -> int:
    table = coefficients.stable_table(args.r)
    rows = [
        {"lambda": format_partition(lam), "value": value} for lam, value in table.rows
    ]
    record = {"command": "table", "query": {"r": args.r}, "result": rows}
    width = max((len(row["lambda"]) for row in rows), default=1)
    text = [f"{row['lambda']:<{width}}  {row['value']}" for row in rows]
    csv_rows = [["lambda", "value"]] + [[row["lambda"], row["value"]] for row in rows]
    _emit(record, args.format, text, csv_rows)
    return EXIT_OK


def _module_payload(r: int, info: str):
    from . import foulkes
    from .diagrams import generator, generator_names
    from .setpartitions import foulkes_pairs, pair_counts_by_depth

    if info == "dims":
        total = sum(pair_counts_by_depth(r))
        quotient = singleton_free_count(r)
        return {"pairs": total, "depth_radical": total - quotient, "depth_quotient": quotient}
    if info == "matrices":
        basis = [str(p) for p in foulkes_pairs(r)]
        matrices = {}
        for name in generator_names(r):
            matrix = foulkes.action_matrix(generator(name, r), r)
            matrices[name] = [[i, j, mono] for i, j, mono in matrix.coordinate_dump()]
        return {"basis": basis, "matrices": matrices}
    if info == "dq":
        return [
            {
                "shape": format_partition(orbit.shape),
                "representative": str(orbit.representative),
                "orbit_size": orbit.size,
            }
            for orbit in foulkes.orbit_decomposition(r)
        ]
    if info == "filtration":
        return [
            {"depth": k, "dimension": size} for k, size in enumerate(pair_counts_by_depth(r))
        ]
    raise MalformedPartitionError(f"unknown info {info!r}")


def _cmd_module(args) -> int:
    from . import foulkes

    if args.r > foulkes.MODULE_CAP:
        raise ResourceCapError(f"r={args.r} exceeds MODULE_CAP = {foulkes.MODULE_CAP}")
    payload = _module_payload(args.r, args.info)
    record = {"command": "module", "query": {"r": args.r, "info": args.info}, "result": payload}
    if args.info == "dims":
        text = [f"{payload['pairs']} / {payload['depth_radical']} / {payload['depth_quotient']}"]
        csv_rows = [["pairs", "depth_radical", "depth_quotient"],
                    [payload["pairs"], payload["depth_radical"], payload["depth_quotient"]]]
    elif args.info == "matrices":
        text = ["basis:"]
        text += [f"  [{i}] {b}" for i, b in enumerate(payload["basis"])]
        csv_rows = [["generator", "row", "col", "entry"]]
        for name in sorted(payload["matrices"]):
            text.append(f"{name}:")
            for i, j, mono in payload["matrices"][name]:
                text.append(f"  ({i}, {j}) {mono}")
                csv_rows.append([name, i, j, mono])
    elif args.info == "dq":
        text = [
            f"{row['shape']}: {row['representative']} (orbit size {row['orbit_size']})"
            for row in payload
        ]
        csv_rows = [["shape", "representative", "orbit_size"]] + [
            [row["shape"], row["representative"], row["orbit_size"]] for row in payload
        ]
    else:
        text = [f"depth {row['depth']}: {row['dimension']}" for row in payload]
        csv_rows = [["depth", "dimension"]] + [[row["depth"], row["dimension"]] for row in payload]
    _emit(record, args.format, text, csv_rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite, inject_failure=args.inject_failure)
    ok = all(res.ok for res in results)
    record = {
        "command": "verify",
        "query": {"suite": args.suite},
        "result": [
            {"name": res.name, "ok": res.ok, "detail": res.detail} for res in results
        ],
        "ok": ok,
    }
    text = [
        f"{'PASS' if res.ok else 'FAIL'} {res.name}: {res.detail} [{res.seconds:.2f} s]"
        for res in results
    ]
    text.append(f"{'all checks passed' if ok else 'FAILURES PRESENT'} ({len(results)} checks)")
    csv_rows = [["name", "ok", "detail"]] + [
        [res.name, res.ok, res.detail] for res in results
    ]
    _emit(record, args.format, text, csv_rows)
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="plethysm", description="Exact stable plethysm calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    sp = sub.add_parser("stable", help="stable coefficient for a partition")
    sp.add_argument("--lambda", dest="lam", required=True,
                    help="comma-separated parts; '-' for the empty partition")
    add_format(sp)
    sp.set_defaults(func=_cmd_stable)

    cp = sub.add_parser("coeff", help="coefficient for a specific rectangle")
    cp.add_argument("--m", type=int, required=True)
    cp.add_argument("--n", type=int, required=True)
    cp.add_argument("--lambda", dest="lam", required=True)
    add_format(cp)
    cp.set_defaults(func=_cmd_coeff)

    tp = sub.add_parser("table", help="stable table over all partitions of r")
    tp.add_argument("--r", type=int, required=True)
    add_format(tp)
    tp.set_defaults(func=_cmd_table)

    mp = sub.add_parser("module", help="inspect the rank-r diagrammatic module")
    mp.add_argument("--r", type=int, required=True)
    mp.add_argument("--info", choices=("dims", "matrices", "dq", "filtration"),
                    required=True)
    add_format(mp)
    mp.set_defaults(func=_cmd_module)

    vp = sub.add_parser("verify", help="run the invariant suites")
    vp.add_argument("--suite", choices=("fast", "full"), default="fast")
    vp.add_argument("--inject-failure", action="store_true", help=argparse.SUPPRESS)
    add_format(vp)
    vp.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UnsupportedRegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (MalformedPartitionError, SizeMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PlethysmError as exc:  # internal faults still exit nonzero
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
