"""Command-line surface: coefficient queries, tables, module dumps, verification.

Exit codes: 0 success, 1 parse/usage, 2 unsupported regime, 3 resource cap,
4 verification failure, 141 output pipe closed by its reader (the status a
shell reports for a writer killed by SIGPIPE).  JSON output is deterministic
(sorted keys, stable row order) and validates against the shipped
schema.json.  The module and verify commands import their modules when they
run, so the coefficient queries load only ``characters``, ``coefficients``
and ``errors``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Callable, Iterable, Iterator, Sequence

from . import coefficients
from .characters import (
    check_cap, format_partition, max_ground_size, parse_int, parse_partition,
    singleton_free_count,
)
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
EXIT_PIPE = 141  # 128 + SIGPIPE


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_argument(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError:  # argparse's own wording for a value int() refuses
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _json_text(record: dict) -> Iterator[str]:
    yield json.dumps(record, sort_keys=True, indent=2)


def _emit(
    record: dict,
    fmt: str,
    text_lines: Iterable[str],
    csv_rows: Iterable[Sequence] = (),
    json_text: Callable[[dict], Iterable[str]] = _json_text,
):
    """Print the record in one format.  Only the requested format's iterable is
    consumed, so callers pass generators for output that is costly to build.
    ``json_text`` gives the JSON in pieces; a command with a large record
    passes a writer that yields the same bytes as the default."""
    if fmt == "json":
        sys.stdout.writelines(json_text(record))
        sys.stdout.write("\n")
    elif fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(csv_rows)
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


def _module_output(r: int, info: str):
    """One ``module --info`` reading: its payload, text lines, CSV rows and JSON writer."""
    from . import foulkes
    from .diagrams import generators
    from .setpartitions import foulkes_pairs, pair_counts_by_depth

    if info == "dims":
        total = sum(pair_counts_by_depth(r))
        quotient = singleton_free_count(r)
        payload = {"pairs": total, "depth_radical": total - quotient, "depth_quotient": quotient}
        values = list(payload.values())
        return payload, [" / ".join(map(str, values))], [list(payload), values], _json_text
    if info == "matrices":
        basis = [str(p) for p in foulkes_pairs(r)]  # refuses r < 1 before generators(r) can
        matrices = {  # JSON writes each dumped tuple as a list
            name: foulkes.action_matrix(d, r).coordinate_dump() for name, d in generators(r).items()
        }
        payload = {"basis": basis, "matrices": matrices}
        return payload, _matrices_text(payload), _matrices_csv(matrices), _matrices_json
    if info == "dq":
        rows = [
            {
                "shape": format_partition(orbit.shape),
                "representative": str(orbit.representative),
                "orbit_size": orbit.size,
            }
            for orbit in foulkes.orbit_decomposition(r)
        ]
        text = ("{}: {} (orbit size {})".format(*row.values()) for row in rows)
        csv_rows = [["shape", "representative", "orbit_size"], *map(dict.values, rows)]
        return rows, text, csv_rows, _json_text
    counts = list(enumerate(pair_counts_by_depth(r)))  # filtration
    rows = [{"depth": k, "dimension": size} for k, size in counts]
    text = (f"depth {k}: {size}" for k, size in counts)
    return rows, text, [["depth", "dimension"], *counts], _json_text


def _cmd_module(args) -> int:
    from . import foulkes

    # the matrices are built pair by pair; the other infos are counted or walk partitions
    if args.info == "matrices":
        check_cap("r", args.r, foulkes.MODULE_CAP, "MODULE_CAP")
    else:
        check_cap("r", args.r, max_ground_size(), "PLETHYSM_MAX_R")
    payload, text, csv_rows, json_text = _module_output(args.r, args.info)
    record = {"command": "module", "query": {"r": args.r, "info": args.info}, "result": payload}
    _emit(record, args.format, text, csv_rows, json_text)
    return EXIT_OK


def _matrices_json(record: dict) -> Iterator[str]:
    """``json.dumps(record, sort_keys=True, indent=2)`` for a matrices record,
    in pieces.  With ``indent`` json runs its pure-Python encoder; here each
    string is escaped by the C escaper, each distinct monomial once, and each
    entry is one format string.  The head keys sort before ``result``."""
    escape = json.encoder.encode_basestring_ascii
    head = json.dumps({k: v for k, v in record.items() if k != "result"}, sort_keys=True, indent=2)
    payload = record["result"]
    yield head[:-2] + ',\n  "result": {\n    "basis": '
    yield _json_list([escape(b) for b in payload["basis"]], 2)
    yield ',\n    "matrices": {'
    escaped: dict[str, str] = {}
    for k, name in enumerate(sorted(payload["matrices"])):
        entries = []
        for i, j, mono in payload["matrices"][name]:
            text = escaped.get(mono)
            if text is None:
                text = escaped[mono] = escape(mono)
            entries.append(f"[\n          {i},\n          {j},\n          {text}\n        ]")
        yield f'{"," if k else ""}\n      {escape(name)}: ' + _json_list(entries, 3)
    yield "\n    }" if payload["matrices"] else "}"
    yield "\n  }\n}"


def _json_list(items: list[str], depth: int) -> str:
    """An indent-2 JSON list at nesting ``depth`` of already encoded items."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _matrices_text(payload: dict) -> Iterator[str]:
    yield "basis:"
    for i, b in enumerate(payload["basis"]):
        yield f"  [{i}] {b}"
    for name in sorted(payload["matrices"]):
        yield f"{name}:"
        for i, j, mono in payload["matrices"][name]:
            yield f"  ({i}, {j}) {mono}"


def _matrices_csv(matrices: dict) -> Iterator[tuple]:
    yield "generator", "row", "col", "entry"
    for name in sorted(matrices):
        for i, j, mono in matrices[name]:
            yield name, i, j, mono


def _cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite)
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
    cp.add_argument("--m", type=_int_argument, required=True)
    cp.add_argument("--n", type=_int_argument, required=True)
    cp.add_argument("--lambda", dest="lam", required=True)
    add_format(cp)
    cp.set_defaults(func=_cmd_coeff)

    tp = sub.add_parser("table", help="stable table over all partitions of r")
    tp.add_argument("--r", type=_int_argument, required=True)
    add_format(tp)
    tp.set_defaults(func=_cmd_table)

    mp = sub.add_parser("module", help="inspect the rank-r diagrammatic module")
    mp.add_argument("--r", type=_int_argument, required=True)
    mp.add_argument("--info", choices=("dims", "matrices", "dq", "filtration"),
                    required=True)
    add_format(mp)
    mp.set_defaults(func=_cmd_module)

    vp = sub.add_parser("verify", help="run the invariant suites")
    vp.add_argument("--suite", choices=("fast", "full"), default="fast")
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so the
        # flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
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
