import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethysm import foulkes, verify
from plethysm.characters import dimension, parse_partition
from plethysm.cli import main
from plethysm.errors import InternalConsistencyError
from plethysm.setpartitions import foulkes_pairs


@pytest.fixture(scope="module")
def schema():
    with resources.files("plethysm").joinpath("schema.json").open() as fh:
        return json.load(fh)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, schema, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    record = json.loads(out)
    jsonschema.validate(record, schema)
    return code, record, out


class TestStable:
    def test_known_value(self, capsys):
        code, out, _ = run(capsys, "stable", "--lambda", "6,2")
        assert code == 0 and out.strip() == "8"

    def test_zero_value(self, capsys):
        code, out, _ = run(capsys, "stable", "--lambda", "1")
        assert code == 0 and out.strip() == "0"

    def test_hook(self, capsys):
        code, out, _ = run(capsys, "stable", "--lambda", "4,3,1")
        assert code == 0 and out.strip() == "1"

    def test_json(self, capsys, schema):
        code, record, _ = run_json(capsys, schema, "stable", "--lambda", "4")
        assert code == 0
        assert record == {"command": "stable", "query": {"lambda": "4"}, "result": 2}

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "stable", "--lambda", "x,y")
        assert code == 1 and "cannot parse" in err


class TestCoeff:
    def test_ten_by_ten(self, capsys):
        code, out, _ = run(capsys, "coeff", "--m", "10", "--n", "10", "--lambda", "4,4,2")
        assert code == 0 and out.strip().startswith("6")

    def test_oracle_path(self, capsys, schema):
        code, record, _ = run_json(
            capsys, schema, "coeff", "--m", "2", "--n", "3", "--lambda", "3"
        )
        assert code == 0 and record["regime"] == "oracle"

    def test_stable_path_reported(self, capsys, schema):
        code, record, _ = run_json(
            capsys, schema, "coeff", "--m", "2", "--n", "2", "--lambda", "2"
        )
        assert code == 0
        assert record["result"] == 1 and record["regime"] == "stable"

    def test_unsupported_regime_exit_code(self, capsys):
        code, _, err = run(capsys, "coeff", "--m", "3", "--n", "2", "--lambda", "4,4")
        assert code == 2 and "error" in err

    def test_regime_refusal_names_the_oracle_cap(self, capsys):
        code, out, err = run(capsys, "coeff", "--m", "4", "--n", "7", "--lambda", "5,2")
        assert code == 2 and out == ""
        assert err == "error: m=4, n=7, lam=(5, 2): need m,n >= 7 or mn <= ORACLE_CAP = 16\n"

    def test_usage_error_exit_code(self, capsys):
        code, _, _ = run(capsys, "coeff", "--m", "3")
        assert code == 1

    def test_empty_rectangle_rejected(self, capsys):
        code, out, err = run(capsys, "coeff", "--m", "0", "--n", "0", "--lambda", "-")
        assert code == 1 and out == "" and "positive" in err


class TestTable:
    def test_rank1_single_zero_row(self, capsys):
        code, out, _ = run(capsys, "table", "--r", "1")
        assert code == 0
        assert out.strip().split() == ["1", "0"]

    def test_rank4_text(self, capsys):
        code, out, _ = run(capsys, "table", "--r", "4")
        values = [line.split()[-1] for line in out.strip().splitlines()]
        assert code == 0 and values == ["2", "0", "1", "0", "0"]

    def test_rank8_json_nonzero_count(self, capsys, schema):
        code, record, _ = run_json(capsys, schema, "table", "--r", "8")
        assert code == 0
        nonzero = [row for row in record["result"] if row["value"]]
        assert len(nonzero) == 9

    def test_reverse_lex_row_order(self, capsys, schema):
        _, record, _ = run_json(capsys, schema, "table", "--r", "5")
        labels = [row["lambda"] for row in record["result"]]
        parsed = [tuple(int(x) for x in s.split(",")) for s in labels]
        assert parsed == sorted(parsed, reverse=True)

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--r", "2", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["lambda", "value"], ["2", "1"], ["1,1", "0"]]

    def test_cap_exit_code(self, capsys):
        code, _, _ = run(capsys, "table", "--r", "99")
        assert code == 3

    def test_negative_rank_exit_code(self, capsys):
        code, out, _ = run(capsys, "table", "--r", "-1")
        assert code == 1 and out == ""

    def test_non_integer_cap_variable(self, capsys, monkeypatch):
        for raw in ("abc", "-1"):
            monkeypatch.setenv("PLETHYSM_MAX_R", raw)
            code, out, err = run(capsys, "table", "--r", "4")
            assert code == 1 and out == "" and "PLETHYSM_MAX_R" in err

    def test_rank12_at_default_cap(self, capsys, schema, monkeypatch):
        monkeypatch.delenv("PLETHYSM_MAX_R", raising=False)
        code, record, _ = run_json(capsys, schema, "table", "--r", "12")
        assert code == 0
        rows = {row["lambda"]: row["value"] for row in record["result"]}
        # A000296(12) singleton-free set partitions; 21 partitions of 12 without part 1
        assert sum(v * dimension(parse_partition(lam)) for lam, v in rows.items()) == 580317
        assert rows["12"] == 21

    def test_byte_identical_reruns(self, capsys):
        code1, out1, _ = run(capsys, "table", "--r", "6", "--format", "json")
        code2, out2, _ = run(capsys, "table", "--r", "6", "--format", "json")
        assert code1 == code2 == 0 and out1 == out2


class TestModule:
    def test_dims(self, capsys):
        code, out, _ = run(capsys, "module", "--r", "4", "--info", "dims")
        assert code == 0 and out.strip() == "60 / 56 / 4"

    def test_matrices_json(self, capsys, schema):
        code, record, _ = run_json(capsys, schema, "module", "--r", "2", "--info", "matrices")
        assert code == 0
        matrices = record["result"]["matrices"]
        assert set(matrices) == {"p1", "p12", "s1"}
        assert matrices["p1"] == [
            [1, 0, "1*d1^0*d2^0"],
            [1, 1, "1*d1^1*d2^1"],
            [1, 2, "1*d1^1*d2^0"],
        ]
        assert record["result"]["basis"] == [
            "{1,2} ; {1,2}",
            "{1|2} ; {1|2}",
            "{1|2} ; {1,2}",
        ]

    def test_dq(self, capsys, schema):
        code, record, _ = run_json(capsys, schema, "module", "--r", "4", "--info", "dq")
        shapes = {row["shape"]: row["orbit_size"] for row in record["result"]}
        assert code == 0 and shapes == {"4": 1, "2,2": 3}

    def test_filtration(self, capsys, schema):
        code, record, _ = run_json(
            capsys, schema, "module", "--r", "3", "--info", "filtration"
        )
        assert code == 0
        assert [row["dimension"] for row in record["result"]] == [5, 6, 1]

    def test_counts_match_enumeration(self, capsys, schema):
        for r in range(1, 7):
            _, dims, _ = run_json(capsys, schema, "module", "--r", str(r), "--info", "dims")
            _, layers, _ = run_json(
                capsys, schema, "module", "--r", str(r), "--info", "filtration"
            )
            pairs = foulkes_pairs(r)
            assert dims["result"] == {
                "pairs": len(pairs),
                "depth_radical": len(foulkes.depth_radical_basis(r)),
                "depth_quotient": len(foulkes.depth_quotient_basis(r)),
            }
            assert [row["dimension"] for row in layers["result"]] == [
                sum(p.depth == k for p in pairs) for k in range(r)
            ]

    @pytest.mark.parametrize("info", ["dims", "filtration", "dq"])
    def test_nonpositive_rank_exit_code(self, capsys, info):
        for r in ("0", "-1"):
            code, out, err = run(capsys, "module", "--r", r, "--info", info)
            assert code == 1 and out == ""
            assert "ground size must be positive" in err

    def test_rank7_under_the_module_cap(self, capsys, schema):
        _, dims, _ = run_json(capsys, schema, "module", "--r", "7", "--info", "dims")
        # A000258(7) refining pairs, A000296(7) of them in the depth quotient
        assert dims["result"] == {"pairs": 19302, "depth_radical": 19140, "depth_quotient": 162}
        _, layers, _ = run_json(capsys, schema, "module", "--r", "7", "--info", "filtration")
        assert sum(row["dimension"] for row in layers["result"]) == 19302
        _, orbits, _ = run_json(capsys, schema, "module", "--r", "7", "--info", "dq")
        assert sum(row["orbit_size"] for row in orbits["result"]) == 162

    def test_cap_exit_code(self, capsys):
        code, out, err = run(capsys, "module", "--r", "8", "--info", "dims")
        assert code == 3 and out == ""
        assert "r=8 exceeds MODULE_CAP = 7" in err


class TestVerify:
    def test_fast_suite_passes(self, capsys, schema):
        code, record, _ = run_json(capsys, schema, "verify", "--suite", "fast")
        assert code == 0
        assert record["ok"] is True
        assert all(check["ok"] for check in record["result"])
        assert len(record["result"]) == 30

    def test_text_lines_show_check_times(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "fast")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 31
        for line, (name, _) in zip(lines, verify.CHECKS):
            assert re.fullmatch(rf"PASS {re.escape(name)}: .+ \[\d+\.\d\d s\]", line)

    def test_injected_failure_exit_code(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "fast", "--inject-failure")
        assert code == 4
        assert "FAIL injected-failure" in out

    def test_cap_below_the_suite_exits_with_cap_code(self, capsys, monkeypatch):
        monkeypatch.setenv("PLETHYSM_MAX_R", "3")
        code, out, err = run(capsys, "verify", "--suite", "fast")
        assert code == 3 and out == ""
        assert "exceeds enumeration cap 3" in err

    def test_crashing_check_does_not_stop_the_suite(self, capsys, monkeypatch):
        def crash(full):
            raise InternalConsistencyError("kernel broke")

        names = [name for name, _ in verify.CHECKS]
        monkeypatch.setattr(verify, "CHECKS", [("crashing", crash), *verify.CHECKS])
        code, out, _ = run(capsys, "verify", "--suite", "fast")
        lines = out.splitlines()
        assert code == 4
        crashed = r"FAIL crashing: InternalConsistencyError: kernel broke \[\d+\.\d\d s\]"
        assert re.fullmatch(crashed, lines[0])
        assert [line.split(":")[0] for line in lines[1:-1]] == [f"PASS {n}" for n in names]
        assert lines[-1] == f"FAILURES PRESENT ({len(names) + 1} checks)"

    def test_fast_suite_runs_without_numpy(self):
        # a None entry in sys.modules makes any numpy import raise ImportError
        script = (
            "import sys; sys.modules['numpy'] = None; import plethysm, plethysm.cli; "
            "sys.exit(plethysm.cli.main(['verify', '--suite', 'fast']))"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


partition_texts = st.one_of(
    st.lists(st.integers(1, 4), max_size=5).map(
        lambda parts: ",".join(map(str, sorted(parts, reverse=True))) or "-"
    ),
    st.text(alphabet="0123,-x", max_size=6),
)
small_ints = st.integers(-1, 6).map(str)
fuzzed_commands = st.one_of(
    st.tuples(st.just("stable"), st.just("--lambda"), partition_texts),
    st.tuples(
        st.just("coeff"), st.just("--m"), small_ints, st.just("--n"), small_ints,
        st.just("--lambda"), partition_texts,
    ),
    st.tuples(st.just("table"), st.just("--r"), st.integers(-2, 9).map(str)),
)


@settings(max_examples=80, deadline=None)
@given(argv=fuzzed_commands)
def test_fuzzed_commands_exit_cleanly(schema, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", "json"])
    if code == 0:
        jsonschema.validate(json.loads(out.getvalue()), schema)
    else:
        assert 1 <= code <= 4 and out.getvalue() == ""
