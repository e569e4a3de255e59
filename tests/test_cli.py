import contextlib
import csv
import hashlib
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

from plethysm import cli, foulkes, verify
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
                "depth_radical": sum(map(foulkes.in_depth_radical, pairs)),
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
        code, out, err = run(capsys, "module", "--r", "8", "--info", "matrices")
        assert code == 3 and out == ""
        assert "r=8 exceeds MODULE_CAP = 7" in err

    def test_matrices_are_refused_before_any_enumeration(self, capsys, monkeypatch):
        def enumerate_pairs(r):
            raise AssertionError(f"foulkes_pairs({r}) was built")

        monkeypatch.setattr("plethysm.setpartitions.foulkes_pairs", enumerate_pairs)
        assert run(capsys, "module", "--r", "8", "--info", "matrices")[0] == 3

    def test_counted_infos_answer_up_to_the_enumeration_cap(self, capsys, monkeypatch):
        monkeypatch.delenv("PLETHYSM_MAX_R", raising=False)
        # A000258(8) refining pairs, A000296(8) of them in the depth quotient
        assert run(capsys, "module", "--r", "8", "--info", "dims") == (
            0, "167894 / 167179 / 715\n", ""
        )
        for info in ("dims", "filtration", "dq"):
            assert run(capsys, "module", "--r", "12", "--info", info)[0] == 0
            code, out, err = run(capsys, "module", "--r", "13", "--info", info)
            assert (code, out, err) == (3, "", "error: r=13 exceeds PLETHYSM_MAX_R = 12\n")


class TestStrictIntegers:
    # int() reads '_' separators, a '+' sign, spaces and non-ASCII digits
    @pytest.mark.parametrize(
        "argv",
        [
            ("stable", "--lambda", "3_0"),
            ("stable", "--lambda", "\u0663"),  # ARABIC-INDIC DIGIT THREE
            ("stable", "--lambda", "3, 1"),
            ("coeff", "--m", "+3", "--n", "3", "--lambda", "1"),
            ("coeff", "--m", "3", "--n", "\uff13", "--lambda", "1"),  # FULLWIDTH DIGIT THREE
            ("table", "--r", "1_0"),
            ("table", "--r", " 4"),
            ("module", "--r", "-+1", "--info", "dims"),
        ],
    )
    def test_non_ascii_digit_forms_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith(("usage", "error"))

    @pytest.mark.parametrize("raw", ["1_2", "+12", "\u0661\u0662", " 12"])
    def test_cap_variable_in_other_forms_exits_1(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("PLETHYSM_MAX_R", raw)
        code, out, err = run(capsys, "table", "--r", "1")
        assert code == 1 and out == ""
        assert err == f"error: PLETHYSM_MAX_R={raw!r} is not a nonnegative integer\n"

    def test_negative_values_keep_their_messages(self, capsys):
        assert run(capsys, "table", "--r", "-1") == (1, "", "error: r=-1 is negative\n")
        code, _, err = run(capsys, "coeff", "--m", "-1", "--n", "3", "--lambda", "1")
        assert code == 1 and err == "error: m=-1, n=3: both must be positive\n"
        assert run(capsys, "stable", "--lambda", "3,-1") == (
            1, "", "error: not a partition: (3, -1)\n"
        )


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

    def test_injected_failure_exit_code(self, capsys, monkeypatch):
        def fails(full):
            raise verify.CheckFailure("injected failure for exit-code testing")

        monkeypatch.setattr(verify, "CHECKS", verify.CHECKS + [("injected-failure", fails)])
        code, out, _ = run(capsys, "verify", "--suite", "fast")
        assert code == 4
        assert "FAIL injected-failure" in out

    def test_cap_below_the_suite_exits_with_cap_code(self, capsys, monkeypatch):
        monkeypatch.setenv("PLETHYSM_MAX_R", "3")
        code, out, err = run(capsys, "verify", "--suite", "fast")
        assert code == 3 and out == ""
        assert "r=4 exceeds PLETHYSM_MAX_R = 3" in err

    def test_cap_below_the_streamed_pairs_exits_with_cap_code(self, capsys, monkeypatch):
        # the full suite's pair-count check streams r = 8 without caching it
        monkeypatch.setenv("PLETHYSM_MAX_R", "7")
        code, out, err = run(capsys, "verify", "--suite", "full")
        assert code == 3 and out == ""
        assert "r=8 exceeds PLETHYSM_MAX_R = 7" in err

    @pytest.mark.parametrize(
        "suite, least, refused",
        [
            ("fast", 6, "r=6 exceeds PLETHYSM_MAX_R = 5"),
            ("full", 10, "|lam|=10 exceeds PLETHYSM_MAX_R = 9"),
        ],
    )
    def test_least_cap_each_suite_accepts(self, capsys, monkeypatch, suite, least, refused):
        # the README states these least caps; one below them exits 3
        monkeypatch.setenv("PLETHYSM_MAX_R", str(least - 1))
        assert run(capsys, "verify", "--suite", suite) == (3, "", f"error: {refused}\n")
        monkeypatch.setenv("PLETHYSM_MAX_R", str(least))
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0 and "FAIL" not in out

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

    def test_check_list_matches_the_benchmark_expectation(self):
        # the benchmark marks a verify run incorrect when its check list differs
        path = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
        expected = json.loads(path.read_text())["verify"]["full"]
        assert [name for name, _ in verify.CHECKS] == expected

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


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_a_closed_pipe_exits_quietly_with_141(fmt):
    # the rank-6 matrices are 0.4 MB or more in every format, far more than a
    # pipe buffer holds, so the command is still writing when the reader
    # closes its end
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "plethysm.cli", "module", "--r", "6", "--info", "matrices",
         "--format", fmt],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first_line = {"text": b"basis:\n", "json": b"{\n", "csv": b"generator,row,col,entry\n"}
    assert proc.stdout.readline() == first_line[fmt]
    proc.stdout.close()
    code = proc.wait(timeout=120)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert code == cli.EXIT_PIPE == 141, err
    assert "Traceback" not in err


# SHA-256 of stdout per format: each format builds its own lines or rows, and
# only when it is the one printed, so each needs its own pin
PINNED_DIGESTS = {
    ("module", "--r", "4", "--info", "matrices"): {
        "json": "3581bbae22dfdb99acc2c5615a106f70ec7f831e05c958d3b98ef296cdcb470f",
        "text": "fedb047231639e4ef5d89ded335c8c84c3480b6234aeb683682ea132beb7b5c9",
        "csv": "fa5ec3b22199b6f410dbf706aa35e070ccc76df5c33dd62ede1c59d37926e12f",
    },
    ("table", "--r", "6"): {
        "json": "c3592b916f5807c7f0b73cefccfb2ca5ab7efd847e8b5e829e6851db0e6d0fec",
        "text": "c24886038ced49985b0c4e65061b0456569803a1f1a606e0bbd60a8e434d8514",
        "csv": "ea462543c8779c875ec8c82b00f5defcef962e110f54f3ff22d161f43469e6c7",
    },
    ("coeff", "--m", "3", "--n", "3", "--lambda", "2,1"): {
        "json": "09c16a49913c8112182bbc04cdc50b8c6847d0d22ce8c64867ca8b0527842f92",
        "text": "f29413a3b80e2d9f673b9f0ab18155f6309e2329293c47a2ca96f29f94dc96e6",
        "csv": "c83106622d606e3a41a4f2e94007a300fe19a9853318e7fb0259e3c80bc72758",
    },
    ("module", "--r", "6", "--info", "matrices"): {
        "json": "1d90c160434f8f97f7666ae85b2c4e46a3360ca2197330dbbcb911746b8f3c5e",
    },
    ("verify", "--suite", "fast"): {
        "json": "070ba07eb98e86a7405e0249ac8b322d9aa722b33aa022f8094fdc4ff00301de",
        "csv": "04c81d97628a037fe749dbfb07bb48c3748ffd3400d49791f5740d2b5bfcb0c2",
    },
    ("verify", "--suite", "full"): {
        "json": "e992bf84a87d9b4b98cb7e5e0fc5b4ffa7ba2abe17b4aa9b83a0e9771baad460",
        "csv": "9fe38779313aafe0abe5110219b37d690cb3abb3a5e38bf79c91eb6b80c7a005",
    },
    ("table", "--r", "12"): {  # the largest table under the default cap
        "json": "e9465621edc70eee3d544e9e07265974b01ee53d52ce176f63e82b56566354e8",
        "text": "d16bb2e6b0cca328b1b6a4cef8a7e695d316f111173de2b8dcdb709e00af8cce",
        "csv": "fafe32afae36b172b723bc81851dbe0c759cf93f38892043ddf2378593c5c78e",
    },
    ("module", "--r", "7", "--info", "dims"): {
        "json": "88f25414639e8a9dce3f7d2a1d9a601a3d197b44589136be990c7c834c1efb11",
        "text": "bd916332490fc5b79183141697b33be33d487038b2d9762c14fc831df6f9bbf1",
        "csv": "2e3373f67ed375ec891c1f3b83e6add3c17e3335af17ca3cc755250e14d92454",
    },
    ("module", "--r", "7", "--info", "dq"): {
        "json": "1a0ebbd15ab164339c478e7f56f01d8959a08ae7a3bf9714699bb27363b4deaa",
        "text": "11a528837e5a0915947be9b64a55ba6fd1f368b5806f4a941e055f867db7b2ad",
        "csv": "db8f321433bd40721b076c098af2b372930ec11e1e0cca44e0a65697c807a9ee",
    },
    ("module", "--r", "7", "--info", "filtration"): {
        "json": "ddcd2405fb6bc80bd364bfb7dc6ced266f8aa8d76705c7534450db7b50ce5bc1",
        "text": "a937fd674b1b1d099dcb77a005ca5f2addff2e445f8a1d7c9355b0a22d8e23e3",
        "csv": "b0337ef3125b634806e7c3d729274a6c7fd4a163387f6488de12c6aa72d37941",
    },
}


@pytest.mark.parametrize(
    "argv, fmt",
    [(argv, fmt) for argv, digests in PINNED_DIGESTS.items() for fmt in digests],
)
def test_output_bytes_are_pinned(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[argv][fmt]


def test_matrices_writer_matches_the_json_encoder():
    for r in range(1, 7):
        record = {
            "command": "module",
            "query": {"r": r, "info": "matrices"},
            "result": cli._module_output(r, "matrices")[0],
        }
        assert "".join(cli._matrices_json(record)) == json.dumps(record, sort_keys=True, indent=2)
    # empty lists and maps, and strings that need escaping
    for result in (
        {"basis": [], "matrices": {}},
        {"basis": ['a "b"\\', "\u00e9"], "matrices": {"p1": [], "s\n1": [[0, 1, "x\ty"]]}},
    ):
        record = {"command": "module", "query": {"r": 1, "info": "matrices"}, "result": result}
        assert "".join(cli._matrices_json(record)) == json.dumps(record, sort_keys=True, indent=2)


partition_texts = st.one_of(
    st.lists(st.integers(1, 4), max_size=5).map(
        lambda parts: ",".join(map(str, sorted(parts, reverse=True))) or "-"
    ),
    st.text(alphabet="0123,-x_+\u0663", max_size=6),
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
