"""CLI subcommands: parsing, exit codes, JSON shape, group files."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from setdirect.cli import _emit_factorizations, build_parser, main, parse_subset
from setdirect.catalog import catalog_group
from setdirect.errors import GroupError, TimeBudgetExceeded
from setdirect.groups import MAX_ORDER
from setdirect.oracle import enumerate_setdirect

from helpers import BUDGET_MARGIN_S


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseSubset:
    def test_indices(self):
        g = catalog_group("C4")
        assert parse_subset(g, "0,2").members() == (0, 2)

    def test_labels(self):
        g = catalog_group("D10")
        assert parse_subset(g, "r,r4").members() == (1, 4)
        assert parse_subset(g, "r2s").members() == (7,)

    def test_keywords(self):
        g = catalog_group("Q8")
        assert parse_subset(g, "full").mask == g.full_mask
        assert parse_subset(g, "center").members() == (0, 2)
        assert parse_subset(g, "identity").members() == (0,)
        assert parse_subset(g, "Q8").mask == g.full_mask

    def test_numbers_beat_labels(self):
        g = catalog_group("C4")  # label "1" denotes the identity
        assert parse_subset(g, "1").members() == (1,)

    def test_unknown(self):
        g = catalog_group("C4")
        with pytest.raises(GroupError):
            parse_subset(g, "bogus")


class TestInfo:
    def test_c4(self, capsys):
        code, out, _ = run(capsys, "info", "C4", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["order"] == 4 and d["k"] == 4
        assert d["semi_regular_labels"] == ["z", "z^2", "z^3"]

    def test_q8(self, capsys):
        code, out, _ = run(capsys, "info", "Q8", "--json")
        d = json.loads(out)
        assert d["k"] == 5 and len(d["center"]) == 2
        assert d["semi_regular_elements"] == []

    def test_s3(self, capsys):
        code, out, _ = run(capsys, "info", "S3", "--json")
        d = json.loads(out)
        assert d["center"] == [0] and d["k"] == 3

    def test_unknown_group(self, capsys):
        code, _, err = run(capsys, "info", "NotAGroupName")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("name", ["C²", "C2xC²", "C" + "9" * 5000],
                             ids=["C-superscript-2", "C2xC-superscript-2", "5000-digits"])
    def test_non_ascii_digits_or_overlong_are_no_catalog_name(self, capsys, name):
        code, _, err = run(capsys, "info", name)
        assert code == 2
        assert "neither a catalog name" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", ["C12000", "S9", "C100xC100"])
    def test_over_the_order_bound_exit_2(self, capsys, name):
        code, _, err = run(capsys, "info", name)
        assert code == 2
        assert "OrderLimitExceeded" in err and f"order bound {MAX_ORDER}" in err

    def test_max_order_is_no_option_of_info(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["info", "C4", "--max-order", "100"])
        assert info.value.code == 2

    def test_one_parser_keeps_no_state_between_calls(self, capsys):
        assert build_parser() is build_parser()
        code, out, _ = run(capsys, "info", "C4", "--json")
        assert code == 0 and json.loads(out)["order"] == 4
        code, out, _ = run(capsys, "info", "C4")
        assert code == 0 and out.startswith("group C4: order 4")
        code, out, _ = run(capsys, "verify", "C4", "0", "0,1", "--direct")
        assert code == 0 and "condition_a" not in json.loads(out)
        code, out, _ = run(capsys, "verify", "C4", "0", "0,1")
        assert code == 1 and json.loads(out)["condition_a"] is True


def test_cli_start_up_leaves_numpy_unimported():
    # numpy serves only tables given as tables; catalog groups do not need it
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "import setdirect.cli\n"
        "after_import = 'numpy' in sys.modules\n"
        "setdirect.cli.main(['info', 'C4'])\n"
        "print(after_import, 'numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False False"


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_exits_without_traceback(buffered):
    # `setdirect info C4 --json | head -1` with the reader already gone:
    # every write to the pipe fails, buffered or not
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "setdirect.cli", "info", "C4", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.stderr == ""
    assert done.returncode == 141


class TestVerify:
    def test_trivial_on_d10(self, capsys):
        code, out, _ = run(capsys, "verify", "D10", "full", "identity")
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_c4_good(self, capsys):
        code, out, _ = run(capsys, "verify", "C4", "0,2", "0,1")
        assert code == 0
        d = json.loads(out)
        assert d["M"] == [0, 2] and d["Z"] == [0, 2]

    def test_c4_collision(self, capsys):
        code, out, _ = run(capsys, "verify", "C4", "0,1", "0,1")
        assert code == 1
        assert json.loads(out)["verdict"] is False

    def test_nonnormal_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "S3", "(0 1)", "full")
        assert code == 2
        assert "NotNormal" in err

    def test_direct_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "D10", "r,r4", "r2,r3", "--direct")
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_deterministic_output(self, capsys):
        c1, out1, _ = run(capsys, "verify", "C4", "0,2", "0,1")
        c2, out2, _ = run(capsys, "verify", "C4", "0,2", "0,1")
        assert out1 == out2


class TestFactorize:
    def test_negative_element_exit_2(self, capsys):
        code, _, err = run(capsys, "factorize", "C4", "--method", "prime-power",
                           "--element", "-1")
        assert code == 2 and "NotSemiRegular" in err

    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_nan_or_negative_budget_exit_2(self, capsys, budget):
        code, _, err = run(capsys, "factorize", "C36", "--normalized",
                           "--time-budget-secs", budget)
        assert code == 2
        assert "time budget must be" in err and "Traceback" not in err

    def test_prime_power_c4(self, capsys):
        code, out, _ = run(
            capsys, "factorize", "C4", "--method", "prime-power", "--element", "1"
        )
        assert code == 0
        d = json.loads(out)
        assert d[0]["X"] == [0, 2] and d[0]["Y"] == [0, 1]

    def test_transversal_q8_absent(self, capsys):
        code, out, _ = run(
            capsys, "factorize", "Q8", "--method", "transversal",
            "--M", "center", "--N", "full",
        )
        assert code == 1
        d = json.loads(out)
        assert d["absent"] and "k(N)=5" in d["reason"]

    def test_oracle_a5_empty(self, capsys):
        code, out, _ = run(
            capsys, "factorize", "A5", "--method", "oracle", "--nontrivial"
        )
        assert code == 1
        assert json.loads(out) == []

    def test_oracle_csv(self, capsys):
        code, out, _ = run(
            capsys, "factorize", "C4", "--method", "oracle", "--emit", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "size_x,size_y,normalized,nontrivial,class_signature"
        assert len(lines) == 13  # 12 factorizations + header

    def test_oracle_json_listing_is_unchanged(self, capsys):
        # SHA-256 of the parsed C12 listing, re-dumped with sorted keys, as
        # taken when the whole array was printed by one indented json.dumps
        code, out, _ = run(capsys, "factorize", "C12", "--method", "oracle")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "[" and lines[-1] == "]" and len(lines) == 1164 + 2
        digest = hashlib.sha256(json.dumps(json.loads(out), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "093843dfb78bc2838364cc22f77273252f8bb5121e007558fcf7340e7d947131")

    def test_cyclic_method(self, capsys):
        # the canonical factor images of the glued Q8oQ8
        code, out, _ = run(
            capsys, "factorize", "Q8oQ8", "--method", "cyclic",
            "--M", "0,2,8,10,16,18,24,26", "--N", "0,1,2,3,4,5,6,7",
            "--x0", "0,2", "--y0", "0",
        )
        assert code == 1
        assert json.loads(out)["absent"]

    def test_system_method(self, capsys):
        code, out, _ = run(
            capsys, "factorize", "C4", "--method", "system",
            "--M", "full", "--N", "full", "--A", "0,2", "--B", "0,1",
        )
        assert code == 0
        d = json.loads(out)
        assert d[0]["certified"]

    def test_time_budget_bounds_the_reports(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "factorize", "C30", "--method", "oracle",
                             "--normalized", "--time-budget-secs", "1")
        assert time.perf_counter() - t0 <= 1.0 + BUDGET_MARGIN_S
        assert code == 2 and out == ""
        assert "TimeBudgetExceeded" in err and "in the report phase" in err

    @pytest.mark.parametrize("emit", ["csv", "json"])
    def test_every_row_is_built_before_any_is_printed(self, capsys, emit):
        g = catalog_group("C4")
        facts = enumerate_setdirect(g).factorizations
        calls = []

        def stop_at(k):
            def hook():
                calls.append(None)
                if len(calls) == k:
                    raise TimeBudgetExceeded("out of time", phase="report")
            return hook

        with pytest.raises(TimeBudgetExceeded):
            _emit_factorizations(g, facts, emit, stop_at(5))
        assert capsys.readouterr().out == "" and len(calls) == 5
        calls.clear()
        _emit_factorizations(g, facts, emit, stop_at(0))
        out = capsys.readouterr().out
        assert len(calls) == len(facts) == 12
        if emit == "csv":
            assert len(out.splitlines()) == len(facts) + 1
        else:
            assert len(json.loads(out)) == len(facts)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["C4", "--method", "system", "--B", "0"], "--A"),
            (["C4", "--method", "system", "--A", "0,2"], "--B"),
            (["C4", "--method", "system", "--M", "full", "--N", "full",
              "--A", "0,2", "--B", "0,1", "--choices", "0;1"], "--choices"),
            (["C4", "--method", "system", "--M", "full", "--N", "full",
              "--A", "0,2", "--B", "0,1", "--choices", "0|x"], "--choices"),
            (["C8", "--method", "cyclic"], "--x0"),
            (["C8", "--method", "cyclic", "--x0", "0"], "--y0"),
            (["C8", "--method", "prime-power"], "--element"),
            (["C8", "--method", "system", "--N", "0,4",
              "--A", "0,1;0,1;0,1;0,1", "--B", "0"], "ContainmentViolated: A_i"),
        ],
        ids=["no-A", "no-B", "choices-without-bar", "choices-not-integer",
             "no-x0", "no-y0", "no-element", "A-outside-Z"],
    )
    def test_missing_or_bad_method_options_exit_2(self, capsys, argv, named):
        code, _, err = run(capsys, "factorize", *argv)
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert named in err


class TestSuite:
    def test_single_group(self, capsys):
        code, out, _ = run(capsys, "suite", "D10", "--samples", "25")
        assert code == 0
        assert "D10" in out and "pass" in out

    def test_time_budget_bounds_the_samples(self, capsys):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "suite", "C4", "--samples", "100000000000000",
                           "--time-budget-secs", "0.5")
        assert time.perf_counter() - t0 <= 0.5 + BUDGET_MARGIN_S
        assert code == 0
        assert "SKIP" in out and "criteria_agree_on_samples" in out

    def test_one_budget_bounds_the_whole_catalog_run(self, capsys):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "suite", "--all-catalog", "--max-order", "8",
                           "--samples", "100000000000000", "--time-budget-secs", "0.2")
        assert time.perf_counter() - t0 <= 0.2 + BUDGET_MARGIN_S
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 17 and all(" SKIP " in line for line in lines)
        assert "the run's time budget 0.2s is used up" in lines[-1]

    def test_suite_without_a_group_exit_2(self, capsys):
        code, out, err = run(capsys, "suite", "--samples", "10")
        assert code == 2 and out == ""
        assert "give a group or --all-catalog" in err

    def test_nan_budget_exit_2(self, capsys):
        code, _, err = run(capsys, "suite", "C4", "--time-budget-secs", "nan")
        assert code == 2
        assert "time budget must be" in err and "Traceback" not in err

    def test_all_catalog_tiny(self, capsys):
        code, out, _ = run(
            capsys, "suite", "--all-catalog", "--max-order", "8", "--samples", "10"
        )
        assert code == 0
        assert "C8" in out and "D8" in out and "Q8" in out


class TestGroupFiles:
    def test_table_file(self, tmp_path, capsys):
        path = tmp_path / "klein.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "table",
                    "mult": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
                }
            )
        )
        code, out, _ = run(capsys, "info", str(path), "--json")
        assert code == 0
        assert json.loads(out)["order"] == 4

    def test_permutation_file(self, tmp_path, capsys):
        path = tmp_path / "d10.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "permutations",
                    "degree": 5,
                    "generators": [[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]],
                }
            )
        )
        code, out, _ = run(capsys, "info", str(path), "--json")
        assert json.loads(out)["order"] == 10

    def test_central_product_file(self, tmp_path, capsys):
        path = tmp_path / "cp.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "central_product",
                    "left": {"kind": "catalog", "name": "Q8"},
                    "right": {"kind": "catalog", "name": "C4"},
                    "pairing": [[0, 0], [2, 2]],
                }
            )
        )
        code, out, _ = run(capsys, "info", str(path), "--json")
        assert json.loads(out)["order"] == 16

    def test_catalog_file(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"kind": "catalog", "name": "D10"}))
        code, out, _ = run(capsys, "info", str(path), "--json")
        assert json.loads(out)["order"] == 10

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"kind": "table", "mult": [[0, 1], [1]]}),
            json.dumps({"kind": "table", "mult": [[0, 1.9], [1.2, 0]]}),
            json.dumps({"kind": "table", "mult": [[0, 1], [1, 0]], "labels": [0, 1]}),
            json.dumps({"kind": "permutations"}),
            json.dumps([{"kind": "catalog", "name": "C4"}]),
            '{"kind": "catalog", "name": ',
            None,
            json.dumps({"kind": "permutations", "generators": [[True, False]]}),
            json.dumps({"kind": "permutations", "generators": [[1.0, 0.0]]}),
            json.dumps({"kind": "permutations", "degree": 5, "generators": [[1, 0]]}),
        ],
        ids=["ragged-table", "float-entry", "int-labels", "no-generators",
             "top-level-list", "invalid-json", "missing-file", "bool-generator",
             "float-generator", "degree-mismatch"],
    )
    def test_malformed_file_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        if text is not None:
            path.write_text(text)
        code, _, err = run(capsys, "info", str(path))
        assert code == 2
        assert "error" in err and "Traceback" not in err


ENTRIES = st.one_of(
    st.integers(min_value=-1, max_value=4),
    st.integers(),
    st.floats(),
    st.text(max_size=2),
    st.booleans(),
    st.none(),
)


@st.composite
def table_specs(draw):
    """"table" group specs of order at most 4, often ragged or mistyped."""
    n = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=n - 1, max_size=n + 1),
                         min_size=n, max_size=n))
    spec = {"kind": "table", "mult": rows}
    labels = draw(st.none() | st.lists(ENTRIES, min_size=n - 1, max_size=n + 1))
    if labels is not None:
        spec["labels"] = labels
    return spec


@st.composite
def permutation_specs(draw):
    """"permutations" group specs of degree at most 5, often ragged or
    mistyped, with a "degree" key that is absent, matching or arbitrary."""
    d = draw(st.integers(min_value=0, max_value=5))
    generator = st.permutations(range(d)) | st.lists(
        ENTRIES, min_size=max(d - 1, 0), max_size=d + 1)
    spec = {"kind": "permutations",
            "generators": draw(st.lists(generator, min_size=0, max_size=3))}
    degree = draw(st.sampled_from(["absent", "matching", "arbitrary"]))
    if degree == "matching":
        spec["degree"] = d
    elif degree == "arbitrary":
        spec["degree"] = draw(ENTRIES)
    return spec


def _info_exit_clean(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(spec))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["info", str(path), "--json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@given(spec=table_specs())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_fuzz_table_files_exit_cleanly(spec):
    _info_exit_clean(spec)


@given(spec=permutation_specs())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_fuzz_permutation_files_exit_cleanly(spec):
    _info_exit_clean(spec)


# Group names of order 1-64 or over MAX_ORDER, so that no case builds a large
# table; S and A are named by degree.
ORDERS = st.integers(min_value=1, max_value=64) | st.integers(min_value=MAX_ORDER + 1,
                                                              max_value=10**12)
NAMED = ["C²", "C2xC²", "C12000", "S9", "Q8oC4", "D8oC4", "Q8oQ8", "C1xC9000"]
GROUP_NAMES = st.one_of(
    st.builds("{}{}".format, st.sampled_from("CDQcdq"), ORDERS),
    st.builds("{}{}".format, st.sampled_from("SAsa"),
              st.integers(min_value=0, max_value=5) | st.integers(min_value=9)),
    st.builds("C{}xC{}".format, st.integers(1, 8), st.integers(1, 8)),
    st.sampled_from(NAMED),
    st.text(max_size=6),
)
NUMBERS = st.sampled_from(["nan", "inf", "1e400", "x", "", "-1"]) | st.integers(-3, 70).map(str)
SUBSETS = st.sampled_from(["full", "center", "identity", "z", "r", "s", "i", "bogus", ""]) | (
    st.lists(st.integers(-2, 70), max_size=4).map(lambda xs: ",".join(map(str, xs))))
OPTIONS = {
    "--method": st.sampled_from(["oracle", "system", "transversal", "cyclic",
                                 "prime-power", "bogus"]),
    "--emit": st.sampled_from(["json", "csv", "xml"]),
    "--element": NUMBERS, "--seed": NUMBERS,
    # the time budget bounds the whole suite, however many samples it is given
    "--samples": NUMBERS | st.integers(0, 10**14).map(str),
    "--max-order": NUMBERS,
    # no "inf": a run without a finite budget may take minutes
    "--time-budget-secs": st.sampled_from(["nan", "-1", "0", "0.1", "x", "-inf"]),
    "--M": SUBSETS, "--N": SUBSETS, "--x0": SUBSETS, "--y0": SUBSETS,
    "--A": st.lists(SUBSETS, min_size=1, max_size=3).map(";".join),
    "--B": st.lists(SUBSETS, min_size=1, max_size=3).map(";".join),
    "--choices": st.sampled_from(["0|0", "0;1|0", "1|", "|", "x|0", "-1|0"]),
    "--json": None, "--direct": None, "--normalized": None, "--nontrivial": None,
    "--verbose": None, "--all-catalog": None, "--version": None, "-h": None,
}
COMMAND_OPTIONS = {  # what each subcommand reads; any other option is a usage error
    "info": ["--json"],
    "verify": ["--direct"],
    "factorize": ["--method", "--emit", "--element", "--time-budget-secs", "--M", "--N",
                  "--x0", "--y0", "--A", "--B", "--choices", "--normalized",
                  "--nontrivial"],
    "suite": ["--samples", "--seed", "--max-order", "--time-budget-secs", "--verbose",
              "--all-catalog"],
}


@st.composite
def argv_lists(draw):
    """A subcommand, a group name, the verify subsets, and mostly options the
    subcommand reads, with values; now and then another option or a stray
    token."""
    command = draw(st.sampled_from([*COMMAND_OPTIONS, "", "bogus"]))
    argv = [command, draw(GROUP_NAMES)]
    if command == "verify":
        argv += draw(st.lists(SUBSETS, min_size=0, max_size=3))
    own = st.sampled_from(COMMAND_OPTIONS.get(command, ["--json"]))
    for opt in draw(st.lists(own, max_size=4) | st.lists(st.sampled_from(sorted(OPTIONS)),
                                                         max_size=2)):
        argv.append(opt)
        if OPTIONS[opt] is not None:
            argv.append(draw(OPTIONS[opt]))
    argv += draw(st.lists(st.text(max_size=3), max_size=1))
    if "--all-catalog" in argv:  # the whole catalog is a run of minutes
        argv += ["--max-order", "4"]
    if "--time-budget-secs" not in argv and command in ("factorize", "suite"):
        argv += ["--time-budget-secs", "0.1"]
    return argv


def _exit_code(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors, --help, --version
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code


@given(argv=argv_lists())
@example(argv=["suite", "C4", "--samples", str(10**14), "--time-budget-secs", "0.1"])
@settings(derandomize=True, max_examples=200, deadline=None)
def test_fuzz_argv_exits_cleanly(argv):
    assert _exit_code(argv) in (0, 1, 2)


CATALOG_NAMES = GROUP_NAMES | ENTRIES


@given(spec=st.fixed_dictionaries({"kind": st.just("catalog")},
                                  optional={"name": CATALOG_NAMES}))
@settings(derandomize=True, max_examples=150, deadline=None)
def test_fuzz_catalog_files_exit_cleanly(spec):
    _info_exit_clean(spec)


# factors of order at most 8 or over MAX_ORDER: a product has order <= 64
FACTOR_NAMES = st.sampled_from(
    ["C1", "C2", "C3", "C4", "C6", "C8", "D4", "D6", "D8", "Q8", "S3", "A3",
     "C2xC2", "C2xC4", "C6001", "C12000", "S9", "D12000", "C²"])
PAIRINGS = st.sampled_from([[[0, 0]], [[0, 0], [2, 2]], [[0, 0], [1, 1]]]) | st.lists(
    st.tuples(st.integers(-1, 9), st.integers(-1, 9)), min_size=1, max_size=4)


@st.composite
def central_product_specs(draw):
    """"central_product" specs: two catalog factors and a pairing of small
    indices, or, now and then, one of the three keys missing or malformed."""
    spec = {"kind": "central_product",
            "left": {"kind": "catalog", "name": draw(FACTOR_NAMES)},
            "right": {"kind": "catalog", "name": draw(FACTOR_NAMES)},
            "pairing": draw(PAIRINGS)}
    broken = draw(st.sampled_from([None, None, "left", "right", "pairing"]))
    if broken:
        junk = st.sampled_from(["absent", "bad-kind"]) | ENTRIES | st.lists(
            ENTRIES | st.lists(ENTRIES, max_size=3), max_size=3)
        value = draw(junk)
        if value == "absent":
            del spec[broken]
        elif value == "bad-kind":
            spec[broken] = {"kind": draw(ENTRIES)}
        else:
            spec[broken] = value
    return spec


@given(spec=central_product_specs())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_fuzz_central_product_files_exit_cleanly(spec):
    _info_exit_clean(spec)
