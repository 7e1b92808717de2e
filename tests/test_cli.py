"""Command-line behavior: formats, fixtures, exit codes, the ignored --cache flag, the two parsers."""

import ast
import contextlib
import decimal
import io
import hashlib
import inspect
import itertools
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from fnmatch import fnmatchcase
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycauchy2
from polycauchy2 import cli
from polycauchy2 import convolution as convolution_module
from polycauchy2 import IdentityReport, PolyCauchyTable, level2_by_recurrence
from polycauchy2.cli import build_parser, main
from polycauchy2.convolution import CONVOLUTION_IDENTITIES, default_conjecture_samples
from polycauchy2.polynomials import poly_text
from polycauchy2.series import BUILTIN_SERIES_NAMES
from series_oracle import paper_series

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_literal(name, source="workloads.py"):
    """The literal assigned to ``name`` in a bench/ module, read without running it."""
    tree = ast.parse((BENCH / source).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"bench/{source} defines no {name}")


SERIES_NAMES_AND_K = [
    (name, k)
    for name in BUILTIN_SERIES_NAMES
    for k in ((-2, 1, 3) if name.startswith("lif") else (None,))
]

SEQUENCE_LINES = ["0,1", "1,1/3", "2,-17/15", "3,367/21", "4,-27859/45", "5,1295803/33", "6,-5329242827/1365"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stirling2_reference_stdout(nmax, signed, fmt):
    """``stirling2`` stdout as ``json.dumps`` and a ``print`` per row render it, from the int triangle."""
    triangle = level2_by_recurrence(nmax)
    rows = [
        [str(-value if signed and (n - m) % 2 else value) for m, value in enumerate(triangle.row(n))]
        for n in range(nmax + 1)
    ]
    if fmt == "json":
        return json.dumps({"nmax": nmax, "signed": signed, "rows": rows}) + "\n"
    sep = {"csv": ",", "tsv": "\t"}[fmt]
    return "n:values\n" + "".join(f"{n}:{sep.join(row)}\n" for n, row in enumerate(rows))


class CharCounter:
    """A text stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


class TestPolycauchyCommand:
    def test_sequence_fixture_csv(self, capsys):
        code, out, _ = run(capsys, ["polycauchy", "--k", "1", "--nmax", "6"])
        assert code == 0
        assert out.splitlines() == ["n,value"] + SEQUENCE_LINES

    def test_single_row(self, capsys):
        _, out, _ = run(capsys, ["polycauchy", "--k", "1", "--nmax", "0"])
        assert out.splitlines()[1] == "0,1"

    def test_tsv(self, capsys):
        _, out, _ = run(capsys, ["polycauchy", "--nmax", "2", "--format", "tsv"])
        assert out.splitlines()[2] == "1\t1/3"

    def test_json(self, capsys):
        _, out, _ = run(capsys, ["polycauchy", "--nmax", "3", "--format", "json"])
        payload = json.loads(out)
        assert payload["values"][3] == {"n": 3, "value": "367/21"}
        assert payload["route"] == "formula"

    def test_route_both_columns_agree(self, capsys):
        _, out, _ = run(capsys, ["polycauchy", "--nmax", "5", "--route", "both"])
        lines = out.splitlines()
        assert lines[0] == "n,formula,series"
        for line in lines[1:]:
            _, formula, series = line.split(",")
            assert formula == series

    def test_values_past_the_digit_limit(self, capsys):
        # C_4^(-6200) = 5^6200 - 4*3^6200 has 4334 digits, past Python's
        # default limit of 4300 for converting an int to text.
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, ["polycauchy", "--k", "-6200", "--nmax", "2"])
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            expected = ["n,value", "0,1", f"1,{3**6200}", f"2,{5**6200 - 4 * 3**6200}"]
        finally:
            sys.set_int_max_str_digits(limit)
        assert out.splitlines() == expected

    def test_negative_k(self, capsys):
        _, out, _ = run(capsys, ["polycauchy", "--k", "-2", "--nmax", "3", "--route", "series"])
        assert out.splitlines()[1] == "0,1"


@pytest.fixture
def helper_pids(monkeypatch):
    """The pids ``os.fork`` returns in this process; ``helper_pids.in_helper`` runs in each forked helper first."""
    real_fork = os.fork
    pids = []

    def fork():
        pid = real_fork()
        if pid == 0:
            try:
                helper_pids.in_helper()
            except BaseException:
                os._exit(1)  # never let a forked copy of the test run on
        else:
            pids.append(pid)
        return pid

    helper_pids = SimpleNamespace(pids=pids, in_helper=lambda: None)
    monkeypatch.setattr(os, "fork", fork)
    return helper_pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def assert_whole_reference_rows(out, nmax, fmt):
    """``out`` is the head line and then whole rows, each equal to the one-process line."""
    lines = out.splitlines(keepends=True)
    assert out.endswith("\n")
    assert lines == stirling2_reference_stdout(nmax, False, fmt).splitlines(keepends=True)[: len(lines)]
    assert lines[0] == "n:values\n"


def stirling2_digest(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, hashlib.sha256(captured.out.encode()).hexdigest(), captured.err


SIX_FORMATS = [
    pytest.param(fmt + (["--signed"] if signed else []), id=f"{fmt[-1]}{'-signed' if signed else ''}")
    for fmt in (["--format", "csv"], ["--format", "tsv"], ["--format", "json"])
    for signed in (False, True)
]


class TestStirling2Command:
    def test_rows_fixture(self, capsys):
        code, out, _ = run(capsys, ["stirling2", "--nmax", "3"])
        assert code == 0
        assert out.splitlines() == ["n:values", "0:1", "1:0,1", "2:0,1,1", "3:0,4,5,1"]

    def test_signed_rows(self, capsys):
        _, out, _ = run(capsys, ["stirling2", "--nmax", "3", "--signed"])
        assert out.splitlines()[-1] == "3:0,4,-5,1"

    def test_tsv_separates_values(self, capsys):
        _, out, _ = run(capsys, ["stirling2", "--nmax", "2", "--format", "tsv"])
        assert out.splitlines()[-1] == "2:0\t1\t1"

    def test_json(self, capsys):
        _, out, _ = run(capsys, ["stirling2", "--nmax", "4", "--format", "json"])
        payload = json.loads(out)
        assert payload["rows"][4] == ["0", "36", "49", "14", "1"]
        assert payload["signed"] is False

    def test_rounding_is_an_internal_error(self, capsys, monkeypatch):
        # Negative control: with 50 digits of precision row 60 must round,
        # and a rounded entry is never printed.
        monkeypatch.setattr(decimal, "MAX_PREC", 50)
        code, out, err = run(capsys, ["stirling2", "--nmax", "60"])
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("polycauchy2: internal error: ")

    @pytest.mark.parametrize(
        "options",
        [["--signed"], ["--format", "tsv"], ["--format", "json"], ["--signed", "--format", "json"]],
        ids=["signed", "tsv", "json", "signed-json"],
    )
    @pytest.mark.parametrize("nmax", [60, cli._SPLIT_NMAX], ids=["one-process", "split"])
    def test_rounding_writes_nothing_in_any_format(self, capsys, monkeypatch, helper_pids, options, nmax):
        # Rows are written as they are rendered, so the arithmetic (and its
        # trap) must finish before the first byte, the JSON head included;
        # on the split path it also runs before the fork.
        monkeypatch.setattr(decimal, "MAX_PREC", 50)
        code, out, err = run(capsys, ["stirling2", "--nmax", str(nmax)] + options)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("polycauchy2: internal error: ")
        assert helper_pids.pids == []

    @pytest.mark.parametrize("fmt", ["csv", "tsv", "json"])
    @pytest.mark.parametrize("signed", [False, True])
    def test_stdout_matches_one_string_rendering(self, capsys, fmt, signed):
        for nmax in [*range(61), cli._SPLIT_NMAX + 1]:
            argv = ["stirling2", "--nmax", str(nmax), "--format", fmt] + (["--signed"] if signed else [])
            code, out, _ = run(capsys, argv)
            assert code == 0
            assert out == stirling2_reference_stdout(nmax, signed, fmt), nmax
            if fmt == "json":
                assert json.loads(out)["rows"][nmax][nmax] == "1"

    @pytest.mark.parametrize("options", SIX_FORMATS)
    @pytest.mark.parametrize("offset", [-1, 0, 1, None], ids=["gate-1", "gate", "gate+1", "300"])
    def test_split_matches_one_process(self, capsys, monkeypatch, helper_pids, options, offset):
        # A table of at least _SPLIT_NMAX rows forks one helper; the bytes
        # are those of the same call with no os.fork.
        nmax = 300 if offset is None else cli._SPLIT_NMAX + offset
        argv = ["stirling2", "--nmax", str(nmax), *options]
        split = stirling2_digest(capsys, argv)
        assert len(helper_pids.pids) == (nmax >= cli._SPLIT_NMAX)
        assert_reaped(helper_pids.pids)
        monkeypatch.delattr(os, "fork")
        assert split == stirling2_digest(capsys, argv)
        assert split[0] == 0

    @pytest.mark.parametrize("options", SIX_FORMATS)
    def test_failed_fork_falls_back_to_the_same_bytes(self, capsys, monkeypatch, helper_pids, options):
        argv = ["stirling2", "--nmax", "300", *options]
        split = stirling2_digest(capsys, argv)
        assert len(helper_pids.pids) == 1
        assert_reaped(helper_pids.pids)

        def fork():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", fork)
        assert split == stirling2_digest(capsys, argv)
        assert split[0] == 0

    def test_other_threads_keep_the_table_in_one_process(self, capsys, helper_pids):
        # A fork beside running threads warns on Python 3.12+.
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            code, _, _ = stirling2_digest(capsys, ["stirling2", "--nmax", "300"])
        finally:
            release.set()
            thread.join()
        assert code == 0
        assert helper_pids.pids == []

    @staticmethod
    def one_entry_off_by_one():
        calls = itertools.count()
        cli.str = lambda value: str(int(value) + 1) if next(calls) == 1000 else str(value)

    @staticmethod
    def from_the_next_column():
        run_helper = cli._run_helper
        cli._run_helper = lambda fd, rows, rest, cut: run_helper(fd, rows, lambda part: rest(part[1:]), cut)

    @pytest.mark.parametrize("in_helper", ["one_entry_off_by_one", "from_the_next_column"])
    def test_an_altered_helper_row_changes_the_digest(self, capsys, monkeypatch, helper_pids, in_helper):
        # Negative controls: the helper renders one entry of one of its rows
        # off by one, or starts each of its parts one column late, and the
        # split call no longer matches one process.
        argv = ["stirling2", "--nmax", "300"]
        helper_pids.in_helper = getattr(self, in_helper)
        altered = stirling2_digest(capsys, argv)
        assert len(helper_pids.pids) == 1
        assert_reaped(helper_pids.pids)
        monkeypatch.delattr(os, "fork")
        assert altered != stirling2_digest(capsys, argv)
        assert altered[0] == 0

    def test_helper_out_of_memory_is_an_internal_error(self, capsys, helper_pids):
        def in_helper():
            def out_of_memory(value):
                if isinstance(value, decimal.Decimal):
                    raise MemoryError
                return str(value)

            cli.str = out_of_memory

        helper_pids.in_helper = in_helper
        code, out, err = run(capsys, ["stirling2", "--nmax", "300", "--format", "tsv"])
        assert len(helper_pids.pids) == 1
        assert_reaped(helper_pids.pids)
        assert code == 3
        assert err == "polycauchy2: internal error: MemoryError\n"
        # The helper fails on its first part; the parent has written only
        # whole rows, each the one-process line.
        assert out.startswith("n:values\n0:1\n")
        assert_whole_reference_rows(out, 300, "tsv")

    @pytest.mark.parametrize("kept", [lambda size: 5, lambda size: size // 2], ids=["in-header", "half"])
    def test_a_short_frame_is_an_internal_error(self, capsys, helper_pids, kept):
        # The helper writes part of its 50th frame and exits. The parent
        # reads the short frame as the helper's early end, and every line
        # it wrote is a whole row of the one-process table.
        def in_helper():
            write_frame, frames_written = cli._write_frame, itertools.count()

            def short_frame(frames, kind, text):
                if next(frames_written) < 49:
                    return write_frame(frames, kind, text)
                whole = io.BytesIO()
                write_frame(whole, kind, text)
                frames.write(whole.getvalue()[: kept(len(whole.getvalue()))])
                frames.flush()
                os._exit(0)

            cli._write_frame = short_frame

        helper_pids.in_helper = in_helper
        code, out, err = run(capsys, ["stirling2", "--nmax", "300"])
        assert len(helper_pids.pids) == 1
        assert_reaped(helper_pids.pids)
        assert code == 3
        assert err == "polycauchy2: internal error: stirling2 rendering helper ended early\n"
        assert_whole_reference_rows(out, 300, "csv")
        assert out.count("\n") > 50

    def test_a_stalled_helper_is_killed(self, monkeypatch, helper_pids):
        # The parent fails before it reads a frame; the helper, which would
        # sleep for a minute, is killed rather than waited for.
        class ClosedSink:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        helper_pids.in_helper = lambda: time.sleep(60)
        monkeypatch.setattr(sys, "stdout", ClosedSink())
        start = time.monotonic()
        with pytest.raises(BrokenPipeError):
            main(["stirling2", "--nmax", "300"])
        assert time.monotonic() - start < 30
        assert len(helper_pids.pids) == 1
        assert_reaped(helper_pids.pids)

    def test_closed_stdout_mid_table_reaps_the_helper(self, monkeypatch, helper_pids):
        # The reader leaves after 1 MB. entry() turns this BrokenPipeError
        # into exit 141 (TestEntryPoint.test_closed_stdout_exits_141_without_traceback).
        class ClosingSink(CharCounter):
            def write(self, text):
                if self.chars > 1_000_000:
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", ClosingSink())
        with pytest.raises(BrokenPipeError):
            main(["stirling2", "--nmax", "300", "--signed"])
        assert len(helper_pids.pids) == 1
        assert_reaped(helper_pids.pids)

    def test_json_peak_memory_below_its_output(self, monkeypatch):
        # The text of the triangle is never held at once, so the traced
        # peak stays below the 20 132 297 characters written.
        sink = CharCounter()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["stirling2", "--nmax", "300", "--signed", "--format", "json"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.chars == 20_132_297
        assert peak < sink.chars, peak

    @pytest.mark.parametrize("options", [[], ["--signed", "--format", "json"]], ids=["csv", "signed-json"])
    def test_peak_memory_is_one_row(self, monkeypatch, options):
        # One row of values and its text is held, not the triangle, whose
        # values alone trace about 13 MB.
        monkeypatch.setattr(sys, "stdout", CharCounter())
        tracemalloc.start()
        try:
            code = main(["stirling2", "--nmax", "300"] + options)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2_000_000, peak


class TestSeriesCommand:
    def test_arcsinh_first_terms(self, capsys):
        _, out, _ = run(capsys, ["series", "arcsinh", "--order", "3"])
        assert out.splitlines() == ["i,coefficient", "0,0", "1,1", "2,0", "3,-1/6"]

    def test_sqrt_first_terms(self, capsys):
        _, out, _ = run(capsys, ["series", "sqrt_1pt2", "--order", "2"])
        assert out.splitlines()[1:] == ["0,1", "1,0", "2,1/2"]

    def test_big_l_order_four(self, capsys):
        _, out, _ = run(capsys, ["series", "L", "--order", "4"])
        assert out.splitlines()[-1] == "4,-17/360"

    def test_parametric_requires_k(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["series", "lif2k", "--order", "4"])
        assert excinfo.value.code == 2
        _, out, _ = run(capsys, ["series", "lif2k", "--k", "2", "--order", "4"])
        assert out.splitlines()[-1] == "4,1/600"

    def test_unknown_name_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["series", "tangent"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("name,k", SERIES_NAMES_AND_K)
    @pytest.mark.parametrize("order", [0, 1, 2, 5, 40])
    def test_stdout_matches_paper_construction(self, capsys, name, k, order):
        # Every coefficient as the Series oracle builds it, printed byte for byte.
        coefficients = paper_series(name, order, k).coefficients
        argv = ["series", name, "--order", str(order)] + ([] if k is None else ["--k", str(k)])
        _, out, _ = run(capsys, argv)
        assert out == "i,coefficient\n" + "".join(f"{i},{c}\n" for i, c in enumerate(coefficients))
        _, out, _ = run(capsys, argv + ["--format", "json"])
        values = [{"i": i, "value": str(c)} for i, c in enumerate(coefficients)]
        payload = {"name": name, "order": order, "k": k, "coefficients": values}
        assert out == json.dumps(payload) + "\n"


class TestVerifyCommand:
    def test_pass_exit_code_and_schema(self, capsys):
        code, out, _ = run(capsys, ["verify", "thm2", "--nmax", "8", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["identity", "nmax", "status", "results", "first_failure"]
        assert payload["status"] == "pass"

    def test_text_report(self, capsys):
        code, out, _ = run(capsys, ["verify", "thm5", "--nmax", "6"])
        assert code == 0
        assert out.splitlines()[0] == "identity: thm5"
        assert out.splitlines()[-1] == "status: pass"

    def test_conjecture_prints_polynomials(self, capsys):
        code, out, _ = run(capsys, ["verify", "conjecture-r1"])
        assert code == 0
        assert "P[0] = 1" in out
        assert "P[2] = 9 - 12*n + 4*n^2" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        original = convolution_module.rhs_2fold_00
        monkeypatch.setattr(
            convolution_module,
            "rhs_2fold_00",
            lambda nmax, table: [(b + e * (n == 4), e) for n, (b, e) in enumerate(original(nmax, table))],
        )
        code, out, _ = run(capsys, ["verify", "thm2", "--nmax", "6", "--format", "json"])
        assert code == 1
        assert json.loads(out)["first_failure"]["n"] == 4

    def test_unknown_identity_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "thm99"])
        assert excinfo.value.code == 2

    def test_identity_flag_alias(self, capsys):
        # The identity is positional only; `--identity` is an unknown argument.
        for argv in (
            ["verify", "--identity", "thm2"],
            ["verify", "thm2", "--identity", "thm3"],
            ["verify"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2

    def test_conjecture_rejects_nmax(self, capsys):
        default = run(capsys, ["verify", "conjecture-r1", "--format", "json"])
        assert json.loads(default[1])["nmax"] == 12
        for argv in (
            ["verify", "conjecture-r1", "--nmax", "3"],
            ["verify", "conjecture", "--nmax", "12"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "sample points are fixed" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "conjecture-r1", "--nmax", "-1"])
        assert excinfo.value.code == 2
        assert "--nmax must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "identity,nmax,nmin", [("fold7", 2, 3), ("thm5", 0, 1), ("thm6", 0, 1), ("fold5", 1, 2)]
    )
    def test_nmax_below_first_index_is_usage_error(self, capsys, identity, nmax, nmin):
        # Such a sweep compares nothing, so it must not report a pass.
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", identity, "--nmax", str(nmax)])
        assert excinfo.value.code == 2
        assert f"nmax must be >= {nmin}" in capsys.readouterr().err

    def test_arcsinh_power_prints_only_compared_rows(self, capsys):
        for nmax in ("0", "1"):
            with pytest.raises(SystemExit) as excinfo:
                main(["verify", "arcsinh_power", "--nmax", nmax])
            assert excinfo.value.code == 2
            assert "nmax must be >= 2" in capsys.readouterr().err
        code, out, _ = run(capsys, ["verify", "arcsinh_power", "--nmax", "5"])
        assert code == 0
        assert out.splitlines() == [
            "identity: arcsinh_power",
            "range: m=1..2, coefficients through t^5",
            "  n=1 lhs=1/2 rhs=1/2 ok",
            "  n=2 lhs=1/24 rhs=1/24 ok",
            "status: pass",
        ]

    def test_inexact_derivation_is_not_a_usage_error(self, capsys, monkeypatch):
        # An internal failure has its own exit code: not 1 (identity failed), not 2 (usage).
        # Dropping the shift of the operator rule leaves a remainder from r = 2 on.
        real = convolution_module._fold_step
        monkeypatch.setattr(convolution_module, "_fold_step", lambda i, b: real(i, 0))
        code, out, err = run(capsys, ["verify", "conjecture-r2"])
        assert code == 3
        assert out == ""
        assert err.splitlines() == ["polycauchy2: internal error: division by (x - 2) is not exact: remainder 2"]
        assert "usage" not in err

    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    @pytest.mark.parametrize("argv", [["verify", "thm2"], ["polycauchy", "--nmax", "3"]])
    def test_running_out_of_memory_is_an_internal_error(self, capsys, monkeypatch, error, argv):
        # Exit 1 means a checked identity failed: a kernel that cannot finish
        # is exit 3 with one stderr line, never a traceback.
        def exhausted(nmax, k):
            raise error()

        monkeypatch.setattr(polycauchy2.polycauchy, "_formula_numerators", exhausted)
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.splitlines() == [f"polycauchy2: internal error: {error.__name__}"]

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_bumped_c_at_the_last_sample_fails_only_that_row(self, capsys, bumped_route, r):
        # C at the last sample is read only by that row: the derivation,
        # the rows before it and the printed polynomials stay as they were.
        _, truth, _ = run(capsys, ["verify", f"conjecture-r{r}"])
        last = default_conjecture_samples(r)[-1]
        bumped_route(last)
        code, out, _ = run(capsys, ["verify", f"conjecture-r{r}"])
        assert code == 1
        lines, expected = out.splitlines(), truth.splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith(f"  n={last} "))
        assert lines[row].endswith(" MISMATCH") and expected[row].endswith(" ok")
        assert lines[:row] == expected[:row]
        assert lines[row + 1 : -1] == expected[row + 1 : -1]
        assert (lines[-1], expected[-1]) == ("status: fail", "status: pass")


# verify <name> for every identity: (exit code, SHA-256 of stdout), csv and json
# at nmax 0, 1, 2, 5 and 13; the conjecture family at its fixed samples and its
# refusal of --nmax. Exit 2 is a usage error, which writes nothing to stdout.
# Recorded before the sweeps and right-hand sides changed from Fractions to
# integer pairs, so every identity's output is pinned byte for byte.
VERIFY_DIGESTS = {
    "thm1 --format csv --nmax 0": (0, "2b6451c777fba72bad809808ad199bcd4e03563c3a6c6b56d73105d5714f9070"),
    "thm1 --format csv --nmax 1": (0, "6f036454ed7f2a5262f2a572198bf64b9ef7ed7e690c6ab108ca1e0cd3c262c3"),
    "thm1 --format csv --nmax 2": (0, "96d8f3f6751021f914006afff5292fb75c2769b3d45ef1bd49556c0e869188f6"),
    "thm1 --format csv --nmax 5": (0, "c6ab256fe27ce0e508ec194d08c20a464ddc60f8f4db9091bcdfc989fa585cfa"),
    "thm1 --format csv --nmax 13": (0, "aab70c07054e38b23c98974ff7d5808657aaea4011f6251a85ebcc94d6b8c3a4"),
    "thm1 --format json --nmax 0": (0, "493e5171ac9b36705e9313e5033cf3455e9b38eded7f6276e07db6ed2a796a2a"),
    "thm1 --format json --nmax 1": (0, "57ae2e4216dd67fa64d766c1586665f6a5a52f0ccd9fabcd3d64dd12f419e294"),
    "thm1 --format json --nmax 2": (0, "14b34ac486972c224fdd40bcfb412b67f007950428193ae76a7803d92bd31f8e"),
    "thm1 --format json --nmax 5": (0, "8f7fa5e17e9a7224d2679ef35d12a2b17d8b29f23e9d3963d53712a8eb566874"),
    "thm1 --format json --nmax 13": (0, "9f1837d7097f27b00346249b11049150c1fe750786949a22bd47e64cc701f3bf"),
    "cor1 --format csv --nmax 0": (0, "57fd63ebb7170264f5494fa27a520f5c5e0f4066ebe18d771d22a0e2736295f7"),
    "cor1 --format csv --nmax 1": (0, "3dd0d1b0308de4c08488ee4ed56cc169a57a0488fb732f668bcb92a5a4ec1bdf"),
    "cor1 --format csv --nmax 2": (0, "0bc289f4a41a650308496abb578efecd862e67e40e3be60066cceb0fb1e94d1f"),
    "cor1 --format csv --nmax 5": (0, "0bd04fdb6d5d33f2319b26d876179caa7cb7a408c677e91810edd61b28f597dc"),
    "cor1 --format csv --nmax 13": (0, "e431cb21499f18ba8442178efb91630a555e2ebdf23e19752212fe33a9ae31b2"),
    "cor1 --format json --nmax 0": (0, "fe84e12026d7a17f9b0b6e0dc6c7908675464c1788e4ef97c4e377e81c854cdb"),
    "cor1 --format json --nmax 1": (0, "b645ec168389e3e0f8337cd74b5a8d151d8605f87aee7587ea1f42aed50c3494"),
    "cor1 --format json --nmax 2": (0, "cd896c8e01e188d9d2ce10d4bd2c647ba6a0ad58cf0526b484c0c5bb443e123c"),
    "cor1 --format json --nmax 5": (0, "c1edd2147c8da2a4fcdaf9efa5c0de14c94507f25fac3e04068bb59c9d05f54e"),
    "cor1 --format json --nmax 13": (0, "a9c825e2f75ba301cf63252c6535b39f360bc64d72a1cdc3a4155d1de9127da5"),
    "thm2 --format csv --nmax 0": (0, "708631bba87a6fb79abb164a660f8e87268099104ce21f3650a896e2456543d1"),
    "thm2 --format csv --nmax 1": (0, "00e846cda723bfa46ef13e86a029677f02482a6c23f7a1f530e164754bda61ab"),
    "thm2 --format csv --nmax 2": (0, "9efc13bc8c9f1ef61c7895bda85fbca9212b5ae43d108fa171770439da8befa2"),
    "thm2 --format csv --nmax 5": (0, "be0be354f49d661c52f2faa29230fc1622aabf5b35285357ef82741f84c8008f"),
    "thm2 --format csv --nmax 13": (0, "6f692889d62c3bde7a665a884381108fada8e791ee26fd53599bf494ad1153f3"),
    "thm2 --format json --nmax 0": (0, "c97aa9c8a753f7efb4b193cc284488df78103722dca6e7ae59e95e34dc23899d"),
    "thm2 --format json --nmax 1": (0, "4a00c821d4c72496a746d0125f4d3512a05a319f8b06150bd3772c35c3a9355d"),
    "thm2 --format json --nmax 2": (0, "95efbe76c1fa0f9381316b886bc3cfe98b318be15b8f994e00127fdd3ab3a901"),
    "thm2 --format json --nmax 5": (0, "c02cada5a386528ba0cf9b045917ef55bd6e9cb713f56c8b05c6d00b44cbcdbf"),
    "thm2 --format json --nmax 13": (0, "f77b55ac12653901d429761089807d99c315f00eba9cbccafd7424d2f16a3e5f"),
    "thm3 --format csv --nmax 0": (0, "b81014ae870a8374c72742a4ed6c08c5162715a7a1b6b6fc2686b5d7657b39f9"),
    "thm3 --format csv --nmax 1": (0, "dc4f38561fa6e7cf67943c16bb0fee25f73e325828936e7a21b85223d4539d9a"),
    "thm3 --format csv --nmax 2": (0, "3471f979c1aaa156b069494556929378f48910f350b339b50678074991831d62"),
    "thm3 --format csv --nmax 5": (0, "25ed9aeeb669d123962768113454b3c8287a9cf099cca3afc9d5b6862ae38e72"),
    "thm3 --format csv --nmax 13": (0, "4bee4c741cafa556642a255fc9ec7b6fd01094d7a895251ff6a579c5ed4b2a8a"),
    "thm3 --format json --nmax 0": (0, "b5f4edb3177261a12c17e60d94fa8ef0a94b487de5408a89c5dd6d1551715d04"),
    "thm3 --format json --nmax 1": (0, "7f1733adb1dfaac1c65d9a5ca6caa0d7af8535a85157669ba26994a1b834dbe7"),
    "thm3 --format json --nmax 2": (0, "d365d84657625cbfa5b72dc1810ab4282ab3451701c1527a3efa909aff3145ba"),
    "thm3 --format json --nmax 5": (0, "7d4d47107e226ca2e0b9225b624e6949d85e1ce5abc42171488fbd00c75c45f0"),
    "thm3 --format json --nmax 13": (0, "3aca1b38e5d8d81b7a48c093bde8978469269925684be2a00ce747646364c3ce"),
    "thm4 --format csv --nmax 0": (0, "c12097cf31666fcf80399d6b65f88732a610f666bcec5cd6e11e2f909371670a"),
    "thm4 --format csv --nmax 1": (0, "602f6f34fbfc115098310f30f18de3546a030f5f0bde6c8cbb37203b269224d0"),
    "thm4 --format csv --nmax 2": (0, "9c8aa3ef068882471649e6c6f6bd487e8d7c360bf1dd76dee8b9ca10594dc824"),
    "thm4 --format csv --nmax 5": (0, "da9540d09e47832f97864b8d5babe778e527baa944d78a136265ce942ed35071"),
    "thm4 --format csv --nmax 13": (0, "2263f27ae1e4acca4994ae2e1e7dbca19df543e27d5789439498b645504cb025"),
    "thm4 --format json --nmax 0": (0, "22bbe117438038bd6cd912dbf8a78942d4cf15e3870f00429fdbd855ea482dbb"),
    "thm4 --format json --nmax 1": (0, "19d5648b6566c8550e295dbcbb60e5a3247ec608709ae0949d717f5e331de577"),
    "thm4 --format json --nmax 2": (0, "672a1c461c0f4825c5a54486de14fab9ca024eda1f329733e41ab83079307941"),
    "thm4 --format json --nmax 5": (0, "5bb0e1bb8db4d7d720bceb96b6ffbfc9caa74989b41eec49d5cb2a35fba4d4d9"),
    "thm4 --format json --nmax 13": (0, "d7823c1eebac07b984acb14d147137d8f11de929d3da979776f521b3b5b91bfd"),
    "thm5 --format csv --nmax 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "thm5 --format csv --nmax 1": (0, "7d13eb647c7bb74d517100becc38c3caad30ca28822e3316d89f4afb33dfc2a4"),
    "thm5 --format csv --nmax 2": (0, "8c455a18db4473f6a8b7df4843de6060d96b14490353890cbc9822750288744e"),
    "thm5 --format csv --nmax 5": (0, "f7d928db58bd17fda6bdb0c048046a6ed8b535165eceb076cc6a0706eb938cd7"),
    "thm5 --format csv --nmax 13": (0, "5f25c56d661588e468275d4cd7b488f7d45b63e660786461e664479a5638d54a"),
    "thm5 --format json --nmax 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "thm5 --format json --nmax 1": (0, "1f7907bc43053eaa6661f485fe2da6948e4d5e117219af70344b9b036ec8726c"),
    "thm5 --format json --nmax 2": (0, "27a834b25df139a780d0f8af3e1539cf3abbafeb5e65480d8577d92fe405aa9a"),
    "thm5 --format json --nmax 5": (0, "a7a8a4e2bff63734249d5b93e8865011e550fc8b28dc9d4076c6097e9c490bf5"),
    "thm5 --format json --nmax 13": (0, "149e59b89adae26192526cff0c6851651bbae7db01164454d9f1df15dd542032"),
    "thm6 --format csv --nmax 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "thm6 --format csv --nmax 1": (0, "91f1a11c0f58b280e5a701d4229ffeafe18e2c83c350cf2ad55bd92ccb7987bb"),
    "thm6 --format csv --nmax 2": (0, "403e7182c196bcfd8360ca475725462fd3b8417c4f7ae2d86d70550230fd3198"),
    "thm6 --format csv --nmax 5": (0, "1abd52e2ef839de0012ffec323576d9986a50352a1562c71f7a60e00dd9d27b7"),
    "thm6 --format csv --nmax 13": (0, "beb311e7f3b28000656ae8008fc3991856e71dadbaac37d2f07782cb2f56f250"),
    "thm6 --format json --nmax 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "thm6 --format json --nmax 1": (0, "d1ec3545689dbf449bf59ad120768205785a1fedf533efc57bdcfc48f539c0ad"),
    "thm6 --format json --nmax 2": (0, "1d99af88625cc8b17de0e451ce4985ca968ea8c0c433cbc82ca2d19995a97a90"),
    "thm6 --format json --nmax 5": (0, "89c3b59b7c0f1656fd4e8a337d8d9005bb955e6c8cbafa1e594a0997f2486261"),
    "thm6 --format json --nmax 13": (0, "eac18f15f4ffd8f5ede3b128850e860221708a77e2fdaf87a3595ea3076e757b"),
    "fold5 --format csv --nmax 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fold5 --format csv --nmax 1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fold5 --format csv --nmax 2": (0, "40408c2a83929d96833bc040a37b151f9e7aaf7fff6761000473016f6016af79"),
    "fold5 --format csv --nmax 5": (0, "ad6015ca2955384564faa860f0886f86ac1f3869c2592fd533f57cf77dc049e6"),
    "fold5 --format csv --nmax 13": (0, "fc884ab4f8407631e6c77027681274c1134b12b144df97039832151db4daa1bb"),
    "fold5 --format json --nmax 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fold5 --format json --nmax 1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fold5 --format json --nmax 2": (0, "f532526adc05c7c727817692ffc605b9632feff87ade1e8ecb051c05a97b435f"),
    "fold5 --format json --nmax 5": (0, "d53e1df4289b198b18093621952e4aa8a2ac3d16fe29bed580d4998cb35383ea"),
    "fold5 --format json --nmax 13": (0, "5726fea42f64002519ab2b3932a18080c394689c176962e7abfe8c9bb4dabde9"),
    "fold7 --format csv --nmax 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fold7 --format csv --nmax 1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fold7 --format csv --nmax 2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fold7 --format csv --nmax 5": (0, "a0ff41896f494c1f73460b53ce05e96acc7880ac1a5086a760ab560a3ef654f1"),
    "fold7 --format csv --nmax 13": (0, "5e8d91379ba399d72dc65abcebcc9a8053373c4d187c6f0715615ff661c73617"),
    "fold7 --format json --nmax 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fold7 --format json --nmax 1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fold7 --format json --nmax 2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fold7 --format json --nmax 5": (0, "82e46e2237bb272c8ae48d5406f1f9adb1fd6e0712a983679c006dd06ac8d104"),
    "fold7 --format json --nmax 13": (0, "c6fac003192d6fa80286cca438d5b5c7abd22981be572e727909edaf1eaccb9d"),
    "eqll --format csv --nmax 0": (0, "294be7c74d3866ff3a3ec8e52a6b636192c7d05fa31c0429fe98c320bcf4de6e"),
    "eqll --format csv --nmax 1": (0, "41a1f2fc8ac6df519eadaa604fba5d201f3c62f12137d75f2e87a38ac6be44e3"),
    "eqll --format csv --nmax 2": (0, "ad6963cf81a3b4f1a973639009d2f56b5ab5c13a0089075ac01aa66fee2740ef"),
    "eqll --format csv --nmax 5": (0, "f2abe440c8528090fb1f738f7457123b5736cd6220dafc4226feaafbb50c6c79"),
    "eqll --format csv --nmax 13": (0, "058b87c3fcf2f9b103140e31c02fbda2208ec3a866b98e3d7e8fa1875dfceb81"),
    "eqll --format json --nmax 0": (0, "aeb6f041097258c40597888e81329f106c142cce3602948eee10f0e3bfd7845c"),
    "eqll --format json --nmax 1": (0, "4bcbaa4c31f3ffc933f700256ca1d0a1ebdcbd0e6287a8c4ca207203ce33857b"),
    "eqll --format json --nmax 2": (0, "ec5c727ba87c6e5a71d10a83bed5a50dd741c5c31177e40323b672bd9226478c"),
    "eqll --format json --nmax 5": (0, "94c92b87c98b69f6fe90814cb08fb694bab6a38d9684b9d7523567568ee9b4ab"),
    "eqll --format json --nmax 13": (0, "f5e146d60fd3866f5d2d809d78f0a1b32644bb45d168b5ddf1f82ddffeb284d6"),
    "eqconvo02 --format csv --nmax 0": (0, "e409fefde58516daf512fd3f65ed8552c1b3184d474871b5490c79bca5b4f1bb"),
    "eqconvo02 --format csv --nmax 1": (0, "38d851b176a4af379faad55ff1b54a66bf4241575785e238fbc2212b4c31e3e1"),
    "eqconvo02 --format csv --nmax 2": (0, "0b3700c39aa8ad6871d28e59af44509289801baf7730f34b9c56b8efab0c6f2a"),
    "eqconvo02 --format csv --nmax 5": (0, "734745631d2c64fa47c4c3ce83f328b66e970f7f37fabae0ea2e1a71ac65642a"),
    "eqconvo02 --format csv --nmax 13": (0, "3a944273c79b0aa75f79eab9b8ebdc0c39d88578746e21594427e41dc2e4ba84"),
    "eqconvo02 --format json --nmax 0": (0, "963fa32f2251a55fd6d00348b28f498a3956b7f62583d77c7b6a42d2ece2ea85"),
    "eqconvo02 --format json --nmax 1": (0, "98024e03cfe28b6c05cd975e85179a1ee42c51d4c694533fdea662ab330f5c95"),
    "eqconvo02 --format json --nmax 2": (0, "fbebadaca28c4ae65a96b5a129bb54827a586ed776e58d676f4f4e64238a3390"),
    "eqconvo02 --format json --nmax 5": (0, "6f0015f04927cda3ec9e68137f79af46cef2167be6462fee4ffa7a5905844cc7"),
    "eqconvo02 --format json --nmax 13": (0, "52e85fdee35606a1b9aaaa6a249ade796f3a31cbc0e9aa5986f01169debf97ec"),
    "arcsinh_power --format csv --nmax 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "arcsinh_power --format csv --nmax 1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "arcsinh_power --format csv --nmax 2": (0, "b2e8e30dcecad2f9382deeeedfe384f0c44bb1a802c0dccce14491943d6dbdeb"),
    "arcsinh_power --format csv --nmax 5": (0, "3a902ee307a6f1ca3f69f6da5de459bebcacab560aa9a073e1fa61fc53d9482d"),
    "arcsinh_power --format csv --nmax 13": (0, "ddf984a2dd6dae615a6969efd87d90af26d042cabcc69276c4df8699a3592899"),
    "arcsinh_power --format json --nmax 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "arcsinh_power --format json --nmax 1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "arcsinh_power --format json --nmax 2": (0, "4a5d6abaeb382e598dd38afa2e93f5fb5649973cfb24a4387b06475f0954f688"),
    "arcsinh_power --format json --nmax 5": (0, "8a0d2182add7f8b9dedc00e13669b4a1b16540fa2487e67779bcbecc40779d45"),
    "arcsinh_power --format json --nmax 13": (0, "9b4068ef78d5031d8144d49d2bed5c5383c216b0fe83faa4e8555f217dfb7a7e"),
    "conjecture --format csv": (0, "db3cef03e88c5ef7d2e9d5775148b916a5054962e97e57af15ffdd794e6123fb"),
    "conjecture --format csv --nmax 13": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "conjecture --format json": (0, "602de52bbb4f1bb8efc78acce7b08a8cc64ad834718a2d8f691cac5be4942cdd"),
    "conjecture --format json --nmax 13": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "conjecture-r1 --format csv": (0, "40eb608a689e3b55884559a83a7fd2282bc7363ce584627727c5ce4d3b81123f"),
    "conjecture-r1 --format csv --nmax 13": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "conjecture-r1 --format json": (0, "2615341bdd2683fcc848557e325b4a86e0be08af02eb414c9605df05e5997f42"),
    "conjecture-r1 --format json --nmax 13": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "conjecture-r2 --format csv": (0, "03a75e630d2c8d8d51a018e0106e38bdca82c64073f94b04a3141fda37d76a24"),
    "conjecture-r2 --format csv --nmax 13": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "conjecture-r2 --format json": (0, "ee4d17953e364e423dbc8eebc650e52fe08ae74bc6d99f58e6245ea85a63067b"),
    "conjecture-r2 --format json --nmax 13": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "conjecture-r3 --format csv": (0, "b2cbe9080edca5ef230112b6de8bc69fe8ab3e92d19a32ae7f4aee776eaf2ba3"),
    "conjecture-r3 --format csv --nmax 13": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "conjecture-r3 --format json": (0, "0a443022d9e931f979f615c8a009dc073976d69d424765a7dde30e1aef2c9627"),
    "conjecture-r3 --format json --nmax 13": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


class TestVerifyDigests:
    def test_every_identity_is_pinned(self):
        assert {case.split()[0] for case in VERIFY_DIGESTS} == set(polycauchy2.IDENTITY_NAMES)

    @pytest.mark.parametrize("case", sorted(VERIFY_DIGESTS))
    def test_stdout_and_exit_code(self, capsys, case):
        try:
            code = main(["verify", *case.split()])
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == VERIFY_DIGESTS[case]


class TestBenchmarkReferences:
    """The benchmark's sequence, convolution and table invocations, in-process: every stdout byte as recorded."""

    @staticmethod
    def check(capsys, invocation, extra_args=()):
        reference = json.loads((BENCH / "references.json").read_text())[invocation]
        code, out, _ = run(capsys, invocation.split() + list(extra_args))
        data = out.encode()
        assert code == reference["exit"]
        assert len(data) == reference["bytes"]
        assert hashlib.sha256(data).hexdigest() == reference["sha256"]

    @pytest.mark.parametrize("invocation", _bench_literal("SEQUENCE"))
    def test_sequence_stdout_matches_reference(self, capsys, invocation):
        self.check(capsys, invocation)

    @pytest.mark.parametrize("invocation", _bench_literal("CONVOLUTION"))
    def test_convolution_stdout_matches_reference(self, capsys, invocation):
        self.check(capsys, invocation)

    @pytest.mark.parametrize("invocation", _bench_literal("TABLES"))
    def test_tables_stdout_matches_reference(self, capsys, tmp_path, invocation):
        # The benchmark adds --cache PATH to these calls, as Runner.argv does;
        # the flag changes no byte of stdout and creates no file.
        self.check(capsys, invocation)
        cache_path = tmp_path / "c.json"
        self.check(capsys, invocation, ["--cache", str(cache_path)])
        assert not cache_path.exists()

    def test_tracer_targets_exist(self, monkeypatch):
        # The tracer wraps these methods when a class defines them, and wraps
        # every public rhs_* function of the convolution module, which the
        # registry reads when it runs a right-hand side. A missing target is
        # skipped there, so its metric would read 0. The tracer still names
        # PolyCauchyTable.ensure, which a table built once has no more; any
        # other missing target fails here.
        methods = _bench_literal("METHODS", "tracer.py")
        missing = set()
        for layer, cls in (("polycauchy", PolyCauchyTable), ("convolution", IdentityReport)):
            for method in methods[layer][cls.__name__]:
                raw = cls.__dict__.get(method)
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if not inspect.isfunction(fn):
                    missing.add(f"{cls.__name__}.{method}")
        assert missing == {"PolyCauchyTable.ensure"}
        # The table's kernel runs inside build, whose span polycauchy.table_s still counts.
        table_s = _bench_literal("_TIMES", "tracer.py")["polycauchy.table_s"]
        assert fnmatchcase("polycauchy.PolyCauchyTable.build", table_s)

        def wrapped(nmax, table):
            return []

        for name, entry in CONVOLUTION_IDENTITIES.items():
            assert entry.rhs is getattr(convolution_module, entry.rhs_name), name
            assert entry.rhs_name in convolution_module.__all__, name
            monkeypatch.setattr(convolution_module, entry.rhs_name, wrapped)
            assert entry.rhs is wrapped, name

    @pytest.mark.parametrize("identity", sorted(CONVOLUTION_IDENTITIES))
    def test_traced_child_times_the_right_hand_side(self, identity):
        # The benchmark's traced child: its spans must include the right-hand
        # side the registry names. A registry holding the functions themselves
        # would reach the tracer's dataclasses.replace, which raises TypeError
        # on anything but a dataclass.
        rhs_name = CONVOLUTION_IDENTITIES[identity].rhs_name
        result = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(Path(polycauchy2.__file__).parents[1]),
             "1", "-", "verify", identity, "--nmax", "6"],
            capture_output=True,
            text=True,
            env=TestEntryPoint.child_env(),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        assert report["exit"] == 0, result.stderr
        calls, self_ns = report["trace"]["spans"][f"convolution.{rhs_name}"]
        assert calls == 1 and self_ns > 0

    @pytest.mark.parametrize(
        "identity", ["fold5", "fold7", "conjecture", "conjecture-r1", "conjecture-r2", "conjecture-r3"]
    )
    def test_traced_odd_fold_spends_its_prefactors_inside_the_right_hand_side(self, identity):
        # The derivation and the odd-fold sums evaluate, weigh and trim each
        # term through private helpers, so the tracer records no span per term:
        # convolution.rhs_s holds the whole right side of a fold, and
        # convolution.solve_s the whole derivation of a conjecture check.
        nmax = ["--nmax", "40"] if identity.startswith("fold") else []
        result = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(Path(polycauchy2.__file__).parents[1]),
             "1", "-", "verify", identity, *nmax],
            capture_output=True,
            text=True,
            env=TestEntryPoint.child_env(),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        assert report["exit"] == 0, result.stderr
        spans = {name: calls for name, (calls, _) in report["trace"]["spans"].items()}
        for per_term in ("convolution.conjecture_prefactor", "polynomials.poly_eval", "exact.binomial",
                         "polynomials.poly_trim"):
            assert per_term not in spans, per_term
        rhs_spans = {name: calls for name, calls in spans.items() if name.startswith("convolution.rhs_")}
        # One span per stage, each public function recorded where it enters;
        # a conjecture check also prints each of its r + 1 polynomials once.
        stages = {"cli.main": 1, "convolution.verify_identity": 1, "polycauchy.PolyCauchyTable.build": 1,
                  "convolution.convolution_sweep": 1, "convolution.IdentityReport.to_text": 1}
        if identity.startswith("fold"):
            assert rhs_spans == {f"convolution.{CONVOLUTION_IDENTITIES[identity].rhs_name}": 1}
            assert spans == {**stages, **rhs_spans}
        else:
            assert rhs_spans == {}
            r = int(identity.partition("-r")[2] or 1)
            derivation = {"convolution.extract_conjecture_polynomials": 1, "polynomials.poly_text": r + 1}
            assert spans == {**stages, **derivation}

    def test_traced_child_reaches_the_public_conjecture_polynomials(self):
        # The CLI check reads the polynomials through extract_conjecture_polynomials,
        # so the benchmark's convolution.solve_s times the derivation, and the
        # notes it prints are those polynomials.
        result = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(Path(polycauchy2.__file__).parents[1]),
             "1", "-", "verify", "conjecture-r2"],
            capture_output=True,
            text=True,
            env=TestEntryPoint.child_env(),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        assert report["exit"] == 0, result.stderr
        calls, self_ns = report["trace"]["spans"]["convolution.extract_conjecture_polynomials"]
        assert calls == 1 and self_ns > 0
        notes = [line.strip() for line in report["tail"].splitlines() if line.startswith("  P[")]
        polys = polycauchy2.extract_conjecture_polynomials(2)
        assert notes == [f"P[{2 * p.k}] = {poly_text(p.coefficients)}" for p in polys]


class TestUsageErrors:
    def test_negative_nmax(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["stirling2", "--nmax", "-3"])
        assert excinfo.value.code == 2

    def test_bad_jobs(self, capsys):
        # --jobs was removed; it is now an unknown argument.
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "thm2", "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_stats_is_unknown(self, capsys):
        # --stats went with the cache it reported on.
        with pytest.raises(SystemExit) as excinfo:
            main(["polycauchy", "--nmax", "2", "--stats"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --stats" in capsys.readouterr().err

    def test_order_only_on_series(self, capsys):
        for argv in (
            ["verify", "thm5", "--order", "5"],
            ["stirling2", "--order", "7"],
            ["polycauchy", "--order", "3"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --order" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["series", "L", "--order", "-1"])
        assert excinfo.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


def _value(kind):
    """A plain value for an option of this kind; a flag takes none."""
    if kind is bool:
        return st.just([])
    if kind is int:
        return st.integers(-(10**30), 10**30).map(lambda value: [str(value)])
    if kind is str:
        return st.text(max_size=8).filter(lambda text: not text.startswith("-")).map(lambda text: [text])
    return st.sampled_from(kind).map(lambda choice: [choice])


def _plain_option(options):
    return st.sampled_from(options).flatmap(
        lambda option: _value(option[1]).map(lambda value: [f"--{option[0]}", *value])
    )


@st.composite
def plain_calls(draw):
    """A call the direct parse must accept: options in any order, repeats, the positional anywhere."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, _, positional, options = cli._COMMANDS[command]
    groups = draw(st.lists(_plain_option(options), max_size=6))
    if positional is not None:
        groups.insert(draw(st.integers(0, len(groups))), [draw(st.sampled_from(positional[1]))])
    return [command, *(token for group in groups for token in group)]


IDENTITY_AND_SERIES_NAMES = sorted(set(polycauchy2.IDENTITY_NAMES) | set(BUILTIN_SERIES_NAMES))


ODD_TOKENS = [
    "-h", "--help", "--", "-", "--jobs", "--stats", "--order", "--identity", "bogus", "",
    "-x", "--5", "+5", " 5", "5 ", "1_0", "٣", "-٣", "5.0", "-1.5", "9" * 4301,
    "stirling2", "verify", "thm2", "L", "csv", "--format=json", "--nmax=3", "--k=-2",
]


@st.composite
def odd_calls(draw):
    """A plain call with up to three other spellings put in anywhere, the command's place included.

    They are abbreviations, ``--opt=value``, an option with an odd value or
    none, odd ints (non-ASCII digits, "+5", "1_0", past the digit limit),
    help, unknown options and stray positionals.
    """
    argv = draw(plain_calls())
    names = [name for name, *_ in cli._COMMANDS[argv[0]][3]]
    odd_token = st.sampled_from(ODD_TOKENS) | st.text(max_size=4)
    odd = st.one_of(
        st.sampled_from(names).map(lambda name: [f"--{name}"]),
        st.sampled_from(names).flatmap(lambda name: st.integers(1, len(name)).map(lambda j: [f"--{name[:j]}"])),
        st.tuples(st.sampled_from(names), odd_token).map(lambda pair: [f"--{pair[0]}={pair[1]}"]),
        st.tuples(st.sampled_from(names), odd_token).map(lambda pair: [f"--{pair[0]}", pair[1]]),
        odd_token.map(lambda token: [token]),
        st.sampled_from(IDENTITY_AND_SERIES_NAMES).map(lambda token: [token]),
    )
    for _ in range(draw(st.integers(0, 3))):
        position = draw(st.integers(0, len(argv)))
        argv[position:position] = draw(odd)
    return argv


# Built once from the true table; parse_args leaves a parser unchanged.
REFERENCE_PARSER = build_parser()


def parse_both(argv):
    """vars() of the direct parse and of argparse's, or (None, None) when the direct parse declines."""
    args = cli._parse_plain(list(argv))
    if args is None:
        return None, None
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            reference = REFERENCE_PARSER.parse_args(list(argv))
    except SystemExit as exc:
        raise AssertionError(f"direct parse accepted {argv!r}, argparse exits {exc.code}") from None
    return vars(args), vars(reference)


@settings(max_examples=300, deadline=None)
@given(argv=plain_calls())
def plain_calls_agree(argv):
    direct, reference = parse_both(argv)
    assert direct is not None, argv
    assert direct == reference, argv


class TestDirectParse:
    """Plain calls skip argparse; whenever the direct parse answers, it answers as argparse would."""

    def test_plain_calls_are_parsed_as_argparse_parses_them(self):
        plain_calls_agree()

    @settings(max_examples=400, deadline=None)
    @given(argv=odd_calls())
    def test_other_spellings_agree_or_go_to_argparse(self, argv):
        direct, reference = parse_both(argv)
        assert direct == reference, argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "-h"], ["verify", "thm2", "--nmax=3"], ["verify", "thm2", "--nm", "3"],
            ["polycauchy", "--k", "-٣"], ["polycauchy", "--k", "+3"], ["polycauchy", "--nmax", "9" * 4301],
            ["verify", "thm2", "--nmax"], ["verify", "thm2", "thm3"], ["verify"], ["series", "tangent"],
            ["polycauchy", "--format", "xml"], ["polycauchy", "--cache", "-x"], ["--format", "csv", "verify", "thm2"],
            ["stirling2", "--signed", "5"], ["verify", "thm2", "--"], [],
        ],
    )
    def test_other_spellings_go_to_argparse(self, argv):
        assert cli._parse_plain(argv) is None

    @pytest.mark.parametrize(
        "invocation",
        [
            *_bench_literal("SEQUENCE"),
            *_bench_literal("CONVOLUTION"),
            *_bench_literal("TABLES"),
            _bench_literal("PROBE"),
        ],
    )
    def test_benchmark_calls_are_parsed_directly(self, tmp_path, invocation):
        # The benchmark's calls, with and without the --cache PATH its runner adds.
        for argv in (invocation.split(), [*invocation.split(), "--cache", str(tmp_path / "c.json")]):
            direct, reference = parse_both(argv)
            assert direct is not None, argv
            assert direct == reference, argv

    def test_wrong_option_type_fails_the_differential_test(self, monkeypatch):
        # Negative control: a table that reads --k as text disagrees with the
        # parser built from the true table.
        help_text, handler, positional, options = cli._COMMANDS["polycauchy"]
        wrong = tuple((name, str, *rest) if name == "k" else (name, kind, *rest) for name, kind, *rest in options)
        monkeypatch.setitem(cli._COMMANDS, "polycauchy", (help_text, handler, positional, wrong))
        with pytest.raises(AssertionError):
            plain_calls_agree()

    @staticmethod
    def added_modules(*calls):
        """The modules a bare interpreter gains from importing polycauchy2.cli, then after each call.

        Only what the package adds counts: a .pth file may load modules into
        the bare interpreter before the script runs. Returns the import's set
        and one (exit code, set) pair per call; each set holds everything
        added so far.
        """
        script = (
            "import io, sys\n"
            "bare = set(sys.modules)\n"
            "import polycauchy2.cli as cli\n"
            "print(' '.join(sorted(set(sys.modules) - bare)))\n"
            f"for argv in {list(calls)!r}:\n"
            "    sys.stdout = io.StringIO()\n"
            "    code = cli.main(argv)\n"
            "    sys.stdout = sys.__stdout__\n"
            "    print(code, ' '.join(sorted(set(sys.modules) - bare)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=TestEntryPoint.child_env()
        )
        assert result.returncode == 0, result.stderr
        first, *after = result.stdout.splitlines()
        return set(first.split()), [(int(code), set(modules)) for code, *modules in map(str.split, after)]

    def test_plain_call_leaves_argparse_unimported(self):
        # Text and csv calls also leave json unimported, and the import itself
        # loads neither json nor dataclasses and the modules dataclasses brings.
        imported, calls = self.added_modules(["verify", "thm6", "--nmax", "1"], ["polycauchy", "--nmax", "1"])
        assert "polycauchy2.cli" in imported
        assert not {"argparse", "gettext"} & imported
        assert not {"dataclasses", "inspect", "ast", "dis", "tokenize", "json"} & imported
        for code, ran in calls:
            assert code == 0
            assert not {"argparse", "locale", "json"} & ran

    def test_json_output_imports_json(self):
        # The control for the test above: the same probe sees json once a call prints JSON.
        imported, [(code, ran)] = self.added_modules(["polycauchy", "--nmax", "1", "--format", "json"])
        assert code == 0
        assert "json" not in imported
        assert "json" in ran

    def test_other_spelling_imports_argparse(self):
        # The control for the test above: the same probe sees argparse once a call needs it.
        script = (
            "import contextlib, io, sys\n"
            "bare = set(sys.modules)\n"
            "import polycauchy2.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['verify', 'thm6', '--nmax=1'])\n"
            "print(' '.join(sorted(set(sys.modules) - bare)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=TestEntryPoint.child_env()
        )
        assert result.returncode == 0, result.stderr
        assert "argparse" in result.stdout.split()


class TestCache:
    """``--cache PATH`` is accepted and ignored: the file is never read, created or written."""

    def test_tampered_row_is_discarded(self, capsys, tmp_path):
        # A version-1 document from an earlier cache, with [[6, 1]] raised
        # from 14400 to 15400. stirling2 recomputes the row and leaves the
        # file alone.
        cache_path = tmp_path / "cache.json"
        rows = [[1], [0, 1], [0, 1, 1], [0, 4, 5, 1], [0, 36, 49, 14, 1],
                [0, 576, 820, 273, 30, 1], [0, 14400, 21076, 7645, 1023, 55, 1]]
        rows[6][1] = 15400
        text = json.dumps({"format_version": 1, "triangle_rows": rows, "polycauchy_entries": []})
        cache_path.write_text(text)
        code, out, _ = run(capsys, ["stirling2", "--nmax", "6", "--cache", str(cache_path)])
        assert code == 0
        assert out.splitlines()[-1] == "6:0,14400,21076,7645,1023,55,1"
        assert cache_path.read_text() == text

    def test_unknown_format_version_recomputes(self, capsys, tmp_path):
        cache_path = tmp_path / "cache.json"
        text = json.dumps({"format_version": 99, "polycauchy_entries": [[1, 1, "5"]]})
        cache_path.write_text(text)
        code, out, _ = run(capsys, ["polycauchy", "--nmax", "2", "--cache", str(cache_path)])
        assert code == 0
        assert out.splitlines()[1:] == SEQUENCE_LINES[:3]
        assert cache_path.read_text() == text

    def test_malformed_file_recomputes(self, capsys, tmp_path):
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json")
        code, out, _ = run(capsys, ["polycauchy", "--nmax", "2", "--cache", str(cache_path)])
        assert code == 0
        assert out.splitlines()[1:] == SEQUENCE_LINES[:3]
        assert cache_path.read_text() == "{not json"

    def test_stirling2_never_writes_the_cache(self, capsys, tmp_path):
        cache_path = tmp_path / "cache.json"
        code, out, _ = run(capsys, ["stirling2", "--nmax", "6", "--cache", str(cache_path)])
        assert code == 0
        assert out.splitlines()[4] == "3:0,4,5,1"
        assert not cache_path.exists()

    def test_route_both_never_opens_the_cache(self, capsys, tmp_path):
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json")
        argv = ["polycauchy", "--k", "-2", "--nmax", "8", "--route", "both"]
        expected = run(capsys, argv)
        assert run(capsys, argv + ["--cache", str(cache_path)]) == expected
        assert cache_path.read_text() == "{not json"

    @pytest.mark.parametrize("argv", [["series", "L", "--order", "6"], ["verify", "thm2", "--nmax", "6"]])
    def test_series_and_verify_accept_it(self, capsys, tmp_path, argv):
        cache_path = tmp_path / "cache.json"
        expected = run(capsys, argv)
        assert run(capsys, argv + ["--cache", str(cache_path)]) == expected
        assert not cache_path.exists()


class TestEntryPoint:
    @staticmethod
    def child_env():
        # The child finds the package where this process imported it from.
        source_root = str(Path(polycauchy2.__file__).parents[1])
        paths = [source_root, *filter(None, [os.environ.get("PYTHONPATH")])]
        return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "polycauchy2.cli", "polycauchy", "--nmax", "1"],
            capture_output=True,
            text=True,
            env=self.child_env(),
        )
        assert result.returncode == 0
        assert result.stdout.splitlines() == ["n,value", "0,1", "1,1/3"]

    def test_closed_stdout_exits_141_without_traceback(self):
        # A reader that leaves early, as `| head -1` does: exit 128 + SIGPIPE,
        # not 1 ("identity failed"), and no traceback.
        with subprocess.Popen(
            [sys.executable, "-m", "polycauchy2.cli", "stirling2", "--nmax", "300"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.child_env(),
        ) as child:
            assert child.stdout.readline() == b"n:values\n"
            child.stdout.close()
            try:
                code = child.wait(timeout=60)
            finally:
                child.kill()
            err = child.stderr.read()
        assert code == 141
        assert b"Traceback" not in err, err
