"""Command-line behavior: formats, fixtures, exit codes, the ignored --cache flag, the two parsers."""

import ast
import contextlib
import decimal
import io
import hashlib
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycauchy2
from polycauchy2 import cli
from polycauchy2 import convolution as convolution_module
from polycauchy2 import polycauchy as polycauchy_module
from polycauchy2 import IdentityReport, PolyCauchyTable, level2_by_recurrence
from polycauchy2.cli import build_parser, main
from polycauchy2.convolution import CONVOLUTION_IDENTITIES, default_conjecture_samples
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
    def test_rounding_writes_nothing_in_any_format(self, capsys, monkeypatch, options):
        # Rows are written as they are rendered, so the arithmetic (and its
        # trap) must finish before the first byte, the JSON head included.
        monkeypatch.setattr(decimal, "MAX_PREC", 50)
        code, out, err = run(capsys, ["stirling2", "--nmax", "60"] + options)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("polycauchy2: internal error: ")

    @pytest.mark.parametrize("fmt", ["csv", "tsv", "json"])
    @pytest.mark.parametrize("signed", [False, True])
    def test_stdout_matches_one_string_rendering(self, capsys, fmt, signed):
        for nmax in range(61):
            argv = ["stirling2", "--nmax", str(nmax), "--format", fmt] + (["--signed"] if signed else [])
            code, out, _ = run(capsys, argv)
            assert code == 0
            assert out == stirling2_reference_stdout(nmax, signed, fmt), nmax
            if fmt == "json":
                assert json.loads(out)["rows"][nmax][nmax] == "1"

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
            lambda nmax, table: [v + (n == 4) for n, v in enumerate(original(nmax, table))],
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

    def test_bumped_c_at_the_last_sample_fails_only_that_row(self, capsys, monkeypatch):
        # C at the last sample is read only by that row: the derivation,
        # the rows before it and the printed polynomials stay as they were.
        _, truth, _ = run(capsys, ["verify", "conjecture-r3"])
        last = default_conjecture_samples(3)[-1]
        real = polycauchy_module._formula_numerators

        def bumped(nmax, k):
            numerators, denominator = real(nmax, k)
            numerators[last] += denominator
            return numerators, denominator

        monkeypatch.setattr(polycauchy_module, "_formula_numerators", bumped)
        code, out, _ = run(capsys, ["verify", "conjecture-r3"])
        assert code == 1
        lines, expected = out.splitlines(), truth.splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith(f"  n={last} "))
        assert lines[row].endswith(" MISMATCH") and expected[row].endswith(" ok")
        assert lines[:row] == expected[:row]
        assert lines[row + 1 : -1] == expected[row + 1 : -1]
        assert (lines[-1], expected[-1]) == ("status: fail", "status: pass")


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
        # skipped there, so its metric would read 0.
        methods = _bench_literal("METHODS", "tracer.py")
        for layer, cls in (("polycauchy", PolyCauchyTable), ("convolution", IdentityReport)):
            for method in methods[layer][cls.__name__]:
                raw = cls.__dict__.get(method)
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                assert inspect.isfunction(fn), (cls.__name__, method)

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
