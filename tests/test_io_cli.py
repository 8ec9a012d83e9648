import decimal
import json
import os
import re
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from contextuality import builders, cli
from contextuality import io as io_module
from contextuality.analytic import build_delta_p_lp, coupling_mismatch_lp
from contextuality.builders import build_fixed_model_lp, build_lp, measure
from contextuality.cli import main
from contextuality.errors import (
    CertificationFailure,
    ParseError,
    UnknownProperty,
    ValidationError,
)
from contextuality.examples import disjoint_support_system, epr_model, pr_box
from contextuality.io import (
    bundled_path,
    parse_system,
    parse_system_text,
    write_system,
    write_system_text,
)
from contextuality.io import dump_lp, parse_lp
from contextuality.oracle import SystemShape, random_system
from contextuality.system import Context, Pmf, Property, System, as_fraction, consistency_report


# ---------------------------------------------------------------------------
# System files
# ---------------------------------------------------------------------------

def test_bundled_prbox():
    sysd = parse_system(bundled_path("prbox"))
    assert len(sysd.properties) == 4
    assert len(sysd.contexts) == 4
    assert consistency_report(sysd).consistent
    assert sysd == pr_box()


def test_bundled_disjoint():
    sysd = parse_system(bundled_path("disjoint"))
    assert len(sysd.properties) == 2
    assert len(sysd.contexts) == 4
    assert not consistency_report(sysd).consistent
    assert sysd == disjoint_support_system()


def test_parse_rejects_zero_denominator():
    text = write_system_text(pr_box()).replace("1/2", "1/0", 1)
    with pytest.raises(ParseError):
        parse_system_text(text)


def test_parse_reports_line_numbers():
    text = "property p 1 -1\ncontext c p\nbunch c\n1 1 1/2\n"
    with pytest.raises(ParseError) as err:
        parse_system_text(text)
    assert err.value.line == 4


def test_parse_rejects_duplicate_bunch():
    text = ("property p 1 -1\ncontext c p\n"
            "bunch c\n1 1/1\nbunch c\n1 1/1\n")
    with pytest.raises(ParseError):
        parse_system_text(text)


def test_parse_rejects_stray_line():
    with pytest.raises(ParseError):
        parse_system_text("1 1 1/2\n")


PROP = "property p 1 -1\n"


@pytest.mark.parametrize("text,error,line", [
    ("property p 1\n", ParseError, 1),  # short property line
    (PROP + PROP, ParseError, 2),  # duplicate property
    (PROP + "context c\n", ParseError, 2),  # short context line
    (PROP + "context c p\ncontext c p\n", ParseError, 3),  # duplicate context
    (PROP + "context c p\nbunch c c\n", ParseError, 3),  # bunch with extra token
    (PROP + "context c p\nbunch d\n", ParseError, 3),  # bunch for undeclared context
    (PROP + "context c q\nbunch c\n1 1/1\n", UnknownProperty, None),
    ("", ValidationError, None),  # no context
    ("# comments only\n\n", ValidationError, None),  # no context
    ("property p 1 1\n", ParseError, 1),  # repeated symbol
    (PROP + "context c p p\n", ParseError, 2),  # repeated property
    (PROP + "context c p\nbunch c\n1 1/2\n-1 1/3\n", ParseError, 3),  # weights sum to 5/6
    (PROP + "context c p\nbunch c\n1 1/2\n2 1/2\n", ParseError, 3),  # symbol not in alphabet
])
def test_parse_system_refusals(text, error, line):
    with pytest.raises(error) as err:
        parse_system_text(text)
    if line is not None:
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: ")


@pytest.mark.parametrize("text,message", [
    ("property p 1 1\n", "line 1: property p: duplicate symbols"),
    (PROP + "context c p p\n", "line 2: context c: duplicate property"),
    (PROP + "context c p\nbunch c\n1 1/2\n-1 1/3\n",
     "line 3: bunch c: weights sum to 5/6, expected 1"),
    (PROP + "context c p\nbunch c\n1 1/2\n2 1/2\n",
     "line 3: bunch c: symbol 2 not in alphabet (1, -1)"),
])
def test_parse_refusals_name_their_record(text, message):
    with pytest.raises(ParseError) as err:
        parse_system_text(text)
    assert str(err.value) == message


def test_cli_empty_system_file_is_refused(tmp_path, capsys):
    path = tmp_path / "empty.system"
    path.write_text("# no records\n", encoding="utf-8")
    assert main(["analyze", str(path), "--method", "present,cbd,np,np_inside"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a system needs at least one context\n"


def test_cli_parse_error_is_one_line(tmp_path, capsys):
    path = tmp_path / "short.system"
    path.write_text("property p 1\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["analyze"], ["dump-lp", "--method", "present"],
                                  ["approx", "bundled:prbox", "--model"]])
def test_cli_non_utf8_file_is_a_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "latin1.system"
    path.write_bytes(b"property p 1 -1\n\xff\n")
    assert main([argv[0], *argv[1:], str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 2: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_decimal_probabilities_parse_exactly():
    text = ("property p 1 -1\ncontext c p\n"
            "bunch c\n1 0.25\n-1 0.75\n")
    sysd = parse_system_text(text)
    assert sysd.bunch("c")[(1,)] == F(1, 4)


LP_TEXT = "lp-dump 1\nminimize\nvars 1\nvar x\nrows 1\nc x 1/1\na 0 x 1/1\nrhs 0 {}\nend\n"


@pytest.mark.parametrize("text", ["0.25", "1e-3", "3/4"])
def test_rationals_from_text_read_exactly(text):
    value = F(text)
    assert as_fraction(text) == value
    assert io_module._parse_probability(text, 4) == value
    assert parse_lp(LP_TEXT.format(text)).rhs == (value,)
    assert cli._parse_angles(f"{text},0;{text}") == ([value, 0], [value])


@pytest.mark.parametrize("text", ["1e5000", "1e-100000000"])
def test_rationals_from_text_refuse_huge_exponents(tmp_path, capsys, text):
    # Fraction would compute 10**exponent: a 5001-digit numerator that no
    # message can print, or a denominator that takes minutes to build.
    with pytest.raises(ValidationError, match="exponent"):
        as_fraction(text)
    system = f"property p 1 -1\ncontext c p\nbunch c\n1 {text}\n"
    with pytest.raises(ParseError, match=f"^line 4: bad probability '{text}'$"):
        parse_system_text(system)
    with pytest.raises(ParseError, match=f"^line 8: bad rational '{text}'$"):
        parse_lp(LP_TEXT.format(text))
    path = tmp_path / "huge.system"
    path.write_text(system, encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: line 4: bad probability '{text}'\n"
    assert main(["approx", "bundled:prbox", "--epr", "--angles", f"{text},0;90"]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad --angles '{text},0;90'")


@pytest.mark.parametrize("text", ["1_0/2_0", "0.5_0", "5_0e-2_0", "1 / 2", "1/ 2", "1\t/2"])
def test_rationals_from_text_take_one_grammar(tmp_path, capsys, text):
    # Fraction reads underscores from Python 3.11 on and spaces around the
    # slash from 3.12 on; every version refuses both.
    with pytest.raises(ValidationError, match="^not a rational number: "):
        as_fraction(text)
    assert as_fraction(f" {F(1, 2)}\n") == F(1, 2)  # surrounding whitespace is read
    one_token = len(text.split()) == 1
    system = f"property p 1 -1\ncontext c p\nbunch c\n1 {text}\n-1 1/2\n"
    message = (f"bad probability {text!r}" if one_token
               else "expected 1 symbols and a probability")
    with pytest.raises(ParseError, match=f"^line 4: {re.escape(message)}$"):
        parse_system_text(system)
    tokens = " ".join(text.split())
    message = f"bad rational {text!r}" if one_token else f"unrecognized line 'rhs 0 {tokens}'"
    with pytest.raises(ParseError, match=f"^line 8: {re.escape(message)}$"):
        parse_lp(LP_TEXT.format(text))
    path = tmp_path / "grammar.system"
    path.write_text(system, encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 4: ")
    assert main(["approx", "bundled:prbox", "--epr", "--angles", f"{text},0;90"]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad --angles {text + ',0;90'!r}")


def test_string_symbols_round_trip():
    text = ("property color red green blue\ncontext c color\n"
            "bunch c\nred 1/3\ngreen 1/3\nblue 1/3\n")
    sysd = parse_system_text(text)
    assert parse_system_text(write_system_text(sysd)) == sysd


def test_round_trip_bit_exact(tmp_path):
    for seed in range(4):
        sysd = random_system(SystemShape(2, 2, consistent=bool(seed % 2), seed=seed))
        canonical = write_system_text(sysd)
        assert parse_system_text(canonical) == sysd
        assert write_system_text(parse_system_text(canonical)) == canonical
        p = tmp_path / f"s{seed}.system"
        write_system(sysd, p)
        assert parse_system(p) == sysd


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_analyze_disjoint_present(capsys):
    code = main(["analyze", "bundled:disjoint", "--method", "present", "--json"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 0
    assert reports[0]["measure"] == "1/1"
    assert reports[0]["delta"] == "3/1"
    assert reports[0]["delta0"] == "2/1"
    assert reports[0]["noncontextual"] is False
    assert reports[0]["certified"] is True


def test_cli_analyze_disjoint_cbd(capsys):
    code = main(["analyze", "bundled:disjoint", "--method", "cbd", "--json"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 0
    assert reports[0]["measure"] == "0/1"
    assert reports[0]["noncontextual"] is True


def test_cli_analyze_prbox_both(capsys):
    code = main(["analyze", "bundled:prbox", "--method", "present,cbd", "--json"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [r["measure"] for r in reports] == ["1/1", "1/1"]


def test_cli_analyze_np_on_inconsistent_system(capsys):
    code = main(["analyze", "bundled:disjoint", "--method", "np", "--json"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 3
    assert reports[0]["error_type"] == "InconsistentlyConnected"


@pytest.mark.parametrize("methods,errors", [
    ("np", {"np": "InconsistentlyConnected"}),
    ("present,np_inside", {"np_inside": "Infeasible"}),
])
def test_cli_analyze_text_mode_renders_errors(capsys, methods, errors):
    code = main(["analyze", "bundled:disjoint", "--method", methods])
    blocks = capsys.readouterr().out.split("\n\n")
    assert code == 3
    assert len(blocks) == len(methods.split(","))
    for block in blocks:
        fields = {k.strip(): v.strip() for k, v in
                  (line.split(":", 1) for line in block.strip().splitlines())}
        if fields["method"] in errors:
            assert set(fields) == {"method", "error", "error_type"}
            assert fields["error_type"] == errors[fields["method"]]
        else:
            assert fields["measure"] == "1/1"


# Python's str of an int stops at 4300 digits by default.  A weight sum
# past it, and reports and dumps whose parsed numbers each fit but whose
# computed ones do not, end in a parse error or in exact output.
HUGE_SUM = "property p 1 -1\ncontext c p\nbunch c\n1 1/{}\n-1 1/{}\n".format(
    10**2499 + 1, 10**2499 + 3)
HUGE_FLOORS = "property p 1 -1\n" + "".join(
    f"context c{i} p\nbunch c{i}\n1 {i + 1}/{d}\n-1 {d - i - 1}/{d}\n"
    for i, d in enumerate(10**1400 + k for k in (1, 3, 7, 9, 13)))


def exact(text: str) -> F:
    """A num/den string read back without the digit limit of int(str)."""
    num, den = text.split("/")
    return F(int(decimal.Decimal(num)), int(decimal.Decimal(den)))


@pytest.mark.parametrize("argv", ["analyze {}", "analyze {} --json",
                                  "dump-lp {} --method np_inside"])
def test_cli_refuses_a_weight_sum_past_the_digit_limit(tmp_path, capsys, argv):
    path = tmp_path / "huge-sum.system"
    path.write_text(HUGE_SUM, encoding="utf-8")
    assert main(argv.format(path).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: line 3: bunch c: weights sum to a 2500-digit numerator "
                            "over a 4999-digit denominator, expected 1\n")


def test_cli_prints_reports_and_dumps_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "huge-floors.system"
    path.write_text(HUGE_FLOORS, encoding="utf-8")
    sysd = parse_system(path)
    rep = measure(sysd, "present")
    assert len(str(decimal.Decimal(rep.delta.denominator))) > 5000
    assert main(["analyze", str(path), "--json"]) == 0
    captured = capsys.readouterr()
    (report,) = json.loads(captured.out)
    assert [exact(report[k]) for k in ("delta", "delta0", "measure")] == \
        [rep.delta, rep.delta0, rep.measure]
    assert main(["analyze", str(path)]) == 0
    text = capsys.readouterr()
    assert f"delta          : {report['delta']}" in text.out.splitlines()
    assert main(["dump-lp", str(path), "--method", "np_inside"]) == 0
    dump = capsys.readouterr()
    lp = builders.build_lp(sysd, "np_inside")
    assert dump.out.splitlines()[-2] == f"rhs {lp.row_count - 1} {report['delta0']}"
    assert "Traceback" not in captured.err + text.err + dump.err
    # Such a dump is exact but does not re-parse: parse_lp keeps the limit.
    line = len(dump.out.splitlines()) - 1
    with pytest.raises(ParseError, match=f"^line {line}: bad rational") as err:
        parse_lp(dump.out)
    assert len(str(err.value)) < 200  # the token is named by its head and length


def test_cli_names_an_oversized_token_by_its_head_and_length(tmp_path, capsys):
    path = tmp_path / "long-weight.system"
    path.write_text(f"property p 1 -1\ncontext c p\nbunch c\n1 1/{'7' * 5000}\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: line 4: bad probability '1/777777777777777777'... "
                            "(5002 characters)\n")
    assert len(captured.err.encode()) < 200


@pytest.mark.parametrize("argv", [
    ["sizes", "7" * 5000, "2"],
    ["sizes", "7" * 4000, "2"],  # parses, but m*n is refused
    ["sizes", "2", "x" * 5000],
    ["dump-lp", "bundled:prbox", "--method", "x" * 5000],
    ["selftest", "--seed", "7" * 5000],
    ["selftest", "--count", "7" * 5000],
    ["x" * 5000],  # argparse's own messages
    ["sizes", "2", "2", "x" * 5000],
    ["analyze", "bundled:prbox", "--" + "x" * 5000],
    ["analyze", "bundled:" + "x" * 5000],
    ["analyze", "x" * 5000],  # an OSError's text
    ["analyze", "bundled:prbox", "--out", "/nonexistent/" + "x" * 5000],
    ["sizes", "2", "2", *["x"] * 3000],  # many unrecognized arguments
    ["analyze", "bundled:prbox", *["y"] * 500],
])
def test_cli_errors_on_oversized_arguments_stay_short(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the argument itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: " in captured.err and "Traceback" not in captured.err
    assert len(captured.err.encode()) < 200


def test_cli_errors_on_long_id_lists_stay_short(tmp_path, capsys):
    unused = tmp_path / "unused.system"
    unused.write_text("".join(f"property p{i} 1 -1\n" for i in range(3001))
                      + "context c p0\nbunch c\n1 1\n", encoding="utf-8")
    for name, prefix in (("data", "c"), ("model", "d")):
        (tmp_path / f"{name}.system").write_text("property p 1 -1\n" + "".join(
            f"context {prefix}{i} p\nbunch {prefix}{i}\n1 1\n" for i in range(2000)),
            encoding="utf-8")
    for argv, code, err in [
        (["analyze", str(unused)], 2,
         "error: properties in no context: ['p1', 'p10', 'p100', ...] (3000 ids)\n"),
        (["approx", str(tmp_path / "data.system"), "--model", str(tmp_path / "model.system")], 3,
         "error: model contexts ['d0', 'd1', 'd10', ...] (2000 ids) do not match system "
         "contexts ['c0', 'c1', 'c10', ...] (2000 ids)\n"),
        # A mismatched grid is refused before its bunches are built, also
        # where one of its angles is unrealizable.
        (["approx", "bundled:prbox", "--epr", "--angles", ",".join(["0"] * 400) + ";"
          + ",".join(["90"] * 400)], 3,
         "error: --angles give 160000 contexts (400 x 400); the system has 4\n"),
        (["approx", "bundled:prbox", "--epr", "--angles", "0,60;60"], 3,
         "error: --angles give 2 contexts (2 x 1); the system has 4\n"),
    ]:
        assert main(argv) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)


def test_cli_argparse_errors_are_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sizes", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "contextuality sizes: error: the following arguments are required: n\n")
    # Unrecognized arguments are listed in the given order, past three by
    # the first three and their count.
    for extra, listed in ((["b", "a"], "['b', 'a']"),
                          (["z", "y", "x" * 61, "w"],
                           f"['z', 'y', {'x' * 20!r}... (61 characters), ...] (4 arguments)")):
        with pytest.raises(SystemExit) as exc:
            main(["sizes", "2", "2", *extra])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"contextuality: error: unrecognized arguments: {listed}\n")


@pytest.mark.parametrize("method", ["present,cbd", "np,np", ""])
def test_cli_dump_lp_takes_exactly_one_method(capsys, method):
    assert main(["dump-lp", "bundled:prbox", "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1


ELEVEN = [f"p{i:02d}" for i in range(11)]
OVERSIZED = {
    # one context over 11 binary properties: a 2048-atom joint, 2048**2 atoms in w[c]
    "eleven": "".join(f"property {p} 1 -1\n" for p in ELEVEN)
              + f"context c {' '.join(ELEVEN)}\nbunch c\n{'1 ' * 11}1\n",
    # one 1100-symbol property in three contexts: 1100**2 atoms in each w[c]
    "wide": f"property p {' '.join(map(str, range(1100)))}\n"
            + "".join(f"context c{k} p\n" for k in range(3))
            + "".join(f"bunch c{k}\n{k} 1\n" for k in range(3)),
}


@pytest.mark.parametrize("name,argv,message,count", [
    ("eleven", "analyze {} --method present,np_inside",
     "error          : coupling block of context c has 4194304 atoms (cap 1048576)", 2),
    ("eleven", "approx {} --model {}",
     "error: coupling block of context c has 4194304 atoms (cap 1048576)", 1),
    ("wide", "analyze {} --method np_inside",
     "error          : coupling block of context c0 has 1210000 atoms (cap 1048576)", 1),
], ids=["analyze-eleven", "approx-eleven", "analyze-wide"])
def test_cli_refuses_oversized_coupling_blocks(tmp_path, capsys, name, argv, message, count):
    path = tmp_path / f"{name}.system"
    path.write_text(OVERSIZED[name], encoding="utf-8")
    assert main([arg.format(path) for arg in argv.split()]) == 3
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert lines.count(message) == count
    assert "Traceback" not in captured.err


def test_cli_refuses_a_program_of_blocks_under_the_cap(tmp_path, capsys, monkeypatch):
    # One 1000-symbol property in three contexts: each w[c] has 10**6 atoms,
    # under the cap, but the programs have 3 001 000 and 3 000 000 columns.
    # Nothing may be built; each bunch is the same point mass, so the
    # system is consistently connected and serves as its own model.
    def refuse(sysd):
        raise AssertionError("a template over the column cap was built")

    monkeypatch.setattr(builders, "_present_template", refuse)
    monkeypatch.setattr(builders, "_fixed_model_template", refuse)
    path = tmp_path / "wide.system"
    path.write_text(f"property p {' '.join(map(str, range(1000)))}\n"
                    + "".join(f"context c{k} p\nbunch c{k}\n0 1\n" for k in range(3)),
                    encoding="utf-8")
    assert main(["analyze", str(path), "--method", "present"]) == 3
    captured = capsys.readouterr()
    assert "error          : present program has 3001000 columns (cap 1048576)" in \
        captured.out.splitlines()
    assert "Traceback" not in captured.out + captured.err
    assert main(["approx", str(path), "--model", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: fixed_model program has 3000000 columns (cap 1048576)\n"
    # 20 binary properties in 10 pair contexts: the cbd program has 2**20
    # columns, as many as the cap, and 10 485 760 nonzeros, above theirs.
    monkeypatch.setattr(builders, "_cbd_template", refuse)
    pairs = tmp_path / "pairs.system"
    pairs.write_text("".join(f"property p{k} 1 -1\n" for k in range(20))
                     + "".join(f"context c{k} p{2 * k} p{2 * k + 1}\nbunch c{k}\n1 1 1\n"
                               for k in range(10)), encoding="utf-8")
    assert main(["analyze", str(pairs), "--method", "cbd"]) == 3
    captured = capsys.readouterr()
    assert "error          : cbd program has 10485760 nonzeros (cap 4194304)" in \
        captured.out.splitlines()
    assert "Traceback" not in captured.out + captured.err


def test_floor_above_the_optimum_is_a_certification_failure(monkeypatch, capsys):
    delta = measure(pr_box(), "present").delta
    monkeypatch.setattr("contextuality.builders.delta0_present", lambda sysd: delta + 1)
    with pytest.raises(CertificationFailure):
        measure(pr_box(), "present")
    assert main(["analyze", "bundled:prbox"]) == 4
    captured = capsys.readouterr()
    errors = [line for line in captured.out.splitlines() if line.startswith("error ")]
    assert errors == [f"error          : certified optimum {delta} is below the floor {delta + 1}"]
    assert "Traceback" not in captured.out + captured.err


def test_cli_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent.system"]) == 2


def test_cli_bundled_names_stay_in_the_package(tmp_path, capsys):
    # At the package's data directory, the escape names a readable file.
    outside = tmp_path / "outside.system"
    outside.write_text(write_system_text(pr_box()), encoding="utf-8")
    data = bundled_path("prbox").parent
    escape = os.path.relpath(tmp_path / "outside", data)
    assert (data / (escape + ".system")).resolve() == outside.resolve()
    for name in (escape, escape.replace("/", "\\"), "../data/prbox", "..", "nope"):
        assert main(["analyze", f"bundled:{name}", "--method", "np"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no packaged example")
        assert "disjoint, prbox" in captured.err
    assert main(["analyze", "bundled:prbox.system", "--method", "np"]) == 0


def test_cli_analyze_unknown_method(capsys):
    assert main(["analyze", "bundled:prbox", "--method", "bogus"]) == 2


def test_cli_analyze_rejects_empty_method_list(capsys):
    assert main(["analyze", "bundled:prbox", "--method", ","]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "no method" in captured.err


def test_cli_analyze_rejects_repeated_method(capsys):
    assert main(["analyze", "bundled:prbox", "--method", "np, np"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "twice" in captured.err


def test_cli_analyze_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", "bundled:prbox", "--method", "np", "--json",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text(encoding="utf-8"))[0]["measure"] == "1/2"


@pytest.mark.parametrize("argv", [
    ["analyze", "bundled:prbox"],
    ["approx", "bundled:prbox", "--epr"],
    ["dump-lp", "bundled:prbox", "--method", "np"],
])
def test_cli_unwritable_out_is_an_error(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "report.txt"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_cli_sizes(capsys):
    assert main(["sizes", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert "256" in out and "80" in out and "32" in out and "16" in out


def test_cli_sizes_json(capsys):
    assert main(["sizes", "3", "3", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    present = next(r for r in rows if r["method"] == "present")
    assert present["variables"] == 208
    assert present["equality_rows"] == 72
    assert main(["sizes", "2", "2", "--json"]) == 0
    assert capsys.readouterr().out == """\
[
  {
    "method": "cbd",
    "variables": 256,
    "equality_rows": 16,
    "inequality_rows": 0
  },
  {
    "method": "np",
    "variables": 32,
    "equality_rows": 16,
    "inequality_rows": 0
  },
  {
    "method": "present",
    "variables": 80,
    "equality_rows": 32,
    "inequality_rows": 0
  }
]
"""


@pytest.mark.parametrize("m,n", [("0", "2"), ("2", "-1"), ("100", "100"), ("1", "100000")])
def test_cli_sizes_rejects_empty_shape(capsys, m, n):
    assert main(["sizes", m, n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_cli_dump_lp_round_trip(tmp_path, capsys):
    out = tmp_path / "prbox-cbd.lp"
    code = main(["dump-lp", "bundled:prbox", "--method", "cbd", "--out", str(out)])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    lp = parse_lp(text)
    assert lp.column_count == 256
    assert lp.row_count == 16
    from contextuality.io import dump_lp

    assert dump_lp(lp) == text


class _Discard:
    """A text sink that keeps nothing it is given."""

    def write(self, text):
        return len(text)


def _peak_bytes(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dump_lp_is_written_as_it_is_made(monkeypatch):
    # dump-lp writes its lines in batches as they are made, so writing 2x3
    # cbd's dump (4096 columns) peaks below half the dump's length, where
    # writing it as one string peaks above its whole length.
    lp = build_lp(random_system(SystemShape(2, 3, seed=0)), "cbd")
    assert lp.column_count == 4096
    text = dump_lp(lp)
    assert "".join(io_module._dump_lines(lp)) == text
    monkeypatch.setattr("sys.stdout", _Discard())
    streamed = _peak_bytes(lambda: cli._emit(io_module._dump_lines(lp), None))
    whole = _peak_bytes(lambda: cli._emit([dump_lp(lp)], None))
    assert streamed < len(text) / 2 < len(text) < whole


def test_cli_approx_epr_self(tmp_path, capsys):
    data = tmp_path / "epr.system"
    write_system(epr_model([0, 180], [90, 270]).system, data)
    code = main(["approx", str(data), "--epr", "--angles", "0,180;90,270", "--json"])
    report = json.loads(capsys.readouterr().out)[0]
    assert code == 0
    assert report["delta"] == "0/1"
    assert report["delta0"] == "0/1"
    assert report["optimal_approximation"] is True


def test_cli_approx_model_file(tmp_path, capsys):
    model = tmp_path / "model.system"
    rho = F(0)
    from contextuality.analytic import BinaryStats
    from contextuality.examples import ab_system

    z = F(0)
    m = ab_system(2, 2, {(i, j): BinaryStats(z, z, rho) for i in (1, 2) for j in (1, 2)})
    data = tmp_path / "data.system"
    write_system(m, model)
    write_system(random_system(SystemShape(2, 2, consistent=False, seed=9)), data)
    code = main(["approx", str(data), "--model", str(model), "--json"])
    report = json.loads(capsys.readouterr().out)[0]
    assert code == 0
    assert report["certified"] is True


def test_cli_approx_unrealizable_angles(tmp_path, capsys):
    data = tmp_path / "epr.system"
    write_system(epr_model([0, 180], [90, 270]).system, data)
    code = main(["approx", str(data), "--epr", "--angles", "0,60;60,120"])
    assert code == 2


def test_cli_approx_rounded_cosines(tmp_path, capsys):
    # 135- and 105-degree differences are irrational; the report must record
    # the rationals actually used
    model = epr_model([90, 120], [225, 210])
    assert set(model.rounded) == {"a1b1", "a2b1"}
    data = tmp_path / "epr45.system"
    write_system(model.system, data)
    code = main(["approx", str(data), "--epr", "--angles", "90,120;225,210", "--json"])
    report = json.loads(capsys.readouterr().out)[0]
    assert code == 0
    assert set(report["rounded_cosines"]) == {"a1b1", "a2b1"}
    assert report["optimal_approximation"] is True


@pytest.mark.parametrize("angles", ["x;1", ";90", "0,90"])
def test_cli_approx_rejects_bad_angles(capsys, angles):
    assert main(["approx", "bundled:prbox", "--epr", "--angles", angles]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_cli_selftest(capsys):
    code = main(["selftest", "--count", "4", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all suites passed" in out


@pytest.mark.parametrize("args", [["--count", "0"], ["--count", "-3"]])
def test_cli_selftest_rejects_bad_arguments(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", *args])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "error: argument" in captured.err


@pytest.mark.parametrize("command", ["analyze", "dump-lp"])
def test_cli_rejects_name_delimiters_in_symbols(tmp_path, capsys, command):
    # "a,b c" and "a b,c" would both be labelled "a,b,c" in variable names
    path = tmp_path / "collide.system"
    path.write_text("property p a,b a\nproperty q c b,c\ncontext c1 p q\n"
                    "bunch c1\na,b c 1/2\na b,c 1/2\n", encoding="utf-8")
    assert main([command, str(path), "--method", "present"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "','" in err


def test_cli_analyze_rejects_symbols_that_print_alike(monkeypatch, capsys):
    # A system file cannot hold such an alphabet (a symbol that reads as an
    # integer becomes one), so the parse step hands over an API-built system.
    def parse_clash(path):
        return System([Property("p", (1, "1"))], [Context("c", ("p",))],
                      {"c": Pmf([(1, "1")], {(1,): 1})})

    monkeypatch.setattr(cli, "parse_system", parse_clash)
    assert main(["analyze", "clash.system", "--method", "present"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "print alike" in captured.err


def test_cli_witness_flag(capsys):
    code = main(["analyze", "bundled:prbox", "--method", "np", "--json", "--witness"])
    report = json.loads(capsys.readouterr().out)[0]
    assert code == 0
    assert any(k.startswith("neg[") for k in report["witness"])


# ---------------------------------------------------------------------------
# Golden outputs: analyze --json --witness (minus seconds) and dump-lp bytes
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"
ALL_METHODS = "present,cbd,np,np_inside"


@pytest.mark.parametrize("name", ["prbox", "disjoint"])
def test_analyze_json_matches_golden(capsys, name):
    code = main(["analyze", f"bundled:{name}", "--method", ALL_METHODS, "--json", "--witness"])
    reports = json.loads(capsys.readouterr().out)
    assert code == (0 if name == "prbox" else 3)
    for r in reports:
        r.pop("seconds", None)
    text = json.dumps(reports, indent=2) + "\n"
    assert text == (GOLDEN / f"{name}.analyze.json").read_text(encoding="utf-8")


# The ids are pytest's defaults for (name, argv), which the exit code would change.
@pytest.mark.parametrize("name,argv,code", [
    pytest.param("prbox.analyze",
                 ["analyze", "bundled:prbox", "--method", ALL_METHODS, "--witness"], 0,
                 id="prbox.analyze-argv0"),
    # the verdict line, and rounded cosines as name = value lines
    pytest.param("prbox.approx_rounded",
                 ["approx", "bundled:prbox", "--epr", "--angles", "90,120;225,210"], 0,
                 id="prbox.approx_rounded-argv1"),
    # np's InconsistentlyConnected and np_inside's Infeasible error blocks
    pytest.param("disjoint.analyze",
                 ["analyze", "bundled:disjoint", "--method", ALL_METHODS, "--witness"], 3,
                 id="disjoint.analyze-argv2"),
])
def test_text_report_matches_golden(capsys, name, argv, code):
    assert main(argv) == code
    lines = capsys.readouterr().out.splitlines(keepends=True)
    text = "".join(line for line in lines if not line.startswith("seconds "))
    assert text == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name,method", [
    (name, method) for name in ("prbox", "disjoint")
    for method in ALL_METHODS.split(",") if (name, method) != ("disjoint", "np")
])
def test_dump_lp_matches_golden(capsys, name, method):
    assert main(["dump-lp", f"bundled:{name}", "--method", method]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{method}.lp").read_text(encoding="utf-8")


def test_approx_epr_json_matches_golden(capsys):
    assert main(["approx", "bundled:prbox", "--epr", "--json", "--witness"]) == 0
    reports = json.loads(capsys.readouterr().out)
    for r in reports:
        r.pop("seconds", None)
    text = json.dumps(reports, indent=2) + "\n"
    assert text == (GOLDEN / "prbox.approx_epr.json").read_text(encoding="utf-8")


def test_selftest_matches_golden(capsys):
    assert main(["selftest", "--seed", "2024", "--count", "3"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "selftest.txt").read_text(encoding="utf-8")


def _golden_programs():
    ternary = random_system(SystemShape(2, 2, alphabet_size=3, consistent=False, seed=0))
    # a1 is in three contexts, so measure() solves its floor through this program.
    ternary3 = random_system(SystemShape(1, 3, alphabet_size=3, consistent=False, seed=5))
    return {
        "prbox.fixed_model": lambda: build_fixed_model_lp(
            parse_system(bundled_path("prbox")), epr_model([0, 90], [180, 270]).system.bunches),
        "ternary.delta_p": lambda: build_delta_p_lp(ternary, "a1"),
        "ternary3.delta_p": lambda: build_delta_p_lp(ternary3, "a1"),
        "ternary.coupling_mismatch": lambda: coupling_mismatch_lp(
            ternary.bunch("a1b1"), ternary.bunch("a1b2")),
    }


@pytest.mark.parametrize("name", ["prbox.fixed_model", "ternary.coupling_mismatch",
                                  "ternary.delta_p", "ternary3.delta_p"])
def test_coupling_programs_match_golden(name):
    lp = _golden_programs()[name]()
    assert dump_lp(lp) == (GOLDEN / f"{name}.lp").read_text(encoding="utf-8")
