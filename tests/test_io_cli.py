import json
import os
from fractions import Fraction as F
from pathlib import Path

import pytest

from contextuality import cli
from contextuality.analytic import build_delta_p_lp, coupling_mismatch_lp
from contextuality.builders import build_fixed_model_lp
from contextuality.cli import main
from contextuality.errors import ParseError, UnknownProperty
from contextuality.examples import disjoint_support_system, epr_model, pr_box
from contextuality.io import (
    bundled_path,
    parse_system,
    parse_system_text,
    write_system,
    write_system_text,
)
from contextuality.lp import dump_lp, parse_lp
from contextuality.oracle import SystemShape, random_system
from contextuality.system import Context, Pmf, Property, System, consistency_report


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
])
def test_parse_system_refusals(text, error, line):
    with pytest.raises(error) as err:
        parse_system_text(text)
    if line is not None:
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: ")


def test_cli_parse_error_is_one_line(tmp_path, capsys):
    path = tmp_path / "short.system"
    path.write_text("property p 1\n")
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


def test_cli_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent.system"]) == 2


def test_cli_bundled_names_stay_in_the_package(tmp_path, capsys):
    # At the package's data directory, the escape names a readable file.
    outside = tmp_path / "outside.system"
    outside.write_text(write_system_text(pr_box()))
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
    assert json.loads(out.read_text())[0]["measure"] == "1/2"


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
    text = out.read_text()
    lp = parse_lp(text)
    assert lp.column_count == 256
    assert lp.row_count == 16
    from contextuality.lp import dump_lp

    assert dump_lp(lp) == text


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
                    "bunch c1\na,b c 1/2\na b,c 1/2\n")
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
    assert text == (GOLDEN / f"{name}.analyze.json").read_text()


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
    assert text == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name,method", [
    (name, method) for name in ("prbox", "disjoint")
    for method in ALL_METHODS.split(",") if (name, method) != ("disjoint", "np")
])
def test_dump_lp_matches_golden(capsys, name, method):
    assert main(["dump-lp", f"bundled:{name}", "--method", method]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{method}.lp").read_text()


def test_approx_epr_json_matches_golden(capsys):
    assert main(["approx", "bundled:prbox", "--epr", "--json", "--witness"]) == 0
    reports = json.loads(capsys.readouterr().out)
    for r in reports:
        r.pop("seconds", None)
    text = json.dumps(reports, indent=2) + "\n"
    assert text == (GOLDEN / "prbox.approx_epr.json").read_text()


def test_selftest_matches_golden(capsys):
    assert main(["selftest", "--seed", "2024", "--count", "3"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "selftest.txt").read_text()


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
    assert dump_lp(lp) == (GOLDEN / f"{name}.lp").read_text()
