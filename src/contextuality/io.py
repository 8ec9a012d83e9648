"""System description files and report serialization.

A system file is line-oriented text with three kinds of records:

    property <id> <symbol> <symbol> ...
    context <id> <property-id> ...
    bunch <context-id>
    <symbol> ... <symbol> <probability>

Probabilities are "num/den" or decimal strings, converted exactly.  Symbols
that look like integers are read as integers (so "+1"/"-1" become the ints
used by the binary fast paths).  Blank lines and '#' comments are ignored.
Writing is canonical - sorted ids, lexicographic outcomes, lowest-terms
"num/den" - and writing a parsed canonical file reproduces it byte for byte.
"""
from __future__ import annotations

import decimal
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional, TextIO, Union

from .builders import MeasureReport
from .errors import ParseError, ValidationError
from .lp import LinearProgram
from .system import Context, Pmf, Property, Symbol, System, _quoted, as_fraction

PathLike = Union[str, Path]


def _parse_symbol(tok: str) -> Symbol:
    try:
        return int(tok)
    except ValueError:
        return tok


def _parse_probability(tok: str, lineno: int) -> Fraction:
    try:
        return as_fraction(tok)
    except ValidationError as exc:
        raise ParseError(f"bad probability {_quoted(tok)}", lineno) from exc


def _at_line(lineno: int, prefix: str, make, *args):
    """``make(*args)``, with a ValidationError re-raised as a ParseError at
    `lineno` whose message starts with `prefix`."""
    try:
        return make(*args)
    except ValidationError as exc:
        raise ParseError(prefix + str(exc), lineno) from exc


def parse_system_text(text: str) -> System:
    """Parse a system description; raises ParseError with line numbers.

    A property or context that fails validation is reported at its record's
    line, and a bunch that does at its ``bunch`` line."""
    properties: list[Property] = []
    contexts: list[Context] = []
    weights: dict[str, list[tuple[tuple, Fraction]]] = {}
    bunch_line: dict[str, int] = {}
    current_bunch: Optional[str] = None
    prop_by_id: dict[str, Property] = {}
    ctx_by_id: dict[str, Context] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        kind = tok[0]
        if kind == "property":
            if len(tok) < 4:
                raise ParseError("property needs an id and >= 2 symbols", lineno)
            p = _at_line(lineno, "", Property, tok[1], tuple(_parse_symbol(s) for s in tok[2:]))
            if p.id in prop_by_id:
                raise ParseError(f"duplicate property {_quoted(p.id)}", lineno)
            prop_by_id[p.id] = p
            properties.append(p)
            current_bunch = None
        elif kind == "context":
            if len(tok) < 3:
                raise ParseError("context needs an id and >= 1 property", lineno)
            c = _at_line(lineno, "", Context, tok[1], tuple(tok[2:]))
            if c.id in ctx_by_id:
                raise ParseError(f"duplicate context {_quoted(c.id)}", lineno)
            ctx_by_id[c.id] = c
            contexts.append(c)
            current_bunch = None
        elif kind == "bunch":
            if len(tok) != 2:
                raise ParseError("bunch needs exactly a context id", lineno)
            if tok[1] not in ctx_by_id:
                raise ParseError(f"bunch for undeclared context {_quoted(tok[1])}", lineno)
            if tok[1] in weights:
                raise ParseError(f"duplicate bunch for context {_quoted(tok[1])}", lineno)
            current_bunch = tok[1]
            weights[current_bunch] = []
            bunch_line[current_bunch] = lineno
        else:
            if current_bunch is None:
                raise ParseError(f"unexpected line {_quoted(line)}", lineno)
            ctx = ctx_by_id[current_bunch]
            if len(tok) != len(ctx.properties) + 1:
                raise ParseError(
                    f"expected {len(ctx.properties)} symbols and a probability",
                    lineno,
                )
            outcome = tuple(_parse_symbol(s) for s in tok[:-1])
            weights[current_bunch].append((outcome, _parse_probability(tok[-1], lineno)))
    bunches = {}
    for cid, items in weights.items():
        ctx = ctx_by_id[cid]
        alphabets = []
        for pid in ctx.properties:
            if pid not in prop_by_id:
                # let System raise UnknownProperty with the right message
                alphabets = None
                break
            alphabets.append(prop_by_id[pid].alphabet)
        if alphabets is not None:
            bunches[cid] = _at_line(bunch_line[cid], f"bunch {cid}: ", Pmf, alphabets, items)
    return System(properties, contexts, bunches)


def parse_system(path: PathLike) -> System:
    """Parse a UTF-8 system file; a byte that is not UTF-8 is a ParseError
    at its line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as parse_system_text numbers lines; the "x" stands for
        # the bad byte, so a line break just before it starts a new line
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8 "
                         f"({exc.reason})", line) from None
    return parse_system_text(text)


def write_system_text(sys: System) -> str:
    """Canonical serialization (parse . write = identity on values,
    write . parse = identity on canonical text)."""
    out = [f"# measurement system: {len(sys.properties)} properties, "
           f"{len(sys.contexts)} contexts"]
    for p in sys.properties:
        out.append("property " + p.id + " " + " ".join(str(s) for s in p.alphabet))
    for c in sys.contexts:
        out.append("context " + c.id + " " + " ".join(c.properties))
    for c in sys.contexts:
        out.append(f"bunch {c.id}")
        for outcome, w in sys.bunches[c.id].items():
            out.append(" ".join(str(s) for s in outcome) + " " + fmt_rational(w))
    return "\n".join(out) + "\n"


def write_system(sys: System, path: PathLike) -> None:
    Path(path).write_text(write_system_text(sys), encoding="utf-8")


def bundled_path(name: str) -> Path:
    """Path of a packaged example file (e.g. 'prbox', 'disjoint').

    Only the names of the packaged examples are accepted, so a name can
    never reach outside the package's data directory; any other name
    raises ValidationError.
    """
    data = resources.files("contextuality").joinpath("data")
    names = sorted(f.name.removesuffix(".system") for f in data.iterdir()
                   if f.name.endswith(".system"))
    stem = name.removesuffix(".system")
    if stem not in names:
        raise ValidationError(f"no packaged example {_quoted(name)}; "
                              f"the packaged examples are {', '.join(names)}")
    return Path(str(data.joinpath(stem + ".system")))


def resolve_input(path: str) -> Path:
    """CLI path resolution: 'bundled:<name>' means a packaged example."""
    if path.startswith("bundled:"):
        return bundled_path(path.split(":", 1)[1])
    return Path(path)


# ---------------------------------------------------------------------------
# Program dumps (bit-exact round trip)
# ---------------------------------------------------------------------------

def fmt_rational(v: Fraction) -> str:
    """``num/den`` in lowest terms, as in dumps, system files and reports,
    exact also past Python's default limit of 4300 digits on ``str`` of an
    int, which ``str`` of a ``decimal.Decimal`` does not have."""
    try:
        return f"{v.numerator}/{v.denominator}"
    except ValueError:
        return f"{decimal.Decimal(v.numerator)}/{decimal.Decimal(v.denominator)}"


def dump_lp(lp: LinearProgram) -> str:
    """Serialize: header, variables in column order, nonzero cost entries,
    one line per nonzero matrix entry, nonzero right-hand sides."""
    out = ["lp-dump 1", "minimize", f"vars {lp.column_count}"]
    out.extend(f"var {name}" for name in lp.variables)
    out.append(f"rows {lp.row_count}")
    for j, c in enumerate(lp.cost):
        if c:
            out.append(f"c {lp.variables[j]} {fmt_rational(c)}")
    for i, row in enumerate(lp.rows):
        for j in sorted(row):
            out.append(f"a {i} {lp.variables[j]} {fmt_rational(row[j])}")
    for i, b in enumerate(lp.rhs):
        if b:
            out.append(f"rhs {i} {fmt_rational(b)}")
    out.append("end")
    return "\n".join(out) + "\n"


def parse_lp(text: str) -> LinearProgram:
    """Inverse of dump_lp; raises ParseError with a line number on bad input."""
    lines = text.splitlines()
    idx = 0

    def take() -> tuple[int, list[str]]:
        nonlocal idx
        while idx < len(lines):
            ln = lines[idx].strip()
            idx += 1
            if ln and not ln.startswith("#"):
                return idx, ln.split()
        raise ParseError("unexpected end of input", idx)

    lineno, tok = take()
    if tok != ["lp-dump", "1"]:
        raise ParseError("expected 'lp-dump 1' header", lineno)
    lineno, tok = take()
    if tok != ["minimize"]:
        raise ParseError("expected 'minimize'", lineno)
    def count(s: str, lineno: int) -> int:
        try:
            v = int(s)
        except ValueError as exc:
            raise ParseError(f"bad count {_quoted(s)}", lineno) from exc
        if v < 0:
            raise ParseError(f"negative count {_quoted(s)}", lineno)
        return v

    lineno, tok = take()
    if len(tok) != 2 or tok[0] != "vars":
        raise ParseError("expected 'vars <count>'", lineno)
    nvars = count(tok[1], lineno)
    col: dict[str, int] = {}
    for j in range(nvars):
        lineno, tok = take()
        if len(tok) != 2 or tok[0] != "var":
            raise ParseError("expected 'var <name>'", lineno)
        if col.setdefault(tok[1], j) != j:
            raise ParseError("duplicate variable name", lineno)
    lineno, tok = take()
    if len(tok) != 2 or tok[0] != "rows":
        raise ParseError("expected 'rows <count>'", lineno)
    nrows = count(tok[1], lineno)
    cost = [Fraction(0)] * nvars
    rows: list[dict[int, Fraction]] = [dict() for _ in range(nrows)]
    rhs = [Fraction(0)] * nrows

    def rational(s: str, lineno: int) -> Fraction:
        try:
            return as_fraction(s)
        except ValidationError as exc:
            raise ParseError(f"bad rational {_quoted(s)}", lineno) from exc

    def column(s: str, lineno: int) -> int:
        try:
            return col[s]
        except KeyError:
            raise ParseError(f"unknown variable {_quoted(s)}", lineno) from None

    def rowref(s: str, lineno: int) -> int:
        i = count(s, lineno)
        if i >= nrows:
            raise ParseError(f"row {i} out of range", lineno)
        return i

    given: set[tuple] = set()  # entries read so far; dump_lp writes each once

    def once(key: tuple, lineno: int) -> None:
        if key in given:
            raise ParseError(f"repeated entry {_quoted(' '.join(tok[:-1]))}", lineno)
        given.add(key)

    while True:
        lineno, tok = take()
        if tok == ["end"]:
            break
        if tok[0] == "c" and len(tok) == 3:
            j = column(tok[1], lineno)
            once(("c", j), lineno)
            cost[j] = rational(tok[2], lineno)
        elif tok[0] == "a" and len(tok) == 4:
            i, j = rowref(tok[1], lineno), column(tok[2], lineno)
            once(("a", i, j), lineno)
            rows[i][j] = rational(tok[3], lineno)
        elif tok[0] == "rhs" and len(tok) == 3:
            i = rowref(tok[1], lineno)
            once(("rhs", i), lineno)
            rhs[i] = rational(tok[2], lineno)
        else:
            raise ParseError(f"unrecognized line {_quoted(' '.join(tok))}", lineno)
    return LinearProgram(tuple(col), tuple(cost), tuple(rows), tuple(rhs))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def report_dict(report: MeasureReport, seconds: float,
                extra: Optional[dict] = None,
                include_witness: bool = False) -> dict:
    d = {
        "method": report.method,
        "delta": fmt_rational(report.delta),
        "delta0": fmt_rational(report.delta0),
        "measure": fmt_rational(report.measure),
        "noncontextual": report.noncontextual,
        "certified": report.certified,
    }
    if include_witness:
        d["witness"] = {k: fmt_rational(v) for k, v in report.witness.items()}
    if extra:
        d.update(extra)
    d["seconds"] = round(seconds, 6)
    return d


def report_json(reports: list[dict]) -> str:
    return json.dumps(reports, indent=2) + "\n"


_TEXT_LAST = {"witness": 1, "seconds": 2}


def report_text(d: dict, out: TextIO) -> None:
    """One ``key: value`` line per field of ``d`` in its order, a dict as
    a header and one indented ``name = value`` line per entry; the
    witness and then ``seconds`` come last."""
    for key in sorted(d, key=lambda k: _TEXT_LAST.get(k, 0)):
        val = d[key]
        if isinstance(val, dict):
            out.write(f"{key:15}:\n")
            out.writelines(f"  {k} = {v}\n" for k, v in val.items())
        else:
            out.write(f"{key:15}: {str(val).lower() if isinstance(val, bool) else val}\n")
