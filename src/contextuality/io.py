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

import json
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional, TextIO, Union

from .builders import MeasureReport
from .errors import ParseError, ValidationError
from .lp import fmt_rational
from .system import Context, Pmf, Property, Symbol, System

PathLike = Union[str, Path]


def _parse_symbol(tok: str) -> Symbol:
    try:
        return int(tok)
    except ValueError:
        return tok


def _parse_probability(tok: str, lineno: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad probability {tok!r}", lineno) from exc


def parse_system_text(text: str) -> System:
    """Parse a system description; raises ParseError with line numbers."""
    properties: list[Property] = []
    contexts: list[Context] = []
    weights: dict[str, list[tuple[tuple, Fraction]]] = {}
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
            p = Property(tok[1], tuple(_parse_symbol(s) for s in tok[2:]))
            if p.id in prop_by_id:
                raise ParseError(f"duplicate property {p.id!r}", lineno)
            prop_by_id[p.id] = p
            properties.append(p)
            current_bunch = None
        elif kind == "context":
            if len(tok) < 3:
                raise ParseError("context needs an id and >= 1 property", lineno)
            c = Context(tok[1], tuple(tok[2:]))
            if c.id in ctx_by_id:
                raise ParseError(f"duplicate context {c.id!r}", lineno)
            ctx_by_id[c.id] = c
            contexts.append(c)
            current_bunch = None
        elif kind == "bunch":
            if len(tok) != 2:
                raise ParseError("bunch needs exactly a context id", lineno)
            if tok[1] not in ctx_by_id:
                raise ParseError(f"bunch for undeclared context {tok[1]!r}", lineno)
            if tok[1] in weights:
                raise ParseError(f"duplicate bunch for context {tok[1]!r}", lineno)
            current_bunch = tok[1]
            weights[current_bunch] = []
        else:
            if current_bunch is None:
                raise ParseError(f"unexpected line {line!r}", lineno)
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
            bunches[cid] = Pmf(alphabets, items)
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
        raise ValidationError(f"no packaged example {name!r}; "
                              f"the packaged examples are {', '.join(names)}")
    return Path(str(data.joinpath(stem + ".system")))


def resolve_input(path: str) -> Path:
    """CLI path resolution: 'bundled:<name>' means a packaged example."""
    if path.startswith("bundled:"):
        return bundled_path(path.split(":", 1)[1])
    return Path(path)


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
