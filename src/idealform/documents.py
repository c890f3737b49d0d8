"""Problem and formulation documents: the package's serialized forms.

Problems come in as JSON with one body per kind (cdc, pwl, annulus) and
every rational written as an integer or a "p/q" string, never a float, so
parsing is lossless. A rational is read as a plain int whenever it is
integral, whether written 3, "3" or "6/2", and as a Fraction only where a
denominator remains. Formulations go out the same way: integer rows,
string rationals in the recovery map, float pairs only in the annulus
recovery where the corner coordinates are display data. Parsing an
emitted formulation document reproduces the Formulation and RecoveryMap
field-for-field, which is what lets a verification run consume an emitted
file instead of an in-process object.

``document_text`` is the one JSON writer. Its bytes equal
``json.dumps(doc, indent=2) + "\\n"``, which the tests check against that
oracle; it writes each list of plain ints with one join in C, where
json.dumps with an indent falls back to its pure-Python encoder, each plain
int from one table of texts per document, and each key and plain str
through the C string encoder that json.dumps calls.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import ClassVar

from .annulus import (
    AnnulusSpec,
    _check_piece_count,
    annulus_cdc,
    annulus_gray_formulation,
    annulus_zigzag_formulation,
)
from .cdc import Cdc, theorem1_formulation
from .encoding import Encoding, EncodingKind, check_family, make_encoding
from .errors import IdealformError, InputError
from .formulation import Formulation, GeneralRow, LinearEquality, RecoveryMap
from .pwl import PwlFunction, pwl_formulation, pwl_ground_set, pwl_prop3_applicable
from .verify import VerificationReport

CHECK_LEVELS = ("none", "validity", "ideal")
OUTPUT_FORMATS = ("json", "lp")


@dataclass(frozen=True)
class ProblemOptions:
    check: str = "none"
    output_format: str = "json"


# One class per problem kind. formulate() returns the formulation, the
# recovery map (None for a plain cdc) and the document's provenance block.

@dataclass(frozen=True)
class CdcProblem:
    """A general disjunction, formulated by spanned-hyperplane enumeration."""

    kind: ClassVar[str] = "cdc"
    cdc: Cdc
    codes: EncodingKind | Encoding  # a family, or the document's own explicit rows
    options: ProblemOptions

    def disjunction(self) -> Cdc:
        return self.cdc

    def encoding(self) -> Encoding:
        if isinstance(self.codes, Encoding):
            return self.codes
        return make_encoding(self.cdc.d, self.codes)

    def formulate(self) -> tuple[Formulation, RecoveryMap | None, dict]:
        f = theorem1_formulation(self.cdc, self.encoding())
        name = "explicit" if isinstance(self.codes, Encoding) else self.codes.value
        return f, None, {"kind": self.kind, "encoding": name, "path": "general",
                         "gamma": f.gamma}


@dataclass(frozen=True)
class PwlProblem:
    """The epigraph of a piecewise-linear function."""

    kind: ClassVar[str] = "pwl"
    function: PwlFunction
    codes: EncodingKind
    options: ProblemOptions

    def disjunction(self) -> Cdc:
        ground = pwl_ground_set(self.function)
        return Cdc(ground.n, ground.alternatives)

    def encoding(self) -> Encoding:
        return make_encoding(self.function.d, self.codes)

    def formulate(self) -> tuple[Formulation, RecoveryMap | None, dict]:
        f, recovery = pwl_formulation(self.function, self.codes)
        path = "closed-form" if pwl_prop3_applicable(self.function) else "general"
        return f, recovery, {"kind": self.kind, "encoding": self.codes.value,
                             "path": path, "gamma": f.gamma,
                             "kappa": len(self.function.jumps)}


@dataclass(frozen=True)
class AnnulusProblem:
    """A ring split into d = 2^r pieces, formulated in closed form."""

    kind: ClassVar[str] = "annulus"
    pieces: int
    geometry: AnnulusSpec | None
    codes: EncodingKind
    options: ProblemOptions

    def disjunction(self) -> Cdc:
        return annulus_cdc(self.pieces)

    def encoding(self) -> Encoding:
        return make_encoding(self.pieces, self.codes)

    def formulate(self) -> tuple[Formulation, RecoveryMap | None, dict]:
        check_family(self.codes)
        build = {EncodingKind.GRAY: annulus_gray_formulation,
                 EncodingKind.ZIGZAG: annulus_zigzag_formulation}[self.codes]
        f, recovery = build(self.pieces, self.geometry)
        return f, recovery, {"kind": self.kind, "encoding": self.codes.value,
                             "path": "closed-form", "gamma": f.gamma}


ProblemDocument = CdcProblem | PwlProblem | AnnulusProblem


def _fail(field: str, err: Exception):
    wrapped = type(err) if isinstance(err, IdealformError) else InputError
    raise wrapped(f"{field}: {err}") from err


# Fraction accepts exponent notation, so a few bytes such as "1e1000000"
# would build a million-digit integer; exponents are bounded instead.
_MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _rational(value, field: str) -> int | Fraction:
    """The exact value: a plain int when it is integral, else a Fraction."""
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(
            f"{field}: write exact rationals as integers or strings like '3/2', "
            f"not floats"
        )
    if type(value) is int:
        return value
    exponent = _EXPONENT.search(value) if isinstance(value, str) else None
    if exponent is not None:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise InputError(f"{field}: exponents are limited to {_MAX_EXPONENT} "
                             f"in absolute value")
    try:
        q = Fraction(value)
    except ZeroDivisionError as err:
        raise InputError(f"{field}: zero denominator") from err
    except (ValueError, TypeError) as err:
        _fail(field, err)
    return q.numerator if q.denominator == 1 else q


def _real(value, field: str) -> float:
    if isinstance(value, bool):
        raise InputError(f"{field}: expected a number")
    try:
        # Through Fraction even when integral: one overflow message for every string.
        x = float(value if isinstance(value, (int, float))
                  else Fraction(_rational(value, field)))
    except OverflowError as err:
        _fail(field, err)
    if not math.isfinite(x):
        raise InputError(f"{field}: expected a finite number, got {x}")
    return x


def _int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{field}: expected an integer")
    return value


def _object(raw, field: str) -> dict:
    if not isinstance(raw, dict):
        raise InputError(f"{field}: expected an object")
    return raw


def _list(raw, field: str, item, what: str) -> tuple:
    """The entries of a list, each read by item(entry, field[i])."""
    if not isinstance(raw, list):
        raise InputError(f"{field}: expected a list of {what}")
    return tuple([item(x, f"{field}[{i}]") for i, x in enumerate(raw)])


def _ints(raw, field: str) -> tuple[int, ...]:
    # Checked in one pass; the entries are named only when one is not an int.
    if isinstance(raw, list) and all(type(x) is int for x in raw):
        return tuple(raw)
    return _list(raw, field, _int, "integers")


def _rationals(raw, field: str) -> tuple[int | Fraction, ...]:
    # As _ints: a list of plain ints is taken whole.
    if isinstance(raw, list) and all(type(x) is int for x in raw):
        return tuple(raw)
    return _list(raw, field, _rational, "rationals")


def _choice(value, field: str, choices: tuple):
    if value not in choices:
        raise InputError(f"{field}: expected one of {choices}, got {value!r}")
    return value


def _build(field: str, make, *args):
    """make(*args), with any error it raises named by field."""
    try:
        return make(*args)
    except (IdealformError, ValueError) as err:
        _fail(field, err)


def _encoding_spec(body: dict, field: str, allow_explicit: bool) -> EncodingKind | tuple:
    spec = body.get("encoding", EncodingKind.GRAY.value)
    if isinstance(spec, str):
        try:
            return EncodingKind(spec)
        except ValueError:
            names = ", ".join([*(kind.value for kind in EncodingKind),
                               "or an explicit row list"])
            raise InputError(f"{field}: unknown encoding {spec!r}; use {names}") from None
    if isinstance(spec, dict) and set(spec) == {"explicit"}:
        if not allow_explicit:
            raise InputError(f"{field}: this problem kind picks its own codes")
        rows = _list(spec["explicit"], f"{field}.explicit", _ints, "integer rows")
        for i, row in enumerate(rows):
            if len(row) != len(rows[0]):
                raise InputError(f"{field}.explicit[{i}]: expected {len(rows[0])} "
                                 f"entries like row 0, got {len(row)}")
        return rows
    raise InputError(f"{field}: expected an encoding name or {{'explicit': rows}}")


def _options(raw) -> ProblemOptions:
    if raw is None:
        return ProblemOptions()
    raw = _object(raw, "options")
    return ProblemOptions(
        check=_choice(raw.get("check", "none"), "options.check", CHECK_LEVELS),
        output_format=_choice(raw.get("format", "json"), "options.format", OUTPUT_FORMATS),
    )


def _parse_cdc(body: dict, options: ProblemOptions) -> CdcProblem:
    alternatives = _list(body.get("alternatives"), "cdc.alternatives", _ints,
                         "index lists")
    n = body.get("n")
    if n is None:
        n = max((x for alt in alternatives for x in alt), default=0)
    elif _int(n, "cdc.n") < 1:
        raise InputError("cdc.n: ground set must be nonempty")
    codes = _encoding_spec(body, "cdc.encoding", allow_explicit=True)
    c = _build("cdc.alternatives", Cdc, n, tuple(frozenset(alt) for alt in alternatives))
    if not isinstance(codes, EncodingKind):
        if len(codes) != c.d:
            raise InputError(f"cdc.encoding: {len(codes)} explicit rows for {c.d} "
                             f"alternatives")
        codes = _build("cdc.encoding.explicit", Encoding, codes)
    return CdcProblem(c, codes, options)


def _parse_pwl(body: dict, options: ProblemOptions) -> PwlProblem:
    codes = _encoding_spec(body, "pwl.encoding", allow_explicit=False)
    fields = [_rationals(body.get(key), f"pwl.{key}")
              for key in ("breakpoints", "slopes", "intercepts")]
    return PwlProblem(_build("pwl", PwlFunction, *fields), codes, options)


def _parse_annulus(body: dict, options: ProblemOptions) -> AnnulusProblem:
    d = _int(body.get("d"), "annulus.d")
    codes = _encoding_spec(body, "annulus.encoding", allow_explicit=False)
    inner, outer = body.get("inner_radius"), body.get("outer_radius")
    if (inner is None) != (outer is None):
        raise InputError("annulus: give both inner_radius and outer_radius or neither")
    geometry = None
    if inner is not None:
        radii = _real(inner, "annulus.inner_radius"), _real(outer, "annulus.outer_radius")
        geometry = _build("annulus", AnnulusSpec, *radii, d)
    else:
        _build("annulus.d", _check_piece_count, d)
    return AnnulusProblem(d, geometry, codes, options)


_PARSERS = {"cdc": _parse_cdc, "pwl": _parse_pwl, "annulus": _parse_annulus}
PROBLEM_KINDS = tuple(_PARSERS)


def load_json(text: str, prefix: str = ""):
    """The value of a JSON text; an InputError starting with prefix if none."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:  # a JSON error, an int over its digit limit
        raise InputError(f"{prefix}not valid JSON: {err}") from err


def parse_problem(text: str) -> ProblemDocument:
    """Parse and fully validate a JSON problem document."""
    raw = load_json(text)
    if not isinstance(raw, dict):
        raise InputError("the top level must be a JSON object")
    kind = _choice(raw.get("kind"), "kind", PROBLEM_KINDS)
    body = raw.get(kind)
    if not isinstance(body, dict):
        raise InputError(f"{kind}: missing the problem body object")
    return _PARSERS[kind](body, _options(raw.get("options")))


def _vertex_strings(points) -> list[list[str]]:
    return [[str(x) for x in p] for p in points]


def emit_structured(
    f: Formulation,
    recovery: RecoveryMap | None = None,
    *,
    provenance: dict | None = None,
    verification: VerificationReport | None = None,
) -> dict:
    """The formulation as a JSON-ready dict; exact and deterministic."""
    doc: dict = {
        "variables": {
            "lambda": {"count": f.n_lambda, "lower": 0},
            "z": {
                "count": f.r_z,
                "integer": True,
                "bounds": [[lo, hi] for lo, hi in f.z_bounds],
            },
        },
        "equalities": [
            {"lambda": list(eq.lam), "z": list(eq.z), "rhs": eq.rhs}
            for eq in f.equalities
        ],
        "general_rows": [
            {
                "normal": list(row.normal),
                "lower": list(row.lower),
                "upper": list(row.upper),
            }
            for row in f.general_rows
        ],
    }
    if recovery is not None:
        points: list | None = None
        if recovery.points is not None:
            if recovery.kind == "annulus":
                points = [list(p) for p in recovery.points]
            else:
                points = _vertex_strings(recovery.points)
        doc["recovery"] = {
            "kind": recovery.kind,
            "epigraph": recovery.epigraph,
            "points": points,
        }
    if provenance is not None:
        doc["provenance"] = {**provenance}
    if verification is not None:
        doc["verification"] = verification_summary(verification)
    return doc


def verification_summary(report: VerificationReport) -> dict:
    """The report as JSON-ready data: the document's verification block and
    the output of ``idealform verify``."""
    return {
        "passed": report.passed,
        "expected": report.expected_count,
        "found": report.found_count,
        "missing": _vertex_strings(report.missing),
        "extra": _vertex_strings(report.extra),
    }


def _equality(raw, field: str) -> LinearEquality:
    eq = _object(raw, field)
    return LinearEquality(_ints(eq.get("lambda"), f"{field}.lambda"),
                          _ints(eq.get("z"), f"{field}.z"),
                          _int(eq.get("rhs"), f"{field}.rhs"))


def _general_row(raw, field: str) -> GeneralRow:
    row = _object(raw, field)
    return _build(field, GeneralRow, *(_ints(row.get(key), f"{field}.{key}")
                                       for key in ("normal", "lower", "upper")))


def formulation_from_document(doc: dict) -> tuple[Formulation, RecoveryMap | None]:
    """Rebuild (Formulation, RecoveryMap) from an emitted document."""
    doc = _object(doc, "formulation document")
    variables = _object(doc.get("variables"), "variables")
    lam = _object(variables.get("lambda"), "variables.lambda")
    z = _object(variables.get("z"), "variables.z")
    # Formulation checks each row's and bound's size, a bound's as a [lo, hi]
    # pair, and names the field at fault.
    f = Formulation(_int(lam.get("count"), "variables.lambda.count"),
                    _int(z.get("count"), "variables.z.count"),
                    _list(doc.get("equalities"), "equalities", _equality, "objects"),
                    _list(doc.get("general_rows"), "general_rows", _general_row, "objects"),
                    _list(z.get("bounds"), "variables.z.bounds", _ints, "[lo, hi] pairs"))
    recovery = None
    if "recovery" in doc:
        recovery = _recovery_map(doc["recovery"])
    return f, recovery


def _recovery_map(raw) -> RecoveryMap:
    raw = _object(raw, "recovery")
    kind = raw.get("kind")
    if not isinstance(kind, str):
        raise InputError("recovery.kind: expected a string")
    # Annulus corners are float display data; every other point is exact.
    coordinate = _real if kind == "annulus" else _rational
    points = raw.get("points")
    if points is not None:
        if not (isinstance(points, list)
                and all(isinstance(p, list) and len(p) == 2 for p in points)):
            raise InputError("recovery.points: expected a list of [x, y] pairs")
        points = tuple(tuple(coordinate(x, f"recovery.points[{i}]") for x in p)
                       for i, p in enumerate(points))
    epigraph = _choice(raw.get("epigraph", False), "recovery.epigraph", (False, True))
    return RecoveryMap(kind=kind, points=points, epigraph=bool(epigraph))


def document_text(doc: dict) -> str:
    """The bytes of ``json.dumps(doc, indent=2) + "\\n"``; keys are strings,
    as in every document. The pieces are collected and joined once."""
    out: list[str] = []
    _write(doc, "\n", out, _Reprs().__getitem__)
    out.append("\n")
    return "".join(out)


class _Reprs(dict):
    """Int -> its text, made on first use; _write's ints. Only type int may
    be looked up: True == 1 with the same hash, so a bool would share 1's."""

    def __missing__(self, x: int) -> str:
        text = self[x] = repr(x)
        return text


def _write(value, pad: str, out: list[str], ints) -> None:
    """Append value's text to out; pad is a newline and its line's indent."""
    inner = pad + "  "
    if type(value) is str:
        out.append(encode_basestring_ascii(value))
    elif type(value) is int:
        out.append(ints(value))
    elif not isinstance(value, (dict, list, tuple)):
        out.append(json.dumps(value))
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        sep = "{" + inner
        for key, item in value.items():
            out += (sep, encode_basestring_ascii(key), ": ")
            _write(item, inner, out, ints)
            sep = "," + inner
        out.append(pad + "}")
    elif (kinds := set(map(type, value))) == {int}:
        out += ("[", inner, ("," + inner).join(map(ints, value)), pad, "]")
    elif kinds == {float} and all(map(math.isfinite, value)):
        # json.dumps writes a finite float as its repr.
        out += ("[", inner, ("," + inner).join(map(repr, value)), pad, "]")
    elif kinds == {str}:
        out += ("[", inner, ("," + inner).join(map(encode_basestring_ascii, value)),
                pad, "]")
    else:
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out, ints)
            sep = "," + inner
        out.append(pad + "]")
