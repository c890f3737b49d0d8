"""Problem and formulation documents: the package's serialized forms.

Problems come in as JSON with one body per kind (cdc, pwl, annulus) and
every rational written as an integer or a "p/q" string, never a float, so
parsing is lossless. Formulations go out the same way: integer rows,
string rationals in the recovery map, float pairs only in the annulus
recovery where the corner coordinates are display data. Parsing an
emitted formulation document reproduces the Formulation and RecoveryMap
field-for-field, which is what lets a verification run consume an emitted
file instead of an in-process object.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .annulus import (
    AnnulusSpec,
    _check_piece_count,
    annulus_cdc,
    annulus_gray_formulation,
    annulus_zigzag_formulation,
)
from .cdc import Cdc, theorem1_formulation
from .encoding import Encoding, EncodingKind, explicit_encoding, make_encoding
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
    encoding_kind: EncodingKind
    explicit_rows: tuple[tuple[int, ...], ...] | None
    options: ProblemOptions

    def disjunction(self) -> Cdc:
        return self.cdc

    def encoding(self) -> Encoding:
        if self.encoding_kind is EncodingKind.EXPLICIT:
            return explicit_encoding(self.explicit_rows)
        return make_encoding(self.cdc.d, self.encoding_kind)

    def formulate(self) -> tuple[Formulation, RecoveryMap | None, dict]:
        f = theorem1_formulation(self.cdc, self.encoding())
        return f, None, {"kind": self.kind, "encoding": self.encoding_kind.value,
                         "path": "general", "gamma": f.gamma}


@dataclass(frozen=True)
class PwlProblem:
    """The epigraph of a piecewise-linear function."""

    kind: ClassVar[str] = "pwl"
    function: PwlFunction
    encoding_kind: EncodingKind
    options: ProblemOptions

    def disjunction(self) -> Cdc:
        ground = pwl_ground_set(self.function)
        return Cdc(ground.n, ground.alternatives)

    def encoding(self) -> Encoding:
        return make_encoding(self.function.d, self.encoding_kind)

    def formulate(self) -> tuple[Formulation, RecoveryMap | None, dict]:
        f, recovery = pwl_formulation(self.function, self.encoding_kind)
        path = "closed-form" if pwl_prop3_applicable(self.function) else "general"
        # n_lambda = d + 1 + kappa: one ground point per breakpoint, two at a jump.
        return f, recovery, {"kind": self.kind, "encoding": self.encoding_kind.value,
                             "path": path, "gamma": f.gamma,
                             "kappa": f.n_lambda - self.function.d - 1}


@dataclass(frozen=True)
class AnnulusProblem:
    """A ring split into d = 2^r pieces, formulated in closed form."""

    kind: ClassVar[str] = "annulus"
    pieces: int
    geometry: AnnulusSpec | None
    encoding_kind: EncodingKind
    options: ProblemOptions

    def disjunction(self) -> Cdc:
        return annulus_cdc(self.pieces)

    def encoding(self) -> Encoding:
        return make_encoding(self.pieces, self.encoding_kind)

    def formulate(self) -> tuple[Formulation, RecoveryMap | None, dict]:
        build = (annulus_gray_formulation if self.encoding_kind is EncodingKind.GRAY
                 else annulus_zigzag_formulation)
        f, recovery = build(self.pieces, self.geometry)
        return f, recovery, {"kind": self.kind, "encoding": self.encoding_kind.value,
                             "path": "closed-form", "gamma": f.gamma}


ProblemDocument = CdcProblem | PwlProblem | AnnulusProblem


def _fail(field: str, err: Exception):
    wrapped = type(err) if isinstance(err, IdealformError) else InputError
    raise wrapped(f"{field}: {err}") from err


# Fraction accepts exponent notation, so a few bytes such as "1e1000000"
# would build a million-digit integer; exponents are bounded instead.
_MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _rational(value, field: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(
            f"{field}: write exact rationals as integers or strings like '3/2', "
            f"not floats"
        )
    exponent = _EXPONENT.search(value) if isinstance(value, str) else None
    if exponent is not None:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise InputError(f"{field}: exponents are limited to {_MAX_EXPONENT} "
                             f"in absolute value")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as err:
        _fail(field, err)


def _real(value, field: str) -> float:
    if isinstance(value, bool):
        raise InputError(f"{field}: expected a number")
    try:
        x = float(value if isinstance(value, (int, float)) else _rational(value, field))
    except OverflowError as err:
        _fail(field, err)
    if not math.isfinite(x):
        raise InputError(f"{field}: expected a finite number, got {x}")
    return x


def _int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{field}: expected an integer")
    return value


def _int_list(values, field: str) -> list[int]:
    if not isinstance(values, list):
        raise InputError(f"{field}: expected a list of integers")
    return [_int(x, f"{field}[{j}]") for j, x in enumerate(values)]


def _encoding_spec(body: dict, field: str, allow_explicit: bool):
    spec = body.get("encoding", "gray")
    if isinstance(spec, str):
        try:
            kind = EncodingKind(spec)
        except ValueError:
            raise InputError(
                f"{field}: unknown encoding {spec!r}; use gray, zigzag, "
                f"or an explicit row list"
            ) from None
        if kind is EncodingKind.EXPLICIT:
            raise InputError(f"{field}: explicit encoding needs its rows inline")
        return kind, None
    if isinstance(spec, dict) and set(spec) == {"explicit"}:
        if not allow_explicit:
            raise InputError(f"{field}: this problem kind picks its own codes")
        if not isinstance(spec["explicit"], list):
            raise InputError(f"{field}.explicit: expected a list of integer rows")
        rows = tuple(
            tuple(_int_list(row, f"{field}.explicit[{i}]"))
            for i, row in enumerate(spec["explicit"])
        )
        return EncodingKind.EXPLICIT, rows
    raise InputError(f"{field}: expected an encoding name or {{'explicit': rows}}")


def _options(raw) -> ProblemOptions:
    if raw is None:
        return ProblemOptions()
    if not isinstance(raw, dict):
        raise InputError("options: expected an object")
    check = raw.get("check", "none")
    fmt = raw.get("format", "json")
    if check not in CHECK_LEVELS:
        raise InputError(f"options.check: expected one of {CHECK_LEVELS}, got {check!r}")
    if fmt not in OUTPUT_FORMATS:
        raise InputError(f"options.format: expected one of {OUTPUT_FORMATS}, got {fmt!r}")
    return ProblemOptions(check=check, output_format=fmt)


def _parse_cdc(body: dict, options: ProblemOptions) -> CdcProblem:
    alts_raw = body.get("alternatives")
    if not isinstance(alts_raw, list):
        raise InputError("cdc.alternatives: expected a list of index lists")
    alternatives = [
        _int_list(alt, f"cdc.alternatives[{i}]") for i, alt in enumerate(alts_raw)
    ]
    n = body.get("n")
    if n is None:
        n = max((x for alt in alternatives for x in alt), default=0)
    elif _int(n, "cdc.n") < 1:
        raise InputError("cdc.n: ground set must be nonempty")
    encoding_kind, rows = _encoding_spec(body, "cdc.encoding", allow_explicit=True)
    try:
        c = Cdc(n, tuple(frozenset(alt) for alt in alternatives))
    except IdealformError as err:
        _fail("cdc.alternatives", err)
    if rows is not None and len(rows) != c.d:
        raise InputError(
            f"cdc.encoding: {len(rows)} explicit rows for {c.d} alternatives"
        )
    return CdcProblem(c, encoding_kind, rows, options)


def _parse_pwl(body: dict, options: ProblemOptions) -> PwlProblem:
    def rational_list(key: str) -> tuple[Fraction, ...]:
        values = body.get(key)
        if not isinstance(values, list):
            raise InputError(f"pwl.{key}: expected a list of rationals")
        return tuple(_rational(x, f"pwl.{key}[{i}]") for i, x in enumerate(values))

    encoding_kind, _ = _encoding_spec(body, "pwl.encoding", allow_explicit=False)
    fields = [rational_list(key) for key in ("breakpoints", "slopes", "intercepts")]
    try:
        f = PwlFunction(*fields)
    except IdealformError as err:
        _fail("pwl", err)
    return PwlProblem(f, encoding_kind, options)


def _parse_annulus(body: dict, options: ProblemOptions) -> AnnulusProblem:
    d = _int(body.get("d"), "annulus.d")
    encoding_kind, _ = _encoding_spec(body, "annulus.encoding", allow_explicit=False)
    inner, outer = body.get("inner_radius"), body.get("outer_radius")
    if (inner is None) != (outer is None):
        raise InputError("annulus: give both inner_radius and outer_radius or neither")
    geometry = None
    if inner is not None:
        radii = _real(inner, "annulus.inner_radius"), _real(outer, "annulus.outer_radius")
        try:
            geometry = AnnulusSpec(*radii, d)
        except IdealformError as err:
            _fail("annulus", err)
    else:
        try:
            _check_piece_count(d)
        except IdealformError as err:
            _fail("annulus.d", err)
    return AnnulusProblem(d, geometry, encoding_kind, options)


_PARSERS = {"cdc": _parse_cdc, "pwl": _parse_pwl, "annulus": _parse_annulus}
PROBLEM_KINDS = tuple(_PARSERS)


def parse_problem(text: str) -> ProblemDocument:
    """Parse and fully validate a JSON problem document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise InputError("the top level must be a JSON object")
    kind = raw.get("kind")
    if kind not in PROBLEM_KINDS:
        raise InputError(f"kind: expected one of {PROBLEM_KINDS}, got {kind!r}")
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
        doc["provenance"] = dict(provenance)
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


def formulation_from_document(doc: dict) -> tuple[Formulation, RecoveryMap | None]:
    """Rebuild (Formulation, RecoveryMap) from an emitted document."""
    try:
        variables = doc["variables"]
        n = _int(variables["lambda"]["count"], "variables.lambda.count")
        r = _int(variables["z"]["count"], "variables.z.count")
        z_bounds = tuple(
            (_int(lo, "bounds"), _int(hi, "bounds"))
            for lo, hi in variables["z"]["bounds"]
        )
        equalities = tuple(
            LinearEquality(
                lam=tuple(_int(x, "equalities.lambda") for x in eq["lambda"]),
                z=tuple(_int(x, "equalities.z") for x in eq["z"]),
                rhs=_int(eq["rhs"], "equalities.rhs"),
            )
            for eq in doc["equalities"]
        )
        rows = tuple(
            GeneralRow(
                normal=tuple(_int(x, "general_rows.normal") for x in row["normal"]),
                lower=tuple(_int(x, "general_rows.lower") for x in row["lower"]),
                upper=tuple(_int(x, "general_rows.upper") for x in row["upper"]),
            )
            for row in doc["general_rows"]
        )
        f = Formulation(n, r, equalities, rows, z_bounds)
    except (KeyError, TypeError, ValueError) as err:
        if isinstance(err, IdealformError):
            raise
        raise InputError(f"malformed formulation document: {err!r}") from err

    recovery = None
    if "recovery" in doc:
        recovery = _recovery_map(doc["recovery"])
    return f, recovery


def _recovery_map(raw) -> RecoveryMap:
    if not isinstance(raw, dict):
        raise InputError("recovery: expected an object")
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
    return RecoveryMap(kind=kind, points=points, epigraph=bool(raw.get("epigraph", False)))


def document_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
