"""Problem parsing and the lossless formulation document round trip."""

import contextlib
import copy
import io
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idealform.annulus import AnnulusSpec, annulus_gray_formulation
from idealform.cdc import cdc, theorem1_formulation
from idealform.cli import main
from idealform.documents import (
    AnnulusProblem,
    CdcProblem,
    ProblemOptions,
    PwlProblem,
    document_text,
    emit_structured,
    formulation_from_document,
    parse_problem,
    verification_summary,
)
from idealform.encoding import Encoding, EncodingKind, make_encoding
from idealform.errors import IdealformError, InputError, NotPowerOfTwo
from idealform.formulation import RecoveryMap
from idealform.lp_format import emit_lp_text
from idealform.pwl import PwlFunction, pwl_formulation, pwl_ground_set
from idealform.verify import check_ideal
from oracles import json_text, rational_by_fraction

import json


SOS2 = """
{
  "kind": "cdc",
  "cdc": {"alternatives": [[1, 2], [2, 3], [3, 4], [4, 5]], "encoding": "gray"}
}
"""


class TestParseProblem:
    def test_cdc_minimal(self):
        doc = parse_problem(SOS2)
        assert doc.kind == "cdc"
        assert doc.cdc.n == 5
        assert doc.cdc.d == 4
        assert doc.codes is EncodingKind.GRAY
        assert doc.options.check == "none"
        assert doc.options.output_format == "json"

    def test_cdc_n_inferred_from_alternatives(self):
        doc = parse_problem(
            '{"kind": "cdc", "cdc": {"alternatives": [[1, 2, 3], [3, 4, 6], [4, 5, 6]]}}'
        )
        assert doc.cdc.n == 6

    def test_cdc_explicit_n_must_still_be_covered(self):
        with pytest.raises(InputError, match="no alternative"):
            parse_problem(
                '{"kind": "cdc", "cdc": {"n": 6, "alternatives": [[1, 2], [2, 6]]}}'
            )

    def test_cdc_default_encoding_is_gray(self):
        doc = parse_problem('{"kind": "cdc", "cdc": {"alternatives": [[1, 2], [2, 3]]}}')
        assert doc.codes is EncodingKind.GRAY

    def test_cdc_explicit_rows(self):
        doc = parse_problem(
            '{"kind": "cdc", "cdc": {"alternatives": [[1, 2], [2, 3]],'
            ' "encoding": {"explicit": [[0], [1]]}}}'
        )
        assert doc.codes == Encoding([(0,), (1,)])
        assert doc.encoding() is doc.codes

    def test_cdc_explicit_row_count_mismatch(self):
        with pytest.raises(InputError, match="explicit rows"):
            parse_problem(
                '{"kind": "cdc", "cdc": {"alternatives": [[1, 2], [2, 3]],'
                ' "encoding": {"explicit": [[0], [1], [2]]}}}'
            )

    def test_cdc_uncovered_ground_element_names_the_field(self):
        with pytest.raises(InputError, match="cdc.alternatives"):
            parse_problem('{"kind": "cdc", "cdc": {"n": 3, "alternatives": [[1, 2], [2, 1]]}}')

    def test_pwl_rational_strings(self):
        doc = parse_problem(
            '{"kind": "pwl", "pwl": {"breakpoints": [0, 1, 2],'
            ' "slopes": ["1/2", "-3/2"], "intercepts": [0, 2], "encoding": "zigzag"}}'
        )
        assert doc.function.slopes == (Fraction(1, 2), Fraction(-3, 2))
        assert doc.codes is EncodingKind.ZIGZAG

    def test_pwl_rejects_float_literals(self):
        with pytest.raises(InputError, match="slopes.*not floats"):
            parse_problem(
                '{"kind": "pwl", "pwl": {"breakpoints": [0, 1, 2],'
                ' "slopes": [0.5, 1], "intercepts": [0, 0]}}'
            )

    def test_pwl_rejects_explicit_encoding(self):
        with pytest.raises(InputError, match="picks its own codes"):
            parse_problem(
                '{"kind": "pwl", "pwl": {"breakpoints": [0, 1, 2],'
                ' "slopes": [1, 2], "intercepts": [0, -1],'
                ' "encoding": {"explicit": [[0], [1]]}}}'
            )

    def test_annulus_with_geometry(self):
        doc = parse_problem(
            '{"kind": "annulus", "annulus": {"d": 8, "inner_radius": 2,'
            ' "outer_radius": "16/5", "encoding": "zigzag"}}'
        )
        assert doc.pieces == 8
        assert doc.geometry == AnnulusSpec(2.0, 3.2, 8)

    def test_annulus_without_geometry(self):
        doc = parse_problem('{"kind": "annulus", "annulus": {"d": 4}}')
        assert doc.geometry is None
        assert doc.disjunction().d == 4

    def test_annulus_one_radius_only(self):
        with pytest.raises(InputError, match="both"):
            parse_problem('{"kind": "annulus", "annulus": {"d": 4, "inner_radius": 1}}')

    def test_annulus_bad_piece_count_names_the_field(self):
        with pytest.raises(NotPowerOfTwo, match="annulus.d"):
            parse_problem('{"kind": "annulus", "annulus": {"d": 6}}')

    def test_options_parsed(self):
        doc = parse_problem(
            '{"kind": "cdc", "cdc": {"alternatives": [[1, 2], [2, 3]]},'
            ' "options": {"check": "ideal", "format": "lp"}}'
        )
        assert doc.options.check == "ideal"
        assert doc.options.output_format == "lp"

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[1, 2]", "top level"),
            ('{"kind": "simplex"}', "kind"),
            ('{"kind": "cdc"}', "body"),
            ('{"kind": "cdc", "cdc": {"alternatives": [[1, 2], [2, 3]]}, '
             '"options": {"check": "full"}}', "options.check"),
            ('{"kind": "cdc", "cdc": {"alternatives": [[1, "x"], [2, 3]]}}', "integer"),
            ('{"kind": "cdc", "cdc": {"alternatives": [[1, 2], [2, 3]],'
             ' "encoding": "sparse"}}', "unknown encoding"),
            ("{", "not valid JSON"),
        ],
    )
    def test_malformed_documents(self, text, match):
        with pytest.raises(InputError, match=match):
            parse_problem(text)

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"kind": "cdc", "cdc": {"alternatives": [[1, 2], [2, 3]]}, "options": 5}',
             "options: expected an object"),
            ('{"kind": "cdc", "cdc": {"alternatives": [[1, 2], [2, 3]],'
             ' "encoding": {"explicit": 5}}}', "cdc.encoding.explicit: expected a list"),
            ('{"kind": "cdc", "cdc": {"alternatives": [[1, 2], [2, 3]],'
             ' "encoding": {"explicit": [[0], 1]}}}',
             r"cdc.encoding.explicit\[1\]: expected a list"),
            ('{"kind": "cdc", "cdc": {"alternatives": [[1, 2], [2, 3], [3, 4], [4, 1]],'
             ' "encoding": {"explicit": [[0, 0], [1], [1, 1], [0, 1]]}}}',
             r"^cdc\.encoding\.explicit\[1\]: expected 2 entries like row 0, got 1$"),
            ('{"kind": "cdc", "cdc": {"alternatives": [[1, 2], 3]}}',
             r"cdc.alternatives\[1\]: expected a list"),
            ('{"kind": "cdc", "cdc": {"n": -3, "alternatives": [[1, 2], [2, 3]]}}',
             "cdc.n: ground set must be nonempty"),
            ('{"kind": "annulus", "annulus": {"d": 8, "inner_radius": 1,'
             ' "outer_radius": "1e400"}}', r"^annulus\.outer_radius: "),
            ('{"kind": "annulus", "annulus": {"d": 8, "inner_radius": 1,'
             ' "outer_radius": 1e999}}', r"^annulus\.outer_radius: expected a finite"),
            ('{"kind": "pwl", "pwl": {"breakpoints": [0, 1, 2],'
             ' "slopes": ["1e1000000", 2], "intercepts": [0, -1]}}',
             r"^pwl\.slopes\[0\]: exponents are limited"),
            ('{"kind": "pwl", "pwl": {"breakpoints": [0, 1, 2],'
             ' "slopes": ["1/0", 2], "intercepts": [0, -1]}}',
             r"^pwl\.slopes\[0\]: zero denominator$"),
            ('{"kind": "pwl", "pwl": {"breakpoints": [0, "-1e-1_000_000", 2],'
             ' "slopes": [1, 2], "intercepts": [0, -1]}}',
             r"^pwl\.breakpoints\[1\]: exponents are limited"),
            ('{"kind": "pwl", "pwl": {"breakpoints": [0, 1, 2],'
             ' "slopes": 5, "intercepts": [0, -1]}}',
             r"^pwl\.slopes: expected a list of rationals"),
            ('{"kind": "pwl", "pwl": {"breakpoints": [0, 1, 2],'
             ' "slopes": [1], "intercepts": [0]}}',
             r"^pwl: need at least two segments"),
        ],
    )
    def test_malformed_fields_are_named(self, text, field):
        with pytest.raises(InputError, match=field) as info:
            parse_problem(text)
        assert info.value.exit_code == 1

    def test_exponents_up_to_the_bound_parse(self):
        doc = parse_problem(
            '{"kind": "pwl", "pwl": {"breakpoints": ["5e-3", "0.25", "1e1000"],'
            ' "slopes": ["-1E+0_3", 2], "intercepts": [0, "3/2"]}}')
        assert doc.function.breakpoints == (Fraction(1, 200), Fraction(1, 4),
                                            Fraction(10) ** 1000)
        assert doc.function.slopes[0] == -1000

    def test_one_class_per_kind(self):
        assert isinstance(parse_problem(SOS2), CdcProblem)
        assert isinstance(parse_problem(
            '{"kind": "pwl", "pwl": {"breakpoints": [0, 1, 2],'
            ' "slopes": [1, 2], "intercepts": [0, -1]}}'), PwlProblem)
        doc = parse_problem('{"kind": "annulus", "annulus": {"d": 4}}')
        assert isinstance(doc, AnnulusProblem)
        assert doc.kind == "annulus"

    def test_disjunction_matches_kind(self):
        doc = parse_problem(SOS2)
        assert doc.disjunction() is doc.cdc
        pwl_doc = parse_problem(
            '{"kind": "pwl", "pwl": {"breakpoints": [0, 1, 2],'
            ' "slopes": [1, 2], "intercepts": [0, -1]}}'
        )
        assert pwl_doc.disjunction().alternatives == (
            frozenset({1, 2}),
            frozenset({2, 3}),
        )


# Exact rationals as a document may write them. An integral value can be a
# JSON int or a string of several shapes; the others are "p/q" or decimal
# exponent strings, and some of those are integral too.


def _integral_entries(n: int) -> list:
    entries = [n, str(n), f"{2 * n}/2", f"{n}e0", f" {n} ", f"{n:_}"]
    return entries + ["-0"] if n == 0 else entries


RATIONAL_ENTRIES = (
    st.integers(-10**5, 10**5).flatmap(lambda n: st.sampled_from(_integral_entries(n)))
    | st.builds("{}/{}".format, st.integers(-99, 99), st.integers(2, 12))
    | st.builds("{}e-{}".format, st.integers(-999, 999), st.integers(1, 3))
)


@st.composite
def pwl_documents(draw):
    """A valid pwl problem whose entries mix the shapes above."""
    by_value = {rational_by_fraction(x, "t"): x
                for x in draw(st.lists(RATIONAL_ENTRIES, min_size=3, max_size=9))}
    assume(len(by_value) >= 3)
    breakpoints = [by_value[t] for t in sorted(by_value)]
    d = len(breakpoints) - 1
    slopes, intercepts = (draw(st.lists(RATIONAL_ENTRIES, min_size=d, max_size=d))
                          for _ in range(2))
    return {"kind": "pwl", "pwl": {"breakpoints": breakpoints, "slopes": slopes,
                                   "intercepts": intercepts}}


# 3x on [0, 1], x + 2, -x + 6, then a jump up to 2x - 1 at t4 = 3.
PWL_INTS = {"breakpoints": [0, 1, 2, 3, 4], "slopes": [3, 1, -1, 2],
            "intercepts": [0, 2, 6, -1]}


def _pwl_cli(tmp_path, body: dict, *flags) -> tuple[int, str, str]:
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"kind": "pwl", "pwl": body}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["pwl", str(path), *flags])
    return code, out.getvalue(), err.getvalue()


class TestAnnulusProblem:
    def test_codes_that_are_no_family_give_the_family_error(self):
        # The closed form is picked by family: a name string is refused with
        # make_encoding's text, not a bare KeyError.
        with pytest.raises(InputError) as expected:
            make_encoding(4, "gray")
        with pytest.raises(InputError) as info:
            AnnulusProblem(4, None, "gray", ProblemOptions()).formulate()
        assert str(info.value) == str(expected.value)


class TestIntegralRationals:
    """Integral values are read as ints, every other one as a Fraction, with
    the values, bytes and errors of a reader that builds a Fraction for each."""

    @settings(max_examples=300, deadline=None)
    @given(doc=pwl_documents())
    def test_values_and_types_match_the_fraction_oracle(self, doc):
        function = parse_problem(json.dumps(doc)).function
        for key in ("breakpoints", "slopes", "intercepts"):
            read = getattr(function, key)
            for i, (raw, value) in enumerate(zip(doc["pwl"][key], read, strict=True)):
                expected = rational_by_fraction(raw, f"pwl.{key}[{i}]")
                assert value == expected
                assert type(value) is (int if expected.denominator == 1 else Fraction)

    @settings(max_examples=100, deadline=None)
    @given(doc=pwl_documents())
    def test_recovery_points_read_back_as_ints_where_integral(self, doc):
        # Most drawn functions jump too often to be formulated, so their
        # ground points ride on a small formulation for the round trip.
        function = parse_problem(json.dumps(doc)).function
        recovery = RecoveryMap(kind="pwl", points=pwl_ground_set(function).points,
                               epigraph=True)
        form, _ = pwl_formulation(PwlFunction([0, 1, 2], [1, 2], [0, -1]), EncodingKind.GRAY)
        _, back = roundtrip(form, recovery)
        assert back == recovery
        for point in back.points:
            assert all(type(x) is (int if Fraction(x).denominator == 1 else Fraction)
                       for x in point)

    @pytest.mark.parametrize("fmt", ["json", "lp"])
    def test_int_string_and_quotient_write_the_same_bytes(self, tmp_path, fmt):
        written = [
            {key: [write(n) for n in values] for key, values in PWL_INTS.items()}
            for write in (int, str, lambda n: f"{2 * n}/2")
        ]
        runs = [_pwl_cli(tmp_path, body, "--format", fmt) for body in written]
        # The same function built from Fractions.
        function = PwlFunction(*(map(Fraction, values) for values in PWL_INTS.values()))
        problem = PwlProblem(function, EncodingKind.GRAY, ProblemOptions())
        f, recovery, provenance = problem.formulate()
        expected = (emit_lp_text(f) if fmt == "lp"
                    else document_text(emit_structured(f, recovery, provenance=provenance)))
        assert runs == [(0, expected, "")] * 3

    @pytest.mark.parametrize("key", ["breakpoints", "slopes", "intercepts"])
    @pytest.mark.parametrize("entry", [True, 1.5, [1], "1/0", "1e1001", "x"], ids=repr)
    def test_rejected_entries_give_the_oracle_error(self, tmp_path, key, entry):
        # The entry sits last among ints, so a bool is a bool among ints.
        body = copy.deepcopy(PWL_INTS)
        body[key][-1] = entry
        field = f"pwl.{key}[{len(body[key]) - 1}]"
        with pytest.raises(InputError) as oracle:
            rational_by_fraction(entry, field)
        assert _pwl_cli(tmp_path, body) == (1, "", f"error: {oracle.value}\n")


# Values for the JSON writer: escaped and non-ASCII strings, ints wider than
# 64 bits, lists of ints with bools among them, finite floats, tuples and
# empty or nested containers.
WIDE_INTS = st.integers() | st.integers(min_value=-2**100, max_value=2**100)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | WIDE_INTS | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.lists(WIDE_INTS | st.booleans(), max_size=6) | st.lists(WIDE_INTS, max_size=6)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


class Level(IntEnum):
    """An int subclass whose repr() is not its JSON text."""

    LOW = 1
    HIGH = 2


class Tag(str):
    """A str subclass whose str() and repr() are not its JSON text."""

    def __str__(self):
        return "tag"

    def __repr__(self):
        return "Tag()"


def roundtrip(f, recovery=None, **kwargs):
    doc = emit_structured(f, recovery, **kwargs)
    return formulation_from_document(json.loads(document_text(doc)))


class TestRoundTrip:
    def test_cdc_formulation_no_recovery(self):
        c = cdc(5, [[1, 2], [2, 3], [3, 4], [4, 5]])
        f = theorem1_formulation(c, make_encoding(4, EncodingKind.GRAY))
        back, recovery = roundtrip(f)
        assert back == f
        assert recovery is None

    def test_pwl_recovery_rational_points(self):
        f = PwlFunction(
            [0, 1, 2, Fraction(5, 2)],
            [Fraction(1, 2), 1, -2],
            [0, Fraction(-1, 2), Fraction(11, 2)],
        )
        form, recovery = pwl_formulation(f, EncodingKind.GRAY)
        back, back_recovery = roundtrip(form, recovery)
        assert back == form
        assert back_recovery == recovery
        assert back_recovery.epigraph is True
        assert back_recovery.points[3] == (Fraction(5, 2), Fraction(1, 2))

    def test_annulus_recovery_float_points(self):
        spec = AnnulusSpec(2.0, 3.2, 8)
        form, recovery = annulus_gray_formulation(8, spec)
        back, back_recovery = roundtrip(form, recovery)
        assert back == form
        assert back_recovery == recovery
        assert all(isinstance(x, float) for p in back_recovery.points for x in p)

    def test_annulus_recovery_without_geometry(self):
        form, recovery = annulus_gray_formulation(4)
        back, back_recovery = roundtrip(form, recovery)
        assert back == form
        assert back_recovery == RecoveryMap(kind="annulus", points=None)

    def test_verification_block_does_not_disturb_the_round_trip(self):
        c = cdc(3, [[1, 2], [2, 3]])
        e = make_encoding(2, EncodingKind.GRAY)
        f = theorem1_formulation(c, e)
        report = check_ideal(c, e, f)
        doc = emit_structured(f, provenance={"path": "general"}, verification=report)
        assert doc["verification"] == {
            "passed": True,
            "expected": 4,
            "found": 4,
            "missing": [],
            "extra": [],
        }
        back, _ = formulation_from_document(doc)
        assert back == f

    @settings(max_examples=300, deadline=None)
    @given(doc=st.dictionaries(st.text(), JSON_VALUES, max_size=6))
    def test_document_text_matches_json_dumps(self, doc):
        assert document_text(doc) == json_text(doc)

    @settings(max_examples=200, deadline=None)
    @given(doc=st.dictionaries(st.text(max_size=3), st.lists(st.floats(), max_size=6)
                               | st.lists(st.floats(-1e3, 1e3), max_size=6), max_size=4))
    def test_float_lists_match_json_dumps(self, doc):
        # Finite floats take the repr fast path; a NaN or an infinity in a
        # list sends the whole list through json.dumps.
        assert document_text(doc) == json_text(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"words": ["plain", "caf\u00e9", "\u65e5\u672c", 'say "hi"', "back\\slash",
                       "\x00\x1f\n\t\x7f", "\ud800", ""]},
            {"\u043a\u043b\u044e\u0447": 1, "caf\u00e9": ["\u00e9"], "\U0001f600": {"\t": ""}},
            {"tags": [Tag("a"), Tag("caf\u00e9")], "tag": Tag("b\""), Tag("k\u00e9y"): 1},
            {"mixed": ["a", 1, "b\\", -2, "\u00e9"]},
            {"scalar": "caf\u00e9 \"quoted\"\n", "empty": ""},
        ],
        ids=["string-list", "non-ascii-keys", "str-subclass", "str-and-int", "scalars"],
    )
    def test_strings_match_json_dumps(self, doc):
        assert document_text(doc) == json_text(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"one": 1, "true": True, "ints": [1, 0, 1], "bools": [True, False],
             "mixed": [1, True, 0, False, True, 1], "zero": 0, "false": False},
            {"true": True, "one": 1, "mixed": [False, 0, True, 1], "tail": [0, 1]},
            {"level": Level.HIGH, "levels": [Level.LOW, Level.HIGH], "mixed": [1, Level.LOW],
             "ints": [2, 1]},
            {"wide": [2**64, -2**64 - 1, 2**200, 0], "scalar": 3**90, "neg": -2**70},
            {"a": 7, "b": [7, -7, {"c": 7, "d": [[7, 7], -7]}], "e": {"f": [-7, 7]}},
            {"floats": [-0.0, 0.0, 1.5], "zero": -0.0, "ints": [0, 0]},
        ],
        ids=["int-then-bool", "bool-then-int", "int-enum", "wide-ints", "repeated-ints",
             "negative-zero"],
    )
    def test_ints_match_json_dumps(self, doc):
        # One int table serves a whole document; no bool may share it.
        assert document_text(doc) == json_text(doc)

    def test_document_text_is_deterministic(self):
        c = cdc(5, [[1, 2], [2, 3], [3, 4], [4, 5]])
        f = theorem1_formulation(c, make_encoding(4, EncodingKind.ZIGZAG))
        a = document_text(emit_structured(f))
        b = document_text(emit_structured(f))
        assert a == b
        assert a.endswith("\n")

    def test_malformed_formulation_document(self):
        with pytest.raises(InputError, match="variables.lambda: expected an object"):
            formulation_from_document({"variables": {}})

    @pytest.mark.parametrize(
        "damage, field",
        [
            (lambda d: d.update(recovery=5), "recovery: expected an object"),
            (lambda d: d["recovery"].pop("kind"), "recovery.kind: expected a string"),
            (lambda d: d["recovery"]["points"][0].__setitem__(1, "y"),
             r"recovery.points\[0\]"),
            (lambda d: d["recovery"]["points"].append([1]), "recovery.points: expected"),
            (lambda d: d["recovery"].update(points=7), "recovery.points: expected"),
            (lambda d: d["variables"]["z"]["bounds"][0].reverse(), "lo <= hi"),
        ],
    )
    def test_malformed_fields_are_named(self, damage, field):
        function = PwlFunction([0, 1, 2], [1, 2], [0, -1])
        form, recovery = pwl_formulation(function, EncodingKind.GRAY)
        doc = json.loads(document_text(emit_structured(form, recovery)))
        damage(doc)
        with pytest.raises(InputError, match=field) as info:
            formulation_from_document(doc)
        assert info.value.exit_code == 1

    def test_annulus_recovery_points_must_be_numbers(self):
        form, recovery = annulus_gray_formulation(8, AnnulusSpec(2.0, 3.2, 8))
        doc = emit_structured(form, recovery)
        doc["recovery"]["points"][2] = [1.0, "north"]
        with pytest.raises(InputError, match=r"recovery.points\[2\]"):
            formulation_from_document(doc)

    def test_verification_summary_is_the_document_block(self):
        c = cdc(3, [[1, 2], [2, 3]])
        e = make_encoding(2, EncodingKind.GRAY)
        report = check_ideal(c, e, theorem1_formulation(c, e))
        doc = emit_structured(theorem1_formulation(c, e), verification=report)
        assert doc["verification"] == verification_summary(report)

    def test_rationals_serialized_as_strings(self):
        f = PwlFunction([0, 1, 2], [Fraction(1, 3), 1], [0, Fraction(-2, 3)])
        form, recovery = pwl_formulation(f, EncodingKind.GRAY)
        doc = emit_structured(form, recovery)
        flat = json.dumps(doc)
        assert "1/3" in flat
        assert "0.333" not in flat


# Fuzzing: any JSON value must parse or fail with an input error (exit 1).

WORDS = ["kind", "cdc", "pwl", "annulus", "alternatives", "n", "encoding",
         "explicit", "gray", "zigzag", "options", "check", "format", "ideal",
         "validity", "lp", "json", "breakpoints", "slopes", "intercepts", "d",
         "inner_radius", "outer_radius", "variables", "lambda", "z", "count",
         "bounds", "integer", "equalities", "general_rows", "normal", "lower",
         "upper", "rhs", "recovery", "points", "epigraph", "1/2", "-3/0", "1e400"]
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text(max_size=4), st.sampled_from(WORDS))
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=12,
)


@st.composite
def damaged(draw, base):
    """base with one subtree, at a drawn path, replaced by a drawn JSON value."""
    doc = copy.deepcopy(base)
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        node[key] = draw(JSON)
        return doc


PROBLEMS = [
    {"kind": "cdc", "cdc": {"n": 5, "alternatives": [[1, 2], [2, 3], [3, 4], [4, 5]],
                            "encoding": {"explicit": [[0, 0], [1, 0], [1, 1], [0, 1]]}},
     "options": {"check": "ideal", "format": "lp"}},
    {"kind": "pwl", "pwl": {"breakpoints": [0, 1, 2], "slopes": ["1/2", 1],
                            "intercepts": [0, "-1/2"], "encoding": "zigzag"}},
    {"kind": "annulus", "annulus": {"d": 8, "inner_radius": 1, "outer_radius": "3/2"}},
]


def _formulation_documents():
    form, recovery = pwl_formulation(PwlFunction([0, 1, 2], [1, 2], [0, -1]), EncodingKind.GRAY)
    annulus, ring = annulus_gray_formulation(4, AnnulusSpec(1.0, 2.0, 4))
    return [json.loads(document_text(emit_structured(f, r, provenance={"path": "x"})))
            for f, r in ((form, recovery), (annulus, ring))]


def _parses_or_input_error(parse, value):
    try:
        parse(value)
    except IdealformError as err:
        assert err.exit_code == 1, repr(err)


class TestFuzz:
    @given(JSON)
    @settings(max_examples=100, deadline=None)
    def test_any_json_problem(self, value):
        _parses_or_input_error(parse_problem, json.dumps(value))

    @given(st.sampled_from(PROBLEMS).flatmap(damaged))
    @settings(max_examples=200, deadline=None)
    def test_damaged_problem(self, value):
        _parses_or_input_error(parse_problem, json.dumps(value))

    @given(JSON)
    @settings(max_examples=100, deadline=None)
    def test_any_json_formulation(self, value):
        _parses_or_input_error(formulation_from_document, value)

    @given(st.sampled_from(_formulation_documents()).flatmap(damaged))
    @settings(max_examples=200, deadline=None)
    def test_damaged_formulation(self, value):
        _parses_or_input_error(formulation_from_document, value)
