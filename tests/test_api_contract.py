"""The Python API contract, checked over every callable in idealform.__all__.

The contract, as the README states it:
- an argument of the wrong Python type may end in the TypeError or
  AttributeError that Python raises for it;
- an argument of the right type whose value the model refuses raises an
  IdealformError that says what is wrong;
- no call returns a wrong value or writes text that its format does not
  allow.

For each callable, hypothesis draws valid arguments. The call must return,
and where an oracle exists its result is compared with it. Then each
parameter in turn is replaced by each wrong-type value, where only the
exceptions above may escape, and by each refused value of the right type,
where the call must raise an IdealformError. Types that ``__all__`` does
not export are built only through exported constructors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idealform
from idealform import (
    AnnulusSpec,
    Cdc,
    Encoding,
    EncodingKind,
    Formulation,
    GeneralRow,
    IdealformError,
    LinearEquality,
    PwlFunction,
    annulus_cdc,
    annulus_gray_formulation,
    cdc,
    check_ideal,
    check_validity_only,
    difference_directions,
    document_text,
    emit_structured,
    gray_matrix,
    intersection_digraph,
    make_encoding,
    pwl_formulation,
    theorem1_formulation,
    zigzag_matrix,
)
from oracles import (
    convex_position_by_simplex,
    hole_free_by_simplex,
    hyperplane_normals_by_subset_walk,
    jumps_by_fraction,
    json_text,
    lp_text,
)

HALF = Fraction(1, 2)
WRONG_TYPES = (None, 5, "x", 1.5, ())
ALLOWED = (IdealformError, TypeError, AttributeError)

# Exports with no call to check: the value of a cap, a union of document
# types, and an Enum, whose call is Python's lookup by value; its members
# are drawn as the kind of every family constructor below. Exception
# classes are skipped by type.
SKIPPED = {"DEFAULT_ENUM_CAP", "ProblemDocument", "EncodingKind"}


@dataclass(frozen=True)
class Api:
    """How to call one export: ``valid`` draws keyword arguments it must
    accept; ``refused(args)`` lists the (parameter, value) pairs it must
    refuse with an IdealformError; ``wrong(args)`` lists wrong-type
    pairs beyond WRONG_TYPES; ``oracle(result, **args)`` checks a result."""

    valid: st.SearchStrategy
    refused: Callable[[dict], list] = lambda args: []
    wrong: Callable[[dict], list] = lambda args: []
    oracle: Callable | None = None


# --- valid values --------------------------------------------------------

kinds = st.sampled_from(list(EncodingKind))


def sos(d, width):
    """Windows of ``width`` consecutive ground elements, one per alternative."""
    return cdc(d + width - 1, [range(i, i + width) for i in range(1, d + 1)])


@st.composite
def disjunctions(draw, d=None):
    """Any small disjunction: alternatives drawn freely, then the elements
    they use renumbered 1..n."""
    d = draw(st.integers(2, 5)) if d is None else d
    alts = draw(st.lists(st.frozensets(st.integers(1, 6), min_size=1, max_size=3),
                         min_size=d, max_size=d))
    label = {v: i for i, v in enumerate(sorted(frozenset().union(*alts)), 1)}
    return Cdc(len(label), tuple(frozenset(label[v] for v in alt) for alt in alts))


@st.composite
def encodings(draw, d=None):
    """Any d distinct integer codes of width 1 to 3."""
    r = draw(st.integers(1, 3))
    d = draw(st.integers(2, 5)) if d is None else d
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * r), min_size=d, max_size=d,
                         unique=True))
    return Encoding(tuple(rows))


@st.composite
def problems(draw):
    """(c, e, f): an SOS disjunction, family codes and its ideal formulation."""
    d, width = draw(st.integers(2, 5)), draw(st.integers(2, 3))
    c, e = sos(d, width), make_encoding(d, draw(kinds))
    return c, e, theorem1_formulation(c, e)


def formulations():
    """Ideal formulations, and formulations over lambda alone with no rows."""
    return problems().map(lambda p: p[2]) | st.integers(1, 3).map(
        lambda n: Formulation(n, 0, (), (), ()))


exact = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))


@st.composite
def pwl_fields(draw, continuous=False):
    """Breakpoints, slopes and intercepts of d = 2 to 6 segments, the
    segments meeting at every breakpoint when ``continuous``."""
    d = draw(st.integers(2, 6))
    steps = draw(st.lists(st.sampled_from([1, 2, HALF]), min_size=d, max_size=d))
    breakpoints = [draw(exact)]
    for step in steps:
        breakpoints.append(breakpoints[-1] + step)
    slopes = draw(st.lists(exact, min_size=d, max_size=d))
    intercepts = draw(st.lists(exact, min_size=d, max_size=d))
    if continuous:
        for i in range(1, d):
            t = breakpoints[i]
            intercepts[i] = slopes[i - 1] * t + intercepts[i - 1] - slopes[i] * t
    return {"breakpoints": breakpoints, "slopes": slopes, "intercepts": intercepts}


def pwl_functions(continuous=False):
    return pwl_fields(continuous).map(lambda fields: PwlFunction(**fields))


@st.composite
def specs(draw, d=None):
    d = draw(st.sampled_from([4, 8, 16])) if d is None else d
    inner = draw(st.floats(0.5, 2))
    return AnnulusSpec(inner, inner + draw(st.floats(0, 2)), d)


@st.composite
def annulus_args(draw):
    d = draw(st.sampled_from([2, 4, 8, 16]))
    return {"d": d, "spec": draw(st.none() | specs(d))}


@st.composite
def structured_args(draw):
    """emit_structured's arguments, from each kind of problem."""
    which = draw(st.sampled_from(["cdc", "pwl", "annulus"]))
    recovery = None
    if which == "cdc":
        c, e, f = draw(problems())
    elif which == "pwl":
        f, recovery = pwl_formulation(draw(pwl_functions(continuous=True)), draw(kinds))
    else:
        args = draw(annulus_args())
        f, recovery = annulus_gray_formulation(**args)
    provenance = draw(st.none() | st.just({"kind": which, "gamma": f.gamma}))
    verification = None
    if which == "cdc" and draw(st.booleans()):
        verification = check_ideal(c, e, f)
    return {"f": f, "recovery": recovery, "provenance": provenance,
            "verification": verification}


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=10)

problem_docs = st.sampled_from([
    {"kind": "cdc", "cdc": {"alternatives": [[1, 2], [2, 3], [3, 4]], "encoding": "zigzag"}},
    {"kind": "cdc", "cdc": {"alternatives": [[1], [2]], "encoding": {"explicit": [[0], [1]]}}},
    {"kind": "pwl", "pwl": {"breakpoints": [0, 1, "3/2"], "slopes": ["1/2", 1],
                            "intercepts": [0, "-1/2"]}},
    {"kind": "annulus", "annulus": {"d": 8, "inner_radius": 1, "outer_radius": "5/2"},
     "options": {"check": "ideal", "format": "lp"}},
])


# --- refused values ------------------------------------------------------

def fractional(f: Formulation) -> list[Formulation]:
    """f with one entry off the integers, once per kind of field f has:
    each stays a valid construction, a lower side lowered, an upper raised."""
    def first(entries, shift):
        return (entries[0] + shift, *entries[1:])

    out = []
    if f.equalities:
        eq, *rest = f.equalities
        out += [replace(f, equalities=(replace(eq, **fields), *rest)) for fields in (
            {"lam": first(eq.lam, HALF)}, {"z": first(eq.z, HALF)}, {"rhs": eq.rhs + HALF})]
    if f.general_rows:
        row, *rest = f.general_rows
        out += [replace(f, general_rows=(replace(row, **fields), *rest)) for fields in (
            {"normal": first(row.normal, HALF)}, {"lower": first(row.lower, -HALF)},
            {"upper": first(row.upper, 0.5)})]
    if f.z_bounds:
        (lo, hi), *rest = f.z_bounds
        out.append(replace(f, z_bounds=((lo - HALF, hi), *rest)))
    return out


def other_size(f: Formulation) -> Formulation:
    """A valid formulation over one more lambda variable than f."""
    c = cdc(f.n_lambda + 1, [range(1, f.n_lambda + 1), (f.n_lambda, f.n_lambda + 1)])
    return theorem1_formulation(c, make_encoding(2, EncodingKind.GRAY))


def check_args(p):
    c, e, f = p
    return {"c": c, "e": e, "f": f}


def certificate_refusals(args):
    c, e, f = args["c"], args["e"], args["f"]
    return [*(("f", g) for g in fractional(f)), ("f", other_size(f)),
            ("e", make_encoding(c.d + 1, EncodingKind.GRAY)),
            ("c", sos(c.d + 1, 2))]


def separated(d):
    """d alternatives that share no element: no arcs, so no directions."""
    return cdc(2 * d, [(2 * i - 1, 2 * i) for i in range(1, d + 1)])


def spread(d):
    """d codes on a line with a gap between neighbours: a hole for d = 2,
    and an interior code beyond."""
    return Encoding(tuple((2 * i,) for i in range(d)))


def too_many_directions():
    """40 directions of rank 7: C(40, 6) subsets, over the subset cap."""
    return [tuple((1 + i // 7) * (j == i % 7) for j in range(7)) for i in range(40)]


DEEP = "[" * 100_000 + "]" * 100_000
DIGITS = '{"kind": "annulus", "annulus": {"d": ' + "9" * 5000 + "}}"
PWL_WITH_A_DEFICIT = PwlFunction([0, 1, 2, 3, 4], [0, 0, 0, 0], [0, 0, 1, 1])


# Piece counts that are no power of two, a bool, or past the 16-bit code cap.
REFUSED_SIZES = [("d", 3), ("d", 1), ("d", 0), ("d", -4), ("d", True), ("d", 2**17)]


def document(args):
    return json.loads(document_text(emit_structured(**args)))


def damaged_documents(doc):
    """Right-typed formulation documents, each refused by one field."""
    out = []
    for path, value in [(("variables", "lambda", "count"), 0),
                        (("variables", "z", "count"), -1),
                        (("variables", "z", "bounds"), [[1, 0]] * doc["variables"]["z"]["count"]),
                        (("equalities",), [{"lambda": [1], "z": [], "rhs": 1}]),
                        (("general_rows",), [{"normal": [0], "lower": [0], "upper": [0]}]),
                        (("variables",), None)]:
        copy = json.loads(json.dumps(doc))
        *parents, key = path
        target = copy
        for parent in parents:
            target = target[parent]
        target[key] = value
        out.append(copy)
    return out


# --- oracles -------------------------------------------------------------

def assert_ideal_report(report, c, e, f, **_):
    assert report.passed and report.missing == report.extra == ()
    assert report.expected_count == report.found_count == sum(map(len, c.alternatives))


def assert_round_trip(doc, f, recovery, **_):
    assert idealform.formulation_from_document(json.loads(document_text(doc))) == (f, recovery)


def assert_embedding(points, c, **_):
    assert points.count == sum(map(len, c.alternatives))


def assert_family_rows(e, d, kind):
    full = (gray_matrix if kind is EncodingKind.GRAY else zigzag_matrix)((d - 1).bit_length())
    assert e.rows == full[:d]


def assert_matrix(rows, s):
    assert len(rows) == len(set(rows)) == 2**s and {len(row) for row in rows} == {s}


def assert_ground_set(ground, f):
    jumps = jumps_by_fraction(f.breakpoints, f.slopes, f.intercepts)
    assert ground.n == f.d + 1 + len(jumps)


def assert_arcs(g, c):
    alts = c.alternatives
    assert g.d == c.d and set(g.arcs) == {(i, j) for i in range(1, c.d + 1)
                                          for j in range(i + 1, c.d + 1)
                                          if alts[i - 1] & alts[j - 1]}


# --- the table -----------------------------------------------------------

directions = st.integers(1, 4).flatmap(lambda r: st.lists(
    st.tuples(*[st.integers(-2, 2)] * r), min_size=1, max_size=6).filter(
        lambda dirs: any(map(any, dirs))))

APIS = {
    "AnnulusSpec": Api(
        specs().map(lambda s: {"inner_radius": s.inner_radius,
                               "outer_radius": s.outer_radius, "d": s.d}),
        refused=lambda a: [("inner_radius", -1.0), ("inner_radius", a["outer_radius"] + 1),
                           ("outer_radius", float("inf")), ("outer_radius", float("nan")),
                           ("outer_radius", 1.79e308), *REFUSED_SIZES]),
    "Cdc": Api(
        disjunctions().map(lambda c: {"n": c.n, "alternatives": c.alternatives}),
        refused=lambda a: [("n", 0), ("n", True), ("n", a["n"] - 1), ("n", a["n"] + 1),
                           ("alternatives", a["alternatives"][:1]),
                           ("alternatives", (*a["alternatives"], frozenset())),
                           ("alternatives", (*a["alternatives"], frozenset({1.5}))),
                           ("alternatives", (*a["alternatives"], frozenset({0})))]),
    "Encoding": Api(
        encodings().map(lambda e: {"rows": e.rows}),
        refused=lambda a: [("rows", a["rows"][:1]), ("rows", ((), ())),
                           ("rows", (*a["rows"], a["rows"][0][1:] + (9, 9))),
                           ("rows", (*a["rows"], a["rows"][0])),
                           *(("rows", (*a["rows"][:-1], (x,) * len(a["rows"][0])))
                             for x in (True, 0.5, HALF))]),
    "Formulation": Api(
        formulations().map(lambda f: dict(vars(f))),
        refused=lambda a: [("n_lambda", 0), ("n_lambda", -1), ("r_z", a["r_z"] + 1),
                           ("z_bounds", (*a["z_bounds"][1:], (1, 0))),
                           ("z_bounds", (*a["z_bounds"][1:], (0,))),
                           ("equalities", (LinearEquality((1,) * (a["n_lambda"] + 1),
                                                          (0,) * a["r_z"], 1),)),
                           ("general_rows", (GeneralRow((1,) * (a["r_z"] + 1), (0,), (0,)),))]),
    "GeneralRow": Api(
        problems().map(lambda p: dict(vars(p[2].general_rows[0]))),
        refused=lambda a: [("normal", (0,) * len(a["normal"])),
                           ("lower", tuple(x + 1 for x in a["upper"]))]),
    "LinearEquality": Api(problems().map(lambda p: dict(vars(p[2].equalities[0])))),
    "PwlFunction": Api(
        pwl_fields(),
        refused=lambda a: [("slopes", a["slopes"][:1]), ("intercepts", a["intercepts"][1:]),
                           ("breakpoints", a["breakpoints"][::-1]),
                           ("breakpoints", a["breakpoints"][1:]),
                           ("slopes", [0.5, *a["slopes"][1:]]),
                           ("intercepts", [True, *a["intercepts"][1:]])],
        oracle=lambda f, breakpoints, slopes, intercepts: f.jumps == jumps_by_fraction(
            breakpoints, slopes, intercepts)),
    "RecoveryMap": Api(structured_args().filter(lambda a: a["recovery"] is not None)
                       .map(lambda a: dict(vars(a["recovery"])))),
    "VerificationReport": Api(problems().map(lambda p: dict(vars(check_ideal(*p))))),
    "annulus_cdc": Api(st.sampled_from([2, 4, 8, 16]).map(lambda d: {"d": d}),
                       refused=lambda a: REFUSED_SIZES,
                       oracle=lambda c, d: c.d == d and c.n == 2 * d),
    "annulus_gray_formulation": Api(
        annulus_args(),
        refused=lambda a: [*REFUSED_SIZES, ("spec", AnnulusSpec(1, 2, 2 * a["d"]))],
        oracle=lambda out, d, spec: check_validity_only(
            annulus_cdc(d), make_encoding(d, EncodingKind.GRAY), out[0])),
    "annulus_zigzag_formulation": Api(
        annulus_args(),
        refused=lambda a: [*REFUSED_SIZES, ("spec", AnnulusSpec(1, 2, 2 * a["d"]))],
        oracle=lambda out, d, spec: check_validity_only(
            annulus_cdc(d), make_encoding(d, EncodingKind.ZIGZAG), out[0])),
    "annulus_vertices": Api(specs().map(lambda s: {"spec": s}),
                            refused=lambda a: [("spec", AnnulusSpec(1, 2, 2))],
                            oracle=lambda points, spec: len(points) == 2 * spec.d),
    "cdc": Api(
        disjunctions().map(lambda c: {"n": c.n, "alternatives": [sorted(a) for a in
                                                                 c.alternatives]}),
        refused=lambda a: [("n", 0), ("n", a["n"] - 1), ("n", a["n"] + 1),
                           ("alternatives", a["alternatives"][:1]),
                           ("alternatives", [*a["alternatives"], []]),
                           ("alternatives", [*a["alternatives"], [2.0]])]),
    "check_dim_condition": Api(
        st.tuples(disjunctions(3), encodings(3)).map(lambda p: {
            "dirs": difference_directions(intersection_digraph(p[0]), p[1]), "e": p[1]})),
    "check_ideal": Api(
        problems().map(check_args),
        refused=lambda a: [*certificate_refusals(a), ("max_vertices", 0)],
        oracle=assert_ideal_report),
    "check_validity_only": Api(problems().map(check_args), refused=certificate_refusals,
                               oracle=lambda ok, **_: ok is True),
    "difference_directions": Api(
        st.tuples(disjunctions(3), encodings(3)).map(lambda p: {
            "g": intersection_digraph(p[0]), "e": p[1]}),
        refused=lambda a: [("e", make_encoding(4, EncodingKind.GRAY))]),
    "document_text": Api(st.one_of(json_values, structured_args().map(
        lambda a: emit_structured(**a))).map(lambda doc: {"doc": doc}),
        oracle=lambda text, doc: text == json_text(doc)),
    "embedding_extreme_points": Api(
        st.integers(2, 5).flatmap(lambda d: st.tuples(disjunctions(d), encodings(d))).map(
            lambda p: {"c": p[0], "e": p[1]}),
        refused=lambda a: [("e", make_encoding(a["c"].d + 1, EncodingKind.GRAY))],
        oracle=assert_embedding),
    "emit_lp_text": Api(formulations().map(lambda f: {"f": f}),
                        refused=lambda a: [("f", g) for g in fractional(a["f"])],
                        oracle=lambda text, f: text == lp_text(f)),
    "emit_structured": Api(structured_args(), oracle=assert_round_trip),
    "enumerate_vertices": Api(
        problems().map(lambda p: {"f": p[2]}),
        refused=lambda a: [("max_vertices", 0)],
        # Entries off the integers are of the wrong type for the integer run.
        wrong=lambda a: [("f", g) for g in fractional(a["f"])]),
    "formulation_from_document": Api(
        structured_args().map(lambda a: {"doc": document(a)}),
        refused=lambda a: [("doc", doc) for doc in damaged_documents(a["doc"])]),
    "gray_matrix": Api(st.integers(1, 5).map(lambda s: {"s": s}),
                       refused=lambda a: [("s", 0), ("s", -1), ("s", 17), ("s", True)],
                       oracle=lambda rows, s: assert_matrix(rows, s)),
    "intersection_digraph": Api(disjunctions().map(lambda c: {"c": c}),
                                oracle=lambda g, c: assert_arcs(g, c)),
    "is_hole_free": Api(encodings().map(lambda e: {"e": e}),
                        oracle=lambda ok, e: ok == hole_free_by_simplex(e.rows)),
    "is_in_convex_position": Api(encodings().map(lambda e: {"e": e}),
                                 oracle=lambda ok, e: ok == convex_position_by_simplex(e.rows)),
    "is_weakly_connected": Api(disjunctions().map(lambda c: {"g": intersection_digraph(c)})),
    "make_encoding": Api(
        st.fixed_dictionaries({"d": st.integers(2, 17), "kind": kinds}),
        refused=lambda a: [("d", 1), ("d", 0), ("d", True), ("d", 2**16 + 1)],
        oracle=lambda e, d, kind: assert_family_rows(e, d, kind)),
    "parse_problem": Api(
        problem_docs.map(lambda doc: {"text": json.dumps(doc)}),
        refused=lambda a: [("text", text) for text in (
            "{", "[]", "not json", DEEP, DIGITS, '{"kind": "x"}',
            '{"kind": "cdc", "cdc": {"alternatives": [[1]]}}')]),
    "pwl_formulation": Api(
        st.fixed_dictionaries({"f": pwl_functions(continuous=True), "kind": kinds}),
        refused=lambda a: [("f", PWL_WITH_A_DEFICIT)]),
    "pwl_ground_set": Api(pwl_functions().map(lambda f: {"f": f}),
                          oracle=lambda ground, f: assert_ground_set(ground, f)),
    "pwl_prop3_applicable": Api(pwl_functions().map(lambda f: {"f": f}),
                                oracle=lambda ok, f: type(ok) is bool),
    "spanned_hyperplane_normals": Api(
        directions.map(lambda dirs: {"directions": dirs}),
        refused=lambda a: [("directions", [*a["directions"], a["directions"][0] + (1,)]),
                           ("directions", [(0,) * len(a["directions"][0])]),
                           ("directions", too_many_directions())],
        oracle=lambda normals, directions: normals == hyperplane_normals_by_subset_walk(
            directions)),
    "theorem1_formulation": Api(
        problems().map(lambda p: {"c": p[0], "e": p[1]}),
        refused=lambda a: [("c", separated(a["c"].d)), ("c", sos(a["c"].d + 1, 2)),
                           ("e", spread(a["c"].d)),
                           ("e", make_encoding(a["c"].d + 1, EncodingKind.GRAY))],
        oracle=lambda f, c, e: check_validity_only(c, e, f)),
    "zigzag_matrix": Api(st.integers(1, 5).map(lambda s: {"s": s}),
                         refused=lambda a: [("s", 0), ("s", -1), ("s", 17), ("s", True)],
                         oracle=lambda rows, s: assert_matrix(rows, s)),
}


def test_every_export_is_covered_or_skipped():
    exceptions = {name for name in idealform.__all__
                  if isinstance(getattr(idealform, name), type)
                  and issubclass(getattr(idealform, name), IdealformError)}
    assert set(APIS).isdisjoint(SKIPPED | exceptions)
    assert set(idealform.__all__) == set(APIS) | SKIPPED | exceptions


@pytest.mark.parametrize("name", sorted(APIS))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_only_the_allowed_exceptions_escape(name, data):
    call, api = getattr(idealform, name), APIS[name]
    args = data.draw(api.valid, label="valid arguments")
    result = call(**args)
    if api.oracle is not None:
        assert api.oracle(result, **args) is not False
    for key, value in [*((key, v) for key in args for v in WRONG_TYPES), *api.wrong(args)]:
        try:
            call(**{**args, key: value})
        except ALLOWED:
            pass
    for key, value in api.refused(args):
        try:
            call(**{**args, key: value})
        except IdealformError:
            continue
        pytest.fail(f"{name} returned on the refused value {key}={value!r:.200}")
