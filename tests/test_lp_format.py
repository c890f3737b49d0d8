"""LP text output: grammar, exact coefficient recovery, determinism."""

import re
from fractions import Fraction
from operator import neg

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealform.annulus import annulus_zigzag_formulation
from idealform.cdc import cdc, theorem1_formulation
from idealform.encoding import EncodingKind, make_encoding
from idealform.errors import InputError
from idealform.formulation import Formulation, GeneralRow, LinearEquality
from idealform.lp_format import emit_lp_text
from oracles import lp_text

TERM = re.compile(r"([+-]) (\d+) (lambda_\d+|z_\d+)")
CONSTRAINT = re.compile(r"^ (\w+): ((?:[+-] \d+ (?:lambda_\d+|z_\d+) ?)+)(<=|=) (-?\d+)$")


def parse_lp(text: str):
    """A deliberately small reader for the exact dialect the writer emits.

    Returns (constraints, bounds, generals) where each constraint is
    (label, {var: coeff}, sense, rhs). Raises on any line it does not
    recognize, so it doubles as a grammar check.
    """
    lines = text.splitlines()
    assert lines[0] == "Minimize"
    assert re.fullmatch(r" obj: 0 lambda_1", lines[1])
    assert lines[2] == "Subject To"
    assert lines[-1] == "End"
    assert text.endswith("\n")

    constraints = []
    bounds = {}
    generals = []
    section = "rows"
    for line in lines[3:-1]:
        if line == "Bounds":
            section = "bounds"
            continue
        if line == "Generals":
            section = "generals"
            continue
        if section == "rows":
            m = CONSTRAINT.match(line)
            assert m, f"unparseable constraint line: {line!r}"
            label, body, sense, rhs = m.groups()
            coeffs = {}
            consumed = 0
            for sign, mag, name in TERM.findall(body):
                assert name not in coeffs, f"{name} repeated in {label}"
                coeffs[name] = int(mag) if sign == "+" else -int(mag)
                consumed += 1
            assert consumed == body.count("+") + body.count("-")
            constraints.append((label, coeffs, sense, int(rhs)))
        elif section == "bounds":
            m = re.fullmatch(r" (lambda_\d+) >= 0", line) or re.fullmatch(
                r" (-?\d+) <= (z_\d+) <= (-?\d+)", line
            )
            assert m, f"unparseable bounds line: {line!r}"
            if m.re.pattern.startswith(" (lambda"):
                bounds[m.group(1)] = (0, None)
            else:
                bounds[m.group(2)] = (int(m.group(1)), int(m.group(3)))
        else:
            generals.extend(line.split())
    return constraints, bounds, generals


def row_coeff_dicts(f: Formulation):
    """The constraint set the LP text should encode, keyed like the parser."""
    lam = [f"lambda_{v}" for v in range(1, f.n_lambda + 1)]
    z = [f"z_{k}" for k in range(1, f.r_z + 1)]
    expected = {}
    for i, eq in enumerate(f.equalities, 1):
        coeffs = {n: c for n, c in zip(lam, eq.lam) if c}
        coeffs |= {n: c for n, c in zip(z, eq.z) if c}
        expected[f"eq_{i}"] = (coeffs, "=", eq.rhs)
    for k, row in enumerate(f.general_rows, 1):
        lo = {n: c for n, c in zip(lam, row.lower) if c}
        lo |= {n: -b for n, b in zip(z, row.normal) if b}
        up = {n: b for n, b in zip(z, row.normal) if b}
        up |= {n: -c for n, c in zip(lam, row.upper) if c}
        expected[f"g{k}_lo"] = (lo, "<=", 0)
        expected[f"g{k}_up"] = (up, "<=", 0)
    return expected


def sos2_formulation(d):
    c = cdc(d + 1, [[i, i + 1] for i in range(1, d + 1)])
    return theorem1_formulation(c, make_encoding(d, EncodingKind.GRAY))


class TestEmit:
    def test_sos2_d2_exact_lines(self):
        text = emit_lp_text(sos2_formulation(2))
        assert " g1_lo: + 1 lambda_3 - 1 z_1 <= 0" in text.splitlines()
        assert " g1_up: + 1 z_1 - 1 lambda_2 - 1 lambda_3 <= 0" in text.splitlines()

    def test_zigzag_annulus_shows_integer_scaled_normal(self):
        f, _ = annulus_zigzag_formulation(4)
        constraints, _, _ = parse_lp(emit_lp_text(f))
        by_label = {label: coeffs for label, coeffs, _, _ in constraints}
        pair_row = next(
            coeffs for coeffs in by_label.values()
            if coeffs.get("z_1") == -1 and coeffs.get("z_2") == 2
        )
        assert all(isinstance(v, int) for v in pair_row.values())

    @pytest.mark.parametrize("build", [
        lambda: sos2_formulation(4),
        lambda: sos2_formulation(8),
        lambda: annulus_zigzag_formulation(8)[0],
        lambda: theorem1_formulation(
            cdc(8, [[1, 2, 3, 4], [3, 4, 5, 6], [5, 6, 7, 8], [7, 8, 1, 2]]),
            make_encoding(4, EncodingKind.ZIGZAG),
        ),
    ])
    def test_round_trip_recovers_every_row(self, build):
        f = build()
        constraints, bounds, generals = parse_lp(emit_lp_text(f))
        parsed = {label: (coeffs, sense, rhs) for label, coeffs, sense, rhs in constraints}
        assert parsed == row_coeff_dicts(f)
        assert generals == [f"z_{k}" for k in range(1, f.r_z + 1)]
        for v in range(1, f.n_lambda + 1):
            assert bounds[f"lambda_{v}"] == (0, None)
        for k, (lo, hi) in enumerate(f.z_bounds, 1):
            assert bounds[f"z_{k}"] == (lo, hi)

    def test_no_generals_section_without_integer_variables(self):
        f = Formulation(
            n_lambda=3,
            r_z=0,
            equalities=(LinearEquality(lam=(1, 1, 1), z=(), rhs=1),),
            general_rows=(),
            z_bounds=(),
        )
        text = emit_lp_text(f)
        assert "Generals" not in text
        constraints, bounds, generals = parse_lp(text)
        assert generals == []
        assert constraints == [("eq_1", {"lambda_1": 1, "lambda_2": 1, "lambda_3": 1}, "=", 1)]

    def test_deterministic_bytes(self):
        f, _ = annulus_zigzag_formulation(8)
        assert emit_lp_text(f) == emit_lp_text(f)

    @pytest.mark.parametrize("value", [0.5, Fraction(3, 2)])
    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("field", ["lam", "z", "normal", "lower", "upper"])
    def test_a_non_integral_entry_always_raises(self, field, position, value):
        # Every other entry is an int, each written before or after it.
        fields = {"lam": [1, 2, 3], "z": [1, 2, 3], "normal": [1, 2, 3],
                  "lower": [0, 0, 0], "upper": [2, 2, 3]}
        fields[field][position] = value
        f = Formulation(
            n_lambda=3, r_z=3,
            equalities=(LinearEquality(lam=tuple(fields["lam"]), z=tuple(fields["z"]), rhs=1),),
            general_rows=(GeneralRow(normal=tuple(fields["normal"]),
                                     lower=tuple(fields["lower"]),
                                     upper=tuple(fields["upper"])),),
            z_bounds=((0, 1),) * 3)
        with pytest.raises(InputError, match="^LP text holds integers only, got "):
            emit_lp_text(f)


# Small coefficients, zeros among them, and some wider than 64 bits.
coefficients = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))


@st.composite
def formulations(draw):
    """Formulations with row fields as tuples or lists, r_z = 0 included,
    equalities with z terms and general rows whose lower part may be zero."""
    seq = draw(st.sampled_from([tuple, list]))
    n, r = draw(st.integers(1, 5)), draw(st.integers(0, 3))

    def vector(width):
        return seq(draw(st.lists(coefficients, min_size=width, max_size=width)))

    equalities = [LinearEquality(lam=vector(n), z=vector(r), rhs=draw(coefficients))
                  for _ in range(draw(st.integers(0, 2)))]
    rows = []
    for _ in range(draw(st.integers(0, 3)) if r else 0):
        normal = vector(r)
        if not any(normal):
            continue
        lower = seq([0] * n) if draw(st.booleans()) else vector(n)
        gaps = draw(st.lists(st.integers(0, 2**66), min_size=n, max_size=n))
        rows.append(GeneralRow(normal=normal, lower=lower,
                               upper=seq([x + g for x, g in zip(lower, gaps)])))
    bounds = [(lo, lo + draw(st.integers(0, 5))) for lo in draw(
        st.lists(st.integers(-4, 4), min_size=r, max_size=r))]
    return Formulation(n_lambda=n, r_z=r, equalities=tuple(equalities),
                       general_rows=tuple(rows), z_bounds=tuple(bounds))


def mirrored(f: Formulation) -> Formulation:
    """The same formulation with every row multiplied by -1: each coefficient
    appears with the opposite sign, and lower and upper trade places."""
    return Formulation(
        n_lambda=f.n_lambda, r_z=f.r_z,
        equalities=tuple(LinearEquality(lam=tuple(map(neg, eq.lam)), z=tuple(map(neg, eq.z)),
                                        rhs=-eq.rhs) for eq in f.equalities),
        general_rows=tuple(GeneralRow(normal=tuple(map(neg, row.normal)),
                                      lower=tuple(map(neg, row.upper)),
                                      upper=tuple(map(neg, row.lower)))
                           for row in f.general_rows),
        z_bounds=f.z_bounds)


class TestAgainstTermOracle:
    @given(formulations())
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_the_term_by_term_writer(self, f):
        # The mirror, in the same example, shows a prefix kept from an
        # earlier emit whose coefficients had the other sign.
        for g in (f, mirrored(f)):
            assert emit_lp_text(g) == lp_text(g)

    @pytest.mark.parametrize("f", [
        # An all-zero equality, a one-term equality, and a general row whose
        # g1_lo line has the single term - 1 z_1.
        Formulation(n_lambda=2, r_z=1,
                    equalities=(LinearEquality(lam=(0, 0), z=(0,), rhs=0),
                                LinearEquality(lam=(0, 5), z=(0,), rhs=5)),
                    general_rows=(GeneralRow(normal=(1,), lower=(0, 0), upper=(0, 1)),),
                    z_bounds=((0, 1),)),
        Formulation(n_lambda=1, r_z=0, equalities=(LinearEquality(lam=(0,), z=(), rhs=0),),
                    general_rows=(), z_bounds=()),
    ], ids=["zero-and-one-term-rows", "zero-row-without-z"])
    def test_rows_with_no_term_or_one(self, f):
        for g in (f, mirrored(f)):
            assert emit_lp_text(g) == lp_text(g)
        assert " eq_1:  = 0\n" in emit_lp_text(f)
