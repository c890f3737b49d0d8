"""Tests for the piecewise-linear epigraph pipeline."""

import json
import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealform.cdc import Cdc, intersection_digraph, is_weakly_connected, theorem1_formulation
from idealform.cli import main
from idealform.encoding import (
    EncodingKind,
    gray_matrix,
    is_hole_free,
    is_in_convex_position,
    make_encoding,
    zigzag_matrix,
)
from idealform.errors import DimensionDeficit, InputError
from idealform.pwl import (
    PwlFunction,
    PwlGroundSet,
    pwl_formulation,
    pwl_ground_set,
    pwl_prop3_applicable,
)
from idealform.verify import check_ideal
from oracles import jumps_by_fraction

F = Fraction


def chain(breakpoints, slopes, jumps=None):
    """A PwlFunction with intercepts chained for continuity, then shifted
    upward by jumps[j] on every segment from j onward."""
    jumps = jumps or {}
    slopes = [F(a) for a in slopes]
    ts = [F(t) for t in breakpoints]
    intercepts = [F(0)]
    for j in range(2, len(slopes) + 1):
        t = ts[j - 1]
        b = intercepts[-1] + (slopes[j - 2] - slopes[j - 1]) * t
        intercepts.append(b + F(jumps.get(j, 0)))
    return PwlFunction(ts, slopes, intercepts)


class TestPwlFunction:
    def test_validation(self):
        with pytest.raises(InputError):
            PwlFunction([0, 1], [1], [0])
        with pytest.raises(InputError):
            PwlFunction([0, 1, 1], [1, 2], [0, 0])
        with pytest.raises(InputError):
            PwlFunction([0, 1, 2], [1, 2], [0])

    def test_jumps(self):
        f = chain([0, 1, 2, 3, 4], [1, 1, 1, 1], jumps={3: 5})
        assert f.jumps == {3}


class Flag(int):
    """An int subclass: refused like a bool, since only plain ints are held."""


def _entries(draw, values):
    """The values as entries: a Fraction where a denominator remains, else
    an int or an integral Fraction, drawn per entry."""
    return [v if v.denominator != 1 else draw(st.sampled_from([int(v), v])) for v in values]


@st.composite
def pwl_values(draw):
    """Exact breakpoints, slopes and intercepts: continuous chains with a
    drawn jump, or none, at each interior breakpoint."""
    d = draw(st.integers(2, 8))
    q = st.fractions(-6, 6, max_denominator=3)
    steps = draw(st.lists(st.fractions(1, 4, max_denominator=3), min_size=d, max_size=d))
    t = [draw(q)]
    for step in steps:
        t.append(t[-1] + step)
    a = draw(st.lists(q, min_size=d, max_size=d))
    b = [draw(q)]
    for j in range(2, d + 1):
        jump = draw(st.sampled_from([0, 0, 1, Fraction(-1, 2)]))
        b.append(b[-1] + (a[j - 2] - a[j - 1]) * t[j - 1] + jump)
    return t, a, b


class TestExactData:
    """PwlFunction holds each entry exactly and owns the jump set."""

    @given(values=pwl_values(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_jumps_ground_set_and_one_exact_form(self, values, data):
        f = PwlFunction(*(_entries(data.draw, v) for v in values))
        assert f.jumps == jumps_by_fraction(*values)
        assert pwl_ground_set(f).n == f.d + 1 + len(f.jumps)
        # Built from ints, from Fractions and from a drawn mix: one function.
        as_ints = PwlFunction(*([int(x) if x.denominator == 1 else x for x in v]
                                for v in values))
        as_fractions = PwlFunction(*values)
        assert f == as_ints == as_fractions
        assert hash(f) == hash(as_ints) == hash(as_fractions)
        for built in (f, as_ints, as_fractions):
            for held, exact in zip((built.breakpoints, built.slopes, built.intercepts),
                                   values):
                assert type(held) is tuple
                assert [type(x) for x in held] == [
                    int if x.denominator == 1 else Fraction for x in exact]

    @pytest.mark.parametrize("field", ["breakpoints", "slopes", "intercepts"])
    @pytest.mark.parametrize("entry,name", [(0.5, "float"), (True, "bool"), ("1", "str"),
                                            (Flag(1), "Flag")], ids=repr)
    def test_other_entry_types_are_refused_by_field(self, field, entry, name):
        values = {"breakpoints": [0, 1, 2, 3], "slopes": [1, 2, 3], "intercepts": [0, -1, -3]}
        values[field][-1] = entry
        with pytest.raises(InputError,
                           match=f"^{field}: expected ints or Fractions, got {name}$"):
            PwlFunction(**values)

    @pytest.mark.parametrize("field", ["breakpoints", "slopes", "intercepts"])
    @pytest.mark.parametrize("value", [None, 5])
    def test_a_field_that_is_no_sequence_is_a_type_error(self, field, value):
        values = {"breakpoints": [0, 1, 2], "slopes": [1, 2], "intercepts": [0, 0]}
        values[field] = value
        with pytest.raises(TypeError, match="object is not iterable"):
            PwlFunction(**values)

    def test_integral_end_values_are_ints(self):
        f = PwlFunction([0, 1, 2], [F(1, 2), F(3, 2)], [0, -1])
        assert f.ends == (((0, 0), (1, F(1, 2))), ((1, F(1, 2)), (2, 2)))
        assert [type(x) for end in f.ends for point in end for x in point] == [
            int, int, int, Fraction, int, Fraction, int, int]

    @given(values=pwl_values())
    @settings(max_examples=100, deadline=None)
    def test_every_end_is_held_as_the_fields_are(self, values):
        for point in (p for end in PwlFunction(*values).ends for p in end):
            assert [type(x) for x in point] == [
                int if x.denominator == 1 else Fraction for x in point]

    def test_floats_decide_nothing(self):
        # 0.3 is not 3 * 0.1 in floats, so a float run saw a jump at t2 and
        # ended in a dimension deficit; the exact tenths are continuous.
        with pytest.raises(InputError, match="^breakpoints: expected ints or Fractions"):
            PwlFunction((0, 0.1, 1), (3, 0), (0, 0.3))
        f = PwlFunction((0, F(1, 10), 1), (3, 0), (0, F(3, 10)))
        assert f.jumps == frozenset()
        assert pwl_formulation(f, EncodingKind.GRAY)[0].gamma == 1


class TestSegmentEnds:
    """Each segment's endpoints are evaluated once, by PwlFunction.ends."""

    def test_a_checked_pwl_run_evaluates_each_endpoint_once(self, monkeypatch,
                                                            tmp_path, capsys):
        calls = []
        original = PwlFunction.segment_value
        monkeypatch.setattr(PwlFunction, "segment_value",
                            lambda f, i, x: calls.append(i) or original(f, i, x))
        path = tmp_path / "pwl.json"
        path.write_text(json.dumps({"kind": "pwl", "pwl": {
            "breakpoints": list(range(9)), "slopes": [1, 2, 3, 4, 5, 6, 7, 8],
            "intercepts": [0, -1, -3, -6, -10, -15, -21, -28]}}))
        assert main(["pwl", str(path), "--check", "ideal"]) == 0
        assert "ideal: PASS" in capsys.readouterr().err
        assert sorted(calls) == sorted([*range(1, 9)] * 2)

    def test_cached_ends_take_no_part_in_equality(self):
        f = chain([0, 1, 2, 3], [1, -1, 2], jumps={3: 1})
        assert f.ends[1] == ((F(1), F(1)), (F(2), F(0)))
        fresh = PwlFunction(f.breakpoints, f.slopes, f.intercepts)
        assert f == fresh and hash(f) == hash(fresh)


class TestGroundSet:
    def test_continuous_is_chain_structured(self):
        f = chain([0, 1, 2, 3, 4], [1, 2, 3, 4])
        g = pwl_ground_set(f)
        assert len(f.jumps) == 0 and g.n == 5
        assert g.alternatives == (
            frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}), frozenset({4, 5})
        )

    def test_one_jump_duplicates_its_breakpoint(self):
        f = chain([0, 1, 2, 3, 4], [1, 1, 1, 1], jumps={3: 2})
        g = pwl_ground_set(f)
        assert len(f.jumps) == 1 and g.n == 6
        assert g.alternatives == (
            frozenset({1, 2}), frozenset({2, 3}), frozenset({4, 5}), frozenset({5, 6})
        )

    def test_left_value_gets_the_smaller_index(self):
        f = chain([0, 1, 2], [1, -1], jumps={2: 2})
        g = pwl_ground_set(f)
        assert g.points[0] == (F(0), F(0))
        assert g.points[1] == (F(1), F(1))
        assert g.points[2] == (F(1), F(3))
        assert g.alternatives == (frozenset({1, 2}), frozenset({3, 4}))

    def test_point_count_invariant(self):
        rng = random.Random(5)
        for _ in range(30):
            d = rng.randint(2, 9)
            ts = sorted(rng.sample(range(-20, 20), d + 1))
            slopes = [rng.randint(-3, 3) for _ in range(d)]
            jumps = {j: rng.choice([0, 0, 1, -2]) for j in range(2, d + 1)}
            f = chain(ts, slopes, jumps)
            g = pwl_ground_set(f)
            assert g.n == d + 1 + len(f.jumps)
            assert len(set(g.points)) == g.n


class TestFastPathGate:
    def test_continuous_power_of_two(self):
        assert pwl_prop3_applicable(chain(range(5), [1, 2, 3, 4]))
        assert pwl_prop3_applicable(chain(range(9), [1, 2, 3, 4, 5, 6, 7, 8]))

    def test_jump_outside_both_spans(self):
        assert pwl_prop3_applicable(chain(range(5), [1, 2, 3, 4], jumps={4: 1}))

    def test_jumps_in_both_spans(self):
        assert not pwl_prop3_applicable(
            chain(range(5), [1, 2, 3, 4], jumps={2: 1, 3: 1})
        )
        assert not pwl_prop3_applicable(
            chain(range(9), [1] * 8, jumps={5: 1})
        )

    def test_small_or_ragged_piece_counts(self):
        assert not pwl_prop3_applicable(chain([0, 1, 2], [1, 2]))
        assert not pwl_prop3_applicable(chain([0, 1, 2, 3], [1, 2, 3]))


class TestFormulation:
    def test_continuous_matches_the_chain_disjunction(self):
        f, recovery = pwl_formulation(chain(range(5), [1, 2, 3, 4]), EncodingKind.GRAY)
        c = Cdc(5, tuple(frozenset({i, i + 1}) for i in range(1, 5)))
        assert f == theorem1_formulation(c, make_encoding(4, EncodingKind.GRAY))
        assert recovery.epigraph and len(recovery.points) == f.n_lambda

    def test_one_jump_instance_counts_and_ideality(self):
        func = chain(range(5), [1, 2, 3, 4], jumps={4: 3})
        f, recovery = pwl_formulation(func, EncodingKind.GRAY)
        assert f.n_lambda == 6 and f.r_z == 2 and f.gamma == 2
        g = pwl_ground_set(func)
        report = check_ideal(Cdc(g.n, g.alternatives), make_encoding(4, EncodingKind.GRAY), f)
        assert report.passed and report.counts == (8, 8)

    def test_closed_form_equals_general_pipeline_when_continuous(self):
        func = chain(range(9), [1, -1, 2, -2, 3, -3, 4, -4])
        g = pwl_ground_set(func)
        c = Cdc(g.n, g.alternatives)
        for kind in (EncodingKind.GRAY, EncodingKind.ZIGZAG):
            f, _ = pwl_formulation(func, kind)
            assert f == theorem1_formulation(c, make_encoding(8, kind))
            assert f.n_lambda == 9 and f.r_z == 3

    def test_fast_path_survives_a_disconnected_chain(self):
        func = chain(range(9), [1] * 8, jumps={2: 1, 6: -1})
        assert pwl_prop3_applicable(func)
        f, _ = pwl_formulation(func, EncodingKind.GRAY)
        g = pwl_ground_set(func)
        c = Cdc(g.n, g.alternatives)
        assert not is_weakly_connected(intersection_digraph(c))
        report = check_ideal(c, make_encoding(8, EncodingKind.GRAY), f)
        assert report.passed and report.counts == (16, 16)

    def test_general_path_on_odd_piece_count(self):
        func = chain([0, 1, 2, 3], [1, 2, 3])
        f, _ = pwl_formulation(func, EncodingKind.GRAY)
        g = pwl_ground_set(func)
        report = check_ideal(Cdc(g.n, g.alternatives), make_encoding(3, EncodingKind.GRAY), f)
        assert report.passed and report.counts == (6, 6)

    def test_too_many_jumps_is_rejected_with_breakpoint_names(self):
        func = chain(range(5), [1, 2, 3, 4], jumps={2: 1, 3: 1})
        with pytest.raises(DimensionDeficit, match="t2, t3"):
            pwl_formulation(func, EncodingKind.GRAY)

    @pytest.mark.parametrize("codes", [make_encoding(4, EncodingKind.GRAY), "gray"])
    def test_explicit_codes_rejected(self, codes):
        # Only a family builds the codes: neither explicit codes nor a
        # family's name string.
        with pytest.raises(InputError,
                           match="^expected EncodingKind.GRAY or EncodingKind.ZIGZAG, got "):
            pwl_formulation(chain(range(5), [1, 2, 3, 4]), codes)

    def test_recovery_points_are_the_ground_points(self):
        func = chain(range(5), [2, 2, 5, 5], jumps={4: -1})
        f, recovery = pwl_formulation(func, EncodingKind.GRAY)
        assert recovery.kind == "pwl"
        assert recovery.points == pwl_ground_set(func).points
        # Integral data is held as ints, so the points are plain ints too.
        assert all(type(x) is int for p in recovery.points for x in p)


FAMILIES = (EncodingKind.GRAY, EncodingKind.ZIGZAG)


class TestSingleRoute:
    """The unit-normal closed form is Theorem 1 on every PWL chain."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_theorem1_or_both_raise_the_same_deficit(self, data):
        d = data.draw(st.integers(2, 40))
        kind = data.draw(st.sampled_from(FAMILIES))
        slopes = data.draw(st.lists(st.fractions(-9, 9, max_denominator=6),
                                    min_size=d, max_size=d))
        jumps = data.draw(st.sets(st.integers(2, d)))
        func = chain(range(d + 1), slopes, {j: 1 for j in jumps})
        g = pwl_ground_set(func)
        c, e = Cdc(g.n, g.alternatives), make_encoding(d, kind)
        try:
            expected = theorem1_formulation(c, e)
        except DimensionDeficit as err:
            names = ", ".join(f"t{j}" for j in sorted(jumps))
            with pytest.raises(DimensionDeficit) as info:
                pwl_formulation(func, kind)
            assert str(info.value) == (
                f"{err}; the jumps at {names} remove the consecutive-segment "
                f"steps that would supply the missing code coordinates")
        else:
            assert pwl_formulation(func, kind)[0] == expected

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_every_family_prefix_passes_both_gates(self, kind):
        for d in [*range(2, 33), 64]:
            e = make_encoding(d, kind)
            assert e.dim == e.r
            assert is_in_convex_position(e) and is_hole_free(e), d

    @pytest.mark.parametrize("build", [gray_matrix, zigzag_matrix])
    def test_row_i_steps_coordinate_ctz_i(self, build):
        for s in range(1, 11):
            rows = build(s)
            for i in range(1, 2**s):
                ctz = (i & -i).bit_length() - 1
                step = [abs(a - b) for a, b in zip(rows[i], rows[i - 1])]
                assert step == [int(k == ctz) for k in range(s)], (s, i)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_no_gate_digraph_or_enumeration_runs(self, monkeypatch, kind):
        def refuse(*args):
            raise AssertionError("the PWL route ran a general-pipeline stage")

        for name in ("is_in_convex_position", "is_hole_free", "intersection_digraph",
                     "spanned_hyperplane_normals"):
            monkeypatch.setattr(importlib.import_module("idealform.cdc"), name, refuse)
        # Jumps at t4 and t6 break both middle quarter spans.
        func = chain(range(9), [1, -1, 2, -2, 3, -3, 4, -4], jumps={4: 1, 6: -1})
        assert not pwl_prop3_applicable(func)
        f, _ = pwl_formulation(func, kind)
        assert f.gamma == 3 and f.n_lambda == 11
        assert [row.normal for row in f.general_rows] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
