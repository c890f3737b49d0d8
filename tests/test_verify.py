"""Tests for the exact vertex enumeration and ideality certification."""

import hashlib
import random
import re
import time
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealform import linalg, verify
from idealform.annulus import annulus_cdc, annulus_gray_formulation, annulus_zigzag_formulation
from idealform.cdc import cdc, intersection_digraph, is_weakly_connected, theorem1_formulation
from idealform.encoding import EncodingKind, make_encoding
from idealform.errors import InputError, TooLargeToEnumerate
from idealform.formulation import Formulation, GeneralRow, LinearEquality, integer_fields
from idealform.linalg import DEFAULT_ENUM_CAP
from idealform.pwl import PwlFunction, pwl_formulation
from idealform.verify import (
    check_ideal,
    check_validity_only,
    embedding_extreme_points,
    enumerate_vertices,
)
from oracles import (
    fraction_rows,
    simplex_box_rows,
    valid_by_fraction_points,
    vertices_by_fraction_cuts,
    vertices_by_tight_subsets,
    vertices_by_unmerged_description,
)

F = Fraction


def sos2(d):
    return cdc(d + 1, [(i, i + 1) for i in range(1, d + 1)])


def windows8():
    """Four cyclic length-4 windows over eight ground elements."""
    return cdc(8, [(7, 8, 1, 2), (1, 2, 3, 4), (3, 4, 5, 6), (5, 6, 7, 8)])


def fr(*xs):
    return tuple(F(x) for x in xs)


def fractions(vertex_set):
    """A VertexSet's homogeneous integer vertices as Fraction tuples."""
    return {tuple(F(a, x[-1]) for a in x[:-1]) for x in vertex_set.vertices}


def is_canonical(x):
    """An int tuple with a positive last entry and no common factor."""
    return (type(x) is tuple and all(type(a) is int for a in x)
            and x[-1] > 0 and gcd(*x) == 1)


def record_conversions(monkeypatch):
    """The vertices handed to verify._to_fractions, in call order."""
    seen, convert = [], verify._to_fractions

    def recording(x):
        seen.append(x)
        return convert(x)

    monkeypatch.setattr(verify, "_to_fractions", recording)
    return seen


def drop_row(f, k):
    rows = f.general_rows[:k] + f.general_rows[k + 1 :]
    return Formulation(f.n_lambda, f.r_z, f.equalities, rows, f.z_bounds)


def sos(d, width):
    return cdc(d + width - 1, [range(i, i + width) for i in range(1, d + 1)])


def corpus_formulations():
    """Formulations shaped like the certificate benchmark's instances."""
    out = {}
    for d in (4, 8):
        out[f"annulus-gray-d{d}"] = annulus_gray_formulation(d)[0]
        out[f"annulus-zigzag-d{d}"] = annulus_zigzag_formulation(d)[0]
    for d, width, kind in ((4, 2, "gray"), (6, 2, "gray"), (8, 2, "gray"),
                           (4, 3, "gray"), (4, 2, "zigzag"), (6, 2, "zigzag")):
        out[f"sos{width}-{kind}-d{d}"] = theorem1_formulation(
            sos(d, width), make_encoding(d, EncodingKind(kind)))
    # Concave, with one jump at breakpoint 3: the unit-normal fast path.
    breakpoints, slopes = [0, 1, 3, 4, 6, 7, 9, 10, 12], [9, 7, 4, 2, 0, -1, -3, -6]
    intercepts, value = [], 0
    for i, slope in enumerate(slopes):
        intercepts.append(value - slope * breakpoints[i] + (2 if i == 2 else 0))
        value = slope * breakpoints[i + 1] + intercepts[-1]
    f = PwlFunction(breakpoints, slopes, intercepts)
    for kind in (EncodingKind.GRAY, EncodingKind.ZIGZAG):
        out[f"pwl-{kind.value}-d8"] = pwl_formulation(f, kind)[0]
    return out


def widen(f, bounds):
    """f with one more z coordinate per extra bound pair, used by no row."""
    extra = (0,) * (len(bounds) - f.r_z)
    return Formulation(
        f.n_lambda, len(bounds),
        tuple(LinearEquality(eq.lam, eq.z + extra, eq.rhs) for eq in f.equalities),
        tuple(GeneralRow(row.normal + extra, row.lower, row.upper)
              for row in f.general_rows),
        tuple(bounds))


@st.composite
def varied_formulations(draw):
    """A theorem-1 formulation of a small SOS disjunction, changed in the
    ways the enumeration's start must survive: z coordinates that no row
    uses, bounds with lo == hi, equalities written by hand, a dropped row
    and shuffled rows. One embedding point stays feasible throughout, so
    the relaxation is never empty."""
    d, width = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    c = sos(d, width)
    e = make_encoding(d, draw(st.sampled_from([EncodingKind.GRAY, EncodingKind.ZIGZAG])))
    f = theorem1_formulation(c, e)
    j = draw(st.integers(0, d - 1))
    w = draw(st.sampled_from(sorted(c.alternatives[j])))
    bounds = [(h, h) if draw(st.booleans()) else b for h, b in zip(e.rows[j], f.z_bounds)]
    extra = draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(0, 2)), max_size=2))
    bounds += [(lo, lo + span) for lo, span in extra]
    f = widen(f, bounds)
    point = [int(v == w) for v in range(1, f.n_lambda + 1)] + [*e.rows[j]] + [
        lo for lo, _ in extra]
    equalities = list(f.equalities[draw(st.integers(0, 1)):])
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.integers(-1, 1), min_size=len(point),
                               max_size=len(point)))
        equalities.append(LinearEquality(
            tuple(coeffs[:f.n_lambda]), tuple(coeffs[f.n_lambda:]),
            sum(a * x for a, x in zip(coeffs, point))))
    rows = draw(st.permutations(f.general_rows))
    if rows and draw(st.booleans()):
        del rows[draw(st.integers(0, len(rows) - 1))]
    return Formulation(f.n_lambda, f.r_z, tuple(equalities), tuple(rows), f.z_bounds)


def oracle_vertex_set(f):
    """The same polytope, enumerated by exhaustive tight-subset search, with
    the rows read from the formulation's fields by the oracle module."""
    eqs, ineqs = fraction_rows(f)
    base_eqs, base_ineqs = simplex_box_rows(f.n_lambda, f.z_bounds)
    all_eqs = base_eqs + eqs
    all_ineqs = [(tuple(-c for c in coeffs), -rhs) for coeffs, rhs in base_ineqs + ineqs]
    return vertices_by_tight_subsets(f.n_lambda + f.r_z, all_eqs, all_ineqs)


class TestEmbeddingExtremePoints:
    def test_sos2_two_pieces(self):
        pts = embedding_extreme_points(sos2(2), make_encoding(2, EncodingKind.GRAY))
        assert fractions(pts) == {
            fr(1, 0, 0, 0),
            fr(0, 1, 0, 0),
            fr(0, 1, 0, 1),
            fr(0, 0, 1, 1),
        }

    def test_window_count(self):
        pts = embedding_extreme_points(windows8(), make_encoding(4, EncodingKind.GRAY))
        assert pts.count == 16

    def test_points_are_homogeneous_integer_tuples(self):
        pts = embedding_extreme_points(windows8(), make_encoding(4, EncodingKind.GRAY))
        assert all(is_canonical(x) and x[-1] == 1 for x in pts.vertices)

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            embedding_extreme_points(sos2(2), make_encoding(4, EncodingKind.GRAY))


class TestEnumerateVertices:
    def test_simplex_alone(self):
        f = Formulation(3, 0, (LinearEquality((1, 1, 1), (), 1),), (), ())
        assert fractions(enumerate_vertices(f)) == {fr(1, 0, 0), fr(0, 1, 0), fr(0, 0, 1)}

    def test_box_corners(self):
        f = Formulation(
            1, 2, (LinearEquality((1,), (0, 0), 1),), (), ((0, 1), (0, 1))
        )
        assert fractions(enumerate_vertices(f)) == {
            fr(1, 0, 0), fr(1, 0, 1), fr(1, 1, 0), fr(1, 1, 1)
        }

    def test_redundant_row_changes_nothing(self):
        f = Formulation(
            1, 2,
            (LinearEquality((1,), (0, 0), 1),),
            (GeneralRow(normal=(1, 0), lower=(0,), upper=(1,)),),
            ((0, 1), (0, 1)),
        )
        assert enumerate_vertices(f).count == 4

    def test_corner_cut_keeps_boundary_vertices(self):
        f = Formulation(
            1, 2,
            (LinearEquality((1,), (0, 0), 1),),
            (GeneralRow(normal=(1, 1), lower=(0,), upper=(1,)),),
            ((0, 1), (0, 1)),
        )
        assert fractions(enumerate_vertices(f)) == {
            fr(1, 0, 0), fr(1, 1, 0), fr(1, 0, 1)
        }

    def test_slanted_cut_creates_fractional_vertex(self):
        f = Formulation(
            1, 2,
            (LinearEquality((1,), (0, 0), 1),),
            (GeneralRow(normal=(2, 1), lower=(0,), upper=(1,)),),
            ((0, 1), (0, 1)),
        )
        assert fractions(enumerate_vertices(f)) == {
            fr(1, 0, 0), (F(1), F(1, 2), F(0)), fr(1, 0, 1)
        }

    def test_sos2_two_pieces_exact_match(self):
        c = sos2(2)
        e = make_encoding(2, EncodingKind.GRAY)
        f = theorem1_formulation(c, e)
        assert enumerate_vertices(f).vertices == embedding_extreme_points(c, e).vertices

    def test_vertices_are_homogeneous_integer_tuples(self):
        # Without general row 2 the relaxation has vertices with
        # denominators 3, 5, 6 and 10.
        f = drop_row(annulus_zigzag_formulation(8)[0], 2)
        found = enumerate_vertices(f).vertices
        assert all(map(is_canonical, found))
        assert {x[-1] for x in found} == {1, 3, 5, 6, 10}

    def test_cap_on_base_polytope(self):
        f = theorem1_formulation(sos2(4), make_encoding(4, EncodingKind.GRAY))
        with pytest.raises(TooLargeToEnumerate):
            enumerate_vertices(f, max_vertices=3)

    def test_base_polytope_counted_before_it_is_built(self):
        # No row uses z in [0, 1]^40: 3 * 2**40 vertices, refused before any cut.
        r = 40
        f = Formulation(3, r, (LinearEquality((1,) * 3, (0,) * r, 1),), (),
                        ((0, 1),) * r)
        start = time.perf_counter()
        with pytest.raises(TooLargeToEnumerate,
                           match=fr"^the relaxation, a product over {r} z coordinates that "
                                 fr"no row uses: at least 2\*\*{r} vertices, over the cap "
                                 fr"of {DEFAULT_ENUM_CAP}$"):
            enumerate_vertices(f)
        assert time.perf_counter() - start < 1

    def test_row_order_does_not_matter(self):
        f = theorem1_formulation(sos2(4), make_encoding(4, EncodingKind.GRAY))
        rng = random.Random(3)
        base = enumerate_vertices(f).vertices
        for _ in range(4):
            rows = list(f.general_rows)
            rng.shuffle(rows)
            g = Formulation(f.n_lambda, f.r_z, f.equalities, tuple(rows), f.z_bounds)
            assert enumerate_vertices(g).vertices == base


class TestAgainstTightSubsetOracle:
    """The incremental engine and exhaustive subset search must agree."""

    def test_sos2_instances(self):
        for d in (2, 4):
            f = theorem1_formulation(sos2(d), make_encoding(d, EncodingKind.GRAY))
            assert fractions(enumerate_vertices(f)) == oracle_vertex_set(f)

    def test_window_cycle(self):
        f = theorem1_formulation(windows8(), make_encoding(4, EncodingKind.GRAY))
        assert fractions(enumerate_vertices(f)) == oracle_vertex_set(f)

    def test_after_row_deletion(self):
        f = theorem1_formulation(sos2(4), make_encoding(4, EncodingKind.GRAY))
        g = drop_row(f, 0)
        assert fractions(enumerate_vertices(g)) == oracle_vertex_set(g)

    def test_zigzag_encoding(self):
        f = theorem1_formulation(sos2(4), make_encoding(4, EncodingKind.ZIGZAG))
        assert fractions(enumerate_vertices(f)) == oracle_vertex_set(f)


class TestCheckIdeal:
    def test_sos2_counts(self):
        for d in (2, 4):
            c = sos2(d)
            e = make_encoding(d, EncodingKind.GRAY)
            report = check_ideal(c, e, theorem1_formulation(c, e))
            assert report.passed
            assert report.counts == (2 * d, 2 * d)
            assert report.missing == () and report.extra == ()

    def test_window_cycle_counts(self):
        c = windows8()
        e = make_encoding(4, EncodingKind.GRAY)
        report = check_ideal(c, e, theorem1_formulation(c, e))
        assert report.passed and report.counts == (16, 16)

    def test_row_deletion_fails_with_extras(self):
        c = sos2(4)
        e = make_encoding(4, EncodingKind.GRAY)
        f = theorem1_formulation(c, e)
        report = check_ideal(c, e, drop_row(f, 1))
        assert not report.passed
        assert report.missing == ()
        assert report.extra == (
            fr(0, 0, 0, 0, 1, 1, 1),
            fr(0, 0, 1, 0, 0, 0, 0),
            fr(0, 0, 1, 0, 0, 0, 1),
            fr(1, 0, 0, 0, 0, 1, 0),
        )

    def test_other_variable_counts_are_an_input_error(self):
        # SOS2 on 3 elements against a formulation over 4 lambdas.
        wide = theorem1_formulation(sos2(3), make_encoding(3, EncodingKind.GRAY))
        with pytest.raises(InputError, match="^formulation is over 4 lambda and 2 z "
                                             "variables, but the problem needs 3 and 1$"):
            check_ideal(sos2(2), make_encoding(2, EncodingKind.GRAY), wide)

    def test_cap_trips_before_the_embedding_is_built(self, monkeypatch):
        # The embedding points alone can exhaust memory (annulus d=16384).
        def unreachable(c, e):
            raise AssertionError("embedding built before the cap was checked")

        monkeypatch.setattr(verify, "embedding_extreme_points", unreachable)
        c, e = sos2(4), make_encoding(4, EncodingKind.GRAY)
        with pytest.raises(TooLargeToEnumerate):
            check_ideal(c, e, theorem1_formulation(c, e), max_vertices=3)

    def test_passing_certificate_converts_nothing(self, monkeypatch):
        seen = record_conversions(monkeypatch)
        f, _ = annulus_zigzag_formulation(8)
        report = check_ideal(annulus_cdc(8), make_encoding(8, EncodingKind.ZIGZAG), f)
        assert report.passed and seen == []

    def test_failing_certificate_converts_only_its_witnesses(self, monkeypatch):
        convert = verify._to_fractions
        seen = record_conversions(monkeypatch)
        f, _ = annulus_zigzag_formulation(8)
        report = check_ideal(annulus_cdc(8), make_encoding(8, EncodingKind.ZIGZAG),
                             drop_row(f, 2))
        assert report.missing == () and len(report.extra) == 104
        assert len(seen) == 104
        # Sorted by value, which is not the order of the homogeneous tuples.
        assert list(report.extra) == sorted(report.extra)
        assert [convert(x) for x in sorted(seen)] != list(report.extra)
        # The witness strings, in the order documents and stderr print them.
        text = repr([[str(x) for x in p] for p in report.extra]).encode()
        assert hashlib.sha256(text).hexdigest() == (
            "a640a76ff70ac8c6a57785cf8df59cc7544e1766d41b35f47bf376f6c101316b")

    def test_random_connected_instances_pass(self):
        rng = random.Random(11)
        done = 0
        while done < 10:
            d = rng.randint(2, 4)
            n = rng.randint(2, 6)
            alts = [set(rng.sample(range(1, n + 1), rng.randint(1, n)))
                    for _ in range(d)]
            for v in range(1, n + 1):
                if not any(v in a for a in alts):
                    alts[rng.randrange(d)].add(v)
            if len({frozenset(a) for a in alts}) < d:
                continue
            c = cdc(n, alts)
            if not is_weakly_connected(intersection_digraph(c)):
                continue
            e = make_encoding(d, EncodingKind.GRAY)
            report = check_ideal(c, e, theorem1_formulation(c, e))
            assert report.passed, (c, report.extra, report.missing)
            done += 1


class TestCertificatesDecideInIntegers:
    """Both certificates refuse a formulation entry that is not a plain int
    and name its field as a formulation document does."""

    @staticmethod
    def problem():
        c, e = sos2(2), make_encoding(2, EncodingKind.GRAY)
        return c, e, theorem1_formulation(c, e)

    @pytest.mark.parametrize("check", [check_validity_only, check_ideal])
    @pytest.mark.parametrize("row, field, shown", [
        (GeneralRow((1,), (0, 0, 0.5), (0, 1, 1)), "general_rows[0].lower", "0.5"),
        (GeneralRow(("1",), (0, 0, 0), (0, 1, 1)), "general_rows[0].normal", "'1'"),
        (GeneralRow((1,), (0, 0, 1), (0, True, 1)), "general_rows[0].upper", "True"),
    ])
    def test_general_row_entries(self, check, row, field, shown):
        c, e, f = self.problem()
        g = Formulation(3, 1, f.equalities, (row,), f.z_bounds)
        message = f"{field}: expected an integer, got {shown}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            check(c, e, g)

    @pytest.mark.parametrize("check", [check_validity_only, check_ideal])
    def test_the_first_field_at_fault_is_named(self, check):
        c, e, f = self.problem()
        g = Formulation(3.0, 1, (LinearEquality((1, 1, 1), (0,), 1.0),),
                        f.general_rows, ((0, 1.0),))
        with pytest.raises(InputError, match=r"^variables\.lambda\.count: "):
            check(c, e, g)
        g = Formulation(3, 1, (LinearEquality((1, 1, 1), (0,), 1.0),),
                        f.general_rows, ((0, 1.0),))
        with pytest.raises(InputError, match=r"^variables\.z\.bounds\[0\]: "):
            check(c, e, g)
        g = Formulation(3, 1, (LinearEquality((1, 1, 1), (0,), 1.0),),
                        f.general_rows, f.z_bounds)
        with pytest.raises(InputError, match=r"^equalities\[0\]\.rhs: "):
            check(c, e, g)

    # One equality, two general rows and two bounds: every kind of field.
    WALKED = ["variables.lambda.count", "variables.z.count", "variables.z.bounds[0]",
              "variables.z.bounds[1]", "equalities[0].lambda", "equalities[0].z",
              "equalities[0].rhs", *(f"general_rows[{i}].{key}" for i in (0, 1)
                                     for key in ("normal", "lower", "upper"))]

    @staticmethod
    def edited(f, key, i, edit):
        """f with the entries of the field integer_fields calls key.format(i)
        replaced by edit(entries), rebuilt through Formulation."""
        if i is None:
            attr = {"variables.lambda.count": "n_lambda", "variables.z.count": "r_z"}[key]
            return replace(f, **{attr: edit((getattr(f, attr),))[0]})
        group, _, attr = key.partition("[{}]")
        group = {"variables.z.bounds": "z_bounds"}.get(group, group)
        items = list(getattr(f, group))
        if group == "z_bounds":
            items[i] = edit(items[i])
        else:
            attr = {".lambda": "lam"}.get(attr, attr[1:])
            old = getattr(items[i], attr)
            new = edit((old,)) if attr == "rhs" else edit(old)
            items[i] = replace(items[i], **{attr: new[0] if attr == "rhs" else new})
        return replace(f, **{group: tuple(items)})

    def test_the_walk_names_every_field_in_document_order(self):
        f = theorem1_formulation(sos2(4), make_encoding(4, EncodingKind.GRAY))
        assert [key.format(i) for key, i, _, _ in integer_fields(f)] == self.WALKED
        assert [size for *_, size in integer_fields(f)] == [1, 1, 2, 2, 5, 2, 1, 2, 5, 5, 2, 5, 5]

    def test_construction_names_the_field_missing_an_entry(self):
        f = theorem1_formulation(sos2(4), make_encoding(4, EncodingKind.GRAY))
        # A zero goes first, so a normal stays nonzero and a lower side below
        # its upper side; the counts and the rhs are single values.
        def drop(row):
            k = row.index(0) if 0 in row else 0
            return row[:k] + row[k + 1:]
        for key, i, _, size in integer_fields(f):
            if key.endswith(("count", "rhs")):
                continue
            what = ("a [lo, hi] pair" if key.startswith("variables.z.bounds")
                    else f"{size} entries, got {size - 1}")
            message = f"{key.format(i)}: expected {what}"
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                self.edited(f, key, i, drop)

    def test_both_certificates_name_the_field_holding_a_fraction(self):
        c, e = sos2(4), make_encoding(4, EncodingKind.GRAY)
        f = theorem1_formulation(c, e)
        for key, i, entries, _ in integer_fields(f):
            g = self.edited(f, key, i, lambda row: (Fraction(row[0]),) + tuple(row[1:]))
            message = f"{key.format(i)}: expected an integer, got {Fraction(entries[0])!r}"
            for check in (check_validity_only, check_ideal):
                with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                    check(c, e, g)

    @pytest.mark.parametrize("build, message", [
        (lambda: GeneralRow((0, 0), (0,), (1,)), "a general row needs a nonzero normal"),
        (lambda: GeneralRow((1,), (0, 2), (1, 1)),
         "row lower coefficients exceed the upper ones"),
        (lambda: Formulation(1, 1, (), (), ((0,),)),
         "variables.z.bounds[0]: expected a [lo, hi] pair"),
        (lambda: Formulation(1, 1, (), (), ((0, 1, 2),)),
         "variables.z.bounds[0]: expected a [lo, hi] pair"),
    ])
    def test_python_api_faults_are_input_errors(self, build, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            build()

    # Fields of the wrong Python type end in the error Python raises for them.
    @pytest.mark.parametrize("build, error", [
        (lambda: Formulation(1, 1, (), (), (5,)), TypeError),
        (lambda: Formulation(1, 1, (), (), ((None, 1),)), TypeError),
        (lambda: Formulation(1, 1, None, (), ((0, 1),)), TypeError),
        (lambda: Formulation(1, 1, (LinearEquality(None, (0,), 1),), (), ((0, 1),)), TypeError),
        (lambda: Formulation(1, 1, (), (((1,), (0,), (1,)),), ((0, 1),)), AttributeError),
        (lambda: Formulation(1, 1, (), 7, ((0, 1),)), TypeError),
        (lambda: GeneralRow(5, (0,), (1,)), TypeError),
        (lambda: GeneralRow((1,), None, (1,)), TypeError),
        (lambda: GeneralRow((1,), (0,), (None,)), TypeError),
    ])
    def test_python_type_faults_are_python_errors(self, build, error):
        with pytest.raises(error):
            build()


class TestCheckValidityOnly:
    def test_theorem_output_is_valid(self):
        c = sos2(4)
        e = make_encoding(4, EncodingKind.GRAY)
        assert check_validity_only(c, e, theorem1_formulation(c, e))

    def test_perturbed_lower_cuts_a_point(self):
        c = sos2(2)
        e = make_encoding(2, EncodingKind.GRAY)
        f = theorem1_formulation(c, e)
        row = f.general_rows[0]
        bumped = GeneralRow(row.normal, (0, 1) + row.lower[2:], row.upper)
        g = Formulation(f.n_lambda, f.r_z, f.equalities, (bumped,), f.z_bounds)
        assert not check_validity_only(c, e, g)

    def test_equalities_only(self):
        c = sos2(2)
        e = make_encoding(2, EncodingKind.GRAY)
        f = Formulation(3, 1, (LinearEquality((1, 1, 1), (0,), 1),), (), ((0, 1),))
        assert check_validity_only(c, e, f)

    def test_violations_of_each_kind(self):
        c = sos2(4)
        e = make_encoding(4, EncodingKind.GRAY)
        f = theorem1_formulation(c, e)

        def variant(**changes):
            fields = dict(equalities=f.equalities, general_rows=f.general_rows,
                          z_bounds=f.z_bounds)
            fields.update(changes)
            return Formulation(f.n_lambda, f.r_z, **fields)

        row = f.general_rows[0]
        assert check_validity_only(c, e, variant())
        # The code (1, 1) of the third alternative leaves the box.
        assert not check_validity_only(c, e, variant(z_bounds=((0, 1), (0, 0))))
        # z_2 = 0 fails at the same code.
        eq = LinearEquality((0,) * 5, (0, 1), 0)
        assert not check_validity_only(c, e, variant(equalities=f.equalities + (eq,)))
        # Row 0 with both sides at -1 cuts the point with code (0, 0).
        low = GeneralRow(row.normal, (-1,) * 5, (-1,) * 5)
        assert not check_validity_only(c, e, variant(general_rows=(low,)))

    def test_widths_and_sizes(self):
        c = sos2(2)
        e = make_encoding(2, EncodingKind.GRAY)
        wide = Formulation(4, 2, (LinearEquality((1,) * 4, (0, 0), 1),), (),
                           ((0, 1), (0, 1)))
        with pytest.raises(InputError, match="^formulation is over 4 lambda and 2 z "
                                             "variables, but the problem needs 3 and 1$"):
            check_validity_only(c, e, wide)
        narrow = Formulation(3, 2, (LinearEquality((1,) * 3, (0, 0), 1),), (),
                             ((0, 1), (0, 1)))
        with pytest.raises(InputError, match="^disjunction has 2 alternatives but the "
                                             "encoding has 4 rows$"):
            check_validity_only(c, make_encoding(4, EncodingKind.GRAY), narrow)

    def test_against_fraction_points(self):
        # Random one-entry changes to three formulations: the integer scan
        # agrees with the rows evaluated at Fraction points.
        rng = random.Random(7)
        cases = [(sos2(d), make_encoding(d, EncodingKind(kind)))
                 for d, kind in ((4, "gray"), (6, "zigzag"))]
        cases += [(windows8(), make_encoding(4, EncodingKind.GRAY))]
        verdicts = set()
        for c, e in cases:
            f = theorem1_formulation(c, e)
            points = fractions(embedding_extreme_points(c, e))
            for _ in range(40):
                rows = [list(map(list, (r.normal, r.lower, r.upper)))
                        for r in f.general_rows]
                eqs = [[list(eq.lam), list(eq.z), eq.rhs] for eq in f.equalities]
                bounds = [list(b) for b in f.z_bounds]
                target = rng.choice(rows + eqs + [bounds])
                part = rng.choice([p for p in target if isinstance(p, list)])
                part[rng.randrange(len(part))] += rng.choice((-1, 1))
                try:
                    g = Formulation(
                        f.n_lambda, f.r_z,
                        tuple(LinearEquality(tuple(a), tuple(b), rhs) for a, b, rhs in eqs),
                        tuple(GeneralRow(*map(tuple, r)) for r in rows),
                        tuple(map(tuple, bounds)))
                except ValueError:
                    continue
                verdict = check_validity_only(c, e, g)
                assert verdict == valid_by_fraction_points(points, g)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_implied_by_check_ideal(self):
        c = windows8()
        e = make_encoding(4, EncodingKind.GRAY)
        f = theorem1_formulation(c, e)
        if check_ideal(c, e, f).passed:
            assert check_validity_only(c, e, f)


class TestAgainstFractionCutOracle:
    """The integer engine and the Fraction cut engine it replaced agree."""

    FORMULATIONS = corpus_formulations()

    @staticmethod
    def agree(f):
        found = fractions(enumerate_vertices(f))
        assert found == vertices_by_fraction_cuts(f)
        return found

    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_corpus_formulation(self, name):
        self.agree(self.FORMULATIONS[name])

    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_row_dropped_and_shuffled(self, name):
        f = self.FORMULATIONS[name]
        rng = random.Random(name)
        rows = list(f.general_rows)
        del rows[rng.randrange(len(rows))]
        rng.shuffle(rows)
        g = Formulation(f.n_lambda, f.r_z, f.equalities, tuple(rows), f.z_bounds)
        self.agree(g)

    def test_dropped_rows_leave_fractional_vertices(self):
        fractional = 0
        for name, f in self.FORMULATIONS.items():
            for k in range(f.gamma):
                found = self.agree(drop_row(f, k))
                fractional += any(x.denominator != 1 for v in found for x in v)
        assert fractional > 0

    def test_equality_rows(self):
        # An SOS2 formulation plus one equality through a random embedding
        # point, with lambda and z coefficients in {-1, 0, 1}.
        rng = random.Random(5)
        c, e = sos2(5), make_encoding(5, EncodingKind.ZIGZAG)
        f = theorem1_formulation(c, e)
        points = sorted(fractions(embedding_extreme_points(c, e)))
        for _ in range(6):
            coeffs = [rng.choice((-1, 0, 1)) for _ in range(f.n_lambda + f.r_z)]
            point = rng.choice(points)
            rhs = sum(a * x for a, x in zip(coeffs, point))
            eq = LinearEquality(tuple(coeffs[:f.n_lambda]), tuple(coeffs[f.n_lambda:]),
                                int(rhs))
            g = Formulation(f.n_lambda, f.r_z, f.equalities + (eq,), f.general_rows,
                            f.z_bounds)
            assert point in self.agree(g)

    @pytest.mark.parametrize("name", ["sos2-gray-d6", "annulus-zigzag-d8", "pwl-zigzag-d8"])
    def test_without_the_repeated_simplex_equality(self, name):
        # Every formulation repeats the simplex row the enumeration starts
        # from, one more tight row at every vertex; without it the edge
        # precheck's bound of n + r - 1 tight rows is met exactly.
        f = self.FORMULATIONS[name]
        assert f.equalities[0] == LinearEquality((1,) * f.n_lambda, (0,) * f.r_z, 1)
        for g in (f, drop_row(f, 0)):
            self.agree(Formulation(g.n_lambda, g.r_z, g.equalities[1:], g.general_rows,
                                   g.z_bounds))

    def test_a_z_bound_with_lo_equal_hi(self):
        for name in ("sos2-gray-d6", "annulus-zigzag-d4", "pwl-gray-d8"):
            f = self.FORMULATIONS[name]
            for k, (lo, hi) in enumerate(f.z_bounds):
                for fixed in {lo, hi}:
                    bounds = f.z_bounds[:k] + ((fixed, fixed),) + f.z_bounds[k + 1:]
                    g = Formulation(f.n_lambda, f.r_z, f.equalities, f.general_rows,
                                    bounds)
                    found = self.agree(g)
                    assert all(v[f.n_lambda + k] == fixed for v in found)

    def test_the_cap_trips_exactly_below_the_largest_set(self, monkeypatch):
        # The engines start from different sets, so each cap is compared with
        # the sizes the engine itself went through, recorded around dd_cut.
        f = drop_row(self.FORMULATIONS["sos3-gray-d4"], 1)
        sizes, cut = [], linalg.dd_cut

        def recording(*args):
            rays, masks = cut(*args)
            sizes.append(len(rays))
            return rays, masks

        monkeypatch.setattr(linalg, "dd_cut", recording)
        final = enumerate_vertices(f).count
        largest = max(sizes)
        expected = vertices_by_fraction_cuts(f)
        assert len(expected) == final < largest
        for cap in range(1, largest + 3):
            if cap < largest:
                with pytest.raises(TooLargeToEnumerate):
                    enumerate_vertices(f, max_vertices=cap)
            else:
                assert fractions(enumerate_vertices(f, max_vertices=cap)) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_varied_formulations(self, data):
        f = data.draw(varied_formulations())
        expected = vertices_by_fraction_cuts(f)
        assert expected and fractions(enumerate_vertices(f)) == expected
        cap = data.draw(st.integers(1, 2 * len(expected)))
        try:
            found = fractions(enumerate_vertices(f, max_vertices=cap))
        except TooLargeToEnumerate as err:
            # The free-z guard refuses only a relaxation over the budget.
            assert "no row uses" not in str(err) or len(expected) > cap
        else:
            assert found == expected


class TestFreeCoordinates:
    """z coordinates that no row uses make the relaxation a product with
    their segments, refused before any cut when that product is too large."""

    @pytest.mark.parametrize("free", range(4))
    def test_guard_trips_only_over_the_budget(self, free):
        f = theorem1_formulation(sos2(2), make_encoding(2, EncodingKind.GRAY))
        f = widen(f, f.z_bounds + ((0, 1),) * free + ((2, 2),))
        expected = vertices_by_fraction_cuts(f)
        assert len(expected) == 4 * 2**free
        for cap in range(1, len(expected) + 1):
            if cap < 2**free:
                with pytest.raises(TooLargeToEnumerate,
                                   match=fr"^the relaxation, a product over {free} z "
                                         fr"coordinates that no row uses: at least "
                                         fr"2\*\*{free} vertices, over the cap of {cap}$"):
                    enumerate_vertices(f, max_vertices=cap)
            else:
                try:
                    assert fractions(enumerate_vertices(f, max_vertices=cap)) == expected
                except TooLargeToEnumerate as err:
                    assert "no row uses" not in str(err)

    def test_guard_counts_the_integers(self, monkeypatch):
        # 2**3 vertices of 3 + 4 + 1 integers: over a cap of 63, refused
        # before any cut; the start cone's 7 rays hold 56.
        f = theorem1_formulation(sos2(2), make_encoding(2, EncodingKind.GRAY))
        f = widen(f, f.z_bounds + ((0, 1),) * 3)
        monkeypatch.setattr(linalg, "DEFAULT_ENTRY_CAP", 63)
        monkeypatch.setattr(linalg, "dd_cut", None)  # no cut may run
        with pytest.raises(TooLargeToEnumerate,
                           match=r"^the relaxation, a product over 3 z coordinates that "
                                 r"no row uses: 8 vectors of 8 integers, 64 in all"):
            enumerate_vertices(f)


class TestCapMessage:
    """TooLargeToEnumerate names the cut and the vertex count where it tripped."""

    @staticmethod
    def square(*rows):
        # lambda_1 = 1 and z in [0, 1]^2: four vertices before any row.
        return Formulation(1, 2, (LinearEquality((1,), (0, 0), 1),), rows,
                           ((0, 1), (0, 1)))

    @staticmethod
    def equal_columns():
        # The simplex over three equal columns, and the slice
        # 2 (z1 + z2 + z3) = 3 of the cube: a triangle times a hexagon.
        return Formulation(3, 3, (LinearEquality((1,) * 3, (0,) * 3, 1),
                                  LinearEquality((0,) * 3, (2,) * 3, 3)), (),
                           ((0, 1),) * 3)

    def test_upper_side_of_a_later_row(self):
        # Row 0 is redundant; the upper side of row 1, 2 z1 + 2 z2 <= 3,
        # cuts the corner (1, 1) off and leaves five vertices.
        f = self.square(GeneralRow((1, 0), (0,), (1,)), GeneralRow((2, 2), (0,), (3,)))
        assert enumerate_vertices(f, max_vertices=5).count == 5
        with pytest.raises(TooLargeToEnumerate,
                           match=r"cap of 4 intermediate rays: 5 after cut 4, "
                                 r"general row 1 \(upper side\)$"):
            enumerate_vertices(f, max_vertices=4)

    def test_lower_side(self):
        # -3 <= -2 z1 - 2 z2 cuts the same corner from the lower side: the
        # start's point z = (1, 1) gives way to one point on each of the two
        # directions, four rays in all.
        f = self.square(GeneralRow((-2, -2), (-3,), (0,)))
        with pytest.raises(TooLargeToEnumerate,
                           match=r"4 after cut 1, general row 0 \(lower side\)$"):
            enumerate_vertices(f, max_vertices=3)

    def test_equality_row(self):
        # The three columns are equal, so the run is over one of them: its
        # start cone has one point and three directions, all four on the
        # simplex row, cut 0.
        f = self.equal_columns()
        assert enumerate_vertices(f).count == 18
        with pytest.raises(TooLargeToEnumerate,
                           match=r"cap of 3 intermediate rays: 4 after cut 0, "
                                 r"equality row 0$"):
            enumerate_vertices(f, max_vertices=3)

    def test_the_pair_cap_refuses_a_cut_before_its_pair_tests(self, monkeypatch):
        # The cuts offer 0, 1, 0, 2, 3, 0 and 3 candidate pairs. Under a cap
        # of 5 the upper side of row 1 would take the run to 6, so it is
        # refused with none of its pairs tested; every pair offered before it
        # was tested once, as a comparison with ``need``.
        offered, tested, cut = [], [], linalg.dd_cut

        def counting(*args):
            *rest, need, spend = args
            tests = []

            class Need(int):
                def __gt__(self, other):
                    tests.append(other)
                    return int.__gt__(self, other)

            try:
                return cut(*rest, Need(need), lambda pairs: offered.append(pairs) or spend(pairs))
            finally:
                tested.append(len(tests))

        monkeypatch.setattr(linalg, "dd_cut", counting)
        f = self.square(GeneralRow((1, 0), (0,), (1,)), GeneralRow((2, 2), (0,), (3,)))
        assert enumerate_vertices(f).count == 5
        assert offered == tested == [0, 1, 0, 2, 3, 0, 3]
        offered.clear(), tested.clear()
        monkeypatch.setattr(linalg, "DEFAULT_PAIR_CAP", 5)
        with pytest.raises(TooLargeToEnumerate,
                           match=r"^vertex enumeration exceeded the cap of 5 candidate pairs: "
                                 r"6 at cut 4, general row 1 \(upper side\)$"):
            enumerate_vertices(f)
        assert offered == [0, 1, 0, 2, 3]
        assert tested == [0, 1, 0, 2, 0]

    def test_the_pair_cap_bounds_the_code_hull(self, monkeypatch):
        # The facets of the Gray codes for d=8, the cube, take four cuts
        # that offer 2, 2, 3 and 3 candidate pairs.
        monkeypatch.setattr(linalg, "DEFAULT_PAIR_CAP", 6)
        with pytest.raises(TooLargeToEnumerate,
                           match=r"^facet enumeration of the code hull exceeded the cap of 6 "
                                 r"candidate pairs: 7 at cut 2, code 6$"):
            make_encoding(8, EncodingKind.GRAY).facets
        monkeypatch.setattr(linalg, "DEFAULT_PAIR_CAP", 10)
        assert len(make_encoding(8, EncodingKind.GRAY).facets) == 6


class TestEntryCap:
    """The integers held across all vertices are capped, not only their count."""

    def test_after_a_cut(self, monkeypatch):
        # Three rays of four integers to start, four after the lower side of
        # row 1; the upper side leaves five.
        monkeypatch.setattr(linalg, "DEFAULT_ENTRY_CAP", 16)
        f = TestCapMessage.square(GeneralRow((1, 0), (0,), (1,)),
                                  GeneralRow((2, 2), (0,), (3,)))
        with pytest.raises(TooLargeToEnumerate,
                           match=r"^vertex enumeration after cut 4, general row 1 "
                                 r"\(upper side\): 5 vectors of 4 integers, 20 in all, "
                                 r"over the cap of 16 integers$"):
            enumerate_vertices(f)

    def test_embedding_counted_before_it_is_built(self, monkeypatch):
        # Eight points (e^w, h^j, 1) of 5 + 2 + 1 integers.
        monkeypatch.setattr(linalg, "DEFAULT_ENTRY_CAP", 63)
        with pytest.raises(TooLargeToEnumerate,
                           match=r"^the embedding: 8 vectors of 8 integers, 64 in all"):
            embedding_extreme_points(sos2(4), make_encoding(4, EncodingKind.GRAY))


def with_columns(f, columns):
    """f over the lambda columns named by ``columns``, repeats allowed."""
    def pick(row):
        return tuple(row[v] for v in columns)

    return Formulation(
        len(columns), f.r_z,
        tuple(LinearEquality(pick(eq.lam), eq.z, eq.rhs) for eq in f.equalities),
        tuple(GeneralRow(g.normal, pick(g.lower), pick(g.upper)) for g in f.general_rows),
        f.z_bounds)


@st.composite
def duplicated_formulations(draw):
    """A varied formulation with each lambda column repeated one to three
    times, the copies shuffled among the others."""
    f = draw(varied_formulations())
    sizes = draw(st.lists(st.integers(1, 3), min_size=f.n_lambda, max_size=f.n_lambda))
    columns = [v for v, size in enumerate(sizes) for _ in range(size)]
    return with_columns(f, draw(st.permutations(columns)))


def outcome(run):
    """What a run returns, or the text of the cap it trips."""
    try:
        return run()
    except TooLargeToEnumerate as err:
        return str(err)


class TestMergedColumns:
    """The run over one lambda column per class of identical columns gives
    the vertex set of the run over all of them. Its caps count the rays it
    holds, and then the vertices it lifts back to all n columns."""

    @staticmethod
    def held(f):
        """The rays the merged run holds after each cut, and the cuts' names,
        from a loop over ``dd_cut`` outside the engine."""
        sizes = []
        vertices_by_unmerged_description(verify._merged(f, verify._column_classes(f)), sizes)
        return sizes, [name for *_, name in verify._cone_and_cuts(f)[2]]

    @staticmethod
    def agree(f, by_fractions=True):
        expected = vertices_by_unmerged_description(f)
        found = enumerate_vertices(f).vertices
        assert found == expected
        if by_fractions:
            assert fractions(verify.VertexSet(found)) == vertices_by_fraction_cuts(f)
        sizes, names = TestMergedColumns.held(f)
        for cap in range(1, max(sizes + [len(expected)]) + 2):
            got = outcome(lambda: enumerate_vertices(f, max_vertices=cap).vertices)
            over = [i for i, size in enumerate(sizes) if size > cap]
            if isinstance(got, str) and "no row uses" in got:
                # The free-z guard refuses only a relaxation over the budget.
                assert len(expected) > cap
            elif over:
                i = over[0]
                assert got == (f"vertex enumeration exceeded the cap of {cap} intermediate "
                               f"rays: {sizes[i]} after cut {i}, {names[i]}"), cap
            elif len(expected) > cap:
                assert got == (f"vertex enumeration lifted to {f.n_lambda} lambda columns: "
                               f"{len(expected)} vertices, over the cap of {cap}"), cap
            else:
                assert got == expected, cap
        return found

    @settings(max_examples=60, deadline=None)
    @given(duplicated_formulations())
    def test_duplicated_columns(self, f):
        self.agree(f)

    @pytest.mark.parametrize("build", [annulus_gray_formulation, annulus_zigzag_formulation])
    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_annulus_with_a_row_dropped(self, build, d):
        # Corners with the same users make identical pairs of columns. The
        # Fraction engine takes seconds at d = 16, so it is compared at d = 4
        # and 8 here, and on every corpus formulation in
        # TestAgainstFractionCutOracle.
        f = build(d)[0]
        assert len(verify._column_classes(f)) == d < f.n_lambda
        self.agree(drop_row(f, f.gamma - 1), by_fractions=d < 16)

    def test_all_columns_equal(self):
        f = TestCapMessage.equal_columns()
        assert len(verify._column_classes(f)) == 1
        assert len(self.agree(f)) == 18

    def test_no_equalities_and_no_rows(self):
        # Every column is the empty column: the simplex times the segment
        # and the point of the box.
        f = Formulation(3, 2, (), (), ((0, 1), (2, 2)))
        assert len(verify._column_classes(f)) == 1
        assert self.agree(f) == {(*(int(u == v) for u in range(3)), z, 2, 1)
                                 for v in range(3) for z in (0, 1)}

    def test_the_integer_cap_counts_the_rays_held(self, monkeypatch):
        # Every cap just below and at each size the merged run held, and at
        # the lifted set, from the smallest that lets the start cone pass.
        f = drop_row(annulus_zigzag_formulation(8)[0], 0)
        sizes, names = self.held(f)
        width = f.n_lambda + f.r_z + 1
        held_width = len(verify._column_classes(f)) + f.r_z + 1
        expected = enumerate_vertices(f).vertices
        lifted = len(expected) * width
        caps = {size * held_width + step for size in sizes for step in (-1, 0)}
        caps = sorted(cap for cap in caps | {lifted - 1, lifted}
                      if cap >= (f.n_lambda + f.r_z) * width)
        assert len(caps) > 10 and max(sizes) * held_width < lifted
        for cap in caps:
            monkeypatch.setattr(linalg, "DEFAULT_ENTRY_CAP", cap)
            got = outcome(lambda: enumerate_vertices(f).vertices)
            over = [i for i, size in enumerate(sizes) if size * held_width > cap]
            if over:
                i = over[0]
                assert got == (f"vertex enumeration after cut {i}, {names[i]}: {sizes[i]} "
                               f"vectors of {held_width} integers, {sizes[i] * held_width} "
                               f"in all, over the cap of {cap} integers"), cap
            elif lifted > cap:
                assert got == (f"vertex enumeration lifted to {f.n_lambda} lambda columns: "
                               f"{len(expected)} vectors of {width} integers, {lifted} in "
                               f"all, over the cap of {cap} integers"), cap
            else:
                assert got == expected, cap

    def test_the_lifted_set_is_counted_before_it_is_built(self, monkeypatch):
        # One merged column: the run holds at most 6 rays, whose lifts to the
        # three columns are the 18 vertices of a triangle times a hexagon.
        f = TestCapMessage.equal_columns()
        sizes, _ = self.held(f)
        assert max(sizes) == 6 and enumerate_vertices(f).count == 18
        monkeypatch.setattr(verify, "_lifts", None)
        for cap in range(6, 18):
            with pytest.raises(TooLargeToEnumerate,
                               match=fr"^vertex enumeration lifted to 3 lambda columns: 18 "
                                     fr"vertices, over the cap of {cap}$"):
                enumerate_vertices(f, max_vertices=cap)

    def test_without_duplicates_the_run_is_unchanged(self, monkeypatch):
        # SOS columns all differ, so nothing is merged or lifted.
        f = TestAgainstFractionCutOracle.FORMULATIONS["sos3-gray-d4"]
        assert len(verify._column_classes(f)) == f.n_lambda
        monkeypatch.setattr(verify, "_lifts", None)
        assert enumerate_vertices(f).vertices == vertices_by_unmerged_description(f)
