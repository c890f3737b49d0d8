"""Tests for the encoding families and the idealizability gates."""

import time
from enum import IntEnum
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from idealform import encoding
from idealform.annulus import annulus_cdc
from idealform.cdc import cdc, theorem1_formulation
from idealform.cli import main
from idealform.encoding import (
    Encoding,
    EncodingKind,
    Hull,
    gray_matrix,
    is_hole_free,
    is_in_convex_position,
    make_encoding,
    zigzag_matrix,
)
from idealform.errors import (
    HoleCheckTooLarge,
    InputError,
    InvalidOrder,
    ResourceCapExceeded,
    TooFewAlternatives,
    TooLargeToEnumerate,
)
from idealform.linalg import affine_hull, rank
from idealform.verify import embedding_extreme_points
from oracles import (
    convex_position_by_simplex,
    facets_from_kernel_start_cone,
    hole_free_by_box,
    hole_free_by_simplex,
    hull_equations_from_all_directions,
    in_hull_caratheodory,
    point_in_convex_hull,
)
from test_cdc import connected_problems, sos

K3 = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 1, 1), (1, 1, 1), (1, 0, 1), (0, 0, 1),
)
C3 = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0),
    (2, 1, 1), (3, 1, 1), (3, 2, 1), (4, 2, 1),
)


class TestRecursions:
    def test_order_one_base_case(self):
        assert gray_matrix(1) == ((0,), (1,))
        assert zigzag_matrix(1) == ((0,), (1,))

    def test_order_two(self):
        assert gray_matrix(2) == ((0, 0), (1, 0), (1, 1), (0, 1))
        assert zigzag_matrix(2) == ((0, 0), (1, 0), (1, 1), (2, 1))

    def test_order_three_matches_frozen_matrices(self):
        assert gray_matrix(3) == K3
        assert zigzag_matrix(3) == C3

    def test_bad_order_rejected(self):
        with pytest.raises(InvalidOrder):
            gray_matrix(0)
        with pytest.raises(InvalidOrder):
            zigzag_matrix(-1)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_reflected_steps_flip_one_bit(self, s):
        rows = gray_matrix(s)
        assert len(rows) == 2**s
        assert len(set(rows)) == 2**s
        for a, b in zip(rows, rows[1:]):
            diffs = [x - y for x, y in zip(b, a)]
            assert sorted(map(abs, diffs)) == [0] * (s - 1) + [1]
        # Cyclic closure: one single-coordinate step, in the last coordinate.
        closure = tuple(x - y for x, y in zip(rows[-1], rows[0]))
        assert closure == (0,) * (s - 1) + (1,)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_zigzag_steps_increase_one_coordinate(self, s):
        rows = zigzag_matrix(s)
        assert len(rows) == 2**s
        assert len(set(rows)) == 2**s
        for a, b in zip(rows, rows[1:]):
            diffs = [x - y for x, y in zip(b, a)]
            assert sorted(diffs) == [0] * (s - 1) + [1]
        closure = tuple(x - y for x, y in zip(rows[-1], rows[0]))
        assert closure == tuple(2**k for k in range(s - 1, -1, -1))


class TestMakeEncoding:
    def test_prefix_of_five(self):
        e = make_encoding(5, EncodingKind.GRAY)
        assert e.rows == K3[:5]
        assert (e.d, e.r) == (5, 3)

    def test_power_of_two_uses_full_matrix(self):
        e = make_encoding(8, EncodingKind.ZIGZAG)
        assert e.rows == C3

    def test_too_few_alternatives(self):
        with pytest.raises(TooFewAlternatives):
            make_encoding(1, EncodingKind.GRAY)

    @pytest.mark.parametrize("kind", ["gray", "zigzag", Encoding([(0,), (1,)]), None])
    def test_only_a_family_builds_codes(self, kind):
        # A family's name is not the family: at no input does make_encoding
        # fall through to one of them.
        with pytest.raises(InputError,
                           match="^expected EncodingKind.GRAY or EncodingKind.ZIGZAG, got "):
            make_encoding(4, kind)

    def test_the_table_owns_every_family(self):
        assert list(encoding.FAMILIES) == list(EncodingKind)
        assert [make_encoding(4, kind).rows for kind in EncodingKind] == [
            gray_matrix(2), zigzag_matrix(2)]

    def test_explicit_rows_validated(self):
        with pytest.raises(InputError):
            Encoding([(0, 0), (0, 0)])
        with pytest.raises(InputError):
            Encoding([(0, 0), (1,)])
        e = Encoding([(0, 0), (1, 1)])
        assert e.rows == ((0, 0), (1, 1))

    @pytest.mark.parametrize("entry", [0.9, "1", True])
    def test_explicit_rows_reject_non_integers(self, entry):
        # Checked as given, not truncated or coerced first.
        with pytest.raises(InputError, match="integer"):
            Encoding([(0, 0), (1, entry), (0, 1)])


class Level(IntEnum):
    LOW = 0
    HIGH = 1


class TestAcceptanceSet:
    """Exactly the plain int entries: a bool or another int subclass is refused,
    as Cdc and PwlFunction refuse them."""

    @pytest.mark.parametrize("entry", [True, False, Fraction(1), Fraction(1, 2), 1.0])
    def test_bool_fraction_and_float_entries_are_refused(self, entry):
        with pytest.raises(InputError, match="^encoding rows must be integer vectors$"):
            Encoding(((0, 0), (1, entry), (0, 1)))

    def test_an_int_subclass_is_refused(self):
        with pytest.raises(InputError, match="^encoding rows must be integer vectors$"):
            Encoding(((Level.LOW, Level.LOW), (Level.HIGH, 0), (0, Level.HIGH)))

    def test_a_ragged_row_is_refused(self):
        with pytest.raises(InputError, match="^encoding rows have unequal lengths$"):
            Encoding(((0, 0), (1, 0), (1,)))

    def test_list_rows_are_stored_as_tuples(self):
        e = Encoding(([0, 1], [1, 0]))
        assert e.rows == ((0, 1), (1, 0))
        assert e == Encoding(((0, 1), (1, 0))) and hash(e) == hash(Encoding(((0, 1), (1, 0))))
        with pytest.raises(InputError, match="^encoding rows must be pairwise distinct$"):
            Encoding(([0, 1], [0, 1]))
        with pytest.raises(InputError, match="^encoding rows must be integer vectors$"):
            Encoding(([0, 1], [1, 0.5]))

    def test_the_first_faulty_row_is_named(self):
        # Entry types are checked before widths, wherever the ragged row is.
        for rows in (((0, 0), (1, 0.5), (1,)), ((0, 0), (1,), (1, 0.5))):
            with pytest.raises(InputError, match="^encoding rows must be integer vectors$"):
                Encoding(rows)


def _convex_position_oracle(rows):
    return all(
        not in_hull_caratheodory(row, rows[:i] + rows[i + 1 :])
        for i, row in enumerate(rows)
    )


def _hole_free_oracle(rows):
    r = len(rows[0])
    lows = [min(row[k] for row in rows) for k in range(r)]
    highs = [max(row[k] for row in rows) for k in range(r)]
    box = product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
    return all(
        point in set(rows) or not in_hull_caratheodory(point, list(rows))
        for point in box
    )


@pytest.fixture(params=[True, False], ids=["by-proof", "by-hull-and-scan"])
def by_proof(request, monkeypatch):
    """Runs a test of family codes twice: as the gates run, and with the
    family test patched off, so that the hull and the scan meet the codes
    too. The value says which run this is."""
    if not request.param:
        monkeypatch.setattr(Hull, "in_family", False)
    return request.param


def count_candidates(monkeypatch):
    """Route encoding._extend through a wrapper that counts the candidates
    drawn from each level it returns, one entry per level. A level drawn
    past the hole cap fails at once, where the scan would run on."""
    drawn, original = [], encoding._extend

    def counting(*args):
        level, k = original(*args), len(drawn)
        drawn.append(0)

        def draw():
            for p in level:
                drawn[k] += 1
                assert drawn[k] <= encoding.DEFAULT_HOLE_CAP, "a level drawn past the cap"
                yield p
        return draw()

    monkeypatch.setattr(encoding, "_extend", counting)
    return drawn


class TestGates:
    def test_square_codes_are_in_convex_position(self, by_proof):
        assert is_in_convex_position(make_encoding(4, EncodingKind.GRAY))

    def test_collinear_codes_are_not(self):
        assert not is_in_convex_position(Encoding([(0,), (1,), (2,)]))

    def test_zigzag_prefix_is_hole_free(self, by_proof):
        assert is_hole_free(Encoding(C3[:6]))

    def test_dilated_triangle_has_holes(self):
        assert not is_hole_free(Encoding([(0, 0), (2, 0), (0, 2)]))

    @pytest.mark.parametrize("kind", [EncodingKind.GRAY, EncodingKind.ZIGZAG])
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_both_families_pass_both_gates(self, kind, s, by_proof):
        e = make_encoding(2**s, kind)
        assert is_in_convex_position(e)
        assert is_hole_free(e)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("kind", [EncodingKind.GRAY, EncodingKind.ZIGZAG])
    def test_gates_agree_with_oracle_on_prefixes(self, d, kind, by_proof):
        e = make_encoding(d, kind)
        assert is_in_convex_position(e) == _convex_position_oracle(list(e.rows))
        assert is_hole_free(e) == _hole_free_oracle(e.rows)

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=2, max_size=6, unique=True,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_gates_agree_with_oracle_on_random_rows(self, rows):
        e = Encoding(rows)
        assert is_in_convex_position(e) == _convex_position_oracle(rows)
        assert is_hole_free(e) == _hole_free_oracle(tuple(tuple(r) for r in rows))

    def test_sizes_past_the_order_cap_build_nothing(self):
        assert len(make_encoding(2**16, EncodingKind.ZIGZAG).rows) == 2**16
        with pytest.raises(ResourceCapExceeded, match="65537 alternatives would need"):
            make_encoding(2**16 + 1, EncodingKind.GRAY)
        with pytest.raises(ResourceCapExceeded, match="order 17 would need"):
            gray_matrix(17)
        with pytest.raises(ResourceCapExceeded, match="order 10000000000 would need"):
            zigzag_matrix(10**10)

    def test_hole_cap_is_enforced(self, monkeypatch):
        # The cap counts one level's candidates, kept prefixes times the
        # coordinate's range, not the code box: the zig-zag box at s = 8 has
        # 1,270,075,950 points, and the scan's widest level has 8,385.
        # Without the lemma, as for codes that are no family's.
        monkeypatch.setattr(Hull, "in_family", False)
        e = make_encoding(256, EncodingKind.ZIGZAG)
        monkeypatch.setattr(encoding, "DEFAULT_HOLE_CAP", 8385)
        assert is_hole_free(e)
        monkeypatch.setattr(encoding, "DEFAULT_HOLE_CAP", 8384)
        with pytest.raises(HoleCheckTooLarge, match="^the hole-freeness scan would visit "
                           "8385 points at coordinate 2, over its fixed cap of 8384$"):
            is_hole_free(e)
        # A pathological range is refused at its level, before any point exists.
        monkeypatch.undo()
        drawn = count_candidates(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(HoleCheckTooLarge, match=f"visit {10**30 + 1} points at coordinate 1,"):
            is_hole_free(Encoding([(0, 0), (10**30, 0), (0, 1)]))
        assert drawn == []
        assert time.perf_counter() - start < 10  # a hang guard; the count bounds the work


def _explicit_rows(width, top):
    """Two to eight distinct rows over 0..top. In some draws every row gets
    its coordinate sum appended, which puts the codes in a hyperplane, so
    the hull is not full-dimensional."""
    row = st.tuples(*[st.integers(0, top)] * width)
    rows = st.lists(row, min_size=2, max_size=8, unique=True)
    return st.tuples(rows, st.booleans()).map(
        lambda drawn: [r + (sum(r),) for r in drawn[0]] if drawn[1] else drawn[0])


@st.composite
def _shared_prefix_rows(draw, width, top):
    """Two to nine distinct rows of the given width over 0..top, drawn as one
    to three prefixes, each extended by one to three suffixes, so that codes
    share a prefix at some level. Lifted by the coordinate sum in some draws,
    as in _explicit_rows."""
    cut = draw(st.integers(1, width - 1))
    prefixes = draw(st.lists(st.tuples(*[st.integers(0, top)] * cut),
                             min_size=1, max_size=3, unique=True))
    suffixes = st.lists(st.tuples(*[st.integers(0, top)] * (width - cut)),
                        min_size=1, max_size=3, unique=True)
    rows = [p + q for p in prefixes for q in draw(suffixes)]
    assume(len(rows) >= 2)
    return [r + (sum(r),) for r in rows] if draw(st.booleans()) else rows


class TestHoleFreeByPrefixes:
    """The prefix-projection scan against the box scan and the simplex
    oracle it replaced."""

    @pytest.mark.parametrize("width, top", [(1, 6), (2, 3), (3, 2), (4, 1)])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_explicit_rows(self, width, top, data):
        if width == 1 or data.draw(st.booleans()):
            rows = data.draw(_explicit_rows(width, top))
        else:
            rows = data.draw(_shared_prefix_rows(width, top))
        e = Encoding(rows)
        assert is_hole_free(e) == hole_free_by_box(e) == hole_free_by_simplex(rows)

    @pytest.mark.parametrize(
        "rows, hole_free",
        [
            # Every 1-prefix is a code's; the hole (1, 1) is found at level 2.
            ([(0, 0), (0, 2), (1, 0), (1, 2), (2, 1)], False),
            # The 1-prefix 1 is no code's but lies in the projection [0, 2].
            ([(0, 0), (2, 0), (0, 2)], False),
            # Area 1/2: 2 is no code's 1-prefix, and no lattice point has x = 2.
            ([(1, 0), (3, 1), (0, 0)], True),
            # Lifted into the plane z = x + y: equations at level 3.
            ([(0, 0, 0), (2, 0, 2), (0, 2, 2)], False),
            ([(1, 0, 1), (3, 1, 4), (0, 0, 0)], True),
        ],
    )
    def test_holes_behind_shared_and_missing_prefixes(self, rows, hole_free):
        e = Encoding(rows)
        assert is_hole_free(e) is hole_free
        assert hole_free_by_box(e) is hole_free_by_simplex(rows) is hole_free

    def test_the_last_level_stops_at_its_first_hole(self, monkeypatch):
        # Level 2 has 10**6 candidates, exactly the cap; the second, (0, 1),
        # is a hole, and the scan returns there instead of building the level.
        drawn = count_candidates(monkeypatch)
        start = time.perf_counter()
        assert not is_hole_free(Encoding([(0, 0), (999, 0), (0, 999), (999, 999)]))
        assert drawn == [1000, 2]
        assert time.perf_counter() - start < 10  # a hang guard; the count bounds the work

    def test_the_projections_are_hulls_not_encodings(self, monkeypatch):
        # The prefixes are no alternative's codes, so the code checks skip them.
        monkeypatch.setattr(Hull, "in_family", False)
        e = make_encoding(8, EncodingKind.ZIGZAG)
        checked, widths = [], []
        post_init, contains = Encoding.__post_init__, Hull.contains
        monkeypatch.setattr(Encoding, "__post_init__",
                            lambda self: checked.append(self.rows) or post_init(self))
        monkeypatch.setattr(Hull, "contains",
                            lambda self, p: widths.append(self.r) or contains(self, p))
        assert is_hole_free(e)
        # The hull of the 2-prefixes, then the code hull itself.
        assert checked == [] and sorted(set(widths)) == [2, 3]

    @pytest.mark.parametrize("kind", [EncodingKind.GRAY, EncodingKind.ZIGZAG])
    def test_every_family_prefix_up_to_sixty_four_passes_both_gates(self, kind, by_proof):
        # A subset of a hole-free set in convex position is both (the lemma in
        # the encoding module docstring).
        for d in range(2, 65):
            e = make_encoding(d, kind)
            assert is_in_convex_position(e) and is_hole_free(e), d
            assert d > 32 or hole_free_by_box(e), d

    @given(st.integers(65, 256), st.sampled_from([EncodingKind.GRAY, EncodingKind.ZIGZAG]))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_family_prefixes_up_to_256_pass_both_gates(self, by_proof, d, kind):
        e = make_encoding(d, kind)
        assert is_in_convex_position(e) and is_hole_free(e)


@st.composite
def _family_subsets(draw):
    """Rows of one full family matrix of width 1 to 4, as many as need
    exactly that width, in drawn order."""
    r = draw(st.integers(1, 4))
    matrix = draw(st.sampled_from([gray_matrix, zigzag_matrix]))(r)
    d = draw(st.integers(2 ** (r - 1) + 1, 2**r))
    return draw(st.permutations(matrix))[:d]


class TestFamilyLemma:
    """Family codes at their natural width pass both gates by proof
    (the encoding module docstring); the hull and the scan agree."""

    @pytest.mark.parametrize("family", [gray_matrix, zigzag_matrix])
    def test_the_hull_and_the_scan_pass_full_matrices(self, monkeypatch, family):
        monkeypatch.setattr(Hull, "in_family", False)
        for s in range(1, 9):
            e = Encoding(family(s))
            assert is_in_convex_position(e) and is_hole_free(e), s

    @given(_family_subsets())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_subsets_agree_with_the_oracles(self, by_proof, rows):
        e = Encoding(rows)
        assert e.in_family is by_proof
        assert is_in_convex_position(e) is convex_position_by_simplex(rows) is True
        assert is_hole_free(e) is hole_free_by_box(e) is True

    @pytest.mark.parametrize("kind", [EncodingKind.GRAY, EncodingKind.ZIGZAG])
    def test_family_prefixes_have_no_hull_equations(self, kind):
        for d in range(2, 65):
            e = make_encoding(d, kind)
            assert e.equations == () and affine_hull(e.rows) == [] and e.dim == e.r, d

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_family_subsets_have_no_hull_equations(self, r, data):
        # Any rows of one full family matrix, as many as need width r.
        matrix = data.draw(st.sampled_from([gray_matrix, zigzag_matrix]))(r)
        d = data.draw(st.integers(2 ** (r - 1) + 1, 2**r))
        rows = data.draw(st.permutations(matrix))[:d]
        e = Encoding(rows)
        assert e.in_family
        assert e.equations == () and affine_hull(rows) == []

    @pytest.mark.parametrize("rows", [
        gray_matrix(3)[:4],  # two bits would do
        [(0, 0), (1, 0), (0, 1), (-1, 1)],  # in no family matrix
        [(0, 0), (1, 0), (0, 1), (2, 1)],  # Gray and zig-zag rows mixed
        # 2**16 + 1 codes need 17 bits, over the cap: no matrix is built.
        [(*row, 0) for row in zigzag_matrix(16)] + [(0,) * 16 + (1,)],
    ], ids=["wide", "negative", "mixed", "over-the-cap"])
    def test_other_codes_are_not_from_a_family(self, rows):
        assert not Encoding(rows).in_family

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_the_test_by_g_inverse_agrees_with_the_built_matrices(self, r, data):
        # Family rows with some replaced by nearby codes, at the natural width.
        full = [set(gray_matrix(r)), set(zigzag_matrix(r))]
        matrix = data.draw(st.sampled_from([gray_matrix, zigzag_matrix]))(r)
        d = data.draw(st.integers(2 ** (r - 1) + 1, 2**r))
        rows = list(data.draw(st.permutations(matrix))[:d])
        for i in data.draw(st.lists(st.integers(0, d - 1), max_size=2)):
            rows[i] = tuple(data.draw(st.lists(st.integers(-1, 2 ** (r - 1) + 1),
                                               min_size=r, max_size=r)))
        assume(len(set(rows)) == d)
        expected = any(set(rows) <= rows_of for rows_of in full)
        assert Encoding(rows).in_family is expected

    def test_no_matrix_is_built_to_decide_the_gates(self, monkeypatch, capsys):
        calls = []

        def counting(s):
            calls.append(s)
            return zigzag_matrix(s)

        monkeypatch.setattr(encoding, "zigzag_matrix", counting)
        monkeypatch.setitem(encoding.FAMILIES, EncodingKind.ZIGZAG, counting)
        # SOS2 over 20 pieces: one matrix for the codes, none for the gates.
        e = make_encoding(20, EncodingKind.ZIGZAG)
        theorem1_formulation(cdc(21, [(i, i + 1) for i in range(1, 21)]), e)
        assert calls == [5]
        assert main(["encode", "--kind", "zigzag", "--s", "16"]) == 0
        assert calls == [5, 16]
        assert capsys.readouterr().err == "convex position: yes\nhole-free: yes\n"

    def test_gates_on_other_codes_run_as_before(self):
        # Mixed rows of the two families leave the hole (1, 1).
        e = Encoding([(0, 0), (1, 0), (0, 1), (2, 1)])
        assert is_in_convex_position(e) and not is_hole_free(e)
        assert not is_in_convex_position(Encoding([(0, 0), (2, 0), (0, 2), (1, 1)]))


class TestGatesAgainstSimplex:
    """The facet gates against the phase-one simplex gates they replaced."""

    @pytest.mark.parametrize("kind", [EncodingKind.GRAY, EncodingKind.ZIGZAG])
    def test_both_families_up_to_sixteen(self, kind, by_proof):
        for d in range(2, 17):
            e = make_encoding(d, kind)
            assert is_in_convex_position(e) == convex_position_by_simplex(e.rows), d
            assert is_hole_free(e) == hole_free_by_simplex(e.rows), d

    @pytest.mark.parametrize("width, top", [(1, 6), (2, 3), (3, 2), (4, 1)])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_explicit_rows(self, width, top, data):
        rows = data.draw(_explicit_rows(width, top))
        e = Encoding(rows)
        assert is_in_convex_position(e) == convex_position_by_simplex(rows)
        assert is_hole_free(e) == hole_free_by_simplex(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            # (1, 0) inside the edge from (0, 0) to (2, 0).
            [(1, 0), (0, 0), (2, 0), (0, 1)],
            # (1, 1, 0) inside the triangle facet z = 0.
            [(1, 1, 0), (0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 1)],
            # The same facet interior, lifted into the plane w = x + y + z.
            [(1, 1, 0, 2), (0, 0, 0, 0), (3, 0, 0, 3), (0, 3, 0, 3), (0, 0, 1, 1)],
            # The midpoint of one edge of a cube, listed last.
            [*product((0, 2), repeat=3), (1, 0, 0)][::-1],
        ],
    )
    def test_codes_inside_an_edge_or_a_facet(self, rows):
        # The first row is the one inside; the others are the vertices.
        assert not is_in_convex_position(Encoding(rows))
        assert not convex_position_by_simplex(rows)
        assert is_in_convex_position(Encoding(rows[1:]))

    def test_facet_cap_is_enforced(self, monkeypatch, capsys):
        # Without the lemma, as for codes that are no family's.
        monkeypatch.setattr(Hull, "in_family", False)
        monkeypatch.setattr(encoding, "DEFAULT_ENUM_CAP", 3)
        with pytest.raises(TooLargeToEnumerate, match="code hull") as info:
            is_in_convex_position(make_encoding(8, EncodingKind.GRAY))
        assert info.value.exit_code == 4
        assert main(["encode", "--kind", "zigzag", "--s", "3"]) == 4
        assert "code hull" in capsys.readouterr().err


@st.composite
def _lifted_rows(draw):
    """Two to eight distinct integer rows of width 1 to 5. The last few
    coordinates may be integer affine functions of the others, which puts
    the codes in a flat of lower dimension."""
    width = draw(st.integers(1, 5))
    base = draw(st.integers(1, width))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * base),
                         min_size=2, max_size=8, unique=True))
    for _ in range(width - base):
        weights = draw(st.tuples(*[st.integers(-2, 2)] * base))
        shift = draw(st.integers(-2, 2))
        rows = [(*row, shift + sum(w * x for w, x in zip(weights, row))) for row in rows]
    return rows


class TestFacetsAgainstKernelStartCone:
    """The start cone from one elimination against one kernel per ray."""

    @pytest.mark.parametrize("kind", [EncodingKind.GRAY, EncodingKind.ZIGZAG])
    def test_both_families_up_to_sixty_four(self, kind):
        for d in range(2, 65):
            e = make_encoding(d, kind)
            assert e.facets == facets_from_kernel_start_cone(e), d

    @given(_lifted_rows())
    @settings(max_examples=150, deadline=None)
    def test_random_explicit_rows(self, rows):
        e = Encoding(rows)
        assert e.facets == facets_from_kernel_start_cone(e)

    @staticmethod
    def embedding_hull(c, e):
        """The hull of the embedding points (e^w, h^j), their last coordinate
        dropped, checked against the oracles. The points lie on
        sum(lambda) = 1, so the family test never holds for them."""
        v = Hull(tuple(sorted(p[:-1] for p in embedding_extreme_points(c, e).vertices)))
        simplex = (*[1] * c.n, *[0] * e.r, 1)
        equations = [(*a, b) for a, b in v.equations]
        assert not v.in_family
        assert v.equations == tuple(affine_hull(v.rows))
        assert rank(equations + [simplex]) == rank(equations) == len(equations) > 0
        assert v.facets == facets_from_kernel_start_cone(v)
        return v

    @pytest.mark.parametrize("kind", [EncodingKind.GRAY, EncodingKind.ZIGZAG])
    @pytest.mark.parametrize("width", [2, 3])
    def test_embedding_points_of_sos_windows(self, width, kind):
        for d in (2, 5, 16, 33):
            c = sos(d, width)
            v = self.embedding_hull(c, make_encoding(d, kind))
            # Family codes are full-dimensional, so sum(lambda) = 1 is all.
            assert v.equations == (((1,) * c.n + (0,) * (v.r - c.n), 1),), d

    @pytest.mark.parametrize("kind", [EncodingKind.GRAY, EncodingKind.ZIGZAG])
    def test_embedding_points_of_annuli(self, kind):
        for d in (2, 4, 8, 16):
            c = annulus_cdc(d)
            v = self.embedding_hull(c, make_encoding(d, kind))
            assert v.equations == (((1,) * c.n + (0,) * (v.r - c.n), 1),), d

    @given(connected_problems())
    @settings(max_examples=100, deadline=None)
    def test_embedding_points_of_connected_problems(self, problem):
        self.embedding_hull(*problem)


@st.composite
def _point_sets(draw):
    """Distinct integer points of width 1 to 4 with entries in -2..2, two to
    eight of the box's lattice points on a flat through a base point spanned
    by zero to width directions, or all of them when the flat holds fewer:
    single points, collinear and coplanar sets and full-dimensional ones."""
    width = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(-2, 2)] * width)
    base = draw(point)
    step = st.tuples(*[st.integers(-1, 1)] * width).filter(any)
    spans = draw(st.lists(step, min_size=draw(st.integers(0, width)), max_size=width))
    flat = {tuple(b + sum(c * g[i] for c, g in zip(cs, spans)) for i, b in enumerate(base))
            for cs in product(range(-2, 3), repeat=len(spans))}
    candidates = sorted(p for p in flat if all(-2 <= x <= 2 for x in p))
    return draw(st.permutations(candidates))[:draw(st.sampled_from(range(2, 9)))]


class TestHullOfPointSets:
    """Point sets that no Encoding holds, as the hole scan's prefix
    projections build them: the hull's equations against the nullspace of
    every difference, its membership test against one LP per lattice point
    of the box, and both gates against the simplex and the box."""

    @given(_point_sets())
    @settings(max_examples=100, deadline=None)
    def test_equations_membership_and_gates(self, pts):
        hull = Hull(tuple(pts))
        assert [a for a, _ in hull.equations] == hull_equations_from_all_directions(pts)
        inside = set()
        for p in product(*(range(min(c), max(c) + 1) for c in zip(*pts))):
            if point_in_convex_hull(p, pts):
                inside.add(p)
            assert hull.contains(p) == (p in inside), p
        assert is_in_convex_position(hull) == convex_position_by_simplex(pts)
        assert is_hole_free(hull) == hole_free_by_box(hull) == (inside == set(pts))


class TestSizesMustBeInts:
    """A size that is not a plain int is an InputError that names its type,
    never a bare AttributeError or TypeError further in."""

    @pytest.mark.parametrize("d, name", [(4.0, "float"), ("4", "str"), (True, "bool")])
    def test_make_encoding(self, d, name):
        with pytest.raises(InputError,
                           match=f"^the number of alternatives must be an int, got {name}$"):
            make_encoding(d, EncodingKind.GRAY)

    @pytest.mark.parametrize("build", [gray_matrix, zigzag_matrix])
    @pytest.mark.parametrize("s, name", [(2.0, "float"), (True, "bool")])
    def test_check_order(self, build, s, name):
        with pytest.raises(InputError, match=f"^recursion order must be an int, got {name}$"):
            build(s)
