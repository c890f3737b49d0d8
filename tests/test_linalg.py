"""Tests for the exact linear algebra layer."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealform.linalg import affine_hull, independent_rows, kernel, primitive, rank
from oracles import (
    has_nonnegative_solution,
    hull_equations_from_all_directions,
    in_hull_caratheodory,
    independent_rows_by_minors,
    nullspace,
    point_in_convex_hull,
    primitive_canonical,
    rank_by_minors,
)

K3_ROWS = [
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 1, 1), (1, 1, 1), (1, 0, 1), (0, 0, 1),
]

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)
small_ints = st.integers(-6, 6)


def frac_matrix(max_rows=4, max_cols=4):
    return st.integers(1, max_cols).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=max_rows
        )
    )


@st.composite
def int_matrix(draw, max_rows=5, max_cols=5):
    """(rows, width): an integer matrix, possibly with no rows, most often
    of full rank."""
    n = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(small_ints, min_size=n, max_size=n),
                         max_size=max_rows))
    return rows, n


@st.composite
def deficient_matrix(draw, max_cols=5):
    """(rows, width): integer combinations of fewer rows than columns, so
    the rank is below both the width and the row count."""
    n = draw(st.integers(2, max_cols))
    base = draw(st.lists(st.lists(small_ints, min_size=n, max_size=n),
                         min_size=1, max_size=n - 1))
    weights = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(base),
                                     max_size=len(base)),
                            min_size=len(base) + 1, max_size=len(base) + 3))
    rows = [[sum(w * b[j] for w, b in zip(ws, base)) for j in range(n)]
            for ws in weights]
    return rows, n


class TestRank:
    def test_identity_like(self):
        assert rank([(1, 0), (0, 1)]) == 2

    def test_repeated_row(self):
        assert rank([(1, 2), (2, 4)]) == 1

    def test_empty(self):
        assert rank(()) == 0

    def test_k3_rows_span_everything(self):
        assert rank(K3_ROWS) == 3

    @given(frac_matrix())
    @settings(max_examples=60, deadline=None)
    def test_matches_minor_oracle(self, rows):
        assert rank(rows) == rank_by_minors(rows)

    @given(frac_matrix())
    @settings(max_examples=60, deadline=None)
    def test_transpose_invariant(self, rows):
        assert rank(rows) == rank(list(zip(*rows)))


class TestKernel:
    """The integer kernel against the Fraction RREF nullspace, scaled."""

    def test_no_rows_is_the_standard_basis(self):
        assert kernel([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_free_columns_in_order(self):
        # x1 + 2 x3 = 0 and x2 - x3 = 0 leave x3 free.
        assert kernel([(1, 0, 2), (0, 1, -1)], 3) == [(2, -1, -1)]

    def test_rational_rows(self):
        assert kernel([(Fraction(1, 2), Fraction(-1, 3))], 2) == [(2, 3)]

    @given(int_matrix())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_fraction_nullspace(self, drawn):
        rows, n = drawn
        assert kernel(rows, n) == [primitive_canonical(v) for v in nullspace(rows, n)]

    @given(deficient_matrix())
    @settings(max_examples=100, deadline=None)
    def test_rank_deficient_matches_the_fraction_nullspace(self, drawn):
        rows, n = drawn
        basis = kernel(rows, n)
        assert basis == [primitive_canonical(v) for v in nullspace(rows, n)]
        assert len(basis) == n - rank_by_minors(rows)
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_full_rank_square_has_no_kernel(self, n, data):
        # Unit upper triangular times unit lower triangular: determinant 1.
        upper = [[1 if i == j else (data.draw(small_ints) if j > i else 0)
                  for j in range(n)] for i in range(n)]
        lower = [[1 if i == j else (data.draw(small_ints) if j < i else 0)
                  for j in range(n)] for i in range(n)]
        rows = [[sum(upper[i][k] * lower[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert kernel(rows, n) == [] == nullspace(rows, n)
        assert rank(rows) == n


class TestAffineHull:
    def test_segment_in_three_space(self):
        # The hull is the line x2 = 0, x3 = 1.
        assert affine_hull([(0, 0, 1), (1, 0, 1)]) == [((0, 1, 0), 0), ((0, 0, 1), 1)]

    def test_single_point_pins_every_coordinate(self):
        assert affine_hull([(2, 3)]) == [((1, 0), 2), ((0, 1), 3)]

    def test_full_dimensional_set_has_no_equations(self):
        assert affine_hull([(0, 0), (1, 0), (0, 1)]) == []

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_every_generator_satisfies_the_equations(self, pts):
        equations = affine_hull(pts)
        for p in pts:
            assert all(sum(x * y for x, y in zip(a, p)) == b for a, b in equations)
        assert 3 - len(equations) == rank([
            [Fraction(a) - Fraction(b) for a, b in zip(p, pts[0])] for p in pts
        ])

    @given(st.one_of(
        st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=1, max_size=6),
        st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=6),
        # Points on the plane x + 2y - z = 1, so the hull has an equation.
        st.lists(st.tuples(small_ints, small_ints), min_size=1, max_size=6).map(
            lambda pts: [(x, y, x + 2 * y - 1) for x, y in pts])), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_any_order_of_the_points_gives_the_same_equations(self, pts, random):
        shuffled = list(pts)
        random.shuffle(shuffled)
        assert affine_hull(shuffled) == affine_hull(pts)


class TestPrimitive:
    @pytest.mark.parametrize(
        "raw, expected",
        [((-2, 4), (1, -2)), ((0, -3), (0, 1)), ((6,), (1,)), ((4, 6, 0), (2, 3, 0))],
    )
    def test_examples(self, raw, expected):
        assert primitive(raw) == expected

    @given(st.lists(small_ints, min_size=1, max_size=5).filter(any))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_scale_invariant_and_as_the_oracle(self, values):
        canon = primitive(values)
        assert canon == primitive_canonical(values)
        assert primitive(canon) == canon
        for s in (3, -1, -7):
            assert primitive([x * s for x in values]) == canon
        assert next(x for x in canon if x != 0) > 0
        assert gcd(*canon) == 1


class TestNonnegativeSolutions:
    """The simplex oracle the gate tests compare against."""

    def test_feasible_square(self):
        # x1 + x2 = 1, x1 - x2 = 0 has x = (1/2, 1/2)
        assert has_nonnegative_solution([(1, 1), (1, -1)], (1, 0))

    def test_infeasible_sign(self):
        # x1 + x2 = -1 cannot hold with x >= 0
        assert not has_nonnegative_solution([(1, 1)], (-1,))

    def test_membership_agrees_with_caratheodory_oracle(self):
        gens = [(0, 0), (2, 0), (0, 2), (2, 2)]
        probes = [
            (1, 1), (2, 2), (3, 1), (0, 0),
            (Fraction(1, 3), Fraction(5, 3)), (2, Fraction(5, 2)),
        ]
        for p in probes:
            assert point_in_convex_hull(p, gens) == in_hull_caratheodory(p, gens)

    @given(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=5),
        st.tuples(rationals, rationals),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_membership_agrees_with_oracle(self, gens, probe):
        assert point_in_convex_hull(probe, gens) == in_hull_caratheodory(probe, gens)


class TestSmallSolvers:
    def test_independent_rows_keeps_first_spanning_subset(self):
        assert independent_rows([(1, 1), (2, 2), (0, 1)]) == [(1, 1), (0, 1)]

    @given(frac_matrix(max_rows=6))
    @settings(max_examples=60, deadline=None)
    def test_independent_rows_match_the_minor_oracle(self, rows):
        assert independent_rows(rows) == independent_rows_by_minors(rows)

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_affine_hull_of_integer_points_matches_all_directions(self, pts):
        assert [a for a, _ in affine_hull(pts)] == hull_equations_from_all_directions(pts)


class TestIntegerEntry:
    """Rows of exact ints enter the elimination unscaled; the same rows as
    Fractions, divided by a positive integer or not, are scaled to integers
    first. Both paths give the same results."""

    @given(int_matrix(max_rows=6), st.lists(st.integers(1, 6), min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_rank_kernel_and_independent_rows(self, matrix, divisors):
        rows, n = matrix
        exact = [[Fraction(x) for x in row] for row in rows]
        divided = [[Fraction(x, q) for x in row] for row, q in zip(rows, divisors)]
        for fractions in (exact, divided):
            assert rank(rows) == rank(fractions)
            assert kernel(rows, n) == kernel(fractions, n)
        assert independent_rows(rows) == independent_rows(exact)
        # One divisor for every row, so each kept row maps back by itself.
        q = divisors[0]
        assert independent_rows(rows) == [tuple(x * q for x in row) for row in
                                          independent_rows([[Fraction(x, q) for x in row]
                                                            for row in rows])]

    @given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=1, max_size=6),
           st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_affine_hull(self, points, q):
        # Dividing every point by q divides each right-hand side by q.
        assert affine_hull(points) == affine_hull([[Fraction(x) for x in p] for p in points])
        assert affine_hull(points) == [
            (a, b * q) for a, b in affine_hull([[Fraction(x, q) for x in p] for p in points])]
