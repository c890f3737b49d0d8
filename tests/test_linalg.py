"""Tests for the exact rational linear algebra layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealform.errors import EmptyPointSet, NotAHyperplane, ZeroVector
from idealform.linalg import (
    affine_hull,
    dot,
    independent_rows,
    mat,
    nullspace,
    orthogonal_in_subspace,
    primitive_canonical,
    rank,
    scale_row_to_integers,
    vec,
)
from oracles import (
    has_nonnegative_solution,
    hull_equations_from_all_directions,
    in_hull_caratheodory,
    independent_rows_by_minors,
    point_in_convex_hull,
    rank_by_minors,
)

K3_ROWS = [
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 1, 1), (1, 1, 1), (1, 0, 1), (0, 0, 1),
]

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)


def frac_matrix(max_rows=4, max_cols=4):
    return st.integers(1, max_cols).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=max_rows
        )
    )


class TestRank:
    def test_identity_like(self):
        assert rank(mat([(1, 0), (0, 1)])) == 2

    def test_repeated_row(self):
        assert rank(mat([(1, 2), (2, 4)])) == 1

    def test_empty(self):
        assert rank(()) == 0

    def test_k3_rows_span_everything(self):
        assert rank(mat(K3_ROWS)) == 3

    @given(frac_matrix())
    @settings(max_examples=60, deadline=None)
    def test_matches_minor_oracle(self, rows):
        assert rank(mat(rows)) == rank_by_minors(rows)

    @given(frac_matrix())
    @settings(max_examples=60, deadline=None)
    def test_transpose_invariant(self, rows):
        m = mat(rows)
        t = tuple(zip(*m))
        assert rank(m) == rank(t)


class TestAffineHull:
    def test_segment_in_three_space(self):
        hull = affine_hull(mat([(0, 0, 1), (1, 0, 1)]))
        # The hull is the line x2 = 0, x3 = 1.
        assert hull.dim == 1
        eqs = set(zip(hull.eq_lhs, hull.eq_rhs))
        assert (vec((0, 1, 0)), Fraction(0)) in eqs
        assert (vec((0, 0, 1)), Fraction(1)) in eqs

    def test_single_point_pins_every_coordinate(self):
        hull = affine_hull(mat([(2, 3)]))
        assert hull.dim == 0
        assert hull.contains(vec((2, 3)))
        assert not hull.contains(vec((2, 4)))

    def test_full_dimensional_set_has_no_equations(self):
        hull = affine_hull(mat([(0, 0), (1, 0), (0, 1)]))
        assert hull.eq_lhs == ()
        assert hull.dim == 2

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyPointSet):
            affine_hull(())

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_every_generator_satisfies_the_equations(self, pts):
        hull = affine_hull(mat(pts))
        for p in pts:
            assert hull.contains(vec(p))
        assert hull.dim == rank([
            [Fraction(a) - Fraction(b) for a, b in zip(p, pts[0])] for p in pts
        ])


class TestOrthogonalInSubspace:
    def test_plane_with_one_direction(self):
        b = orthogonal_in_subspace(mat([(1, 0), (0, 1)]), mat([(2, 1)]))
        assert primitive_canonical(b) == (1, -2)

    def test_line_with_empty_subset(self):
        b = orthogonal_in_subspace(mat([(1, 1)]), ())
        assert primitive_canonical(b) == (1, 1)

    def test_result_lies_in_span_and_is_orthogonal(self):
        space = mat([(1, 0, 1), (0, 1, 1)])
        subset = mat([(1, 1, 2)])
        b = orthogonal_in_subspace(space, subset)
        assert dot(b, subset[0]) == 0
        assert rank(list(space) + [b]) == 2  # still inside the span

    def test_wrong_rank_rejected(self):
        with pytest.raises(NotAHyperplane):
            orthogonal_in_subspace(mat([(1, 0), (0, 1)]), mat([(1, 0), (0, 1)]))

    def test_subset_outside_span_rejected(self):
        with pytest.raises(NotAHyperplane):
            orthogonal_in_subspace(mat([(1, 0, 0), (0, 1, 0)]), mat([(0, 0, 1)]))


class TestPrimitiveCanonical:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ((Fraction(1, 4), Fraction(-1, 2)), (1, -2)),
            ((-2, 4), (1, -2)),
            ((0, -3), (0, 1)),
            ((Fraction(2, 3),), (1,)),
        ],
    )
    def test_examples(self, raw, expected):
        assert primitive_canonical(vec(raw)) == expected

    def test_zero_rejected(self):
        with pytest.raises(ZeroVector):
            primitive_canonical(vec((0, 0)))

    @given(st.lists(rationals, min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_scale_invariant(self, values):
        v = vec(values)
        if all(x == 0 for x in v):
            with pytest.raises(ZeroVector):
                primitive_canonical(v)
            return
        canon = primitive_canonical(v)
        assert primitive_canonical(vec(canon)) == canon
        for s in (Fraction(3), Fraction(-1, 7), Fraction(5, 2)):
            assert primitive_canonical(vec(x * s for x in v)) == canon
        first = next(x for x in canon if x != 0)
        assert first > 0
        from math import gcd
        assert gcd(*canon) == 1


class TestScaleRow:
    def test_mixed_denominators(self):
        coeffs, rhs = scale_row_to_integers(vec((Fraction(1, 2), Fraction(1, 3))), Fraction(1, 6))
        assert coeffs == (3, 2)
        assert rhs == 1

    def test_integer_row_unchanged(self):
        coeffs, rhs = scale_row_to_integers(vec((4, -5)), Fraction(7))
        assert coeffs == (4, -5)
        assert rhs == 7


class TestNonnegativeSolutions:
    """The simplex oracle the gate tests compare against."""

    def test_feasible_square(self):
        # x1 + x2 = 1, x1 - x2 = 0 has x = (1/2, 1/2)
        assert has_nonnegative_solution(mat([(1, 1), (1, -1)]), vec((1, 0)))

    def test_infeasible_sign(self):
        # x1 + x2 = -1 cannot hold with x >= 0
        assert not has_nonnegative_solution(mat([(1, 1)]), vec((-1,)))

    def test_membership_agrees_with_caratheodory_oracle(self):
        gens = [(0, 0), (2, 0), (0, 2), (2, 2)]
        probes = [
            (1, 1), (2, 2), (3, 1), (0, 0),
            (Fraction(1, 3), Fraction(5, 3)), (2, Fraction(5, 2)),
        ]
        for p in probes:
            assert point_in_convex_hull(vec(p), mat(gens)) == in_hull_caratheodory(p, gens)

    @given(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=5),
        st.tuples(rationals, rationals),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_membership_agrees_with_oracle(self, gens, probe):
        assert point_in_convex_hull(vec(probe), mat(gens)) == in_hull_caratheodory(probe, gens)


class TestSmallSolvers:
    def test_nullspace_of_empty_is_standard_basis(self):
        assert nullspace((), 2) == [vec((1, 0)), vec((0, 1))]

    def test_independent_rows_keeps_first_spanning_subset(self):
        rows = mat([(1, 1), (2, 2), (0, 1)])
        assert independent_rows(rows) == [vec((1, 1)), vec((0, 1))]

    def test_independent_rows_stops_at_full_rank(self):
        def rows():
            yield (1, 0)
            yield (0, 1)
            raise AssertionError("read a row past full rank")

        assert independent_rows(rows()) == [vec((1, 0)), vec((0, 1))]

    @given(frac_matrix(max_rows=6))
    @settings(max_examples=60, deadline=None)
    def test_independent_rows_match_the_minor_oracle(self, rows):
        assert independent_rows(rows) == independent_rows_by_minors(rows)

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_affine_hull_of_integer_points_matches_all_directions(self, pts):
        hull = affine_hull(pts)
        assert [tuple(int(x) for x in row) for row in hull.eq_lhs] == (
            hull_equations_from_all_directions(pts)
        )
