"""Tests for the disjunction-to-formulation pipeline."""

import random
import re
import sys
import time
from functools import cached_property
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idealform import encoding, linalg
from idealform.annulus import annulus_cdc, annulus_gray_formulation, annulus_zigzag_formulation
from idealform.cdc import (
    Cdc,
    cdc,
    check_dim_condition,
    difference_directions,
    formulation_for_normals,
    intersection_digraph,
    is_weakly_connected,
    rows_for_normals,
    spanned_hyperplane_normals,
    theorem1_formulation,
    unit_normals,
)
from idealform.cli import main
from idealform.encoding import Encoding, EncodingKind, make_encoding
from idealform.errors import (
    DimensionDeficit,
    EncodingNotIdealizable,
    InputError,
    NoDirections,
    TooFewAlternatives,
    TooManyDirections,
)
from idealform.formulation import GeneralRow, LinearEquality
from idealform.linalg import rank
from idealform.pwl import PwlFunction, pwl_formulation, pwl_ground_set
from oracles import (
    difference_directions_per_arc,
    hyperplane_normals_all_subsets,
    hyperplane_normals_by_subset_walk,
    intersection_arcs_all_pairs,
    nullspace,
    rows_by_covering_lists,
    rows_by_slots,
    rref,
)


def sos2(d):
    """Adjacent-pair alternatives over d+1 ground elements."""
    return cdc(d + 1, [(i, i + 1) for i in range(1, d + 1)])


class TestCdcValidation:
    def test_ground_cover_required(self):
        with pytest.raises(InputError):
            cdc(3, [(1,), (3,)])

    def test_empty_alternative_rejected(self):
        with pytest.raises(InputError, match="^alternative 2 is empty$"):
            cdc(2, [(1, 2), ()])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError, match=r"^alternative 2 uses out-of-range elements \[5\]$"):
            cdc(2, [(1, 2), (2, 5)])
        with pytest.raises(InputError, match=r"^alternative 1 uses out-of-range elements \[0\]$"):
            cdc(2, [(0, 1, 2), ()])

    @pytest.mark.parametrize("n, element, shown", [
        (2, 1.5, "1.5"), (2, float("nan"), "nan"), (2, "3", "'3'"),
        (3, 3.0, "3.0"), (2, True, "True"),
    ])
    def test_elements_must_be_ints(self, n, element, shown):
        # Refused by type before the range and cover checks, which would
        # misread them; bools are refused as Encoding refuses them.
        with pytest.raises(InputError,
                           match=rf"^alternative 2 has non-integer elements {re.escape(shown)}$"):
            cdc(n, [{1, 2}, {2, element}])

    def test_every_bad_element_is_named(self):
        with pytest.raises(InputError,
                           match=r"^alternative 1 has non-integer elements 'a', 1\.5$"):
            cdc(2, [{1, 2, "a", 1.5}, {2}])

    @pytest.mark.parametrize("n, alternatives, name", [
        (2.0, [[1, 2], [2]], "float"), (True, [[1], [1]], "bool"), ("2", [[1], [2]], "str"),
    ])
    def test_ground_set_size_must_be_an_int(self, n, alternatives, name):
        # A float n let a formulation fail deep in its rows; True formulated
        # with n_lambda=True.
        with pytest.raises(InputError, match=f"^ground set size must be an int, got {name}$"):
            cdc(n, alternatives)

    def test_single_alternative_rejected(self):
        with pytest.raises(TooFewAlternatives):
            cdc(2, [(1, 2)])

    def test_huge_ground_set_names_the_first_uncovered_elements(self):
        with pytest.raises(InputError, match=r"\[3, 4, 5, 6, 7, 8, 9, 10, 11, 12\] "
                                             r"and 999999999988 more"):
            cdc(10**12, [(1, 2), (2,)])


class TestIntersectionDigraph:
    def test_sos2_chain(self):
        g = intersection_digraph(sos2(4))
        assert g.arcs == ((1, 2), (2, 3), (3, 4))

    def test_window_cycle(self):
        c = cdc(8, [(7, 8, 1, 2), (1, 2, 3, 4), (3, 4, 5, 6), (5, 6, 7, 8)])
        g = intersection_digraph(c)
        assert set(g.arcs) == {(1, 2), (2, 3), (3, 4), (1, 4)}

    def test_disjoint_alternatives(self):
        g = intersection_digraph(cdc(4, [(1, 2), (3, 4)]))
        assert g.arcs == ()

    def test_connectivity(self):
        assert is_weakly_connected(intersection_digraph(sos2(4)))
        assert not is_weakly_connected(intersection_digraph(cdc(4, [(1, 2), (3, 4)])))


class TestDifferenceDirections:
    def test_sos2_with_square_codes(self):
        c = sos2(4)
        e = make_encoding(4, EncodingKind.GRAY)
        dirs = difference_directions(intersection_digraph(c), e)
        assert dirs.deduped == ((0, 1), (1, 0))

    @given(st.integers(2, 9), st.sampled_from(list(EncodingKind)), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_deduped_span_what_the_arc_differences_span(self, d, kind, rnd):
        # The dimension check ranks the deduplicated directions alone.
        c = cdc(d + 1, [rnd.sample(range(1, d + 2), rnd.randint(1, 3)) for _ in range(d)]
                + [range(1, d + 2)])
        e = make_encoding(d + 1, kind)
        g = intersection_digraph(c)
        arc_differences = [
            tuple(a - b for a, b in zip(e.rows[j - 1], e.rows[i - 1])) for i, j in g.arcs
        ]
        assert rank(difference_directions(g, e).deduped) == rank(arc_differences)

    def test_dim_condition_holds_for_sos2(self):
        c = sos2(4)
        e = make_encoding(4, EncodingKind.GRAY)
        assert check_dim_condition(difference_directions(intersection_digraph(c), e), e)

    def test_dim_condition_fails_without_arcs(self):
        c = cdc(4, [(1, 2), (3, 4)])
        e = make_encoding(2, EncodingKind.GRAY)
        assert not check_dim_condition(difference_directions(intersection_digraph(c), e), e)


@st.composite
def connected_problems(draw):
    """(cdc, encoding) with a connected digraph: each alternative after the
    first takes an element of an earlier one, and alternatives draw from a
    small ground set, so many share several elements. The codes are a
    family's or explicit."""
    d = draw(st.integers(2, 12), label="d")
    n = draw(st.integers(1, 8), label="n")
    alternatives = [set(draw(st.lists(st.integers(1, n), min_size=1, max_size=n)))
                    for _ in range(d)]
    for i in range(1, d):
        earlier = sorted(alternatives[draw(st.integers(0, i - 1))])
        alternatives[i].add(draw(st.sampled_from(earlier)))
    for v in set(range(1, n + 1)).difference(*alternatives):
        alternatives[draw(st.integers(0, d - 1))].add(v)
    c = cdc(n, alternatives)
    kind = draw(st.sampled_from([*EncodingKind, None]), label="kind")
    if kind is None:  # explicit codes
        r = draw(st.integers(1, 4), label="r")
        return c, Encoding(draw(st.lists(st.tuples(*[st.integers(-3, 3)] * r),
                                         min_size=d, max_size=d, unique=True)))
    return c, make_encoding(d, kind)


class TestDigraphAndDirectionsAgainstOracles:
    """Arcs from each element's users against every pair tested, and one
    primitive form per distinct step against one per arc."""

    @given(connected_problems())
    @settings(max_examples=300, deadline=None)
    def test_random_connected_problems(self, problem):
        c, e = problem
        g = intersection_digraph(c)
        assert g.arcs == intersection_arcs_all_pairs(c)
        assert is_weakly_connected(g)
        assert difference_directions(g, e).deduped == difference_directions_per_arc(g.arcs, e)

    @pytest.mark.parametrize("kind", [EncodingKind.GRAY, EncodingKind.ZIGZAG])
    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_sos_windows(self, width, kind):
        for d in (2, 5, 16, 33):
            c, e = sos(d, width), make_encoding(d, kind)
            g = intersection_digraph(c)
            assert g.arcs == intersection_arcs_all_pairs(c)
            assert difference_directions(g, e).deduped == difference_directions_per_arc(g.arcs, e)


class TestSpannedHyperplaneNormals:
    def test_axes(self):
        assert spanned_hyperplane_normals([(1, 0), (0, 1)]) == ((0, 1), (1, 0))

    def test_axes_plus_diagonal(self):
        got = spanned_hyperplane_normals([(1, 0), (0, 1), (2, 1)])
        assert got == ((0, 1), (1, -2), (1, 0))

    def test_line_case(self):
        assert spanned_hyperplane_normals([(1,)]) == ((1,),)

    def test_empty_rejected(self):
        with pytest.raises(NoDirections):
            spanned_hyperplane_normals([])

    @pytest.mark.parametrize("dirs, message", [
        ([(1, 0), (0, 1, 2)], "direction 1 has length 3, but direction 0 has length 2"),
        ([(1, 0, 5), (0, 1)], "direction 1 has length 2, but direction 0 has length 3"),
        ([(1, 0), (0, 1), (1,)], "direction 2 has length 1, but direction 0 has length 2"),
    ])
    def test_ragged_directions_rejected(self, dirs, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            spanned_hyperplane_normals(dirs)

    @pytest.mark.parametrize("dirs", [[(0, 0)], [(0, 0, 0), (0, 0, 0)]])
    def test_rank_zero_rejected(self, dirs):
        with pytest.raises(NoDirections):
            spanned_hyperplane_normals(dirs)

    def test_direction_cap(self, monkeypatch):
        # 25 directions of rank 2 walk C(25, 1) = 25 subsets: the cap counts
        # subsets, not directions.
        dirs = [(1, k) for k in range(25)]
        assert len(spanned_hyperplane_normals(dirs)) == 25
        monkeypatch.setattr(sys.modules["idealform.cdc"], "DEFAULT_SUBSET_CAP", 25)
        assert len(spanned_hyperplane_normals(dirs)) == 25
        monkeypatch.setattr(sys.modules["idealform.cdc"], "DEFAULT_SUBSET_CAP", 24)
        with pytest.raises(TooManyDirections, match="give 25 subsets"):
            spanned_hyperplane_normals(dirs)

    def test_too_many_subsets_fail_before_the_walk(self):
        # 21 directions of rank 12: C(21, 11) = 352716 subsets.
        units = unit_normals(12)
        dirs = units + [tuple(a + b for a, b in zip(units[k], units[k + 1]))
                        for k in range(9)]
        start = time.perf_counter()
        with pytest.raises(TooManyDirections) as info:
            spanned_hyperplane_normals(dirs)
        assert time.perf_counter() - start < 1
        assert str(info.value) == ("21 directions of rank 12 give 352716 subsets, "
                                   "over the enumeration cap of 184756")

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_all_subsets_oracle(self, data):
        # Up to 9 directions in r <= 5, drawn as integer combinations of
        # fewer generators than r in some draws (a nonempty complement) and
        # of a single one in others (m = 1).
        r = data.draw(st.integers(1, 5), label="r")
        generators = data.draw(st.lists(
            st.tuples(*[st.integers(-2, 2)] * r), min_size=1, max_size=r), label="generators")
        weights = st.tuples(*[st.integers(-2, 2)] * len(generators))
        dirs = [tuple(sum(w * g[j] for w, g in zip(ws, generators)) for j in range(r))
                for ws in data.draw(st.lists(weights, min_size=1, max_size=9), label="weights")]
        dirs = [d for d in dirs if any(d)]
        assume(dirs)
        got = set(spanned_hyperplane_normals(dirs))
        assert got == hyperplane_normals_all_subsets(dirs)

    @pytest.mark.parametrize("dirs", [
        [(2, 0, 0), (1, 0, 0), (3, 0, 0)],            # m = 1
        [(1, 1, 0), (2, 2, 0), (0, 1, 0), (1, 2, 0)],  # rank 2 in r = 3
        [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 1)],
    ])
    def test_rank_deficient_sets_match_the_oracle(self, dirs):
        got = spanned_hyperplane_normals(dirs)
        assert set(got) == hyperplane_normals_all_subsets(dirs)
        assert got == hyperplane_normals_by_subset_walk(dirs)


def sos(d, width):
    """Windows of ``width`` consecutive ground elements, one per alternative."""
    return cdc(d + width - 1, [range(i, i + width) for i in range(1, d + 1)])


class TestPencilAgainstSubsetWalk:
    """The pencil walk gives the tuple of the walk that eliminates at every
    leaf, on inputs past the reach of the all-subsets oracle."""

    @given(data=st.data())
    @settings(max_examples=250, deadline=None)
    def test_matches_the_subset_walk(self, data):
        # Up to 14 directions in r <= 7: g <= r generators, then integer
        # combinations of them, in a drawn order. g < r leaves a nonempty
        # complement, and g = 1 and g = 2 give m = 1 and m = 2 when the
        # generators are independent.
        r = data.draw(st.integers(1, 7), label="r")
        g = data.draw(st.integers(1, r), label="g")
        generators = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * r),
                                        min_size=g, max_size=g), label="generators")
        weights = st.tuples(*[st.integers(-2, 2)] * g)
        combined = [tuple(sum(w * v[j] for w, v in zip(ws, generators)) for j in range(r))
                    for ws in data.draw(st.lists(weights, max_size=14 - g), label="weights")]
        dirs = data.draw(st.permutations(generators + combined), label="directions")
        assume(rank(dirs))
        assert spanned_hyperplane_normals(dirs) == hyperplane_normals_by_subset_walk(dirs)

    @pytest.mark.parametrize("kind", [EncodingKind.GRAY, EncodingKind.ZIGZAG])
    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_sos_ladders(self, width, kind):
        # Each distinct direction set of SOS2-4 at d <= 64, compared once.
        sets = {difference_directions(intersection_digraph(sos(d, width)),
                                      make_encoding(d, kind)).deduped for d in range(2, 65)}
        for dirs in sorted(sets):
            assert spanned_hyperplane_normals(dirs) == hyperplane_normals_by_subset_walk(dirs)


class TestEachFlatOnce:
    """The walk enters each flat once, so it builds one pencil per flat."""

    def test_one_pencil_kernel_per_flat(self, monkeypatch):
        dirs = difference_directions(intersection_digraph(sos(32, 4)),
                                     make_encoding(32, EncodingKind.GRAY)).deduped
        calls = []
        module = sys.modules["idealform.cdc"]
        monkeypatch.setattr(module, "pivot_kernel",
                            lambda pivots, r: calls.append(r) or linalg.pivot_kernel(pivots, r))
        spanned_hyperplane_normals(dirs)
        # A pencil spans the complement and m - 2 independent directions,
        # with a later direction left to complete a leaf: so none is the last.
        r = len(dirs[0])
        complement = nullspace(dirs, r)
        m = r - len(complement)
        spans = (rref([*complement, *subset])[0] for subset in combinations(dirs[:-1], m - 2))
        flats = {tuple(map(tuple, rows)) for rows in spans if len(rows) == r - 2}
        assert len(calls) == len(flats) == 277


class TestTheorem1Formulation:
    def test_sos2_two_pieces(self):
        f = theorem1_formulation(sos2(2), make_encoding(2, EncodingKind.GRAY))
        assert f.equalities == (LinearEquality(lam=(1, 1, 1), z=(0,), rhs=1),)
        assert f.general_rows == (
            GeneralRow(normal=(1,), lower=(0, 0, 1), upper=(0, 1, 1)),
        )
        assert f.z_bounds == ((0, 1),)

    def test_sos2_four_pieces_frozen_rows(self):
        f = theorem1_formulation(sos2(4), make_encoding(4, EncodingKind.GRAY))
        assert f.n_lambda == 5 and f.r_z == 2
        assert f.equalities == (LinearEquality(lam=(1,) * 5, z=(0, 0), rhs=1),)
        assert f.general_rows == (
            GeneralRow(normal=(0, 1), lower=(0, 0, 0, 1, 1), upper=(0, 0, 1, 1, 1)),
            GeneralRow(normal=(1, 0), lower=(0, 0, 1, 0, 0), upper=(0, 1, 1, 1, 0)),
        )
        assert f.z_bounds == ((0, 1), (0, 1))

    def test_gamma_counts_for_gray_sos2(self):
        for r in (1, 2, 3, 4):
            d = 2**r
            f = theorem1_formulation(sos2(d), make_encoding(d, EncodingKind.GRAY))
            assert f.gamma == r

    def test_gate_failure_convex_position(self):
        c = cdc(4, [(1, 2), (2, 3), (3, 4)])
        e = Encoding([(0,), (1,), (2,)])
        with pytest.raises(EncodingNotIdealizable):
            theorem1_formulation(c, e)

    def test_gate_failure_holes(self):
        c = cdc(4, [(1, 2), (2, 3), (3, 4)])
        e = Encoding([(0, 0), (2, 0), (0, 2)])
        with pytest.raises(EncodingNotIdealizable):
            theorem1_formulation(c, e)

    def test_dimension_deficit_reports_connectivity(self):
        c = cdc(4, [(1, 2), (3, 4)])
        e = make_encoding(2, EncodingKind.GRAY)
        with pytest.raises(DimensionDeficit, match="is not weakly connected"):
            theorem1_formulation(c, e)

    def test_size_mismatch_rejected(self):
        with pytest.raises(InputError):
            theorem1_formulation(sos2(3), make_encoding(4, EncodingKind.GRAY))

    def test_gamma_invariant_under_alternative_reordering(self):
        c = sos2(4)
        e = make_encoding(4, EncodingKind.GRAY)
        base = theorem1_formulation(c, e)
        rng = random.Random(7)
        for _ in range(5):
            order = list(range(4))
            rng.shuffle(order)
            permuted = cdc(5, [sorted(c.alternatives[i]) for i in order])
            permuted_e = Encoding([e.rows[i] for i in order])
            f = theorem1_formulation(permuted, permuted_e)
            assert f.gamma == base.gamma


def random_connected_cdc(rng, max_n=8, max_d=6):
    """A random cover of [n] by d alternatives whose digraph is connected."""
    while True:
        d = rng.randint(2, max_d)
        n = rng.randint(2, max_n)
        alts = [set(rng.sample(range(1, n + 1), rng.randint(1, max(1, n // 2))))
                for _ in range(d)]
        for v in range(1, n + 1):
            if not any(v in a for a in alts):
                alts[rng.randrange(d)].add(v)
        c = cdc(n, alts)
        if is_weakly_connected(intersection_digraph(c)):
            return c


class TestConnectivityImpliesSpanning:
    def test_random_connected_instances_pass_dim_condition(self):
        rng = random.Random(20260816)
        for _ in range(50):
            c = random_connected_cdc(rng)
            e = make_encoding(c.d, EncodingKind.GRAY)
            dirs = difference_directions(intersection_digraph(c), e)
            assert check_dim_condition(dirs, e)


class TestFormulationForNormals:
    def test_rows_match_the_covering_list_oracle(self):
        rng = random.Random(20261018)
        cases = [random_connected_cdc(rng) for _ in range(40)]
        # SOS-k windows: the end elements have one user, the middle ones k.
        cases += [cdc(d + k - 1, [range(i, i + k) for i in range(1, d + 1)])
                  for d, k in ((4, 1), (5, 4), (8, 3), (16, 5))]
        cases += [annulus_cdc(d) for d in (4, 8, 16)]
        users = [[sum(v in alt for alt in c.alternatives) for v in range(1, c.n + 1)]
                 for c in cases]
        assert any(1 in u for u in users) and any(max(u) >= 5 for u in users)
        for c in cases:
            e = make_encoding(c.d, rng.choice([EncodingKind.GRAY, EncodingKind.ZIGZAG]))
            normals = [tuple(rng.randint(-3, 3) for _ in range(e.r)) for _ in range(4)]
            # Sparse normals, as the closed forms use: zero entries are skipped.
            normals += unit_normals(e.r) + [
                tuple(rng.choice([0, 0, rng.randint(-4, 4)]) for _ in range(e.r))
                for _ in range(4)]
            normals = [b for b in normals if any(b)]
            rows = rows_for_normals(c, e, normals)
            assert [(r.normal, r.lower, r.upper) for r in rows] == (
                rows_by_covering_lists(c, e, normals)
            )

    def test_theorem1_is_the_builder_over_the_enumerated_normals(self):
        c = sos2(6)
        e = make_encoding(c.d, EncodingKind.ZIGZAG)
        dirs = difference_directions(intersection_digraph(c), e)
        normals = spanned_hyperplane_normals(dirs.deduped)
        assert theorem1_formulation(c, e) == formulation_for_normals(c, e, normals)

    def test_rows_keep_the_given_normal_order(self):
        c = sos2(4)
        e = make_encoding(4, EncodingKind.GRAY)
        normals = unit_normals(e.r)
        f = formulation_for_normals(c, e, normals)
        assert [row.normal for row in f.general_rows] == [(1, 0), (0, 1)]


@st.composite
def shared_user_problems(draw):
    """(cdc, encoding, normals) whose ground elements are drawn from a few
    user sets, so elements share them; n = 1 and the whole ground set as
    every alternative are among the draws."""
    d = draw(st.integers(2, 8), label="d")
    if draw(st.booleans()):
        kinds = draw(st.lists(st.frozensets(st.integers(0, d - 1), min_size=1),
                              min_size=1, max_size=4), label="user sets")
        picks = draw(st.lists(st.integers(0, len(kinds) - 1), min_size=1, max_size=10))
        alternatives = [{v for v, k in enumerate(picks, 1) if i in kinds[k]} or {1}
                        for i in range(d)]
    else:
        alternatives = [set(range(1, draw(st.integers(1, 3), label="n") + 1))] * d
    c = cdc(max(map(max, alternatives)), alternatives)
    kind = draw(st.sampled_from([*EncodingKind, None]), label="kind")
    if kind is None:  # explicit codes
        r = draw(st.integers(1, 3), label="r")
        e = Encoding(draw(st.lists(st.tuples(*[st.integers(-5, 5)] * r),
                                   min_size=d, max_size=d, unique=True)))
    else:
        e = make_encoding(d, kind)
    normals = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * e.r).filter(any),
                            min_size=1, max_size=4), label="normals")
    return c, e, normals + unit_normals(e.r)


def assert_rows_match_the_slot_oracle(c, e, normals):
    rows = rows_for_normals(c, e, normals)
    assert rows == rows_by_slots(c, e, normals)
    for row in rows:
        assert type(row.lower) is tuple and type(row.upper) is tuple
        assert {type(x) for x in row.lower + row.upper} == {int}


class TestRowsAgainstSlotOracle:
    """The fold over distinct user sets against the per-element fold."""

    @given(shared_user_problems())
    @settings(max_examples=300, deadline=None)
    def test_random_shared_user_sets(self, problem):
        assert_rows_match_the_slot_oracle(*problem)

    @pytest.mark.parametrize("alternatives", [[{1}, {1}, {1}], [{1, 2, 3}] * 4],
                             ids=["n1", "one-user-set"])
    @pytest.mark.parametrize("kind", [EncodingKind.GRAY, EncodingKind.ZIGZAG])
    def test_a_single_user_set(self, alternatives, kind):
        c = cdc(len(alternatives[0]), alternatives)
        e = make_encoding(c.d, kind)
        assert_rows_match_the_slot_oracle(c, e, [(2, -3)[:e.r], *unit_normals(e.r)])

    @pytest.mark.parametrize("d", [4, 8, 16, 32, 64, 128, 256])
    @pytest.mark.parametrize("kind", [EncodingKind.GRAY, EncodingKind.ZIGZAG])
    def test_annulus_closed_forms(self, d, kind):
        build = {EncodingKind.GRAY: annulus_gray_formulation,
                 EncodingKind.ZIGZAG: annulus_zigzag_formulation}[kind]
        normals = [row.normal for row in build(d)[0].general_rows]
        assert_rows_match_the_slot_oracle(annulus_cdc(d), make_encoding(d, kind), normals)

    @pytest.mark.parametrize("kind", [EncodingKind.GRAY, EncodingKind.ZIGZAG])
    def test_pwl_with_jumps(self, kind):
        # Continuous over breakpoints 0..16 but for jumps of +3 at 3 and 13.
        d, slopes, intercepts = 16, [(-1) ** i * (i % 5) for i in range(16)], [0]
        for i in range(1, d):
            intercepts.append(intercepts[-1] + (slopes[i - 1] - slopes[i]) * i
                              + 3 * (i + 1 in (3, 13)))
        f = PwlFunction(range(d + 1), slopes, intercepts)
        assert f.jumps == {3, 13}
        ground = pwl_ground_set(f)
        normals = [row.normal for row in pwl_formulation(f, kind)[0].general_rows]
        assert_rows_match_the_slot_oracle(Cdc(ground.n, ground.alternatives),
                                          make_encoding(d, kind), normals)


class TestHullComputedOnce:
    """The code hull is computed once per Encoding and read by every stage."""

    @staticmethod
    def count_calls(monkeypatch, name, modules):
        """Route ``name`` in each module that holds it through one counter."""
        calls = []
        for module in modules:
            original = getattr(module, name, None)
            if original is not None:
                monkeypatch.setattr(module, name, lambda *args, original=original:
                                    calls.append(name) or original(*args))
        return calls

    @staticmethod
    def count_facet_enumerations(monkeypatch):
        """The point sets whose facets are enumerated, one entry per run."""
        enumerated, original = [], encoding.Hull.facets.func
        counted = cached_property(lambda e: enumerated.append(e.rows) or original(e))
        counted.__set_name__(encoding.Hull, "facets")
        monkeypatch.setattr(encoding.Hull, "facets", counted)
        return enumerated

    @staticmethod
    def gates_without_the_lemma(monkeypatch):
        """Family codes take the hull and the scan, as other codes do."""
        monkeypatch.setattr(encoding.Hull, "in_family", False)

    def test_one_facet_enumeration_per_formulation(self, monkeypatch, capsys):
        # The full code hull once per Encoding; the hole-freeness scan adds
        # each projection hull it needs at most once.
        self.gates_without_the_lemma(monkeypatch)
        enumerated = self.count_facet_enumerations(monkeypatch)
        cuts = self.count_calls(monkeypatch, "dd_cut", [linalg])
        e = make_encoding(8, EncodingKind.GRAY)
        theorem1_formulation(sos2(8), e)
        # Prefixes of a full Gray cube need no projection hull.
        assert enumerated == [e.rows]
        assert len(cuts) == e.d - e.r - 1 == 4
        enumerated.clear()
        assert main(["encode", "--kind", "zigzag", "--s", "3"]) == 0
        rows = make_encoding(8, EncodingKind.ZIGZAG).rows
        assert enumerated.count(rows) == 1 and len(enumerated) == len(set(enumerated))
        assert {len(points[0]) for points in enumerated} == {2, 3}

    def test_one_affine_hull_per_formulation(self, monkeypatch):
        # Counted per point set, as for the facets.
        self.gates_without_the_lemma(monkeypatch)
        hulls = []
        original = encoding.affine_hull
        monkeypatch.setattr(encoding, "affine_hull",
                            lambda points: hulls.append(points) or original(points))
        e = make_encoding(8, EncodingKind.ZIGZAG)
        theorem1_formulation(sos2(8), e)
        assert hulls.count(e.rows) == 1
        assert len(hulls) == len(set(hulls)) == 2

    @pytest.mark.parametrize("kind", [EncodingKind.GRAY, EncodingKind.ZIGZAG])
    def test_family_codes_need_no_facets(self, monkeypatch, kind):
        # Both gates hold by proof, and family codes are full-dimensional
        # by proof: no stage computes the code hull or its affine hull.
        enumerated = self.count_facet_enumerations(monkeypatch)
        hulls = []
        original = encoding.affine_hull
        monkeypatch.setattr(encoding, "affine_hull",
                            lambda points: hulls.append(points) or original(points))
        e = make_encoding(8, kind)
        theorem1_formulation(sos2(8), e)
        assert enumerated == [] and hulls == []

    @pytest.mark.parametrize("rows", [
        # Natural width, but -1 is in no family matrix.
        [(0, 0), (1, 0), (0, 1), (-1, 1)],
        # Gray rows, but four codes need only two bits.
        [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
    ])
    def test_other_codes_enumerate_their_facets_once(self, monkeypatch, rows):
        enumerated = self.count_facet_enumerations(monkeypatch)
        e = Encoding(rows)
        assert not e.in_family
        assert theorem1_formulation(sos2(4), e).gamma == 2
        assert enumerated == [e.rows]

    @pytest.mark.parametrize("rows, message", [
        ([(0, 0), (2, 0), (0, 2), (1, 1)], "a code row lies in the hull of the others"),
        ([(0, 0), (2, 0), (0, 2)], "the code hull contains a non-code lattice point"),
    ])
    def test_other_codes_still_fail_their_gate(self, monkeypatch, rows, message):
        enumerated = self.count_facet_enumerations(monkeypatch)
        e = Encoding(rows)
        with pytest.raises(EncodingNotIdealizable, match=f"^{message}$"):
            theorem1_formulation(sos2(e.d), e)
        assert enumerated[0] == e.rows

    def test_cached_values_take_no_part_in_equality(self):
        e = make_encoding(8, EncodingKind.ZIGZAG)
        assert e.facets and e.equations == ()
        fresh = Encoding(e.rows)
        assert e == fresh and hash(e) == hash(fresh)
