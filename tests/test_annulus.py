"""Tests for the annulus relaxation pipelines."""

import math

import pytest

from idealform.annulus import (
    AnnulusSpec,
    annulus_cdc,
    annulus_gray_formulation,
    annulus_vertices,
    annulus_zigzag_formulation,
)
from idealform.cdc import difference_directions, intersection_digraph, theorem1_formulation
from idealform.encoding import EncodingKind, make_encoding
from idealform.errors import DegenerateSecant, InputError, NotPowerOfTwo
from idealform.verify import check_ideal


class TestAnnulusCdc:
    def test_windows_wrap_around(self):
        c = annulus_cdc(8)
        assert c.n == 16
        assert c.alternatives[0] == frozenset({15, 16, 1, 2})
        assert c.alternatives[1] == frozenset({1, 2, 3, 4})
        assert c.alternatives[7] == frozenset({13, 14, 15, 16})

    def test_small_piece_count(self):
        assert annulus_cdc(4).alternatives[0] == frozenset({7, 8, 1, 2})

    def test_rejects_non_powers(self):
        for d in (1, 3, 6, 12):
            with pytest.raises(NotPowerOfTwo):
                annulus_cdc(d)

    @pytest.mark.parametrize("d, name", [(4.0, "float"), (True, "bool")])
    def test_piece_count_must_be_an_int(self, d, name):
        with pytest.raises(InputError, match=f"^piece count must be an int, got {name}$"):
            annulus_cdc(d)


class TestAnnulusVertices:
    def test_reference_corner_coordinates(self):
        points = annulus_vertices(AnnulusSpec(2.0, 3.0, 8))
        assert len(points) == 16
        assert points[0] == pytest.approx((1.4142135623730951, 1.414213562373095), abs=1e-12)
        assert points[1] == pytest.approx((2.296100594190539, 2.2961005941905386), abs=1e-12)
        assert points[15] == pytest.approx((3.2471766008771823, 0.0), abs=1e-12)

    def test_ring_radii(self):
        spec = AnnulusSpec(1.0, 5.0, 16)
        points = annulus_vertices(spec)
        outer = 5.0 / math.cos(math.pi / 16)
        for i, (x, y) in enumerate(points):
            want = spec.inner_radius if i % 2 == 0 else outer
            assert math.hypot(x, y) == pytest.approx(want, rel=1e-12)

    def test_outer_chords_touch_the_circle(self):
        spec = AnnulusSpec(1.0, 3.0, 8)
        points = annulus_vertices(spec)
        outer_pts = [points[i] for i in range(1, 16, 2)]
        for a, b in zip(outer_pts, outer_pts[1:] + outer_pts[:1]):
            mx, my = (a[0] + b[0]) / 2, (a[1] + b[1]) / 2
            assert math.hypot(mx, my) == pytest.approx(3.0, rel=1e-12)

    def test_two_pieces_degenerate(self):
        with pytest.raises(DegenerateSecant):
            annulus_vertices(AnnulusSpec(1.0, 2.0, 2))

    def test_four_pieces_are_fine(self):
        points = annulus_vertices(AnnulusSpec(1.0, 2.0, 4))
        assert math.hypot(*points[1]) == pytest.approx(2.0 * math.sqrt(2), rel=1e-12)

    def test_zero_inner_radius_warns(self):
        with pytest.warns(RuntimeWarning):
            points = annulus_vertices(AnnulusSpec(0.0, 1.0, 8))
        assert points[0] == (0.0, 0.0)

    def test_spec_validation(self):
        with pytest.raises(InputError):
            AnnulusSpec(3.0, 2.0, 8)
        with pytest.raises(InputError):
            AnnulusSpec(-1.0, 2.0, 8)
        with pytest.raises(NotPowerOfTwo):
            AnnulusSpec(1.0, 2.0, 10)


class TestGrayFormulation:
    def test_structural_counts(self):
        for d, r in ((4, 2), (8, 3), (16, 4)):
            f, _ = annulus_gray_formulation(d)
            assert f.r_z == r and f.gamma == r
            assert f.n_lambda == 2 * d
            assert f.z_bounds == ((0, 1),) * r
            assert all(set(row.normal) <= {0, 1} for row in f.general_rows)

    def test_matches_general_pipeline(self):
        for d in (4, 8, 16):
            f, _ = annulus_gray_formulation(d)
            g = theorem1_formulation(annulus_cdc(d), make_encoding(d, EncodingKind.GRAY))
            assert f == g

    def test_ideal_at_eight_pieces(self):
        f, _ = annulus_gray_formulation(8)
        report = check_ideal(annulus_cdc(8), make_encoding(8, EncodingKind.GRAY), f)
        assert report.passed and report.counts == (32, 32)

    def test_two_pieces_still_emit(self):
        f, recovery = annulus_gray_formulation(2, AnnulusSpec(1.0, 2.0, 2))
        assert f.n_lambda == 4 and f.r_z == 1
        assert recovery.points is None
        report = check_ideal(annulus_cdc(2), make_encoding(2, EncodingKind.GRAY), f)
        assert report.passed and report.counts == (8, 8)


class TestZigzagFormulation:
    def test_structural_counts(self):
        for d, r in ((4, 2), (8, 3), (16, 4)):
            f, _ = annulus_zigzag_formulation(d)
            assert f.r_z == r and f.gamma == r * (r + 1) // 2

    def test_pair_normals_at_four_pieces(self):
        f, _ = annulus_zigzag_formulation(4)
        non_unit = [row.normal for row in f.general_rows if sum(map(abs, row.normal)) > 1]
        assert non_unit == [(1, -2)]

    def test_pair_normals_at_eight_pieces(self):
        f, _ = annulus_zigzag_formulation(8)
        non_unit = sorted(
            row.normal for row in f.general_rows if sum(map(abs, row.normal)) > 1
        )
        assert non_unit == [(0, 1, -2), (1, -2, 0), (1, 0, -4)]

    def test_matches_general_pipeline(self):
        for d in (4, 8, 16):
            f, _ = annulus_zigzag_formulation(d)
            g = theorem1_formulation(annulus_cdc(d), make_encoding(d, EncodingKind.ZIGZAG))
            assert f == g

    def test_ideal_at_eight_pieces(self):
        f, _ = annulus_zigzag_formulation(8)
        report = check_ideal(annulus_cdc(8), make_encoding(8, EncodingKind.ZIGZAG), f)
        assert report.passed and report.counts == (32, 32)


class TestLargeCrossCheck:
    def test_thirty_two_pieces_both_encodings(self):
        f, _ = annulus_gray_formulation(32)
        assert f == theorem1_formulation(annulus_cdc(32), make_encoding(32, EncodingKind.GRAY))
        f, _ = annulus_zigzag_formulation(32)
        assert f == theorem1_formulation(annulus_cdc(32), make_encoding(32, EncodingKind.ZIGZAG))

    def test_sixty_four_pieces_both_encodings(self):
        f, _ = annulus_gray_formulation(64)
        assert f == theorem1_formulation(annulus_cdc(64), make_encoding(64, EncodingKind.GRAY))
        f, _ = annulus_zigzag_formulation(64)
        assert f == theorem1_formulation(annulus_cdc(64), make_encoding(64, EncodingKind.ZIGZAG))


class TestDirectionSets:
    def test_gray_directions_are_unit_steps(self):
        for d in (4, 8, 16):
            e = make_encoding(d, EncodingKind.GRAY)
            dirs = difference_directions(intersection_digraph(annulus_cdc(d)), e)
            units = tuple(
                tuple(1 if k == j else 0 for k in range(e.r)) for j in range(e.r)
            )
            assert dirs.deduped == tuple(sorted(units))

    def test_zigzag_directions_are_units_plus_displacement(self):
        for d in (4, 8, 16):
            e = make_encoding(d, EncodingKind.ZIGZAG)
            dirs = difference_directions(intersection_digraph(annulus_cdc(d)), e)
            units = [tuple(1 if k == j else 0 for k in range(e.r)) for j in range(e.r)]
            closure = tuple(2 ** (e.r - 1 - k) for k in range(e.r))
            assert dirs.deduped == tuple(sorted(units + [closure]))


class TestRecovery:
    def test_with_geometry(self):
        spec = AnnulusSpec(2.0, 3.0, 8)
        _, recovery = annulus_gray_formulation(8, spec)
        assert recovery.kind == "annulus"
        assert len(recovery.points) == 16
        assert recovery.points == annulus_vertices(spec)

    def test_without_geometry(self):
        _, recovery = annulus_zigzag_formulation(8)
        assert recovery.points is None

    def test_mismatched_spec(self):
        with pytest.raises(InputError):
            annulus_gray_formulation(8, AnnulusSpec(1.0, 2.0, 16))
