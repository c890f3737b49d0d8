"""The acceptance gate: ten structural-count and property criteria.

Each criterion is one test, so a verbose run prints exactly one pass/fail
line per criterion. Criteria with a runtime budget measure it around the
work itself and assert the bound.
"""

import math
import random
import time
from fractions import Fraction

from idealform.annulus import (
    annulus_cdc,
    annulus_gray_formulation,
    annulus_zigzag_formulation,
)
from idealform.cdc import (
    cdc,
    check_dim_condition,
    difference_directions,
    intersection_digraph,
    spanned_hyperplane_normals,
    theorem1_formulation,
)
from idealform.cli import main
from idealform.encoding import (
    EncodingKind,
    gray_matrix,
    is_hole_free,
    is_in_convex_position,
    make_encoding,
    zigzag_matrix,
)
from idealform.formulation import Formulation
from idealform.pwl import pwl_formulation, pwl_ground_set
from idealform.verify import check_ideal

from oracles import hyperplane_normals_all_subsets, primitive_canonical
from test_cdc import random_connected_cdc
from test_encoding import C3, K3
from test_pwl import chain


def sos2(d):
    return cdc(d + 1, [[i, i + 1] for i in range(1, d + 1)])


def drop_row(f: Formulation, index: int) -> Formulation:
    rows = f.general_rows[:index] + f.general_rows[index + 1:]
    return Formulation(f.n_lambda, f.r_z, f.equalities, rows, f.z_bounds)


def report(number, message):
    print(f"criterion {number:2d} PASS: {message}")


def test_criterion_01_printed_matrices_byte_for_byte():
    gray_matrix(3), zigzag_matrix(3)  # warm the recursion before timing
    start = time.perf_counter()
    gray = gray_matrix(3)
    zigzag = zigzag_matrix(3)
    elapsed = time.perf_counter() - start
    assert gray == K3
    assert zigzag == C3
    assert elapsed < 1e-3
    report(1, f"order-3 matrices match the printed fixtures ({elapsed * 1e6:.0f} us)")


def test_criterion_02_step_invariants_exhaustive_to_order_four():
    start = time.perf_counter()
    for s in range(1, 5):
        units = {tuple(1 if i == k else 0 for i in range(s)) for k in range(s)}
        gray = gray_matrix(s)
        for a, b in zip(gray, gray[1:]):
            step = tuple(y - x for x, y in zip(a, b))
            assert step in units or tuple(-x for x in step) in units
        closure = tuple(y - x for x, y in zip(gray[0], gray[-1]))
        assert closure == (0,) * (s - 1) + (1,)

        zigzag = zigzag_matrix(s)
        for a, b in zip(zigzag, zigzag[1:]):
            assert tuple(y - x for x, y in zip(a, b)) in units
        displacement = tuple(y - x for x, y in zip(zigzag[0], zigzag[-1]))
        assert displacement == tuple(2 ** (s - 1 - k) for k in range(s))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "unit steps, reflected closure, zig-zag displacement for s <= 4 "
              f"({elapsed * 1e3:.1f} ms)")


def test_criterion_03_sos2_counts_and_ideality():
    start = time.perf_counter()
    for r in (1, 2, 3, 4):
        d = 2**r
        f = theorem1_formulation(sos2(d), make_encoding(d, EncodingKind.GRAY))
        assert f.r_z == r
        assert f.gamma == r
        verdict = check_ideal(sos2(d), make_encoding(d, EncodingKind.GRAY), f)
        assert verdict.passed
        assert verdict.counts == (2 * d, 2 * d)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, "consecutive-pair disjunctions give r integer variables, 2r rows, "
              f"(2d, 2d) vertices for r <= 4 ({elapsed:.2f} s)")


def test_criterion_04_ring_counts_under_reflected_codes():
    for d, vertices in ((8, 32), (16, 64)):
        f, _ = annulus_gray_formulation(d)
        r = math.ceil(math.log2(d))
        assert f.r_z == r
        assert f.gamma == r
        assert 2 * f.gamma == 2 * r
        verdict = check_ideal(annulus_cdc(d), make_encoding(d, EncodingKind.GRAY), f)
        assert verdict.passed
        assert verdict.counts == (vertices, vertices)
    report(4, "ring relaxation, reflected codes: (3, 6, 32) at d=8 and "
              "(4, 8, 64) at d=16")


def test_criterion_05_ring_counts_under_zigzag_codes():
    f, _ = annulus_zigzag_formulation(8)
    assert f.gamma == 6
    units = {tuple(1 if i == k else 0 for i in range(3)) for k in range(3)}
    non_unit = {row.normal for row in f.general_rows} - units
    expected = set()
    for k in range(1, 4):
        for l in range(k + 1, 4):
            v = [Fraction(0)] * 3
            v[k - 1] = Fraction(1, 2**l)
            v[l - 1] = -Fraction(1, 2**k)
            expected.add(primitive_canonical(v))
    assert non_unit == expected
    verdict = check_ideal(annulus_cdc(8), make_encoding(8, EncodingKind.ZIGZAG), f)
    assert verdict.passed
    report(5, "ring relaxation, zig-zag codes: 6 paired rows at d=8, pair normals "
              "are the primitive cross-coordinate differences")


def test_criterion_06_closed_forms_equal_the_general_pipeline():
    builders = {
        EncodingKind.GRAY: annulus_gray_formulation,
        EncodingKind.ZIGZAG: annulus_zigzag_formulation,
    }
    for d in (8, 16):
        for kind, build in builders.items():
            closed, _ = build(d)
            general = theorem1_formulation(annulus_cdc(d), make_encoding(d, kind))
            assert closed == general
    f = chain(range(9), [1, 3, -2, 5, 0, -1, 2, 4])
    for kind in (EncodingKind.GRAY, EncodingKind.ZIGZAG):
        closed, _ = pwl_formulation(f, kind)
        ground = pwl_ground_set(f)
        general = theorem1_formulation(
            cdc(ground.n, ground.alternatives), make_encoding(8, kind)
        )
        assert closed == general
    report(6, "ring and epigraph closed forms equal the general pipeline "
              "row-for-row at d in {8, 16}")


def test_criterion_07_epigraph_variable_economy_with_a_jump():
    f = chain(range(5), [1, 2, -1, 3], jumps={4: 1})
    ground = pwl_ground_set(f)
    assert len(f.jumps) == 1
    form, _ = pwl_formulation(f, EncodingKind.GRAY)
    assert form.n_lambda == f.d + 1 + len(f.jumps) == 6
    assert form.n_lambda < 2 * f.d
    verdict = check_ideal(
        cdc(ground.n, ground.alternatives), make_encoding(4, EncodingKind.GRAY), form
    )
    assert verdict.passed
    report(7, "one-jump epigraph at d=4 uses 6 lambda variables, not the "
              "duplicated-breakpoint 8, and stays ideal")


def test_criterion_08_negative_controls(tmp_path, capsys):
    c = annulus_cdc(8)
    e = make_encoding(8, EncodingKind.ZIGZAG)
    f, _ = annulus_zigzag_formulation(8)
    for index in range(len(f.general_rows)):
        verdict = check_ideal(c, e, drop_row(f, index))
        assert not verdict.passed
        assert verdict.extra
        fractional = [
            v for v in verdict.extra
            if any(x.denominator != 1 for x in v[c.n:])
        ]
        assert fractional

    problem = tmp_path / "disconnected.json"
    problem.write_text('{"kind": "cdc", "cdc": {"alternatives": [[1, 2], [3, 4]]}}')
    code = main(["formulate", str(problem)])
    capsys.readouterr()
    assert code == 2
    report(8, "every single-row deletion at d=8 zig-zag yields a fractional-z "
              "extra vertex; the disconnected instance exits 2")


def test_criterion_09_random_connected_instances_stay_ideal():
    rng = random.Random(606)
    start = time.perf_counter()
    for _ in range(200):
        c = random_connected_cdc(rng, max_n=8, max_d=6)
        e = make_encoding(c.d, EncodingKind.GRAY)
        assert is_in_convex_position(e) and is_hole_free(e)
        dirs = difference_directions(intersection_digraph(c), e)
        assert check_dim_condition(dirs, e)
        f = theorem1_formulation(c, e)
        assert check_ideal(c, e, f).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(9, "200 random connected instances pass the gates, the dimension "
              f"condition, and the ideality check ({elapsed:.1f} s)")


def test_criterion_10_hyperplane_enumeration_matches_the_oracle():
    rng = random.Random(1010)
    for _ in range(100):
        m = rng.randint(1, 3)
        count = rng.randint(1, 6)
        dirs = []
        while len(dirs) < count:
            v = tuple(rng.randint(-3, 3) for _ in range(m))
            if any(v):
                dirs.append(v)
        assert set(spanned_hyperplane_normals(dirs)) == hyperplane_normals_all_subsets(dirs)
    report(10, "100 random direction sets: subset-spanned hyperplane normals "
               "equal the all-subsets oracle")
