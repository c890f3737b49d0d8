"""Metamorphic relations of the hull path: properties of the construction
that hold at sizes no oracle reaches, so none needs an oracle.

Unimodular maps of the codes. An integer U with det +-1 and an integer t
map each code h to Uh + t. U is a linear bijection of R^r that maps Z^r
onto itself, so both gate verdicts stay the same. It maps each difference
direction D to UD, and a normal n' is orthogonal to UD exactly when U^T n'
is orthogonal to D: the spanned hyperplanes of the image correspond one to
one with the original's, so gamma stays the same. U^T keeps the gcd of a
vector, so U^T n' = s n for a primitive original normal n and s = +-1, and
n' . (Uh + t) = s (n . h) + n' . t. So each image row holds the original
row's bounds shifted by n' . t when s = 1, and its opposite bounds negated
and shifted the same way when s = -1.
"""

from operator import mul

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idealform.cdc import theorem1_formulation
from idealform.encoding import (
    Encoding,
    EncodingKind,
    gray_matrix,
    is_hole_free,
    is_in_convex_position,
    make_encoding,
    zigzag_matrix,
)
from idealform.errors import EncodingNotIdealizable
from idealform.linalg import primitive
from idealform.verify import check_ideal
from test_cdc import sos

WINDOWS = [(width, d, kind) for width in (2, 3, 4) for d in (4, 8, 16, 32)
           for kind in EncodingKind]


def dot(a, b) -> int:
    return sum(map(mul, a, b))


@st.composite
def unimodular_maps(draw, r: int):
    """(U, t): U a product of elementary integer row operations on the
    identity, each adding k times one row to another for k in +-1, +-2,
    swapping two rows or negating one, and t a shift in -3..3."""
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            k = draw(st.sampled_from([1, -1, 2, -2]))
            u[i] = [x + k * y for x, y in zip(u[i], u[j])]
        elif op == "swap":
            u[i], u[j] = u[j], u[i]
        elif op == "negate":
            u[i] = [-x for x in u[i]]
    return u, draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))


def image(rows, u, t) -> Encoding:
    """The codes Uh + t, through the Encoding constructor."""
    return Encoding(tuple(tuple(dot(row, h) + s for row, s in zip(u, t)) for h in rows))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_unimodular_image_keeps_the_verdicts_and_the_rows(data):
    width, d, kind = data.draw(st.sampled_from(WINDOWS))
    c, e = sos(d, width), make_encoding(d, kind)
    u, t = data.draw(unimodular_maps(e.r))
    mapped = image(e.rows, u, t)
    assume(not mapped.in_family)  # a Gray coordinate swap stays in the family
    assert is_in_convex_position(mapped) and is_hole_free(mapped)
    f, g = theorem1_formulation(c, e), theorem1_formulation(c, mapped)
    assert g.gamma == f.gamma and g.equalities == f.equalities
    original = {row.normal: row for row in f.general_rows}
    pulled = set()
    for row in g.general_rows:
        back = tuple(map(dot, zip(*u), [row.normal] * e.r))  # U^T n'
        n = primitive(back)
        assert back in (n, tuple(-x for x in n))
        lower, upper = original[n].lower, original[n].upper
        if back != n:
            lower, upper = [-x for x in upper], [-x for x in lower]
        shift = dot(row.normal, t)
        assert row.lower == tuple(x + shift for x in lower)
        assert row.upper == tuple(x + shift for x in upper)
        pulled.add(n)
    assert pulled == set(original)
    if d <= 8:
        assert check_ideal(c, mapped, g).passed


FAMILY_ROWS = [matrix(s) for matrix in (gray_matrix, zigzag_matrix) for s in (2, 3, 4)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_a_unimodular_image_keeps_a_hole(data):
    # Doubling one coordinate keeps convex position and opens a hole
    # between two codes that differ by 1 there.
    rows = [(2 * h[0], *h[1:]) for h in data.draw(st.sampled_from(FAMILY_ROWS))]
    e, mapped = Encoding(rows), image(rows, *data.draw(unimodular_maps(len(rows[0]))))
    for codes in (e, mapped):
        assert is_in_convex_position(codes) and not is_hole_free(codes)
        try:
            theorem1_formulation(sos(codes.d, 2), codes)
        except EncodingNotIdealizable as err:
            assert str(err) == "the code hull contains a non-code lattice point"
        else:
            raise AssertionError("a code set with a hole was formulated")


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_a_unimodular_image_keeps_a_midpoint_inside(data):
    # The doubled codes with the midpoint of the first two added.
    family = data.draw(st.sampled_from(FAMILY_ROWS))
    rows = [tuple(2 * x for x in h) for h in family] + [tuple(map(sum, zip(*family[:2])))]
    mapped = image(rows, *data.draw(unimodular_maps(len(rows[0]))))
    assert not is_in_convex_position(Encoding(rows))
    assert not is_in_convex_position(mapped)
