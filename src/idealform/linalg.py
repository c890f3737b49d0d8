"""Exact linear algebra and the one integer polyhedral step.

Everything downstream (gates, hyperplane enumeration, vertex enumeration)
reduces to the operations in this module, so geometric predicates are
decided exactly, without tolerances. Floating point never enters.

Everything that eliminates goes through one fraction-free Gauss-Jordan
pivot step, :func:`pivot_step`, in the integer-preserving sense of Bareiss
("Sylvester's identity and multistep integer-preserving Gaussian
elimination", 1968), except that each row is divided by the gcd of its
entries rather than by the previous pivot. The step leaves its input alone,
so the spanned-hyperplane walk branches from shared prefixes of pivots; the
batch elimination behind :func:`rank`, :func:`independent_rows`,
:func:`kernel` and :func:`affine_hull` applies it row by row, scaling
rational rows to integers on entry. Kernel vectors and hull equations are
primitive integer tuples whose first nonzero entry is positive.

:func:`dd_cut` is the double-description step (Fukuda and Prodon,
"Double description method revisited", 1996) on homogeneous integer
vectors; :func:`double_description` applies it cut by cut under the three
caps, for the vertices of a relaxation and for the facets of a `Hull`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain, compress, count, filterfalse, repeat
from math import gcd, lcm
from operator import mul, ne
from typing import Iterable, Sequence

from .errors import TooLargeToEnumerate

Vec = tuple[Fraction, ...]
Pivots = list[tuple[int, list[int]]]

# The most vertices or rays a double-description run may hold at once.
DEFAULT_ENUM_CAP = 50_000
# The most integers it may hold at once, n + 1 per vector in dimension n:
# the vector budget alone lets a wide run exhaust memory.
DEFAULT_ENTRY_CAP = 10**7
# The most candidate pairs (a ray on each side of a cut) it may test over all
# its cuts: each test may scan the rays held, which the budgets above do not bound.
DEFAULT_PAIR_CAP = 2 * 10**7


def vec(values: Iterable) -> Vec:
    """Coerce an iterable of rational-like values to a Vec."""
    # From a list, so the tuple is allocated at its final length.
    return tuple([Fraction(v) for v in values])


def _eliminate(rows: Iterable[Sequence]) -> tuple[list[int], Pivots]:
    """Fraction-free Gauss-Jordan elimination of integer or rational rows.

    Returns the indices of the first-occurrence independent rows and the
    reduced pivot rows, as :func:`pivot_step` builds them from each row in
    turn. Rational rows are scaled to integers first; rows of exact ints go
    in as they are. The scan stops once the rank reaches the row width.
    """
    kept: list[int] = []
    pivots: Pivots = []
    for i, row in enumerate(rows):
        if set(map(type, row)) != {int}:
            scale = lcm(*(x.denominator for x in row))
            row = [x.numerator * (scale // x.denominator) for x in row]
        if (extended := pivot_step(pivots, row)) is not None:
            pivots = extended
            kept.append(i)
            if len(pivots) == len(row):
                break
    return kept, pivots


def pivot_step(pivots: Pivots, row: Sequence[int]) -> Pivots | None:
    """The pivots extended by one integer row, or None when it is dependent.

    Pivots are (pivot column, primitive integer row) pairs, each with a
    positive pivot and zeros in every other pivot column. The row is reduced
    against them; if it survives, it becomes a pivot and is eliminated from
    the earlier ones. Neither argument is changed, so a caller can branch
    several extensions from one prefix.
    """
    reduced = row
    for col, pivot in pivots:
        factor = reduced[col]
        if factor:
            lead = pivot[col]
            reduced = [lead * x - factor * y for x, y in zip(reduced, pivot)]
    col = next((j for j, x in enumerate(reduced) if x), None)
    if col is None:
        return None
    g = gcd(*reduced) if reduced[col] > 0 else -gcd(*reduced)
    reduced = [x // g for x in reduced]
    lead = reduced[col]
    extended = []
    for c, pivot in pivots:
        factor = pivot[col]
        if factor:
            pivot = [lead * x - factor * y for x, y in zip(pivot, reduced)]
            g = gcd(*pivot)
            pivot = [x // g for x in pivot]
        extended.append((c, pivot))
    extended.append((col, reduced))
    return extended


def rank(rows: Iterable[Sequence]) -> int:
    """Rank of the matrix; 0 for an empty one."""
    return len(_eliminate(rows)[1])


def independent_rows(rows: Iterable[Sequence]) -> list[tuple]:
    """Greedy maximal independent subset of rows, keeping first occurrences.

    Rows are read one at a time and the scan stops at full rank, so an
    iterator is consumed no further than the last row kept.
    """
    seen: list[Sequence] = []  # every row read, so indices find the kept ones
    kept, _ = _eliminate(seen.append(row) or row for row in rows)
    return [tuple(seen[i]) for i in kept]


def kernel(rows: Iterable[Sequence], dim: int) -> list[tuple[int, ...]]:
    """Integer basis of {x in Q^dim : row . x = 0 for every row}.

    One primitive vector per free column, in increasing column order, with
    its first nonzero entry positive; with no rows this is the standard
    basis. Parallel to the free-column basis of the reduced row echelon
    form, so the basis depends only on the row space.
    """
    return pivot_kernel(_eliminate(rows)[1], dim)


def pivot_kernel(pivots: Pivots, dim: int) -> list[tuple[int, ...]]:
    """The :func:`kernel` of the rows that :func:`pivot_step` reduced to ``pivots``."""
    lead = lcm(*(pivot[col] for col, pivot in pivots))
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(dim):
        if free in pivot_cols:
            continue
        v = [0] * dim
        v[free] = lead
        for col, pivot in pivots:
            v[col] = -pivot[free] * (lead // pivot[col])
        basis.append(primitive(v))
    return basis


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """A nonzero integer vector divided by the gcd of its entries, with the
    sign that makes its first nonzero entry positive: parallel vectors,
    negations included, map to the same tuple."""
    g = gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple([x // g for x in v])


def affine_hull(points: Sequence[Sequence[int]]) -> list[tuple[tuple[int, ...], int]]:
    """Equations (a, b), meaning a . x = b, of the affine hull of ``points``.

    The normals a are the :func:`kernel` of the differences from the first
    point, so they are independent, primitive and canonical, and the hull
    has dimension len(points[0]) minus their number. A single point gets
    one equation per coordinate, an affinely full set gets none.

    The kernel depends only on the row space, so the differences may enter
    in any order. The first point off the base in each coordinate goes
    first, found by a C-level scan of each column; the rest follow. For the
    code families those r points are already independent, so the
    elimination stops at full rank after r rows of d - 1.
    """
    base = points[0]
    leads = sorted({next(compress(count(), map(ne, column, repeat(b))), 0)
                    for column, b in zip(zip(*points), base)} - {0})
    order = chain(leads, filterfalse(set(leads).__contains__, range(1, len(points))))
    dirs = ([x - b for x, b in zip(points[i], base)] for i in order)
    return [(a, sum(map(mul, a, base))) for a in kernel(dirs, len(base))]


def dd_cut(vertices, masks, row, bit, is_equality, need, spend=None):
    """Intersect the vertex set with row . x <= 0, or = 0 for an equality.

    ``row`` is homogeneous (coefficients, then minus the right-hand side),
    so its dot product with a vertex has the sign of the real slack.
    ``bit`` is the new row's mask bit and ``need`` the fewest tight rows an
    edge can have. Correctness of the edge test relies on ``vertices``
    being the complete vertex set of the polytope cut so far; the extreme
    rays of a pointed cone serve as well. ``spend``, if given, gets the
    number of candidate pairs before any is tested, and may raise.
    """
    slack = [sum(map(mul, row, x)) for x in vertices]
    kept, kept_masks = [], []
    neg, pos = [], []
    for i, s in enumerate(slack):
        if s == 0:
            kept.append(vertices[i])
            kept_masks.append(masks[i] | bit)
        elif s < 0:
            neg.append(i)
            if not is_equality:
                kept.append(vertices[i])
                kept_masks.append(masks[i])
        else:
            pos.append(i)
    if spend is not None:
        spend(len(neg) * len(pos))
    w = 0  # the last ray the edge test stopped at, tried first: it often rules out the next pair
    for i in neg:
        mask_i, s_i, x_i = masks[i], slack[i], vertices[i]
        for j in pos:
            common = mask_i & masks[j]
            if common.bit_count() < need or masks[w] & common == common and i != w != j:
                continue
            for w, mask_w in enumerate(masks):
                if mask_w & common == common and w != i and w != j:
                    break
            else:
                s_j = slack[j]
                point = [s_j * a - s_i * b for a, b in zip(x_i, vertices[j])]
                g = reduce(gcd, point)
                kept.append([p // g for p in point] if g > 1 else point)
                kept_masks.append(common | bit)
    return kept, kept_masks


def check_entries(count: int, width: int, what: str) -> None:
    """TooLargeToEnumerate when count vectors of width integers pass DEFAULT_ENTRY_CAP."""
    if count * width > DEFAULT_ENTRY_CAP:
        raise TooLargeToEnumerate(
            f"{what}: {count} vectors of {width} integers, {count * width} in all, "
            f"over the cap of {DEFAULT_ENTRY_CAP} integers")


def double_description(rays, masks, cuts, need, cap, what):
    """The rays and masks of a pointed cone, given by all its extreme rays,
    after :func:`dd_cut` applies each cut (row, bit, is_equality, name).

    TooLargeToEnumerate names the run ``what`` and the cut when the rays
    held after it pass ``cap`` or DEFAULT_ENTRY_CAP integers, and before its
    pair tests when they would take the run past DEFAULT_PAIR_CAP pairs.
    """
    spent = 0

    def spend(pairs):  # called by the cut in progress, named by index and name
        nonlocal spent
        spent += pairs
        if spent > DEFAULT_PAIR_CAP:
            raise TooLargeToEnumerate(f"{what} exceeded the cap of {DEFAULT_PAIR_CAP} "
                                      f"candidate pairs: {spent} at cut {index}, {name}")

    for index, (row, bit, is_equality, name) in enumerate(cuts):
        rays, masks = dd_cut(rays, masks, row, bit, is_equality, need, spend)
        if len(masks) > cap:
            raise TooLargeToEnumerate(f"{what} exceeded the cap of {cap} intermediate "
                                      f"rays: {len(masks)} after cut {index}, {name}")
        check_entries(len(masks), len(row), f"{what} after cut {index}, {name}")
    return rays, masks
