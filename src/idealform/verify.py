"""Exact certification that a formulation's LP relaxation is ideal.

The ground truth is small enough to write down: the relaxation should have
exactly the vertices (e^w, h^j) for every alternative j and every ground
element w it covers. This module enumerates the relaxation's vertex set
exactly and compares, so a pass is a proof for the given instance rather
than a numerical hint.

Enumeration is one integer double-description run (Fukuda and Prodon,
"Double description method revisited", 1996). It starts from the cone over
{simplex, lambda >= 0, z <= hi}, whose n + r extreme rays are known in
closed form: the points (e^v, hi) and the directions -e_k. Every other row
of the formulation is a cut, the lower bounds z >= lo last, applied by
``linalg.double_description``. Rays are homogeneous integer vectors,
numerators and then a denominator (0 for a direction, and none is left
once the lower bounds are cut), in lowest terms. That form is canonical,
so the certificate compares it with the embedding points (e^w, h^j, 1) as
it is, and only the witnesses of a failure become Fractions. A row
a . x <= b is the list (a, -b), so its dot product with a ray has the sign
of the real slack. A cut drops the rays on the wrong side, and every cut
edge from a ray i with slack s_i < 0 to a ray j with s_j > 0 contributes
the integer combination s_j x_i - s_i x_j, divided by its gcd
(integer-only pivoting, as in Avis's lrs).

Each ray carries the bitmask of the rows it is tight on; the simplex
equation holds on every ray and has none. A kept ray gains the cut's bit
when its slack is 0, and a new ray's mask is its parents' common mask plus
that bit. Keeping the ray set exact at every step makes edge detection
combinatorial: two rays span a 2-face exactly when no third ray is tight
on every row they are both tight on. The cone has dimension n + r, so a
pair with fewer than n + r - 2 common tight rows is skipped before that
scan. Nothing is ever rounded.

The run is over one lambda column per class of identical columns: columns
that agree in every equality and on both sides of every general row, as
the pairs of annulus corners with the same users do. Each vertex is then
lifted back to full lambda space, one copy per column of each class on
which it has weight. This is exact by the following lemma.
- Let K be a cone in which lambda_a >= 0 and lambda_b >= 0 are rows, and
  columns a and b agree in every other row. Merging them into
  mu = lambda_a + lambda_b maps K onto the cone K' over the same rows,
  with mu >= 0 for the pair. The extreme rays of K are exactly the lifts
  of those of K': mu placed in column a or in column b.
- An extreme ray x of K has at most one of lambda_a, lambda_b positive:
  otherwise x +- t (e_a - e_b) lie in K for a small t > 0, since no other
  row tells them apart, and x is their midpoint.
- Say lambda_b = 0 at x, and lift by putting mu into column a. If
  x = x1 + x2 in K, then x1 and x2 have lambda_b = 0 too, so each is the
  lift of its image, and the images sum to the image of x. Conversely, a
  sum in K' equal to the image of x lifts to a sum in K equal to x. So x
  is extreme in K exactly when its image is extreme in K'.
The start cone and every cut keep columns a and b identical, so the lemma
holds after every cut, and by induction for whole classes. Where no two
columns agree, the run is the run over all columns.

The working vertices and rows are lists, and every tuple here is built
from a list of its final length. Tuples grown from an iterator, and on
CPython 3.11 tuples of length 20, stay in the interpreter's tuple free
lists after they die, which raised the peak memory of a process that
certifies many instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from math import prod
from operator import mul

from .cdc import Cdc, check_sizes
from .encoding import Encoding
from .errors import TooLargeToEnumerate
from .formulation import Formulation, GeneralRow, LinearEquality
from .linalg import DEFAULT_ENUM_CAP, Vec, check_entries, double_description


@dataclass(frozen=True)
class VertexSet:
    """The extreme points of a polytope, exact and canonical: each is a
    tuple of integer numerators and then a positive denominator, in lowest
    terms."""

    vertices: frozenset[tuple[int, ...]]

    @property
    def count(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of comparing a relaxation's vertices with the embedding's.

    ``missing`` lists embedding points the polytope lost (the formulation
    cuts too deep; it is not even valid). ``extra`` lists polytope vertices
    of no embedding form; any of them with a fractional z coordinate is a
    direct witness that the formulation is not ideal.
    """

    passed: bool
    missing: tuple[Vec, ...]
    extra: tuple[Vec, ...]
    expected_count: int
    found_count: int

    @property
    def counts(self) -> tuple[int, int]:
        return (self.expected_count, self.found_count)


def embedding_extreme_points(c: Cdc, e: Encoding) -> VertexSet:
    """All points (e^w, h^j) with w covered by alternative j."""
    check_sizes(c, e)
    check_entries(sum(map(len, c.alternatives)), c.n + e.r + 1, "the embedding")
    points: set[tuple[int, ...]] = set()
    for alt, code in zip(c.alternatives, e.rows):
        tail = [*code, 1]
        for w in alt:
            lam = [0] * c.n
            lam[w - 1] = 1
            points.add(tuple(lam + tail))
    return VertexSet(frozenset(points))


def _cone_and_cuts(f: Formulation):
    """The start cone's rays and masks, and every other row as a cut.

    The cone is over {simplex, lambda >= 0, z <= hi}: the points
    (e^v, hi, 1) and the directions (0, -e_k, 0). Mask bit v is the row
    lambda_v >= 0 and bit n + k the row z_k <= hi_k; ray i is tight on all
    but bit i. The cuts (homogeneous row, bit, is equality, name) are the
    equalities, both sides of each general row, lower first, and z_k >= lo_k
    last: every formulation built here bounds z by its general rows, so
    these only remove the directions, while cut first they rebuild the box.
    """
    n, r = f.n_lambda, f.r_z
    tail = [hi for _, hi in f.z_bounds] + [1]
    rays = [[0] * v + [1] + [0] * (n - 1 - v) + tail for v in range(n)]
    rays += [[0] * (n + k) + [-1] + [0] * (r - k) for k in range(r)]
    cuts = [([*eq.lam, *eq.z, -eq.rhs], True, f"equality row {i}")
            for i, eq in enumerate(f.equalities)]
    for k, row in enumerate(f.general_rows):
        # lower . lambda - b . z <= 0
        cuts.append(([*row.lower, *(-x for x in row.normal), 0], False,
                     f"general row {k} (lower side)"))
        # b . z - upper . lambda <= 0
        cuts.append(([*(-x for x in row.upper), *row.normal, 0], False,
                     f"general row {k} (upper side)"))
    # lo - z_k <= 0: the direction -e_k with lo in place of its 0
    cuts += [([*ray[:-1], lo], False, f"z bound {k} (lower side)")
             for k, ((lo, _), ray) in enumerate(zip(f.z_bounds, rays[n:]))]
    return (rays, [(1 << (n + r)) - 1 - (1 << i) for i in range(n + r)],
            [(row, 1 << (n + r + i), eq, name) for i, (row, eq, name) in enumerate(cuts)])


def _column_classes(f: Formulation) -> list[list[int]]:
    """The lambda columns grouped by their entries in every equality and on
    both sides of every general row, each class in column order."""
    rows = [eq.lam for eq in f.equalities]
    for g in f.general_rows:
        rows += (g.lower, g.upper)
    classes: dict[tuple[int, ...], list[int]] = {}
    # With no rows at all, every column is the empty column.
    for v, column in enumerate(zip(*rows) if rows else repeat((), f.n_lambda)):
        classes.setdefault(column, []).append(v)
    return list(classes.values())


def _merged(f: Formulation, classes: list[list[int]]) -> Formulation:
    """f over one lambda column per class, its first."""
    keep = [cls[0] for cls in classes]

    def pick(row):
        return tuple([row[v] for v in keep])

    return Formulation(
        len(keep), f.r_z,
        tuple([LinearEquality(pick(eq.lam), eq.z, eq.rhs) for eq in f.equalities]),
        tuple([GeneralRow(g.normal, pick(g.lower), pick(g.upper)) for g in f.general_rows]),
        f.z_bounds)


def _lifts(rays, classes: list[list[int]], n: int):
    """Each merged ray in full lambda space, once per choice of a column in
    every class where it has weight."""
    m = len(classes)
    for ray in rays:
        tail = ray[m:]
        weighted = [(cls, mu) for cls, mu in zip(classes, ray) if mu]
        for columns in product(*[cls for cls, _ in weighted]):
            lam = [0] * n
            for v, (_, mu) in zip(columns, weighted):
                lam[v] = mu
            yield tuple(lam + tail)


def _to_fractions(x) -> Vec:
    *numerators, den = x
    if den == 1:
        return tuple([Fraction(a) for a in numerators])
    return tuple([Fraction(a, den) for a in numerators])


def enumerate_vertices(f: Formulation, *, max_vertices: int = DEFAULT_ENUM_CAP) -> VertexSet:
    """The exact vertex set of the formulation's LP relaxation.

    The relaxation keeps every row of the formulation, including the z
    bounds, but drops integrality. Raises TooLargeToEnumerate on the caps of
    ``double_description`` with ``max_vertices`` rays, on the same two caps
    for the lifted vertices before any is built, and before any cut for a
    start cone over the entry cap or for f free z coordinates (lo < hi, zero
    in every row), which make it a product with 2**f vertices or more, or none.
    """
    n, r = f.n_lambda, f.r_z
    width = n + r + 1
    check_entries(n + r, width, "the start cone")
    columns = zip([0] * r, *(eq.z for eq in f.equalities), *(g.normal for g in f.general_rows))
    free = sum(lo < hi and not any(col) for (lo, hi), col in zip(f.z_bounds, columns))
    what = f"the relaxation, a product over {free} z coordinates that no row uses"
    if 1 << free > max_vertices:
        raise TooLargeToEnumerate(
            f"{what}: at least 2**{free} vertices, over the cap of {max_vertices}")
    check_entries(1 << free, width, what)
    classes = _column_classes(f)
    merged = len(classes) < n
    rays, _ = double_description(*_cone_and_cuts(_merged(f, classes) if merged else f),
                                 len(classes) + r - 2, max_vertices, "vertex enumeration")
    if not merged:
        return VertexSet(frozenset(map(tuple, rays)))
    lifted = sum([prod([len(cls) for cls, mu in zip(classes, ray) if mu]) for ray in rays])
    what = f"vertex enumeration lifted to {n} lambda columns"
    if lifted > max_vertices:
        raise TooLargeToEnumerate(f"{what}: {lifted} vertices, over the cap of {max_vertices}")
    check_entries(lifted, width, what)
    return VertexSet(frozenset(_lifts(rays, classes, n)))


def check_validity_only(c: Cdc, e: Encoding, f: Formulation) -> bool:
    """Whether every embedding point satisfies every row of f exactly.

    This is the cheap one-directional check: it proves the relaxation
    contains the disjunction but says nothing about extra vertices. Each
    point (e^w, h^j) is checked from integers: a row's normal . h^j once
    per alternative, then its lambda coefficients at each covered w.
    """
    check_sizes(c, e, f)
    for alt, code in zip(c.alternatives, e.rows):
        if not all(lo <= h <= hi for h, (lo, hi) in zip(code, f.z_bounds)):
            return False
        for eq in f.equalities:
            value = eq.rhs - sum(map(mul, eq.z, code))
            if any(eq.lam[w - 1] != value for w in alt):
                return False
        for row in f.general_rows:
            value = sum(map(mul, row.normal, code))
            lower, upper = row.lower, row.upper
            if not all(lower[w - 1] <= value <= upper[w - 1] for w in alt):
                return False
    return True


def check_ideal(
    c: Cdc,
    e: Encoding,
    f: Formulation,
    *,
    max_vertices: int = DEFAULT_ENUM_CAP,
) -> VerificationReport:
    """Compare the relaxation's vertices with the embedding's extreme points.

    Passing certifies two things at once: the relaxation is exactly the
    convex hull of the disjunction (no vertex lost, none gained), and since
    every embedding point carries an integer code the relaxation is ideal.
    """
    check_sizes(c, e, f)
    # Enumeration first, so its cap trips before any embedding point exists.
    found = enumerate_vertices(f, max_vertices=max_vertices).vertices
    expected = embedding_extreme_points(c, e).vertices
    # Homogeneous tuples sort differently from the points they stand for.
    missing = tuple(sorted(map(_to_fractions, expected - found)))
    extra = tuple(sorted(map(_to_fractions, found - expected)))
    return VerificationReport(
        passed=not missing and not extra,
        missing=missing,
        extra=extra,
        expected_count=len(expected),
        found_count=len(found),
    )
