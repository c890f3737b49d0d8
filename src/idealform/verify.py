"""Exact certification that a formulation's LP relaxation is ideal.

The ground truth is small enough to write down: the relaxation should have
exactly the vertices (e^w, h^j) for every alternative j and every ground
element w it covers. This module enumerates the relaxation's vertex set
exactly and compares, so a pass is a proof for the given instance rather
than a numerical hint.

Enumeration is one integer double-description loop (Fukuda and Prodon,
"Double description method revisited", 1996). The relaxation lives inside
the product of the unit simplex on lambda and the integer box on z, whose
vertices are known in closed form; each row of the formulation is then
applied as a cut by the shared step ``linalg.dd_cut``. Vertices are homogeneous integer lists, numerators and
then a positive denominator, in lowest terms; a row a . x <= b is the
list (a, -b), so its dot product with a vertex has the sign of the real
slack. A cut drops the vertices on the wrong side, and every cut edge from
a vertex i with slack s_i < 0 to a vertex j with s_j > 0 contributes the
integer combination s_j x_i - s_i x_j, divided by its gcd (integer-only
pivoting, as in Avis's lrs).

Each vertex carries the bitmask of the rows it is tight on. A kept vertex
gains the cut's bit when its slack is 0, and a new vertex's mask is its
parents' common mask plus that bit, so masks are never recomputed. Keeping
the vertex set exact at every step makes edge detection combinatorial: two
vertices span an edge exactly when no third vertex is tight on every row
they are both tight on. An edge's tight rows have rank n + r - 1, so a pair
with fewer common tight rows is skipped before that scan. Vertices become
Fractions once, at the end; nothing is ever rounded.

The working vertices and rows are lists, and every tuple here is built
from a list of its final length. Tuples grown from an iterator, and on
CPython 3.11 tuples of length 20, stay in the interpreter's tuple free
lists after they die, which raised the peak memory of a process that
certifies many instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from .cdc import Cdc
from .encoding import Encoding
from .errors import InputError, TooLargeToEnumerate
from .formulation import Formulation
from .linalg import DEFAULT_ENUM_CAP, Vec, dd_cut


@dataclass(frozen=True)
class VertexSet:
    """The extreme points of a polytope, held as exact rational vectors."""

    vertices: frozenset[Vec]

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


def _check_sizes(c: Cdc, e: Encoding) -> None:
    if c.d != e.d:
        raise InputError(
            f"disjunction has {c.d} alternatives but the encoding has {e.d} rows"
        )


def embedding_extreme_points(c: Cdc, e: Encoding) -> VertexSet:
    """All points (e^w, h^j) with w covered by alternative j."""
    _check_sizes(c, e)
    zero, one = Fraction(0), Fraction(1)
    points: set[Vec] = set()
    for alt, code in zip(c.alternatives, e.rows):
        tail = tuple([Fraction(x) for x in code])
        for w in alt:
            lam = [zero] * c.n
            lam[w - 1] = one
            points.add(tuple(lam) + tail)
    return VertexSet(frozenset(points))


def _formulation_rows(f: Formulation):
    """Flatten a formulation into integer (coeffs, rhs) rows over (lambda, z).

    Returns (equalities, inequalities) where each inequality means
    coeffs . x <= rhs; general row k gives inequalities 2k (its lower side)
    and 2k + 1 (its upper side). The lambda simplex and the z box are not
    included; the enumeration starts from them.
    """
    eqs = [(tuple(eq.lam) + tuple(eq.z), eq.rhs) for eq in f.equalities]
    ineqs = []
    for row in f.general_rows:
        normal = tuple(row.normal)
        # lower . lambda - b . z <= 0
        ineqs.append((tuple(row.lower) + tuple([-x for x in normal]), 0))
        # b . z - upper . lambda <= 0
        ineqs.append((tuple([-x for x in row.upper]) + normal, 0))
    return eqs, ineqs


def _base_polytope(n: int, z_bounds):
    """Vertices of the simplex times the box, with their tight-row masks.

    Vertices are homogeneous: numerators, then the denominator 1. Bit 0 of
    a mask is the simplex equation, bit 1 + v the row lambda_v >= 0, and
    bits 1 + n + 2k and 2 + n + 2k the rows z_k >= lo and z_k <= hi.
    Returns the vertices, their masks and the first bit free for cuts.
    """
    axes = []
    for k, (lo, hi) in enumerate(z_bounds):
        lo_bit, hi_bit = 1 << (1 + n + 2 * k), 1 << (2 + n + 2 * k)
        axes.append(((lo, lo_bit | hi_bit),) if lo == hi
                    else ((lo, lo_bit), (hi, hi_bit)))
    simplex_bits = (1 << (n + 1)) - 1
    vertices, masks = [], []
    for corner in product(*axes):
        tail = [z for z, _ in corner] + [1]
        box_mask = simplex_bits
        for _, bit in corner:
            box_mask |= bit
        for v in range(n):
            vertices.append([0] * v + [1] + [0] * (n - 1 - v) + tail)
            masks.append(box_mask & ~(2 << v))
    return vertices, masks, 1 + n + 2 * len(z_bounds)


def _cut_name(equalities: int, index: int) -> str:
    if index < equalities:
        return f"equality row {index}"
    k, side = divmod(index - equalities, 2)
    return f"general row {k} ({('lower', 'upper')[side]} side)"


def _to_fractions(x) -> Vec:
    *numerators, den = x
    if den == 1:
        return tuple([Fraction(a) for a in numerators])
    return tuple([Fraction(a, den) for a in numerators])


def enumerate_vertices(f: Formulation, *, max_vertices: int = DEFAULT_ENUM_CAP) -> VertexSet:
    """The exact vertex set of the formulation's LP relaxation.

    The relaxation keeps every row of the formulation, including the z
    bounds, but drops integrality. Raises TooLargeToEnumerate when an
    intermediate vertex set grows past ``max_vertices``.
    """
    vertices, masks, first_bit = _base_polytope(f.n_lambda, f.z_bounds)
    if len(vertices) > max_vertices:
        raise TooLargeToEnumerate(
            f"the starting simplex-times-box polytope already has "
            f"{len(vertices)} vertices, over the cap of {max_vertices}"
        )
    need = f.n_lambda + f.r_z - 1
    eqs, ineqs = _formulation_rows(f)
    cuts = [([*coeffs, -rhs], True) for coeffs, rhs in eqs]
    cuts += [([*coeffs, -rhs], False) for coeffs, rhs in ineqs]
    for index, (row, is_equality) in enumerate(cuts):
        vertices, masks = dd_cut(vertices, masks, row, 1 << (first_bit + index),
                                 is_equality, need)
        if len(vertices) > max_vertices:
            raise TooLargeToEnumerate(
                f"vertex enumeration exceeded the cap of {max_vertices} "
                f"intermediate vertices: {len(vertices)} after cut {index}, "
                f"{_cut_name(len(eqs), index)}"
            )
    return VertexSet(frozenset(map(_to_fractions, vertices)))


def check_validity_only(c: Cdc, e: Encoding, f: Formulation) -> bool:
    """Whether every embedding point satisfies every row of f exactly.

    This is the cheap one-directional check: it proves the relaxation
    contains the disjunction but says nothing about extra vertices. Each
    point (e^w, h^j) is checked from integers: a row's normal . h^j once
    per alternative, then its lambda coefficients at each covered w.
    """
    _check_sizes(c, e)
    if f.n_lambda != c.n or f.r_z != e.r:
        return False
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
    expected = embedding_extreme_points(c, e).vertices
    found = enumerate_vertices(f, max_vertices=max_vertices).vertices
    missing = tuple(sorted(expected - found))
    extra = tuple(sorted(found - expected))
    return VerificationReport(
        passed=not missing and not extra,
        missing=missing,
        extra=extra,
        expected_count=len(expected),
        found_count=len(found),
    )
