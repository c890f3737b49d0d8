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
applied as a cut by the shared step ``linalg.dd_cut``. Vertices are
homogeneous integer vectors, numerators and then a positive denominator,
in lowest terms. That form is canonical, so the certificate compares it
with the embedding points (e^w, h^j, 1) as it is, and only the witnesses
of a failure become Fractions. A row a . x <= b is the list (a, -b), so
its dot product with a vertex has the sign of the real slack. A cut drops
the vertices on the wrong side, and every cut edge from a vertex i with
slack s_i < 0 to a vertex j with s_j > 0 contributes the integer
combination s_j x_i - s_i x_j, divided by its gcd (integer-only pivoting,
as in Avis's lrs).

Each vertex carries the bitmask of the rows it is tight on. A kept vertex
gains the cut's bit when its slack is 0, and a new vertex's mask is its
parents' common mask plus that bit, so masks are never recomputed. Keeping
the vertex set exact at every step makes edge detection combinatorial: two
vertices span an edge exactly when no third vertex is tight on every row
they are both tight on. An edge's tight rows have rank n + r - 1, so a pair
with fewer common tight rows is skipped before that scan. Nothing is ever
rounded.

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
from math import prod
from operator import mul

from .cdc import Cdc
from .encoding import Encoding
from .errors import InputError, TooLargeToEnumerate
from .formulation import Formulation
from .linalg import DEFAULT_ENUM_CAP, Vec, dd_cut

# Integers held across all vertices at once, n + r + 1 per vertex: the
# vertex budget alone lets a wide formulation exhaust memory.
DEFAULT_ENTRY_CAP = 10**7


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


def _check_sizes(c: Cdc, e: Encoding, f: Formulation | None = None) -> None:
    """InputError unless c, e and, when given, f fit together."""
    if f is not None and (f.n_lambda != c.n or f.r_z != e.r):
        raise InputError(
            f"formulation is over {f.n_lambda} lambda and {f.r_z} z variables, "
            f"but the problem needs {c.n} and {e.r}"
        )
    if c.d != e.d:
        raise InputError(
            f"disjunction has {c.d} alternatives but the encoding has {e.d} rows"
        )


def _check_entries(count: int, width: int, what: str) -> None:
    """TooLargeToEnumerate when count vectors of width integers are too many."""
    if count * width > DEFAULT_ENTRY_CAP:
        raise TooLargeToEnumerate(
            f"{what}: {count} vertices of {width} integers, {count * width} in all, "
            f"over the cap of {DEFAULT_ENTRY_CAP} integers"
        )


def embedding_extreme_points(c: Cdc, e: Encoding) -> VertexSet:
    """All points (e^w, h^j) with w covered by alternative j."""
    _check_sizes(c, e)
    _check_entries(sum(map(len, c.alternatives)), c.n + e.r + 1, "the embedding")
    points: set[tuple[int, ...]] = set()
    for alt, code in zip(c.alternatives, e.rows):
        tail = [*code, 1]
        for w in alt:
            lam = [0] * c.n
            lam[w - 1] = 1
            points.add(tuple(lam + tail))
    return VertexSet(frozenset(points))


def _cuts(f: Formulation):
    """The rows as (homogeneous cut, is equality, name): the equalities,
    then both sides of each general row, lower first. The simplex and the
    box are not included; the enumeration starts from them."""
    cuts = [([*eq.lam, *eq.z, -eq.rhs], True, f"equality row {i}")
            for i, eq in enumerate(f.equalities)]
    for k, row in enumerate(f.general_rows):
        # lower . lambda - b . z <= 0
        cuts.append(([*row.lower, *(-x for x in row.normal), 0], False,
                     f"general row {k} (lower side)"))
        # b . z - upper . lambda <= 0
        cuts.append(([*(-x for x in row.upper), *row.normal, 0], False,
                     f"general row {k} (upper side)"))
    return cuts


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


def _to_fractions(x) -> Vec:
    *numerators, den = x
    if den == 1:
        return tuple([Fraction(a) for a in numerators])
    return tuple([Fraction(a, den) for a in numerators])


def enumerate_vertices(f: Formulation, *, max_vertices: int = DEFAULT_ENUM_CAP) -> VertexSet:
    """The exact vertex set of the formulation's LP relaxation.

    The relaxation keeps every row of the formulation, including the z
    bounds, but drops integrality. Raises TooLargeToEnumerate when an
    intermediate vertex set grows past ``max_vertices``, or holds more than
    DEFAULT_ENTRY_CAP integers.
    """
    start = f.n_lambda * prod(len({lo, hi}) for lo, hi in f.z_bounds)
    if start > max_vertices:
        raise TooLargeToEnumerate(
            f"the starting simplex-times-box polytope already has "
            f"{start} vertices, over the cap of {max_vertices}"
        )
    width = f.n_lambda + f.r_z + 1
    _check_entries(start, width, "the starting simplex-times-box polytope")
    vertices, masks, first_bit = _base_polytope(f.n_lambda, f.z_bounds)
    need = f.n_lambda + f.r_z - 1
    for index, (row, is_equality, name) in enumerate(_cuts(f)):
        vertices, masks = dd_cut(vertices, masks, row, 1 << (first_bit + index),
                                 is_equality, need)
        if len(vertices) > max_vertices:
            raise TooLargeToEnumerate(
                f"vertex enumeration exceeded the cap of {max_vertices} "
                f"intermediate vertices: {len(vertices)} after cut {index}, {name}"
            )
        _check_entries(len(vertices), width,
                       f"vertex enumeration after cut {index}, {name}")
    return VertexSet(frozenset(map(tuple, vertices)))


def check_validity_only(c: Cdc, e: Encoding, f: Formulation) -> bool:
    """Whether every embedding point satisfies every row of f exactly.

    This is the cheap one-directional check: it proves the relaxation
    contains the disjunction but says nothing about extra vertices. Each
    point (e^w, h^j) is checked from integers: a row's normal . h^j once
    per alternative, then its lambda coefficients at each covered w.
    """
    _check_sizes(c, e, f)
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
    _check_sizes(c, e, f)
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
