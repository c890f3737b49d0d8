"""Exact linear algebra and the one integer polyhedral step.

Everything downstream (gates, hyperplane enumeration, vertex enumeration)
reduces to the operations in this module, so geometric predicates are
decided exactly, without tolerances. Floating point never enters. Rank,
nullspaces and affine hulls work on ``fractions.Fraction``; independent
rows come from a fraction-free integer elimination.

:func:`dd_cut` is the double-description step (Fukuda and Prodon,
"Double description method revisited", 1996) on homogeneous integer
vectors. The certificate applies it to the vertices of a relaxation, the
encoding gates to the facets of the code hull.

Vectors are plain tuples of Fraction, matrices are tuples of such tuples.
The constructors :func:`vec` and :func:`mat` coerce ints, strings and
Fractions and validate shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import EmptyPointSet, NotAHyperplane, ZeroVector

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The most vertices or rays a double-description run may hold at once.
DEFAULT_ENUM_CAP = 50_000


def vec(values: Iterable) -> Vec:
    """Coerce an iterable of rational-like values to a Vec."""
    # From a list, so the tuple is allocated at its final length.
    return tuple([Fraction(v) for v in values])


def mat(rows: Iterable[Iterable]) -> Mat:
    """Coerce nested iterables to a rectangular Mat.

    Raises ValueError on ragged input; an empty matrix is allowed.
    """
    out = tuple(vec(row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("matrix rows have unequal lengths")
    return out


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dot of lengths {len(a)} and {len(b)}")
    return sum((x * y for x, y in zip(a, b)), _ZERO)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a copy of ``rows``.

    Returns the reduced matrix (zero rows dropped) and the list of pivot
    column indices. The result depends only on the row space, which makes
    every construction built on it deterministic.
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = _ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the matrix; 0 for an empty one."""
    return len(rref(rows)[0])


def nullspace(rows: Sequence[Sequence[Fraction]], dim: int) -> list[Vec]:
    """Canonical basis of {x : row . x = 0 for every row}.

    One basis vector per free column of the RREF, in increasing column
    order; for an empty row list this is the standard basis of Q^dim.
    """
    reduced, pivots = rref(rows)
    basis: list[Vec] = []
    pivot_set = set(pivots)
    for free in range(dim):
        if free in pivot_set:
            continue
        v = [_ZERO] * dim
        v[free] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][free]
        basis.append(tuple(v))
    return basis


@dataclass(frozen=True)
class AffineHull:
    """The affine hull {x : eq_lhs . x = eq_rhs} of a point set.

    Rows of eq_lhs are linearly independent, integer and primitive, in a
    canonical order, so two point sets with the same hull produce the same
    object. ``dim`` is the dimension of the hull itself.
    """

    eq_lhs: Mat
    eq_rhs: Vec
    ambient_dim: int

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.eq_lhs)

    def contains(self, point: Sequence[Fraction]) -> bool:
        return all(dot(row, point) == b for row, b in zip(self.eq_lhs, self.eq_rhs))


def affine_hull(points: Sequence[Sequence[Fraction]]) -> AffineHull:
    """Equation description of the affine hull of ``points``.

    The equations are the canonical nullspace basis of the difference
    directions, scaled primitive; a single point yields a full set of
    coordinate-pinning equations, an affinely full set yields none. Only an
    independent subset of the directions is eliminated, which leaves the
    result unchanged because the RREF depends only on the row space.
    """
    if not points:
        raise EmptyPointSet("affine hull of an empty point set")
    base = vec(points[0])
    n = len(base)
    dirs = (tuple(x - b for x, b in zip(p, points[0])) for p in points[1:])
    lhs_rows: list[Vec] = []
    rhs: list[Fraction] = []
    for normal in nullspace(independent_rows(dirs), n):
        prim = vec(primitive_canonical(normal))
        lhs_rows.append(prim)
        rhs.append(dot(prim, base))
    return AffineHull(eq_lhs=tuple(lhs_rows), eq_rhs=tuple(rhs), ambient_dim=n)


def independent_rows(rows: Iterable[Sequence[Fraction]]) -> list[Vec]:
    """Greedy maximal independent subset of rows, keeping first occurrences.

    One fraction-free elimination: each row, scaled to integers, is reduced
    against the pivot rows kept so far and kept when anything survives. The
    scan stops once the rank reaches the row width.
    """
    kept: list[Vec] = []
    pivots: list[tuple[int, list[int]]] = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        reduced = [x.numerator * (scale // x.denominator) for x in row]
        for col, pivot in pivots:
            factor = reduced[col]
            if factor:
                lead = pivot[col]
                reduced = [lead * x - factor * y for x, y in zip(reduced, pivot)]
        col = next((j for j, x in enumerate(reduced) if x), None)
        if col is None:
            continue
        g = gcd(*reduced)
        pivots.append((col, [x // g for x in reduced]))
        kept.append(vec(row))
        if len(kept) == len(reduced):
            break
    return kept


def orthogonal_in_subspace(
    space_basis: Sequence[Sequence[Fraction]],
    subset: Sequence[Sequence[Fraction]],
) -> Vec:
    """A nonzero vector of span(space_basis) orthogonal to every subset row.

    The subset must lie inside the space and span a hyperplane of it
    (rank exactly one less), which makes the answer unique up to scale;
    otherwise NotAHyperplane is raised. With an empty subset the space must
    be a line and the returned vector spans it.
    """
    basis = independent_rows(space_basis)
    m = len(basis)
    if m == 0:
        raise NotAHyperplane("the subspace is {0}; it has no hyperplanes")
    subset_rank = rank(subset)
    if subset_rank != m - 1:
        raise NotAHyperplane(
            f"subset spans rank {subset_rank}, expected {m - 1} inside a rank-{m} space"
        )
    if subset and rank(list(basis) + [vec(s) for s in subset]) != m:
        raise NotAHyperplane("subset rows do not all lie in the subspace")
    # Solve for coefficients alpha with (subset . basis^T) alpha = 0; the
    # Gram-style matrix has rank m-1, so the nullspace is one-dimensional.
    g = [[dot(vec(s), b) for b in basis] for s in subset]
    alphas = nullspace(g, m)
    alpha = alphas[0]
    n = len(basis[0])
    out = tuple(
        sum((alpha[i] * basis[i][j] for i in range(m)), _ZERO) for j in range(n)
    )
    if all(x == 0 for x in out):
        raise NotAHyperplane("orthogonal direction degenerated to zero")
    return out


def primitive_canonical(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Canonical integer form of a nonzero rational vector.

    Scaled by the denominator lcm, divided by the entry gcd, and sign-fixed
    so the first nonzero entry is positive. Parallel vectors (including
    negations) map to the same tuple. Raises ZeroVector on the zero vector.
    """
    fracs = vec(v)
    if all(x == 0 for x in fracs):
        raise ZeroVector("cannot canonicalize the zero vector")
    scale = lcm(*(x.denominator for x in fracs)) if fracs else 1
    ints = [int(x * scale) for x in fracs]
    g = gcd(*ints)
    ints = [i // g for i in ints]
    first = next(i for i in ints if i != 0)
    if first < 0:
        ints = [-i for i in ints]
    return tuple(ints)


def scale_row_to_integers(
    coeffs: Sequence[Fraction], rhs: Fraction
) -> tuple[tuple[int, ...], int]:
    """Clear denominators of a constraint row by the smallest positive factor.

    Returns the scaled coefficients and right-hand side; a row that is
    already integer comes back unchanged.
    """
    fracs = vec(coeffs)
    rhs = Fraction(rhs)
    scale = lcm(rhs.denominator, *(x.denominator for x in fracs)) if fracs else rhs.denominator
    return tuple(int(x * scale) for x in fracs), int(rhs * scale)


def dd_cut(vertices, masks, row, bit, is_equality, need):
    """Intersect the vertex set with row . x <= 0, or = 0 for an equality.

    ``row`` is homogeneous (coefficients, then minus the right-hand side),
    so its dot product with a vertex has the sign of the real slack.
    ``bit`` is the new row's mask bit and ``need`` the fewest tight rows an
    edge can have. Correctness of the edge test relies on ``vertices``
    being the complete vertex set of the polytope cut so far; the extreme
    rays of a pointed cone serve as well.
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
    for i in neg:
        mask_i, s_i, x_i = masks[i], slack[i], vertices[i]
        for j in pos:
            common = mask_i & masks[j]
            if common.bit_count() < need:
                continue
            for k, mask_k in enumerate(masks):
                if mask_k & common == common and k != i and k != j:
                    break
            else:
                s_j = slack[j]
                point = [s_j * a - s_i * b for a, b in zip(x_i, vertices[j])]
                g = reduce(gcd, point)
                kept.append([p // g for p in point] if g > 1 else point)
                kept_masks.append(common | bit)
    return kept, kept_masks
