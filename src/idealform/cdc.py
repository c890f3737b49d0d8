"""From a disjunction over shared ground elements to an ideal formulation.

The pipeline: alternatives that share ground elements give arcs of an
intersection digraph; each arc contributes the difference of the two code
vectors; when those differences span the affine hull of the codes, every
hyperplane of that span that the differences themselves span yields one
paired constraint, and the resulting system together with the unit simplex
and the hull equations describes exactly the convex hull of the embedded
alternatives. Both gates on the encoding (convex position, hole-freeness)
are checked first, because they are what make the formulation ideal rather
than merely valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations, islice
from math import comb
from operator import itemgetter, mul, sub

from .encoding import Encoding, check_int, code_bounds, is_hole_free, is_in_convex_position
from .errors import (
    DimensionDeficit,
    EncodingNotIdealizable,
    InputError,
    NoDirections,
    ResourceCapExceeded,
    TooFewAlternatives,
    TooManyDirections,
)
from .formulation import Formulation, GeneralRow, LinearEquality, integer_fields
from .linalg import kernel, pivot_kernel, pivot_step, primitive, rank

# C(20, 10): any set of at most 20 directions fits, whatever its rank.
DEFAULT_SUBSET_CAP = comb(20, 10)
DEFAULT_COEFFICIENT_CAP = 10**7  # lambda coefficients over all general rows

Arc = tuple[int, int]


@dataclass(frozen=True)
class Cdc:
    """A combinatorial disjunction: choose one alternative, each a subset
    of the ground set {1..n}, with every ground element used somewhere."""

    n: int
    alternatives: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        check_int(self.n, "ground set size")
        if self.n < 1:
            raise InputError("ground set must be nonempty")
        if len(self.alternatives) < 2:
            raise TooFewAlternatives("a disjunction needs at least two alternatives")
        covered = set(chain(*self.alternatives))
        if not (all(self.alternatives) and set(map(type, chain(*self.alternatives))) <= {int}
                and min(covered) >= 1 and max(covered) <= self.n):
            for i, alt in enumerate(self.alternatives, start=1):  # name the first at fault
                if not alt:
                    raise InputError(f"alternative {i} is empty")
                if bad := sorted(repr(v) for v in alt if type(v) is not int):
                    raise InputError(f"alternative {i} has non-integer elements {', '.join(bad)}")
                if min(alt) < 1 or max(alt) > self.n:
                    bad = [v for v in alt if not (1 <= v <= self.n)]
                    raise InputError(f"alternative {i} uses out-of-range elements {sorted(bad)}")
        uncovered = self.n - len(covered)
        if uncovered:
            # The first few suffice, and n may be far larger than the input.
            missing = list(islice((v for v in range(1, self.n + 1) if v not in covered), 10))
            more = f" and {uncovered - len(missing)} more" if uncovered > len(missing) else ""
            raise InputError(f"ground elements {missing}{more} appear in no alternative")

    @property
    def d(self) -> int:
        return len(self.alternatives)

    # Computed once per disjunction, for the digraph and the rows; not a
    # field, so it takes no part in equality or hashing.
    @cached_property
    def _users(self) -> tuple[tuple[int, ...], ...]:
        """Per ground element, the 0-based indices of the alternatives using it, ascending."""
        users: list[list[int]] = [[] for _ in range(self.n)]
        for i, alternative in enumerate(self.alternatives):
            for v in alternative:
                users[v - 1].append(i)
        return tuple(map(tuple, users))


def cdc(n: int, alternatives) -> Cdc:
    """Convenience constructor from any iterable of iterables."""
    return Cdc(n=n, alternatives=tuple(frozenset(a) for a in alternatives))


@dataclass(frozen=True)
class IntersectionDigraph:
    d: int
    arcs: tuple[Arc, ...]  # (i, j) with i < j, 1-based, sorted


def intersection_digraph(c: Cdc) -> IntersectionDigraph:
    """Arcs between every pair of alternatives that share a ground element:
    the pairs within each distinct list of an element's users."""
    arcs = {(i + 1, j + 1) for users in set(c._users)
            for i, j in combinations(users, 2)}
    return IntersectionDigraph(d=c.d, arcs=tuple(sorted(arcs)))


def is_weakly_connected(g: IntersectionDigraph) -> bool:
    """Connectivity of the arc set read as undirected edges."""
    adjacency: dict[int, set[int]] = {i: set() for i in range(1, g.d + 1)}
    for i, j in g.arcs:
        adjacency[i].add(j)
        adjacency[j].add(i)
    seen = {1}
    frontier = [1]
    while frontier:
        node = frontier.pop()
        for nb in adjacency[node]:
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == g.d


@dataclass(frozen=True)
class DifferenceDirections:
    """The code differences h_j - h_i along the arcs, each in primitive
    form with parallel vectors collapsed, sorted. Each is a nonzero multiple
    of an arc's difference, so they span what the differences span."""

    deduped: tuple[tuple[int, ...], ...]


def difference_directions(g: IntersectionDigraph, e: Encoding) -> DifferenceDirections:
    if g.d != e.d:
        raise InputError(f"digraph has {g.d} nodes but encoding has {e.d} rows")
    steps = {tuple(map(sub, e.rows[j - 1], e.rows[i - 1])) for i, j in g.arcs}
    return DifferenceDirections(deduped=tuple(sorted(set(map(primitive, steps)))))


def check_dim_condition(dirs: DifferenceDirections, e: Encoding) -> bool:
    """Do the differences span the affine hull of the code rows?"""
    return rank(dirs.deduped) == e.dim


def spanned_hyperplane_normals(directions) -> tuple[tuple[int, ...], ...]:
    """Primitive normals of all hyperplanes of span(directions) spanned by
    the integer directions themselves.

    With m the rank of the directions, an (m-1)-subset spans a hyperplane
    of the span exactly when the subset rows together with the orthogonal
    complement of the span leave a one-dimensional kernel, and that kernel
    is the hyperplane's normal inside the span. The walk goes depth-first
    in combinations order, one pivot step per level from the complement's
    pivots, and prunes a branch at the first direction dependent on its
    prefix. It stops one level short of the leaves, at m - 2 directions,
    where the pivots have rank r - 2 and a two-dimensional kernel, the
    pencil spanned by u and v. A later direction d completes the subset
    exactly when u.d and v.d are not both zero, and the leaf's kernel is
    then the one line of the pencil orthogonal to d, spanned by
    (v.d) u - (u.d) v; in primitive form that is the tuple the leaf's own
    elimination gives, so each leaf costs two dot products. For m = 1 the
    empty subset leaves the line itself. The walk enters each flat once:
    pivot_step keeps a node's pivots in reduced echelon form with primitive
    rows, so sorted by column they name the node's span, and a node whose
    span was seen is skipped. Combinations order reaches a flat first
    through its lexicographically first basis, whose i-th index is at most
    that of any other basis (Oxley, Matroid Theory, 1992); its last index is
    the smallest, so its subtree holds each later basis's subtree and a skip
    loses no leaf. Results are deduplicated and sorted. Directions of
    unequal lengths raise InputError; directions of rank 0, none at all
    included, raise NoDirections; more than DEFAULT_SUBSET_CAP subsets,
    C(k, m-1) for k directions and a bound on the leaves, raise
    TooManyDirections before the walk.
    """
    dirs = list(directions)
    r = len(dirs[0]) if dirs else 0
    if set(map(len, dirs)) - {r}:
        i = next(i for i, v in enumerate(dirs) if len(v) != r)
        raise InputError(f"direction {i} has length {len(dirs[i])}, "
                         f"but direction 0 has length {r}")
    complement = kernel(dirs, r)
    m = r - len(complement)
    if m == 0:
        raise NoDirections("no nonzero directions to span hyperplanes with")
    subsets = comb(len(dirs), m - 1)
    if subsets > DEFAULT_SUBSET_CAP:
        raise TooManyDirections(
            f"{len(dirs)} directions of rank {m} give {subsets} subsets, "
            f"over the enumeration cap of {DEFAULT_SUBSET_CAP}"
        )
    pivots = reduce(pivot_step, complement, [])
    if m == 1:
        return (pivot_kernel(pivots, r)[0],)
    normals: set[tuple[int, ...]] = set()
    flats: set[tuple[tuple[int, ...], ...]] = set()

    def walk(pivots, first: int, left: int) -> None:
        if not left:
            u, v = pivot_kernel(pivots, r)
            for d in dirs[first:]:
                a, b = sum(map(mul, u, d)), sum(map(mul, v, d))
                # u and v are primitive, so with one dot zero the normal is the other.
                if a and b:
                    normals.add(primitive([b * x - a * y for x, y in zip(u, v)]))
                elif a or b:
                    normals.add(v if b == 0 else u)
            return
        for j in range(first, len(dirs) - left):
            extended = pivot_step(pivots, dirs[j])
            if extended is not None:
                flat = tuple(tuple(row) for _, row in sorted(extended))
                if flat not in flats:
                    flats.add(flat)
                    walk(extended, j + 1, left - 1)

    walk(pivots, 0, m - 2)
    return tuple(sorted(normals))


def formulation_equalities(c: Cdc, e: Encoding) -> tuple[LinearEquality, ...]:
    """The simplex row plus the affine-hull equations of the code rows."""
    rows: list[LinearEquality] = [
        LinearEquality(lam=(1,) * c.n, z=(0,) * e.r, rhs=1)
    ]
    for lhs, rhs in e.equations:
        rows.append(LinearEquality(lam=(0,) * c.n, z=lhs, rhs=rhs))
    return tuple(rows)


def check_sizes(c: Cdc, e: Encoding, f: Formulation | None = None) -> None:
    """InputError unless c, e and, when given, f fit together, with every
    entry of f a plain int, so a certificate decides in integers only."""
    if f is not None:
        # The entries' types in one C-level pass; a second walk names the first at fault.
        entries = chain.from_iterable(field[2] for field in integer_fields(f))
        if set(map(type, entries)) != {int}:
            key, i, bad = next((key, i, x) for key, i, row, _ in integer_fields(f)
                               for x in row if type(x) is not int)
            raise InputError(f"{key.format(i)}: expected an integer, got {bad!r}")
        if f.n_lambda != c.n or f.r_z != e.r:
            raise InputError(
                f"formulation is over {f.n_lambda} lambda and {f.r_z} z variables, "
                f"but the problem needs {c.n} and {e.r}"
            )
    if c.d != e.d:
        raise InputError(
            f"disjunction has {c.d} alternatives but the encoding has {e.d} rows"
        )


def theorem1_formulation(c: Cdc, e: Encoding) -> Formulation:
    """The ideal formulation of (c, e) via spanned-hyperplane enumeration.

    Raises EncodingNotIdealizable when a gate fails and DimensionDeficit
    when the difference directions do not span the affine hull of the
    codes; the deficit message reports the connectivity diagnostic, since
    weak connectivity of the intersection digraph is the usual sufficient
    condition.
    """
    check_sizes(c, e)
    if not is_in_convex_position(e):
        raise EncodingNotIdealizable("a code row lies in the hull of the others")
    if not is_hole_free(e):
        raise EncodingNotIdealizable("the code hull contains a non-code lattice point")

    digraph = intersection_digraph(c)
    dirs = difference_directions(digraph, e)
    if not check_dim_condition(dirs, e):
        spanned = rank(dirs.deduped)
        connected = is_weakly_connected(digraph)
        raise DimensionDeficit(
            f"difference directions span {spanned} of {e.dim} dimensions; "
            f"intersection digraph {'is' if connected else 'is not'} weakly connected"
        )
    normals = spanned_hyperplane_normals(dirs.deduped)
    return formulation_for_normals(c, e, normals)


def unit_normals(r: int) -> list[tuple[int, ...]]:
    """The r coordinate directions of the code space."""
    return [tuple(1 if k == j else 0 for k in range(r)) for j in range(r)]


def formulation_for_normals(c: Cdc, e: Encoding, normals) -> Formulation:
    """One paired row per normal, in the given order, over the simplex, the
    affine hull of the codes and the code box. The general pipeline passes
    the normals it enumerates; a closed form is its normal list. More than
    DEFAULT_COEFFICIENT_CAP lambda coefficients raise ResourceCapExceeded
    before any row is built."""
    coefficients = 2 * c.n * len(normals)
    if coefficients > DEFAULT_COEFFICIENT_CAP:
        raise ResourceCapExceeded(
            f"{len(normals)} row pairs over {c.n} elements need {coefficients} "
            f"coefficients, over the cap of {DEFAULT_COEFFICIENT_CAP}"
        )
    return Formulation(
        c.n, e.r, formulation_equalities(c, e), rows_for_normals(c, e, normals),
        code_bounds(e),
    )


def rows_for_normals(c: Cdc, e: Encoding, normals) -> tuple[GeneralRow, ...]:
    """One paired row per normal: each ground element's coefficients are the
    extreme values of normal . code over the alternatives that use it.

    Elements with the same users share their extremes, so the fold runs
    once per distinct user set and an ``itemgetter`` spreads each set's
    value back to its elements as the tuple the row stores. Slot j lists
    each set's j-th user, or its first when it has fewer than j + 1; a row
    is normal . code from the code columns (a first column of weight 1 as
    it is), one ``itemgetter`` pick per slot and a pairwise fold over them.
    """
    sets: dict[tuple[int, ...], int] = {}
    spread = _getter([sets.setdefault(u, len(sets)) for u in c._users])
    picks = [_getter([u[j] if j < len(u) else u[0] for u in sets])
             for j in range(max(map(len, sets)))]
    columns = list(zip(*e.rows))
    rows = []
    for normal in normals:
        (b, column), *rest = [(b, h) for b, h in zip(normal, columns) if b] or [(0, columns[0])]
        values = column if b == 1 else [b * h for h in column]
        for b, column in rest:
            values = [x + b * h for x, h in zip(values, column)]
        lower = upper = picks[0](values)
        for pick in picks[1:]:
            picked = pick(values)
            lower = [x if x < y else y for x, y in zip(lower, picked)]
            upper = [x if x > y else y for x, y in zip(upper, picked)]
        rows.append(GeneralRow(tuple(normal), spread(lower), spread(upper)))
    return tuple(rows)


def _getter(indices: list[int]):
    """``itemgetter(*indices)``, but a tuple even for one index."""
    return itemgetter(*indices) if len(indices) > 1 else lambda xs: (xs[indices[0]],)
