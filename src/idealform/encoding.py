"""Integer encodings of the alternatives and the two idealizability gates.

Two recursive families are built in. The reflected family flips one bit per
step and closes the cycle with a single-coordinate step; the zig-zag family
increases one coordinate per step and closes with the step
(2**(s-1), ..., 2, 1). Arbitrary explicit integer encodings are accepted as
well and are checked by the same gates: every row must be a vertex of the
hull (convex position) and the hull must contain no other lattice point
(hole-freeness). Together the gates are what make a formulation over the
encoding ideal, so they run before any formulation is emitted.

Distinct integer points, codes or not, that are rows of one full family
matrix at the natural width r = ceil(log2(d)) pass both gates by proof, so
each gate returns at once for them; other point sets run the hull and scan.
- The full reflected matrix is {0,1}^r: each of its 2^r rows is a distinct
  binary vector.
- The full zig-zag matrix is Z_s = Z_{s-1}x{0} + {0, g_s}, with
  g_s = (last row of Z_{s-1}, 1), and Z_1 = {0, 1}. So Z_r = G.{0,1}^r,
  where G has the columns g_1, ..., g_r (zero-padded). Column k ends in
  a 1 at coordinate k, so G is unit upper-triangular, hence unimodular.
- The cube {0,1}^r is in convex position, and the only lattice points of
  [0,1]^r are its vertices. A unimodular G is a linear bijection of R^r
  that maps Z^r onto itself, so it carries vertices to vertices and the
  hull's lattice points to the image's, and Z_r passes both gates too.
- A subset S of a hole-free set C in convex position is both. A point of
  S is a vertex of conv(C), so it is no convex combination of the other
  points of C, nor of S. A lattice point of conv(S) lies in conv(C), so it
  is a point of C and a vertex of conv(C); a vertex of conv(C) is no
  convex combination of other points of C, so it is a point of S.

Such points are full-dimensional as well, so their affine hull has no
equations and none is computed. So the embedding points (e^w, h^j) of a
disjunction, which all lie on sum(lambda) = 1, are never such points.
- At the natural width, d > 2^(r-1).
- An affine hyperplane a.x = b holds at most 2^(r-1) points of {0,1}^r:
  pair each x with x xor e_i for some i with a_i != 0. The two differ in
  a.x by +-a_i, so at most one of each pair lies on the hyperplane.
- G maps hyperplanes to hyperplanes, so the bound holds for Z_r too, and d
  distinct rows of one full family matrix lie on no common hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce
from itertools import chain, compress, count, repeat
from math import gcd
from operator import add, mul, ne, sub

from .errors import (
    HoleCheckTooLarge,
    InputError,
    InvalidOrder,
    ResourceCapExceeded,
    TooFewAlternatives,
)
from .linalg import (DEFAULT_ENUM_CAP, affine_hull, double_description, independent_rows,
                     pivot_step)

Row = tuple[int, ...]

DEFAULT_HOLE_CAP = 10**6
MAX_ORDER = 16  # the widest code built: no size asks for more than 2**16 rows


class EncodingKind(Enum):
    GRAY = "gray"
    ZIGZAG = "zigzag"


@dataclass(frozen=True)
class Hull:
    """The convex hull of the rows, distinct integer points of one width. Its
    cached values are not fields, so they take no part in equality or hashing."""

    rows: tuple[Row, ...]

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def r(self) -> int:
        return len(self.rows[0])

    @property
    def dim(self) -> int:
        """The dimension of the hull."""
        return self.r - len(self.equations)

    @cached_property
    def equations(self) -> tuple[tuple[Row, int], ...]:
        """The affine-hull equations (a, b) of the points, meaning a . x = b:
        none for family points, which are full-dimensional by the lemma in
        the module docstring."""
        return () if self.in_family else tuple(affine_hull(self.rows))

    @cached_property
    def facets(self) -> tuple[tuple[Row, int, int], ...]:
        """The facets (a, b, mask) of conv(rows), in integers.

        Each facet means a . x <= b, and its mask has bit i set when point i
        lies on it. The facets are the extreme rays of the cone of valid
        inequalities in (a, b)-space, where point h is the cut (h, -1). The
        start cone is simplicial: the first k + 1 affinely independent points
        and the hull equations, which make it pointed. Together they are a
        square nonsingular M, and the ray opposite cut i is -(column i of
        M^-1), the pivot of column i in one elimination of [M^T | I].
        """
        cuts = {(*code, -1): i for i, code in enumerate(self.rows)}
        start = [cuts[row] for row in independent_rows(cuts)]
        m = [(*self.rows[i], -1) for i in start] + [(*a, b) for a, b in self.equations]
        n = len(m)
        pivots = reduce(pivot_step, [[*column, *(int(j == i) for j in range(n))]
                                     for i, column in enumerate(zip(*m))], [])
        rays, masks = [], []
        for (_, pivot), i in zip(sorted(pivots), start):
            g = -gcd(*pivot[n:])
            rays.append([x // g for x in pivot[n:]])
            masks.append(sum(1 << j for j in start if j != i))
        rays, masks = double_description(
            rays, masks, [(row, 1 << i, False, f"code {i}") for row, i in cuts.items()
                          if i not in start],
            self.dim - 1, DEFAULT_ENUM_CAP, "facet enumeration of the code hull")
        return tuple((tuple(ray[:-1]), ray[-1], mask) for ray, mask in zip(rays, masks))

    @cached_property
    def in_family(self) -> bool:
        """Whether the points are rows of one full family matrix of the natural
        width, which has fewer than 2d rows. No matrix is built. The full
        reflected matrix is {0,1}^r. The full zig-zag matrix is G.{0,1}^r,
        and G^-1 is unit upper-triangular with -1 above the diagonal: a point
        h is a row exactly when each h_j minus the sum of the later
        coordinates is 0 or 1, which is tested one column at a time, last
        first."""
        if self.r != (self.d - 1).bit_length():
            return False
        if set(chain.from_iterable(self.rows)) <= {0, 1}:
            return True
        later = [0] * self.d
        for column in reversed(list(zip(*self.rows))):
            if not set(map(sub, column, later)) <= {0, 1}:
                return False
            later = list(map(add, later, column))
        return True

    def contains(self, p: Row) -> bool:
        """Whether the integer point p satisfies the equations and the facets."""
        return (all(sum(map(mul, a, p)) == b for a, b in self.equations)
                and all(sum(map(mul, a, p)) <= b for a, b, _ in self.facets))


@dataclass(frozen=True)
class Encoding(Hull):
    """d distinct integer code vectors of length r, one per alternative."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))  # rows may be lists
        if len(self.rows) < 2:
            raise TooFewAlternatives("an encoding needs at least two rows")
        width = len(self.rows[0])
        if width < 1:
            raise InputError("encoding rows must have at least one coordinate")
        # Widths and entry types are each read in one C-level pass; an int
        # subclass other than bool is checked type by type. Only the rows
        # before the first ragged one are typed, so a bad entry there is
        # named first, as a row-by-row check would.
        ragged = next(compress(count(), map(ne, map(len, self.rows), repeat(width))),
                      len(self.rows))
        types = set(map(type, chain.from_iterable(self.rows[:ragged])))
        if types != {int} and not all(issubclass(t, int) and t is not bool for t in types):
            raise InputError("encoding rows must be integer vectors")
        if ragged < len(self.rows):
            raise InputError("encoding rows have unequal lengths")
        if len(set(self.rows)) != len(self.rows):
            raise InputError("encoding rows must be pairwise distinct")


def check_int(value, what: str) -> None:
    """Refuse a size that is not a plain int: a bool or another int subclass too."""
    if type(value) is not int:
        raise InputError(f"{what} must be an int, got {type(value).__name__}")


def check_order(s: int, size: str) -> None:
    """Refuse an order below 1, or above MAX_ORDER, before any row is built."""
    check_int(s, "recursion order")
    if s < 1:
        raise InvalidOrder(f"recursion order must be at least 1, got {s}")
    if s > MAX_ORDER:
        raise ResourceCapExceeded(
            f"{size} would need {s}-bit codes, over the cap of {MAX_ORDER} bits"
        )


def gray_matrix(s: int) -> tuple[Row, ...]:
    """The 2**s by s reflected binary matrix.

    Built by the recursion that stacks the previous matrix with a 0 column
    over its reversal with a 1 column. Consecutive rows differ in exactly
    one coordinate, by +-1, and the last row differs from the first in the
    final coordinate only.
    """
    check_order(s, f"order {s}")
    rows: list[Row] = [(0,), (1,)]
    for _ in range(s - 1):
        rows = [r + (0,) for r in rows] + [r + (1,) for r in reversed(rows)]
    return tuple(rows)


def zigzag_matrix(s: int) -> tuple[Row, ...]:
    """The 2**s by s zig-zag matrix.

    The recursion stacks the previous matrix with a 0 column over a copy
    shifted by the previous last row, with a 1 column. Consecutive rows
    differ by a single +1 step in one coordinate.
    """
    check_order(s, f"order {s}")
    rows: list[Row] = [(0,), (1,)]
    for _ in range(s - 1):
        last = rows[-1]
        rows = [r + (0,) for r in rows] + [(*map(add, r, last), 1) for r in rows]
    return tuple(rows)


FAMILIES = {EncodingKind.GRAY: gray_matrix, EncodingKind.ZIGZAG: zigzag_matrix}


def check_family(kind) -> None:
    """Refuse a value that is not one of the FAMILIES."""
    if not isinstance(kind, EncodingKind):
        raise InputError(f"expected {' or '.join(map(str, FAMILIES))}, got {type(kind).__name__}")


def make_encoding(d: int, kind: EncodingKind) -> Encoding:
    """The first d rows of the chosen family, with r = ceil(log2(d)) bits."""
    check_family(kind)
    check_int(d, "the number of alternatives")
    if d < 2:
        raise TooFewAlternatives(f"need at least two alternatives, got {d}")
    r = (d - 1).bit_length()  # ceil(log2(d)), in integers
    check_order(r, f"{d} alternatives")
    return Encoding(FAMILIES[kind](r)[:d])


def is_in_convex_position(e: Encoding) -> bool:
    """True when no row lies in the convex hull of the other rows.

    Exactly the condition "every code is a vertex of the hull". Family codes
    hold by proof. Otherwise a vertex is the intersection of the facets
    through it, so code i is a vertex iff no other code lies on every facet
    that code i lies on.
    """
    if e.in_family:
        return True
    masks = [mask for _, _, mask in e.facets]
    for i in range(e.d):
        on_all = (1 << e.d) - 1
        for mask in masks:
            if mask >> i & 1:
                on_all &= mask
        if on_all != 1 << i:
            return False
    return True


def is_hole_free(e: Encoding) -> bool:
    """True when the hull of the rows contains no lattice point beyond them.

    Family codes hold by proof; any other code set is scanned. Level j
    extends each kept prefix by each value of coordinate j in the code
    bounds. It keeps the codes' j-prefixes and, when there are others,
    those in the hull of the prefixes, the projection of the code hull, so
    level r keeps only the codes exactly when they are hole-free. Level r
    is tested lazily against the hull of e itself and stops at its first
    hole. Before a level is built, more than DEFAULT_HOLE_CAP candidates
    raise HoleCheckTooLarge.
    """
    if e.in_family:
        return True
    *inner, last = code_bounds(e)
    kept: list[Row] = [()]
    for j, bounds in enumerate(inner, start=1):
        prefixes = dict.fromkeys(row[:j] for row in e.rows)
        kept = list(_extend(kept, j, *bounds))
        if not all(map(prefixes.__contains__, kept)):
            hull = Hull(tuple(prefixes))
            kept = [p for p in kept if p in prefixes or hull.contains(p)]
    codes = set(e.rows)
    return not any(p not in codes and e.contains(p) for p in _extend(kept, e.r, *last))


def _extend(kept: list[Row], j: int, lo: int, hi: int):
    """Each kept prefix extended by each value in [lo, hi], lazily; the
    level's size is checked against the cap first."""
    if (size := len(kept) * (hi - lo + 1)) > DEFAULT_HOLE_CAP:
        raise HoleCheckTooLarge(f"the hole-freeness scan would visit {size} points at "
                                f"coordinate {j}, over its fixed cap of {DEFAULT_HOLE_CAP}")
    return ((*p, x) for p in kept for x in range(lo, hi + 1))


def code_bounds(e: Encoding) -> tuple[tuple[int, int], ...]:
    """Componentwise (min, max) over the code rows: the box the codes live in."""
    return tuple([(min(column), max(column)) for column in zip(*e.rows)])
