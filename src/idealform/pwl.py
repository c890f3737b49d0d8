"""Epigraph formulations for univariate piecewise linear functions.

A function given by d segments over breakpoints t_1 < ... < t_{d+1} turns
into a disjunction: pick a segment, then express (x, y) as a convex
combination of its two endpoints. Two consecutive segments share their
meeting point when the function is continuous there, so a ground element
is duplicated only at actual jumps. With the jump count kappa this spends
d + 1 + kappa multiplier variables instead of two per segment.

Theorem 1 on this disjunction gives one paired row per unit normal of the
code space, so that closed form is the only route. It exists exactly when
the code steps at the continuous breakpoints reach all r code coordinates.
Rows: segments i and i + 1 share a ground point exactly when f is
continuous at breakpoint i + 1, and no other pair does. Both code families
step from row i - 1 to row i by +-1 in coordinate ctz(i) alone, so the
directions are unit vectors. Coordinate k first moves at row 2^k <= d - 1,
so a family prefix is full-dimensional, and the directions span it exactly
when they reach every coordinate; their hyperplanes are then the coordinate
hyperplanes. A deficit needs a jump, and a jump disconnects the chain.
Gates: a family prefix passes both by the lemma in idealform.encoding's
docstring, so neither runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cdc import Cdc, formulation_for_normals, unit_normals
from .encoding import EncodingKind, make_encoding
from .errors import DimensionDeficit, InputError
from .formulation import Formulation, RecoveryMap

# An exact value: a plain int where it is integral, so integral data runs in
# int arithmetic, and a Fraction elsewhere.
Rational = int | Fraction
Point = tuple[Rational, Rational]


def _exact(x: Rational) -> Rational:
    """x as a plain int when it is integral."""
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class PwlFunction:
    """d segments: on piece i the value is slopes[i]*x + intercepts[i].

    Pieces are indexed 1..d and piece i lives on [breakpoints[i-1],
    breakpoints[i]]; at a jump the modeled set keeps both one-sided values,
    which is the closure of either semi-continuous convention. Each field
    is held as a tuple of plain ints, with a Fraction where a denominator
    remains; an entry of any other type raises InputError.
    """

    breakpoints: tuple[Rational, ...]
    slopes: tuple[Rational, ...]
    intercepts: tuple[Rational, ...]

    def __post_init__(self) -> None:
        for field in ("breakpoints", "slopes", "intercepts"):
            values = tuple(getattr(self, field))
            kinds = set(map(type, values))
            if kinds - {int}:  # only then a second pass: ints are the common case
                if bad := sorted(t.__name__ for t in kinds - {int, Fraction}):
                    raise InputError(f"{field}: expected ints or Fractions, got {bad[0]}")
                values = tuple(map(_exact, values))
            object.__setattr__(self, field, values)
        d = len(self.slopes)
        if d < 2:
            raise InputError("need at least two segments")
        if len(self.intercepts) != d:
            raise InputError("one intercept per segment")
        if len(self.breakpoints) != d + 1:
            raise InputError("need one more breakpoint than segments")
        if any(a >= b for a, b in zip(self.breakpoints, self.breakpoints[1:])):
            raise InputError("breakpoints must be strictly increasing")

    @property
    def d(self) -> int:
        return len(self.slopes)

    def segment_value(self, i: int, x: Rational) -> Rational:
        """Value of segment i (1-based) extended to any x."""
        return self.slopes[i - 1] * x + self.intercepts[i - 1]

    @cached_property
    def ends(self) -> tuple[tuple[Point, Point], ...]:
        """Each segment's two endpoints (t, value), left to right, each value
        held as the fields are."""
        t = self.breakpoints
        values = [self.segment_value(i, x) for i in range(1, self.d + 1)
                  for x in (t[i - 1], t[i])]
        if set(map(type, values)) - {int}:  # as in __post_init__: ints are the common case
            values = list(map(_exact, values))
        return tuple(zip(zip(t, values[::2]), zip(t[1:], values[1::2])))

    @cached_property
    def jumps(self) -> frozenset[int]:
        """The interior breakpoints j where segments j - 1 and j do not meet."""
        e = self.ends
        return frozenset(j for j in range(2, self.d + 1) if e[j - 2][1] != e[j - 1][0])


@dataclass(frozen=True)
class PwlGroundSet:
    """Segment endpoints as ground elements, left-to-right.

    Jump breakpoints appear twice, the left-limit point first. Alternative
    i holds the two endpoint indices of segment i.
    """

    points: tuple[Point, ...]
    alternatives: tuple[frozenset[int], ...]

    @property
    def n(self) -> int:
        return len(self.points)


def pwl_ground_set(f: PwlFunction) -> PwlGroundSet:
    points: list[Point] = [f.ends[0][0]]
    alternatives: list[frozenset[int]] = []
    for i, (start, end) in enumerate(f.ends, 1):
        if i in f.jumps:  # segment i starts off the last end
            points.append(start)
        points.append(end)
        alternatives.append(frozenset({len(points) - 1, len(points)}))
    return PwlGroundSet(tuple(points), tuple(alternatives))


def pwl_prop3_applicable(f: PwlFunction) -> bool:
    """Whether Proposition 3 certifies the unit-normal rows: d = 2^r with
    r >= 2 and f continuous across one of the two middle quarter spans of
    breakpoints, [d/4+1, d/2+1] or [d/2+1, 3d/4+1]. The rows are the same
    either way; provenance.path names the result that certifies them,
    "closed-form" (Proposition 3) or "general" (Theorem 1), not the code
    that ran.
    """
    d = f.d
    if d < 4 or d & (d - 1):
        return False
    spans = range(d // 4 + 1, d // 2 + 2), range(d // 2 + 1, 3 * d // 4 + 2)
    return any(f.jumps.isdisjoint(span) for span in spans)


def pwl_formulation(f: PwlFunction, kind: EncodingKind) -> tuple[Formulation, RecoveryMap]:
    """An ideal formulation of the epigraph of f, plus the point map.

    The λ variables stand for the ground points: the modeled pair is
    x = Σ λ_v x_v with output y ≥ Σ λ_v y_v (the epigraph direction is a
    free ray and needs no vertex bookkeeping). Jumps that leave a code
    coordinate unreached raise DimensionDeficit, which names them.
    """
    ground = pwl_ground_set(f)
    c = Cdc(ground.n, ground.alternatives)
    e = make_encoding(f.d, kind)
    # Segments i and i + 1 meet unless f jumps; codes i - 1, i differ at ctz(i) < r.
    reached = {(i & -i).bit_length() - 1 for i in range(1, f.d) if i + 1 not in f.jumps}
    if len(reached) < e.r:  # Theorem 1's text, where e.dim == e.r
        jumps = ", ".join(f"t{j}" for j in sorted(f.jumps))
        raise DimensionDeficit(
            f"difference directions span {len(reached)} of {e.r} dimensions; "
            f"intersection digraph is not weakly connected; the jumps at {jumps} remove "
            f"the consecutive-segment steps that would supply the missing code coordinates"
        )
    recovery = RecoveryMap(kind="pwl", points=ground.points, epigraph=True)
    return formulation_for_normals(c, e, sorted(unit_normals(e.r))), recovery
