"""Output shapes shared by the general pipeline and the closed forms.

A Formulation is a pure-integer artifact: every coefficient is already
scaled through the smallest positive common denominator, so emitting it to
JSON or LP text is lossless and byte-stable, and comparing two formulations
for equality is exact.

The model it describes, over variables lambda_1..lambda_n and z_1..z_r:

    sum_v lambda_v = 1,   lambda >= 0
    (affine-hull equations on z, when the codes are not full-dimensional)
    lower_k . lambda  <=  normal_k . z  <=  upper_k . lambda   for each row k
    z integer, componentwise within z_bounds

This module alone knows a formulation's field names and sizes: the size
checks at construction and the certificates' integer check both read the
one walk ``integer_fields``, and format a field's name only to report it.
A field of the wrong Python type ends in the error Python raises for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import gt

from .errors import InputError

_BOUND = "variables.z.bounds[{}]"


@dataclass(frozen=True)
class LinearEquality:
    """lam . lambda + z_coeffs . z = rhs, with integer entries."""

    lam: tuple[int, ...]
    z: tuple[int, ...]
    rhs: int


@dataclass(frozen=True)
class GeneralRow:
    """One paired constraint lower.lambda <= normal.z <= upper.lambda."""

    normal: tuple[int, ...]
    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self) -> None:
        if not any(self.normal):
            raise InputError("a general row needs a nonzero normal")
        if any(map(gt, self.lower, self.upper)):
            raise InputError("row lower coefficients exceed the upper ones")


@dataclass(frozen=True)
class Formulation:
    n_lambda: int
    r_z: int
    equalities: tuple[LinearEquality, ...]
    general_rows: tuple[GeneralRow, ...]
    z_bounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n_lambda < 1:
            raise InputError(f"variables.lambda.count: expected at least 1, got {self.n_lambda}")
        for key, i, entries, size in integer_fields(self):
            if len(entries) != size:
                what = "a [lo, hi] pair" if key is _BOUND else f"{size} entries, got {len(entries)}"
                raise InputError(f"{key.format(i)}: expected {what}")
        if len(self.z_bounds) != self.r_z:
            raise InputError(f"variables.z.bounds: expected {self.r_z} [lo, hi] pairs, "
                             f"got {len(self.z_bounds)}")
        for k, (lo, hi) in enumerate(self.z_bounds):
            if lo > hi:
                raise InputError(f"variables.z.bounds[{k}]: z bounds need lo <= hi")

    @property
    def gamma(self) -> int:
        """Number of paired rows; the inequality count is twice this."""
        return len(self.general_rows)


def integer_fields(f: Formulation):
    """f's integer fields in document order, as (key, i, entries, size): the
    field's name in a formulation document is key.format(i), and it must
    hold size entries."""
    n, r = f.n_lambda, f.r_z
    yield "variables.lambda.count", None, (n,), 1
    yield "variables.z.count", None, (r,), 1
    for k, bounds in enumerate(f.z_bounds):
        yield _BOUND, k, bounds, 2
    for i, eq in enumerate(f.equalities):
        yield "equalities[{}].lambda", i, eq.lam, n
        yield "equalities[{}].z", i, eq.z, r
        yield "equalities[{}].rhs", i, (eq.rhs,), 1
    for i, g in enumerate(f.general_rows):
        yield "general_rows[{}].normal", i, g.normal, r
        yield "general_rows[{}].lower", i, g.lower, n
        yield "general_rows[{}].upper", i, g.upper, n


@dataclass(frozen=True)
class RecoveryMap:
    """Per ground-set index, the point it stands for in the original space.

    For piecewise-linear instances the points are exact rational (x, y)
    pairs, each coordinate an int or a Fraction (read from a document, an
    integral one is an int), and ``epigraph`` marks that the modeled y is
    an epigraph output.
    For annulus instances the points are floating-point plane coordinates;
    they are display data only and nothing downstream consumes them.
    ``points`` is None when the geometry is degenerate and no embedding of
    the indices into the original space exists.
    """

    kind: str
    points: (tuple[tuple[int | Fraction, int | Fraction], ...]
             | tuple[tuple[float, float], ...] | None)
    epigraph: bool = False
