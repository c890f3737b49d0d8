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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import gt


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
            raise ValueError("a general row needs a nonzero normal")
        if any(map(gt, self.lower, self.upper)):
            raise ValueError("row lower coefficients exceed the upper ones")


@dataclass(frozen=True)
class Formulation:
    n_lambda: int
    r_z: int
    equalities: tuple[LinearEquality, ...]
    general_rows: tuple[GeneralRow, ...]
    z_bounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for eq in self.equalities:
            if len(eq.lam) != self.n_lambda or len(eq.z) != self.r_z:
                raise ValueError("equality row width mismatch")
        for row in self.general_rows:
            if len(row.normal) != self.r_z or len(row.lower) != self.n_lambda:
                raise ValueError("general row width mismatch")
            if len(row.upper) != self.n_lambda:
                raise ValueError("general row width mismatch")
        if len(self.z_bounds) != self.r_z:
            raise ValueError("need one bound pair per z variable")
        if any(lo > hi for lo, hi in self.z_bounds):
            raise ValueError("z bounds need lo <= hi")

    @property
    def gamma(self) -> int:
        """Number of paired rows; the inequality count is twice this."""
        return len(self.general_rows)


@dataclass(frozen=True)
class RecoveryMap:
    """Per ground-set index, the point it stands for in the original space.

    For piecewise-linear instances the points are exact rational (x, y)
    pairs and ``epigraph`` marks that the modeled y is an epigraph output.
    For annulus instances the points are floating-point plane coordinates;
    they are display data only and nothing downstream consumes them.
    ``points`` is None when the geometry is degenerate and no embedding of
    the indices into the original space exists.
    """

    kind: str
    points: tuple[tuple[Fraction, Fraction], ...] | tuple[tuple[float, float], ...] | None
    epigraph: bool = False
