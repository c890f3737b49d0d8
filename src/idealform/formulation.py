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

from .errors import InputError


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
        # Each error names its field as a formulation document does.
        n, r = self.n_lambda, self.r_z
        for i, eq in enumerate(self.equalities):
            for key, row, width in (("lambda", eq.lam, n), ("z", eq.z, r)):
                if len(row) != width:
                    raise InputError(f"equalities[{i}].{key}: expected {width} "
                                     f"entries, got {len(row)}")
        for i, g in enumerate(self.general_rows):
            for key, row, width in (("normal", g.normal, r), ("lower", g.lower, n),
                                    ("upper", g.upper, n)):
                if len(row) != width:
                    raise InputError(f"general_rows[{i}].{key}: expected {width} "
                                     f"entries, got {len(row)}")
        if len(self.z_bounds) != r:
            raise InputError(f"variables.z.bounds: expected {r} [lo, hi] pairs, "
                             f"got {len(self.z_bounds)}")
        for k, (lo, hi) in enumerate(self.z_bounds):
            if lo > hi:
                raise InputError(f"variables.z.bounds[{k}]: z bounds need lo <= hi")

    @property
    def gamma(self) -> int:
        """Number of paired rows; the inequality count is twice this."""
        return len(self.general_rows)


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
