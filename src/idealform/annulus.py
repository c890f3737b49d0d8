"""Relaxations of a planar ring as a choice among radial quadrilaterals.

The ring between concentric circles of radii L and U is covered by d
congruent quadrilaterals. Quadrilateral i spans the angular sector between
steps i-1 and i of the circle split into d equal parts: two vertices sit
on the inner circle and two on the circumscribing radius U / cos(pi/d),
where the outer chord touches the U circle. Consecutive quadrilaterals
share a radial edge, so the 2d corner points form one shared ground set
and the disjunction has the cyclic window structure {2i-3, ..., 2i}.

The formulations are closed-form, each given by its list of normals:
under the reflected code family all paired rows have unit normals; under
the zig-zag family there is one extra row per coordinate pair, with the
normal supported on that pair and weighted to cancel the family's total
displacement. The rows themselves come from the shared builder
formulation_for_normals. Everything here is exact integer arithmetic; the
float corner coordinates live only in the recovery map.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .cdc import Cdc, formulation_for_normals, unit_normals
from .encoding import EncodingKind, check_int, check_order, make_encoding
from .errors import DegenerateSecant, InputError, NotPowerOfTwo
from .formulation import Formulation, RecoveryMap


@dataclass(frozen=True)
class AnnulusSpec:
    """The ring L <= |x| <= U split into d = 2^r angular pieces."""

    inner_radius: float
    outer_radius: float
    d: int

    def __post_init__(self) -> None:
        if not 0 <= self.inner_radius <= self.outer_radius:
            raise InputError("need 0 <= inner radius <= outer radius")
        _check_piece_count(self.d)
        if not math.isfinite(self.corner_radius):
            raise InputError(
                f"outer radius {self.outer_radius} puts the outer corners at an "
                f"infinite radius"
            )

    @property
    def corner_radius(self) -> float:
        """U / cos(pi/d): where the outer corners sit."""
        return self.outer_radius / math.cos(math.pi / self.d)


def _check_piece_count(d: int) -> None:
    check_int(d, "piece count")
    if d < 2 or d & (d - 1):
        raise NotPowerOfTwo(f"piece count must be a power of two, at least 2; got {d}")
    check_order(d.bit_length() - 1, f"{d} pieces")


def annulus_cdc(d: int) -> Cdc:
    """The cyclic window disjunction over the 2d corner indices."""
    _check_piece_count(d)
    n = 2 * d
    # Window i is corners 2i-3..2i, wrapping: four consecutive entries here.
    corners = [n - 1, n, *range(1, n + 1)]
    return Cdc(n, tuple([frozenset(corners[k:k + 4]) for k in range(0, n, 2)]))


def annulus_vertices(spec: AnnulusSpec) -> tuple[tuple[float, float], ...]:
    """The 2d corner points, odd indices inner, even indices outer.

    Corners 2i-1 and 2i sit at angle 2*pi*i/d, at radii L and
    U / cos(pi/d). The outer chord between consecutive corners is tangent
    to the U circle, so the quadrilaterals cover the whole ring.
    """
    d = spec.d
    if d == 2:
        raise DegenerateSecant(
            "two pieces put the half-sector angle at pi/2, where the "
            "circumscribing radius diverges"
        )
    if spec.inner_radius == 0:
        warnings.warn(
            "inner radius 0 collapses all inner corners to the origin",
            RuntimeWarning,
            stacklevel=2,
        )
    outer = spec.corner_radius
    points: list[tuple[float, float]] = []
    for i in range(1, d + 1):
        angle = 2 * math.pi * (i % d) / d
        c, s = math.cos(angle), math.sin(angle)
        points.append((spec.inner_radius * c, spec.inner_radius * s))
        points.append((outer * c, outer * s))
    return tuple(points)


def _recovery(d: int, spec: AnnulusSpec | None) -> RecoveryMap:
    if spec is not None and spec.d != d:
        raise InputError(f"spec is for {spec.d} pieces, formulation for {d}")
    points = None
    if spec is not None and d != 2:
        points = annulus_vertices(spec)
    return RecoveryMap(kind="annulus", points=points)


def annulus_gray_formulation(
    d: int, spec: AnnulusSpec | None = None
) -> tuple[Formulation, RecoveryMap]:
    """Closed form under the reflected codes: r unit-normal row pairs."""
    c, e = annulus_cdc(d), make_encoding(d, EncodingKind.GRAY)
    return formulation_for_normals(c, e, sorted(unit_normals(e.r))), _recovery(d, spec)


def annulus_zigzag_formulation(
    d: int, spec: AnnulusSpec | None = None
) -> tuple[Formulation, RecoveryMap]:
    """Closed form under the zig-zag codes: r(r+1)/2 row pairs.

    Unit normals as in the reflected case, plus one normal per coordinate
    pair k < l, proportional to 2^(-l) e^k - 2^(-k) e^l; its primitive
    integer scaling is e^k - 2^(l-k) e^l.
    """
    c, e = annulus_cdc(d), make_encoding(d, EncodingKind.ZIGZAG)
    normals = unit_normals(e.r) + [
        tuple(1 if j == k else -(2 ** (l - k)) if j == l else 0 for j in range(e.r))
        for k in range(e.r) for l in range(k + 1, e.r)
    ]
    return formulation_for_normals(c, e, sorted(normals)), _recovery(d, spec)
