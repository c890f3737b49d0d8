"""Exception types raised across the package.

Every failure mode that callers are expected to catch has its own class here,
and each class carries the CLI exit code it maps to: 1 malformed input, 2 a
construction precondition failed, 4 a resource cap was hit.
"""

from __future__ import annotations


class IdealformError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 2


class InputError(IdealformError, ValueError):
    """Malformed input data: bad schema, bad field value, bad shape."""
    exit_code = 1


# --- encodings ---

class InvalidOrder(InputError):
    """Recursion order s is out of the supported range."""


class TooFewAlternatives(InputError):
    """An encoding or disjunction needs at least two alternatives."""


# --- disjunctive core ---

class NoDirections(IdealformError):
    """Hyperplane enumeration was asked for an empty direction set."""


class DimensionDeficit(IdealformError):
    """The difference directions do not span the affine hull of the encoding."""


class EncodingNotIdealizable(IdealformError):
    """The encoding fails a gate (convex position or hole-freeness)."""


# --- applications ---

class NotPowerOfTwo(InputError):
    """A construction that needs d = 2**r received some other d."""


class DegenerateSecant(IdealformError):
    """The annulus outer-vertex radius diverges for this number of pieces."""


# --- resource caps ---

class ResourceCapExceeded(IdealformError):
    """A configurable work limit was hit before the computation finished."""
    exit_code = 4


class HoleCheckTooLarge(ResourceCapExceeded):
    """A level of the hole-freeness scan has more candidate points than the cap."""


class TooManyDirections(ResourceCapExceeded):
    """The direction set is too large for exhaustive hyperplane enumeration."""


class TooLargeToEnumerate(ResourceCapExceeded):
    """Vertex enumeration exceeded its work budget."""
