"""Plain LP-format text for handing a formulation to an off-the-shelf solver.

Each paired row splits into its two one-sided inequalities, moved to the
all-on-the-left convention so every coefficient stays an integer:

    g{k}_lo:  lower . lambda - normal . z <= 0
    g{k}_up:  normal . z - upper . lambda <= 0

Variables are lambda_1..lambda_n (continuous, nonnegative; the simplex
equality caps them at 1) and z_1..z_r (general integers with their box
bounds). The writer is deterministic: same formulation, same bytes.

Each row is written in one pass with C-level joins: zero coefficients drop
out through ``filter`` and ``compress``, and each nonzero coefficient maps
to its "+ 3 " or "- 3 " prefix through a dict filled once per emit. Prefixes
and names, space-suffixed once per emit, fill alternate slots of one list,
joined once less its last space, so no string is made per term. Row fields
may be any sequences, tuples or lists; a non-int entry raises InputError.
The bytes are checked against the per-term writer kept as a test oracle.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import neg

from .errors import InputError
from .formulation import Formulation

__all__ = ["emit_lp_text"]


class _Prefixes(dict):
    """Coefficient -> its term prefix, '+ 3 ' or '- 3 ', made on first use."""

    def __missing__(self, coeff):
        if type(coeff) is not int:
            raise InputError(f"LP text holds integers only, got {coeff!r}")
        prefix = self[coeff] = f"- {abs(coeff)} " if coeff < 0 else f"+ {coeff} "
        return prefix


def emit_lp_text(f: Formulation) -> str:
    numbers = chain([eq.rhs for eq in f.equalities], *f.z_bounds)
    if bad := [x for x in numbers if type(x) is not int]:
        raise InputError(f"LP text holds integers only, got {bad[0]!r}")
    lam = [f"lambda_{v}" for v in range(1, f.n_lambda + 1)]
    z = [f"z_{k}" for k in range(1, f.r_z + 1)]
    lam_z = [f"{name} " for name in lam + z]
    z_lam = lam_z[f.n_lambda:] + lam_z[:f.n_lambda]
    prefix = _Prefixes().__getitem__

    def terms(coeffs, names) -> str:
        """'+ 2 x - 1 y' over the nonzero coefficients and their names."""
        kept = list(compress(names, coeffs))
        parts = kept * 2
        parts[::2] = map(prefix, filter(None, coeffs))
        parts[1::2] = kept
        return "".join(parts)[:-1]

    lines = ["Minimize", f" obj: 0 {lam[0]}", "Subject To"]
    for i, eq in enumerate(f.equalities, 1):
        lines.append(f" eq_{i}: {terms([*eq.lam, *eq.z], lam_z)} = {eq.rhs}")
    for k, row in enumerate(f.general_rows, 1):
        lines.append(f" g{k}_lo: {terms([*row.lower, *map(neg, row.normal)], lam_z)} <= 0")
        lines.append(f" g{k}_up: {terms([*row.normal, *map(neg, row.upper)], z_lam)} <= 0")
    lines.append("Bounds")
    for name in lam:
        lines.append(f" {name} >= 0")
    for name, (low, high) in zip(z, f.z_bounds):
        lines.append(f" {low} <= {name} <= {high}")
    if z:
        lines.append("Generals")
        lines.append(" " + " ".join(z))
    lines.append("End")
    return "\n".join(lines) + "\n"
