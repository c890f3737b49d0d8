"""Independent brute-force oracles used by the test suite.

Each oracle recomputes an answer by a method deliberately different from the
package implementation, so agreement is evidence rather than tautology:

* reduced row echelon form, nullspaces and primitive integer forms in
  Fraction arithmetic (the fraction-free elimination in idealform.linalg
  replaced them),
* rank via nonzero minors (cofactor determinants),
* convex-hull membership via Caratheodory subsets instead of simplex,
* hyperplane arrangements via all-subsets enumeration,
* polytope vertices via exhaustive tight-subset search,
* polytope vertices via the original Fraction cut engine, which recomputes
  every tight set on every cut (the integer engine in idealform.verify
  replaced it),
* polytope vertices via the integer double description over all n lambda
  columns (the run over one column per class of identical columns in
  idealform.verify.enumerate_vertices replaced it),
* convex-hull membership via an exact phase-one simplex, one LP per
  question (the facets of the code hull in idealform.encoding replaced it),
* JSON text via json.dumps with an indent, which runs the standard
  library's pure-Python encoder (idealform.documents.document_text
  replaced it),
* the facets of a hull of integer points from a start cone of one kernel
  per ray (the single elimination in idealform.encoding.Hull.facets
  replaced it),
* LP text one formatted term at a time (the joined rows of
  idealform.lp_format.emit_lp_text replaced it),
* hole-freeness by testing every point of the code box against the hull's
  equations and facets (the prefix-projection scan in
  idealform.encoding.is_hole_free replaced it),
* exact rationals read from a document through Fraction alone, integral
  or not (the reader in idealform.documents, which keeps integral values
  as ints, replaced it),
* paired rows folded once per ground element over per-element user slots
  (idealform.cdc.rows_for_normals, which folds once per distinct user set,
  replaced it),
* spanned hyperplanes by a depth-first walk that reaches every leaf
  subset and eliminates once more there (idealform.cdc.
  spanned_hyperplane_normals, which stops one level short and reads each
  leaf from a pencil of normals by two dot products, replaced it),
* the intersection digraph by testing every pair of alternatives for a
  shared element (idealform.cdc.intersection_digraph, which pairs the
  users of each element, replaced it),
* difference directions with one primitive form per arc (idealform.cdc.
  difference_directions, which takes one per distinct code step,
  replaced it),
* the jumps of a piecewise-linear function, each one-sided value recomputed
  in Fraction from the raw entries (idealform.pwl.PwlFunction.jumps, which
  compares the cached segment ends of the stored entries, replaced the
  derivations that each caller made of its own).

Most are exponential and meant for desk-scale fixtures only.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from typing import Sequence

from idealform.errors import InputError, TooLargeToEnumerate
from idealform.formulation import GeneralRow
from idealform.linalg import (Vec, dd_cut, independent_rows, kernel, pivot_kernel, pivot_step,
                              vec)
from idealform.verify import _cone_and_cuts

F0 = Fraction(0)
F1 = Fraction(1)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a copy of ``rows``, in Fractions.

    Returns the reduced matrix (zero rows dropped) and the list of pivot
    column indices.
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
        inv = F1 / m[r][c]
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


def nullspace(rows: Sequence[Sequence[Fraction]], dim: int) -> list[Vec]:
    """Basis of {x : row . x = 0 for every row}: one vector per free column
    of the RREF, in increasing column order."""
    reduced, pivots = rref(rows)
    basis: list[Vec] = []
    for free in range(dim):
        if free in pivots:
            continue
        v = [F0] * dim
        v[free] = F1
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][free]
        basis.append(tuple(v))
    return basis


def primitive_canonical(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Integer form of a nonzero rational vector: scaled by the denominator
    lcm, divided by the entry gcd, first nonzero entry positive."""
    fracs = vec(v)
    if all(x == 0 for x in fracs):
        raise ValueError("cannot canonicalize the zero vector")
    scale = lcm(*(x.denominator for x in fracs))
    ints = [int(x * scale) for x in fracs]
    g = gcd(*ints)
    ints = [i // g for i in ints]
    if next(i for i in ints if i != 0) < 0:
        ints = [-i for i in ints]
    return tuple(ints)


def det(m: list[list[Fraction]]) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    k = len(m)
    if k == 0:
        return F1
    if k == 1:
        return m[0][0]
    total = F0
    for j in range(k):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        sign = -F1 if j % 2 else F1
        total += sign * m[0][j] * det(minor)
    return total


def rank_by_minors(rows) -> int:
    """Largest k with a nonzero k-by-k minor."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    for k in range(min(nrows, ncols), 0, -1):
        for ris in combinations(range(nrows), k):
            for cis in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in cis] for i in ris]
                if det(sub) != 0:
                    return k
    return 0


def in_hull_caratheodory(point, generators) -> bool:
    """Hull membership via affinely independent subsets of size <= dim+1.

    A point lies in the hull iff some affinely independent generator subset
    carries it with nonnegative (unique) affine weights.
    """
    gens = [vec(g) for g in generators]
    target = vec(point)
    if not gens:
        return False
    n = len(gens[0])
    for size in range(1, n + 2):
        for subset in combinations(gens, size):
            rows = [[g[k] for g in subset] for k in range(n)]
            rows.append([F1] * size)
            aug = [row + [rhs] for row, rhs in zip(rows, list(target) + [F1])]
            reduced, pivots = rref(aug)
            if size in pivots:  # inconsistent
                continue
            if len(pivots) < size:  # affinely dependent; smaller subsets cover it
                continue
            weights = [F0] * size
            for i, p in enumerate(pivots):
                weights[p] = reduced[i][size]
            if all(w >= 0 for w in weights):
                return True
    return False


def hyperplane_normals_all_subsets(directions) -> set[tuple[int, ...]]:
    """Normals of every hyperplane of span(directions) spanned by a subset.

    Enumerates all subsets of every size (the implementation under test only
    walks (m-1)-subsets of a deduplicated list) and computes each normal as
    the nullspace of subset-rows stacked with the orthogonal complement of
    the full span.
    """
    dirs = [vec(d) for d in directions]
    if not dirs:
        return set()
    n = len(dirs[0])
    complement = nullspace(dirs, n)
    m = n - len(complement)  # rank of the direction set
    found: set[tuple[int, ...]] = set()
    for size in range(0, len(dirs) + 1):
        for subset in combinations(dirs, size):
            sub_rank = n - len(nullspace(subset, n))
            if sub_rank != m - 1:
                continue
            stacked = list(subset) + complement
            kernel = nullspace(stacked, n)
            assert len(kernel) == 1
            found.add(primitive_canonical(kernel[0]))
    return found


def hyperplane_normals_by_subset_walk(directions) -> tuple[tuple[int, ...], ...]:
    """Sorted primitive normals of the hyperplanes of span(directions) that
    (m-1)-subsets of the directions span, m their rank: a depth-first walk
    in combinations order, one pivot step per level from the pivots of the
    span's complement, pruned at a dependent direction, with each leaf's
    normal read from the one-dimensional kernel of its own pivots."""
    dirs = list(directions)
    r = len(dirs[0])
    complement = kernel(dirs, r)
    m = r - len(complement)
    normals: set[tuple[int, ...]] = set()

    def walk(pivots, first: int, left: int) -> None:
        if not left:
            normals.add(pivot_kernel(pivots, r)[0])
            return
        for j in range(first, len(dirs) - left + 1):
            extended = pivot_step(pivots, dirs[j])
            if extended is not None:
                walk(extended, j + 1, left - 1)

    pivots = []
    for row in complement:
        pivots = pivot_step(pivots, row)
    walk(pivots, 0, m - 1)
    return tuple(sorted(normals))


def intersection_arcs_all_pairs(c) -> tuple[tuple[int, int], ...]:
    """The arcs (i, j), i < j, 1-based and sorted, between every pair of
    alternatives whose element sets meet, each pair tested."""
    return tuple((i, j) for i, j in combinations(range(1, c.d + 1), 2)
                 if c.alternatives[i - 1] & c.alternatives[j - 1])


def difference_directions_per_arc(arcs, e) -> tuple[tuple[int, ...], ...]:
    """The distinct primitive forms of the code differences h_j - h_i, one
    computed per arc, sorted."""
    return tuple(sorted({
        primitive_canonical([a - b for a, b in zip(e.rows[j - 1], e.rows[i - 1])])
        for i, j in arcs
    }))


def vertices_by_tight_subsets(dim, equalities, inequalities) -> set[Vec]:
    """All vertices of {x : eq rows hold, ineq rows c.x >= rhs} by brute force.

    Tries every subset of inequalities that can complete the equalities to a
    uniquely solvable tight system and keeps the feasible solutions. The
    polytope need not be bounded; unbounded directions simply produce no
    extra basic points.
    """
    eqs = [(vec(c), Fraction(r)) for c, r in equalities]
    ineqs = [(vec(c), Fraction(r)) for c, r in inequalities]
    eq_rows = [list(c) for c, _ in eqs]
    eq_rank = len(rref(eq_rows)[0])
    need = dim - eq_rank
    verts: set[Vec] = set()
    for subset in combinations(range(len(ineqs)), need):
        rows = eq_rows + [list(ineqs[i][0]) for i in subset]
        rhs = [r for _, r in eqs] + [ineqs[i][1] for i in subset]
        aug = [row + [b] for row, b in zip(rows, rhs)]
        reduced, pivots = rref(aug)
        if dim in pivots:
            continue
        if len(pivots) < dim:
            continue
        x = [F0] * dim
        for i, p in enumerate(pivots):
            x[p] = reduced[i][dim]
        point = tuple(x)
        ok = all(sum(c * v for c, v in zip(coef, point)) == r for coef, r in eqs) and all(
            sum(c * v for c, v in zip(coef, point)) >= r for coef, r in ineqs
        )
        if ok:
            verts.add(point)
    return verts


def independent_rows_by_minors(rows) -> list[Vec]:
    """Greedy first-occurrence independent subset, recomputing the rank by
    minors after every candidate row."""
    kept: list[Vec] = []
    for row in rows:
        if rank_by_minors(kept + [vec(row)]) > len(kept):
            kept.append(vec(row))
    return kept


def hull_equations_from_all_directions(points) -> list[tuple[int, ...]]:
    """Primitive affine-hull normals from the nullspace of every difference
    direction, not just an independent subset of them."""
    base = vec(points[0])
    dirs = [tuple(Fraction(x) - b for x, b in zip(p, base)) for p in points[1:]]
    return [primitive_canonical(v) for v in nullspace(dirs, len(base))]


def json_text(doc) -> str:
    """The document as json.dumps writes it with a two-space indent."""
    return json.dumps(doc, indent=2) + "\n"


def _lp_terms(pairs) -> str:
    """Render [(coeff, name), ...] as '+ 2 x - 1 y', skipping zeros."""
    parts = []
    for coeff, name in pairs:
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        parts.append(f"{sign} {abs(coeff)} {name}")
    return " ".join(parts)


def lp_text(f) -> str:
    """The LP text of a formulation, built term by term."""
    lam = [f"lambda_{v}" for v in range(1, f.n_lambda + 1)]
    z = [f"z_{k}" for k in range(1, f.r_z + 1)]
    lines = ["Minimize", f" obj: 0 {lam[0]}", "Subject To"]
    for i, eq in enumerate(f.equalities, 1):
        run = _lp_terms(list(zip(eq.lam, lam)) + list(zip(eq.z, z)))
        lines.append(f" eq_{i}: {run} = {eq.rhs}")
    for k, row in enumerate(f.general_rows, 1):
        lo = _lp_terms(list(zip(row.lower, lam)) + [(-b, name) for b, name in zip(row.normal, z)])
        up = _lp_terms(list(zip(row.normal, z)) + [(-u, name) for u, name in zip(row.upper, lam)])
        lines.append(f" g{k}_lo: {lo} <= 0")
        lines.append(f" g{k}_up: {up} <= 0")
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


def facets_from_kernel_start_cone(e) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """The (a, b, mask) facets of conv(e.rows) with each start ray found as
    the kernel of the other start cuts and the hull equations, then the same
    double-description cuts in the same order."""
    cuts = {(*code, -1): i for i, code in enumerate(e.rows)}
    start = [cuts[row] for row in independent_rows(cuts)]
    fixed = [(*lhs, rhs) for lhs, rhs in e.equations]
    rays, masks = [], []
    for i in start:
        rows = [(*e.rows[j], -1) for j in start if j != i] + fixed
        (ray,) = kernel(rows, e.r + 1)
        sign = -1 if sum(a * b for a, b in zip((*e.rows[i], -1), ray)) > 0 else 1
        rays.append([sign * x for x in ray])
        masks.append(sum(1 << j for j in start if j != i))
    for row, i in cuts.items():
        if i not in start:
            rays, masks = dd_cut(rays, masks, row, 1 << i, False, e.dim - 1)
    return tuple((tuple(ray[:-1]), ray[-1], mask) for ray, mask in zip(rays, masks))


def rows_by_covering_lists(c, e, normals) -> list[tuple]:
    """(normal, lower, upper) per normal from explicit per-element lists of
    the covering alternatives, in exact rationals."""
    out = []
    for normal in normals:
        values = [sum((Fraction(b) * h for b, h in zip(normal, code)), F0) for code in e.rows]
        covering = [[values[s] for s in range(c.d) if v in c.alternatives[s]]
                    for v in range(1, c.n + 1)]
        out.append((tuple(normal), tuple(min(vs) for vs in covering),
                    tuple(max(vs) for vs in covering)))
    return out


def rows_by_slots(c, e, normals) -> tuple:
    """The GeneralRow per normal, folding each element's own users: slot j
    lists each element's j-th user, or its first when it has fewer."""
    users: list[list[int]] = [[] for _ in range(c.n)]
    for i, alternative in enumerate(c.alternatives):
        for v in alternative:
            users[v - 1].append(i)
    slots = [[u[j] if j < len(u) else u[0] for u in users]
             for j in range(max(map(len, users)))]
    columns = [[code[j] for code in e.rows] for j in range(e.r)]
    rows = []
    for normal in normals:
        values = [0] * e.d
        for b, column in zip(normal, columns):
            if b:
                values = [x + b * h for x, h in zip(values, column)]
        lower = upper = list(map(values.__getitem__, slots[0]))
        for slot in slots[1:]:
            picked = list(map(values.__getitem__, slot))
            lower = [x if x < y else y for x, y in zip(lower, picked)]
            upper = [x if x > y else y for x, y in zip(upper, picked)]
        rows.append(GeneralRow(tuple(normal), tuple(lower), tuple(upper)))
    return tuple(rows)


def fraction_rows(f):
    """The formulation's rows as exact (coeffs, rhs) pairs over (lambda, z):
    (equalities, inequalities coeffs . x <= rhs), simplex and box excluded."""
    eqs = [(vec(tuple(eq.lam) + tuple(eq.z)), Fraction(eq.rhs)) for eq in f.equalities]
    ineqs = []
    for row in f.general_rows:
        b, lower, upper = vec(row.normal), vec(row.lower), vec(row.upper)
        ineqs.append((lower + tuple(-x for x in b), F0))
        ineqs.append((tuple(-x for x in upper) + b, F0))
    return eqs, ineqs


def simplex_box_rows(n, z_bounds):
    """Defining rows of the simplex times the box, as exact (coeffs, rhs)
    pairs: (equalities, inequalities coeffs . x <= rhs)."""
    r = len(z_bounds)
    eqs = [((F1,) * n + (F0,) * r, F1)]
    ineqs = []
    for v in range(n):
        coeffs = [F0] * (n + r)
        coeffs[v] = -F1
        ineqs.append((tuple(coeffs), F0))
    for k, (lo, hi) in enumerate(z_bounds):
        coeffs = [F0] * (n + r)
        coeffs[n + k] = -F1
        ineqs.append((tuple(coeffs), Fraction(-lo)))
        coeffs[n + k] = F1
        ineqs.append((tuple(coeffs), Fraction(hi)))
    return eqs, ineqs


def _row_value(coeffs, x) -> Fraction:
    return sum(c * xi for c, xi in zip(coeffs, x) if c)


def _apply_fraction_cut(vertices, rows, coeffs, rhs, is_equality, cap):
    """One cut of the Fraction engine; ``rows`` gains the new row."""
    slack = [_row_value(coeffs, x) - rhs for x in vertices]
    neg = [i for i, s in enumerate(slack) if s < 0]
    pos = [i for i, s in enumerate(slack) if s > 0]
    if not pos and not (is_equality and neg):
        rows.append((coeffs, rhs))
        return vertices
    masks = [sum(1 << bit for bit, (c, b) in enumerate(rows) if _row_value(c, x) == b)
             for x in vertices]
    kept = [x for x, s in zip(vertices, slack) if s == 0 or (s < 0 and not is_equality)]
    seen = set(kept)
    for i in neg:
        for j in pos:
            common = masks[i] & masks[j]
            if any(masks[k] & common == common
                   for k in range(len(vertices)) if k != i and k != j):
                continue
            t = slack[i] / (slack[i] - slack[j])
            point = tuple(a + t * (b - a) for a, b in zip(vertices[i], vertices[j]))
            if point not in seen:
                seen.add(point)
                kept.append(point)
    if len(kept) > cap:
        raise TooLargeToEnumerate(f"over the cap of {cap}")
    rows.append((coeffs, rhs))
    return kept


def vertices_by_fraction_cuts(f, max_vertices=10**9) -> set[Vec]:
    """The relaxation's vertices by the Fraction cut engine: start from the
    simplex-times-box vertices, apply every row as a cut, and recompute all
    tight sets for each cut. Raises TooLargeToEnumerate as the package
    engine does, when a vertex set grows past ``max_vertices``."""
    n = f.n_lambda
    corners = [sorted({Fraction(lo), Fraction(hi)}) for lo, hi in f.z_bounds]
    vertices = [tuple(F1 if u == v else F0 for u in range(n)) + corner
                for v in range(n) for corner in product(*corners)]
    if len(vertices) > max_vertices:
        raise TooLargeToEnumerate(f"over the cap of {max_vertices}")
    base_eqs, base_ineqs = simplex_box_rows(n, f.z_bounds)
    rows = base_eqs + base_ineqs
    eqs, ineqs = fraction_rows(f)
    for coeffs, rhs in eqs:
        vertices = _apply_fraction_cut(vertices, rows, coeffs, rhs, True, max_vertices)
    for coeffs, rhs in ineqs:
        vertices = _apply_fraction_cut(vertices, rows, coeffs, rhs, False, max_vertices)
    return set(vertices)


def vertices_by_unmerged_description(f, sizes=None) -> frozenset:
    """The relaxation's homogeneous integer vertices by the double
    description over all n lambda columns, identical ones included, cut by
    cut through ``dd_cut`` with no cap. ``sizes``, when given, gains the
    number of rays held after each cut."""
    rays, masks, cuts = _cone_and_cuts(f)
    for row, bit, is_equality, _ in cuts:
        rays, masks = dd_cut(rays, masks, row, bit, is_equality, f.n_lambda + f.r_z - 2)
        if sizes is not None:
            sizes.append(len(rays))
    return frozenset(map(tuple, rays))


def valid_by_fraction_points(points, f) -> bool:
    """Whether every point, an exact (lambda, z) vector, satisfies every
    row of f and its z bounds."""
    eqs, ineqs = fraction_rows(f)
    n = f.n_lambda
    for point in points:
        if len(point) != n + f.r_z:
            return False
        if any(_row_value(coeffs, point) != rhs for coeffs, rhs in eqs):
            return False
        if any(_row_value(coeffs, point) > rhs for coeffs, rhs in ineqs):
            return False
        if not all(lo <= point[n + k] <= hi for k, (lo, hi) in enumerate(f.z_bounds)):
            return False
    return True


def has_nonnegative_solution(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> bool:
    """Decide whether rows . x = rhs admits a solution with x >= 0.

    Exact phase-one simplex with Bland's rule, so it terminates and never
    misclassifies. Meant for small feasibility questions such as hull
    membership; not a general LP solver.
    """
    m = len(rows)
    if m == 0:
        return True
    n = len(rows[0])
    # Orient every row so the right-hand side is nonnegative, then append
    # an artificial identity; feasibility == the artificials can be driven
    # to zero.
    tab: list[list[Fraction]] = []
    for row, b in zip(rows, rhs):
        b = Fraction(b)
        if b < 0:
            tab.append([-Fraction(x) for x in row] + [F0] * m + [-b])
        else:
            tab.append([Fraction(x) for x in row] + [F0] * m + [b])
    for i in range(m):
        tab[i][n + i] = F1
    basis = list(range(n, n + m))
    # Reduced costs for min(sum of artificials) with the artificial basis.
    red = [F0] * (n + m)
    for j in range(n):
        red[j] = -sum((tab[i][j] for i in range(m)), F0)
    value = sum((tab[i][-1] for i in range(m)), F0)

    while True:
        enter = next((j for j in range(n + m) if red[j] < 0), None)  # Bland
        if enter is None:
            break
        leave = None
        best: Fraction | None = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:  # cannot happen: the objective is bounded below by 0
            raise AssertionError("phase-one simplex claims unboundedness")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = red[enter]
        red = [x - f * y for x, y in zip(red, tab[leave][:-1])]
        value += f * tab[leave][-1]
        basis[leave] = enter

    return value == 0


def point_in_convex_hull(
    point: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]
) -> bool:
    """Exact membership of a point in the convex hull of the generators."""
    gens = [vec(g) for g in generators]
    if not gens:
        return False
    n = len(gens[0])
    target = vec(point)
    if len(target) != n:
        raise ValueError("point and generators have different dimensions")
    # One equality row per coordinate plus the convexity row.
    rows = [[g[k] for g in gens] for k in range(n)]
    rows.append([F1] * len(gens))
    rhs = list(target) + [F1]
    return has_nonnegative_solution(rows, rhs)


def convex_position_by_simplex(rows) -> bool:
    """No row in the hull of the others, by one simplex LP per row."""
    gens = [vec(r) for r in rows]
    return not any(point_in_convex_hull(g, gens[:i] + gens[i + 1 :])
                   for i, g in enumerate(gens))


def hole_free_by_simplex(rows) -> bool:
    """No non-row lattice point of the bounding box in the hull of the rows,
    by one simplex LP per box point."""
    gens = [vec(r) for r in rows]
    row_set = {tuple(r) for r in rows}
    box = product(*(range(min(c), max(c) + 1) for c in zip(*rows)))
    return not any(point not in row_set and point_in_convex_hull(vec(point), gens)
                   for point in box)


def hole_free_by_box(e) -> bool:
    """No non-code point of the code box satisfies the equations and facets
    of the code hull, by one test per box point."""
    row_set = set(e.rows)
    for point in product(*(range(min(c), max(c) + 1) for c in zip(*e.rows))):
        if point not in row_set and all(
            sum(k * x for k, x in zip(a, point)) == b for a, b in e.equations
        ) and all(sum(k * x for k, x in zip(a, point)) <= b for a, b, _ in e.facets):
            return False
    return True


_MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def rational_by_fraction(value, field: str) -> Fraction:
    """A document entry as a Fraction, whatever its value, with the errors
    the documents reader gives for the same entry."""
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(
            f"{field}: write exact rationals as integers or strings like '3/2', "
            f"not floats"
        )
    exponent = _EXPONENT.search(value) if isinstance(value, str) else None
    if exponent is not None:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise InputError(f"{field}: exponents are limited to {_MAX_EXPONENT} "
                             f"in absolute value")
    try:
        return Fraction(value)
    except ZeroDivisionError as err:
        raise InputError(f"{field}: zero denominator") from err
    except (ValueError, TypeError) as err:
        raise InputError(f"{field}: {err}") from err


def jumps_by_fraction(breakpoints, slopes, intercepts) -> set[int]:
    """The interior breakpoints j where segments j - 1 and j take different
    values, each value recomputed in Fraction from the raw entries."""
    t, a, b = ([Fraction(x) for x in values] for values in (breakpoints, slopes, intercepts))
    return {j for j in range(2, len(a) + 1)
            if a[j - 2] * t[j - 1] + b[j - 2] != a[j - 1] * t[j - 1] + b[j - 1]}
