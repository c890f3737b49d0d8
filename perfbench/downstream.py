"""What an emitted formulation is worth to a MILP solver.

Each separable problem minimises the sum of concave piecewise-linear costs
f_k(x_k) subject to sum_k x_k = budget. It is solved three times with HiGHS
through ``scipy.optimize.milp``: with the idealform formulations the CLI
emitted under the reflected (gray) codes, under the zig-zag codes, and as
the standard convex-combination model with one binary per segment. scipy is
a dependency of this benchmark only.

HiGHS runs with its primal heuristics off so that the node count reflects
the relaxation and branching rather than heuristic luck, and with a zero
relative gap so that the three optima must agree. Node counts repeat
exactly from run to run; times do not. A time limit keeps a hard instance
of the binary model from stalling the run; a solve cut by it still has to
bracket the optimum the others prove.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from idealform import EncodingKind, make_encoding, pwl_ground_set

# Options beyond scipy's documented five pass to HiGHS verbatim.
HIGHS_OPTIONS = {
    "mip_rel_gap": 0.0,
    "time_limit": 20.0,
    "mip_heuristic_effort": 0.0,
    "mip_heuristic_run_feasibility_jump": False,
    "mip_heuristic_run_rins": False,
    "mip_heuristic_run_rens": False,
    "mip_heuristic_run_root_reduced_cost": False,
    "mip_heuristic_run_zi_round": False,
    "mip_heuristic_run_shifting": False,
}

TOLERANCE = 1e-6


def highs_version() -> str:
    from scipy.optimize._highspy import _core

    return (f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}."
            f"{_core.HIGHS_VERSION_PATCH}")


class _Model:
    """Columns and sparse rows of a MILP under construction."""

    def __init__(self) -> None:
        self.cost: list[float] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.integer: list[int] = []
        self.entries: list[tuple[int, int, float]] = []
        self.row_lower: list[float] = []
        self.row_upper: list[float] = []

    def columns(self, count: int, lower, upper, integer: bool, cost=None) -> int:
        first = len(self.cost)
        self.cost += list(cost) if cost is not None else [0.0] * count
        self.lower += list(lower)
        self.upper += list(upper)
        self.integer += [int(integer)] * count
        return first

    def row(self, terms: dict[int, float], lower: float, upper: float) -> None:
        index = len(self.row_lower)
        self.entries += [(index, col, value) for col, value in terms.items() if value]
        self.row_lower.append(lower)
        self.row_upper.append(upper)

    def solve(self):
        rows, cols, values = zip(*self.entries)
        matrix = coo_array((values, (rows, cols)),
                           shape=(len(self.row_lower), len(self.cost))).tocsr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = milp(
                np.array(self.cost),
                constraints=LinearConstraint(matrix, self.row_lower, self.row_upper),
                integrality=np.array(self.integer),
                bounds=Bounds(self.lower, self.upper),
                options=dict(HIGHS_OPTIONS),
            )
        if result.status not in (0, 1):
            raise RuntimeError(f"HiGHS did not solve the model: {result.message}")
        return result


@dataclass(frozen=True)
class Block:
    """Where one cost's variables sit in an idealform model."""

    first_lambda: int
    first_z: int
    formulation: object
    points: tuple


def idealform_model(formulations, budget: int) -> tuple[_Model, list[Block]]:
    """The problem over emitted formulations: (Formulation, RecoveryMap) pairs."""
    model = _Model()
    blocks = []
    coupling: dict[int, float] = {}
    for f, recovery in formulations:
        xs = [float(x) for x, _ in recovery.points]
        ys = [float(y) for _, y in recovery.points]
        lam = model.columns(f.n_lambda, [0.0] * f.n_lambda, [np.inf] * f.n_lambda,
                            False, cost=ys)
        z = model.columns(f.r_z, [lo for lo, _ in f.z_bounds],
                          [hi for _, hi in f.z_bounds], True)
        for v, x in enumerate(xs):
            coupling[lam + v] = x
        for eq in f.equalities:
            terms = {lam + v: a for v, a in enumerate(eq.lam)}
            terms.update({z + k: b for k, b in enumerate(eq.z) if b})
            model.row(terms, eq.rhs, eq.rhs)
        for g in f.general_rows:
            low = {lam + v: a for v, a in enumerate(g.lower)}
            up = {lam + v: -a for v, a in enumerate(g.upper)}
            for k, b in enumerate(g.normal):
                low[z + k] = low.get(z + k, 0) - b
                up[z + k] = up.get(z + k, 0) + b
            model.row(low, -np.inf, 0.0)
            model.row(up, -np.inf, 0.0)
        blocks.append(Block(lam, z, f, recovery.points))
    model.row(coupling, budget, budget)
    return model, blocks


def binary_model(functions, budget: int) -> _Model:
    """The convex-combination model: one binary per segment."""
    model = _Model()
    coupling: dict[int, float] = {}
    for function in functions:
        ground = pwl_ground_set(function)
        n, d = ground.n, function.d
        lam = model.columns(n, [0.0] * n, [np.inf] * n, False,
                            cost=[float(y) for _, y in ground.points])
        pick = model.columns(d, [0.0] * d, [1.0] * d, True)
        for v, (x, _) in enumerate(ground.points):
            coupling[lam + v] = float(x)
        model.row({lam + v: 1.0 for v in range(n)}, 1.0, 1.0)
        model.row({pick + i: 1.0 for i in range(d)}, 1.0, 1.0)
        for v in range(1, n + 1):
            terms = {lam + v - 1: 1.0}
            terms.update({pick + i: -1.0 for i, alt in enumerate(ground.alternatives)
                          if v in alt})
            model.row(terms, -np.inf, 0.0)
    model.row(coupling, budget, budget)
    return model


def recovery_errors(blocks: list[Block], x: np.ndarray, functions,
                    kind: EncodingKind, budget: int) -> list[str]:
    """Map an idealform solution back through the recovery points and check it.

    The integer z must be the code of one segment, the lambda support must
    lie on that segment's endpoints, the recovered y must be the segment's
    value at the recovered x, and the recovered x must meet the budget.
    """
    errors = []
    total_x = 0.0
    for index, (block, function) in enumerate(zip(blocks, functions)):
        f = block.formulation
        lam = x[block.first_lambda:block.first_lambda + f.n_lambda]
        code = tuple(int(round(v)) for v in x[block.first_z:block.first_z + f.r_z])
        rows = make_encoding(function.d, kind).rows
        if code not in rows:
            errors.append(f"cost {index}: z = {code} is no segment's code")
            continue
        segment = rows.index(code)
        alternative = pwl_ground_set(function).alternatives[segment]
        stray = [v + 1 for v, value in enumerate(lam)
                 if value > TOLERANCE and v + 1 not in alternative]
        if stray:
            errors.append(f"cost {index}: lambda on {stray} outside segment {segment + 1}")
        rx = sum(value * float(px) for value, (px, _) in zip(lam, block.points))
        ry = sum(value * float(py) for value, (_, py) in zip(lam, block.points))
        want = float(function.segment_value(segment + 1, Fraction(rx)))
        if abs(ry - want) > TOLERANCE * max(1.0, abs(want)):
            errors.append(f"cost {index}: recovered y {ry} is not f(x) = {want}")
        total_x += rx
    if abs(total_x - budget) > TOLERANCE * max(1.0, abs(budget)):
        errors.append(f"recovered x sums to {total_x}, not the budget {budget}")
    return errors


@dataclass
class Solve:
    objective: float
    bound: float
    proven: bool
    nodes: int
    seconds: float


def timed_solve(model: _Model) -> tuple[Solve, np.ndarray]:
    start = time.perf_counter()
    result = model.solve()
    seconds = time.perf_counter() - start
    objective = np.inf if result.fun is None else float(result.fun)
    solve = Solve(objective, float(result.mip_dual_bound), result.status == 0,
                  int(result.mip_node_count), seconds)
    return solve, result.x


def consistent(a: Solve, b: Solve) -> bool:
    """Whether two solves of one problem bracket a common optimum."""
    scale = max(1.0, abs(a.objective), abs(b.objective))
    return max(a.bound, b.bound) <= min(a.objective, b.objective) + TOLERANCE * scale
