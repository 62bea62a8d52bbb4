"""Dense two-phase simplex solver for small equality-form LPs.

Solves   max c.x   s.t.  A x = b,  x >= 0   and returns a basic optimal
solution (at most one nonzero per equality row).  Bland's rule is used
for both pivot choices, so the method is deterministic and cannot cycle.
Intended for desk-scale systems: the hull and cover LPs have a few rows
and a few dozen columns, where reading a numpy tableau one entry at a
time costs more than the arithmetic, so the problem, the tableau and
the solution are lists of Python floats.  Each entry takes the IEEE
operations a numpy row update would (a / p, then a - f w), in the same
order, so the pivots and the solution are those of a numpy tableau bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
MAX_PIVOTS = 20000

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_ERROR = "numerical-error"


@dataclass(frozen=True)
class LpProblem:
    """max objective . x  subject to  eq_matrix x = eq_rhs, x >= 0, as
    lists of Python floats: eq_matrix a list of rows."""

    eq_matrix: list[list[float]]
    eq_rhs: list[float]
    objective: list[float]

    def __post_init__(self):
        n = len(self.objective)
        if (len(self.eq_rhs) != len(self.eq_matrix)
                or any(len(row) != n for row in self.eq_matrix)):
            raise ValueError("inconsistent LP dimensions")


@dataclass(frozen=True)
class LpResult:
    status: str
    x: list[float] | None = None
    iterations: int = 0


def _pivot(tableau: list[list[float]], basis: list[int], row: int, col: int) -> None:
    p = tableau[row][col]
    prow = tableau[row] = [v / p for v in tableau[row]]
    for r, cur in enumerate(tableau):
        f = cur[col]
        if r != row and abs(f) > PIVOT_TOL:
            tableau[r] = [v - f * w for v, w in zip(cur, prow)]
    basis[row] = col


def _bland_iterate(tableau: list[list[float]], basis: list[int], ncols: int,
                   budget: int) -> tuple[str, int]:
    """Run simplex pivots on a tableau whose last row is the (min) objective."""
    used = 0
    while True:
        obj = tableau[-1]
        entering = next((j for j in range(ncols) if obj[j] < -FEAS_TOL), -1)
        if entering < 0:
            return OPTIMAL, used
        leaving = -1
        best_ratio = math.inf
        for r in range(len(tableau) - 1):
            a = tableau[r][entering]
            if a > PIVOT_TOL:
                ratio = tableau[r][-1] / a
                # Bland tie-break: smallest basis index leaves.
                if ratio < best_ratio - PIVOT_TOL or (
                    abs(ratio - best_ratio) <= PIVOT_TOL
                    and leaving >= 0
                    and basis[r] < basis[leaving]
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            return UNBOUNDED, used
        _pivot(tableau, basis, leaving, entering)
        used += 1
        if used > budget:
            return NUMERICAL_ERROR, used


def lp_solve(problem: LpProblem) -> LpResult:
    """Two-phase dense simplex with Bland's rule.

    Returns a basic solution: at most len(eq_matrix) entries of x are
    nonzero when the status is optimal.
    """
    A, b = problem.eq_matrix, problem.eq_rhs
    m, n = len(A), len(problem.objective)

    # Phase 1: minimize the sum of artificial variables, with each row
    # normalized to b >= 0 so that the artificials are a feasible start.
    tableau = []
    for r, (row, rhs) in enumerate(zip(A, b)):
        unit = [0.0] * m
        unit[r] = 1.0
        if rhs < 0:
            row, rhs = [v * -1.0 for v in row], rhs * -1.0
        tableau.append(row + unit + [rhs])
    basis = list(range(n, n + m))
    # Price out the artificial basis.
    total = [0.0] * (n + m + 1)
    for row in tableau:
        total = [s + v for s, v in zip(total, row)]
    objective = [0.0] * n + [1.0] * m + [0.0]
    tableau.append([v - s for v, s in zip(objective, total)])

    status, it1 = _bland_iterate(tableau, basis, n + m, MAX_PIVOTS)
    if status == NUMERICAL_ERROR:
        return LpResult(NUMERICAL_ERROR, iterations=it1)
    if -tableau[-1][-1] > FEAS_TOL:
        return LpResult(INFEASIBLE, iterations=it1)

    # Drive any leftover artificial out of the basis (or drop its row).
    rows = []
    for r in range(m):
        if basis[r] >= n:
            pivot_col = next((j for j in range(n) if abs(tableau[r][j]) > 1e-8), -1)
            if pivot_col >= 0:
                _pivot(tableau, basis, r, pivot_col)
                rows.append(r)
            # else: redundant constraint row, dropped below
            elif abs(tableau[r][-1]) > FEAS_TOL:
                return LpResult(INFEASIBLE, iterations=it1)
        else:
            rows.append(r)

    # Phase 2: maximize c.x == minimize (-c).x
    work = [tableau[r][:n] + [tableau[r][-1]] for r in rows]
    basis = [basis[r] for r in rows]
    obj = [-v for v in problem.objective] + [0.0]
    for row, bv in zip(work, basis):
        coef = obj[bv]
        if abs(coef) > PIVOT_TOL:
            obj = [v - coef * w for v, w in zip(obj, row)]
    work.append(obj)

    status, it2 = _bland_iterate(work, basis, n, MAX_PIVOTS)
    if status == NUMERICAL_ERROR:
        return LpResult(NUMERICAL_ERROR, iterations=it1 + it2)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, iterations=it1 + it2)

    x = [0.0] * n
    for row, bv in zip(work, basis):
        x[bv] = 0.0 if abs(row[-1]) < PIVOT_TOL else row[-1]
    return LpResult(OPTIMAL, x=x, iterations=it1 + it2)
