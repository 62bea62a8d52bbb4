"""Log-barrier interior-point solver for the relaxation model.

Maximizes gamma over the linear rows plus the concave geometric-mean
conditions t_beta <= prod_j (c_j/lambda_j)**lambda_j.  Every constraint
enters a logarithmic barrier: -log of a positive concave function is
convex, so each centering step is a damped Newton method.  The path
starts from a closed-form constructive point; where that point is
missing or not strictly feasible, phase 1 supplies one.  Either point
is used as it is.  A solve given an earlier result of a model of the
same shape may instead start warm, on that result's path (below).

The barrier carries the model's own constraints, each at unit weight,
in three families of terms evaluated for all of their members at once:

* the general rows A z + b >= 0;
* the sign bounds z_v >= 0 of the sign-bounded variables, diagonal;
* the circuits theta_b(c) - t_b > 0.  All theta_b come from one
  np.add.reduceat over the concatenated c entries, less a per-circuit
  sum lambda log lambda fixed once; each circuit's Hessian terms,
  u u^T - w w^T plus a diagonal, pair only its own t and c variables.

Each point is evaluated once, as a _Point: its slacks and their
minimum, the margin, when it is made; phi's log sum and one value vector
V = [1/rho, 1/sign, u_c, u_t, r(r-1) psi, psi, h_c, 1] when first asked
for.  The feasibility test, the line search, the Newton step, the step
bound, the KKT test and the reported residual all read that one
evaluation.  In V, r = theta/slack per circuit, psi = lambda/c,
u_c = r psi, u_t = -1/slack and h_c = u_c/c.  Index and coefficient
arrays that _Barrier fixes once per problem turn V into the gradient
and the Hessian by one np.bincount over V[h_a] V[h_b] h_coef.  The
index arrays follow from the rows' nonzero pattern and the circuits,
the coefficients from the rows' values; so a model of another box of
one root, whose rows keep their pattern, takes the first model's plan
with its own coefficients (phase2_plan).  A row
pair a_kp, a_kq adds (1/rho_k)(1/rho_k)(a_kp a_kq) at (p, q); two c
entries of a circuit add u_l u_r - w_l w_r, written as the single
product r(r-1) psi_l psi_r, since w = sqrt(r) psi.  The Hessian parts
come in a fixed order: the row pairs, rows ascending, then the sign
diagonal, the same-circuit pairs and the c diagonal, so a dense
assembly summed row by row in that order gives the same floats; the
plan touches only the nonzeros.  The step bound reads the row and sign
slacks: 0.99 over the fastest relative shrink rate, capped at 1.

The Newton system is one dense LU, except on models of at least
BLOCK_MIN_NVAR variables (_BlockPlan).  There each circuit's c and t
variables form a block that meets the others only through gamma, mu,
nu and the coupling rows: the vertex and origin rows, and phase 1's
radius row.  Those rows enter as a quasidefinite border (Vanderbei
1995), one unknown per row beside gamma, mu and nu: 15 unknowns on the
benchmark's wide models, against 175 and 235 variables.  Each block, a
diagonal plus its circuit's rank-two term, is inverted in closed form,
with its pivot summed free of the cancellation that sum lambda = 1
causes; the border's Schur complement is equilibrated and solved with
one step of iterative refinement, and the step ends with one
refinement of H d = -g (Skeel 1980), whose residual a nearly active
coupling row's 1/rho^2 would otherwise amplify.

Phase 1 is the same barrier over the same variables, with gamma's
column read as a violation w to minimize: gamma's one row, the origin
budget, is dropped (gamma always has feasible room), every other
general row gets +1 in that column, and the row PHASE1_RADIUS - sum of
the sign-bounded variables >= 0 keeps the minimum of w finite, so that
the infeasibility verdict can read it; where that row binds, the
verdict is a numerical error.  Phase 2 has no such bound: its
multipliers grow like 1/M_i**a_i on a box of half-width M_i, and where
they grow without limit a centering stalls.  One relative-slack rule,
_set_start_slack, sets gamma at the phase-2 start and w at the phase-1
start.

-log(theta(c) - t) - sum_j log c_j is self-concordant (Nesterov &
Nemirovskii 1994), and the sign bounds supply the -log c_j terms.  So
below FULL_STEP_DECREMENT the full Newton step is taken after one
strict-feasibility check: an Armijo search there compares phi values
below float resolution.  That argument holds at unit dual weights
(kappa = 1, below); near a center kappa -> 1, and the strict-feasibility
check stays.

Path following is long-step (Nesterov & Nemirovskii 1994; Renegar
2001): tau grows TAU_FACTOR-fold per outer step and phase 2 centers only
to lambda^2 <= LONG_STEP_DECREMENT in between, which needs about half
the Newton steps of tight centering at every weight.  The weight that
meets the gap target is re-centered to the float floor, so the gap and
KKT checks read an exact center; phase 1 centers tightly, so its
infeasibility verdict does too.

Each centering after a phase's first is primal-dual (Wright 1997;
Waechter & Biegler 2006).  It keeps one dual estimate y per barrier term
(rows, sign bounds, circuits), scaled so that y s = 1 on the central
path, and weights that term's Hessian parts by kappa = y s (h_term names
each part's term).  The gradient, the step bound, the line search and
the stopping tests are the primal barrier's, so a center means what it
meant.  After each step y moves by the Newton step of y s = 1,
y (1/kappa - 1 - r), r the term's relative slack rate along the
direction (a circuit's linearized), kept above 0.01 y.  When tau grows
to tau', y becomes y tau'/tau, so that the true duals y/tau stay where
they are: the Hessian then holds the curvature of the new center, whose
slacks are about tau/tau' of the old, and the step is no longer cut to
about 0.01 by slacks the primal step would shrink past zero.  The first
centering of a phase has no center to take duals from: it weights every
term 1 and hands on y = 1/s.  From multipliers started at 1e-3, the
acceptance corpus took 2,508 Newton steps this way where unit weights
took 3,836; from CANNED_EPS = 0.1 it takes 2,259, 1,012 of them in the
first centering.

Warm starts (Yildirim & Wright 2002; Gondzio & Grothey 2008): each
phase-2 outer centering leaves a PathPoint (tau, z, the carried duals
y, the origin budget's slack) on the result's path.  A branch-and-bound
node's model differs from its parent's only in the big-M constants,
which enter the origin budget and nu's coefficients.  _enter_path tries
the parent's points from the largest tau down: it keeps z but for
gamma, which it moves so that the origin budget keeps its old slack,
and takes the first point that is strictly feasible and centered by
the test _path_follow itself applies, a kappa-weighted Newton decrement
at most LONG_STEP_DECREMENT at that tau.  The path is followed from
there with the same duals.  Where no point passes, the solve is the
cold one, bit for bit; a warm verdict is not retried cold.  On the
non-localizing B&B instance x^2 - x^4 the last point passes, and the
8 warm relaxations take 1 Newton step in all where each took 21 cold.

All arithmetic is float64.  Where the path ends, at tau = num_terms /
(tol_gap (1 + |gamma|)), the largest stationarity residual over the 138
optimal solves of the benchmark's acceptance, wide and high-degree
corpora, with one BLAS thread, is 3.4e-8 (high-degree, n = 4, seed 1)
against tol_kkt 1e-7; the wide model n = 6, degree 5 reads 1.4e-8, and
4.5e-8 with the same point's gradient accumulated in long double.  On
the wide models rounding in the gradient, not the centering, sets it:
among the wide builder's other seeds one optimal model reads 1.6e-7 in
long double.

Everything is deterministic: fixed iteration order, no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import status as st
from .poly import Exponent
from .relaxation import RelaxationModel, geometric_mean, required_magnitude

# Start value of mu and nu, and of phase 1's c variables.  A Newton step on
# a lone -log(mu) term at most doubles mu, so a small start spends the
# first centering's full steps climbing to the center's scale.  Newton
# steps on the acceptance corpus (100 solves): 2,508 / 2,339 / 2,259 /
# 2,234 from 1e-3 / 1e-2 / 1e-1 / 1; from 1, a stress-family model
# (box x10, seed 21) stalls that is optimal from 0.1.
CANNED_EPS = 0.1
START_CONSTRUCTIVE = "constructive"
START_PHASE1 = "phase-1"
START_WARM = "warm"

PHASE1_RADIUS = 1e8  # phase 1 keeps the sign-bounded variables' sum below this

# Models of at least this many variables solve the Newton system circuit
# block by circuit block around a small border (_BlockPlan).  Measured per
# Newton step (gradient, Hessian parts and direction, one BLAS thread,
# 2-core x86-64, 75 generated models of 73-116 variables, two runs): the
# block step takes 0.13-0.17 ms at every size, the dense one 0.08-0.10 ms
# at 73-79 variables, 0.15-0.16 ms at 107-110 and 0.16-0.18 ms at 113-116.
# So the block step costs 1.4-1.8x the dense one below 80 variables,
# 0.95-1.05x at 107-110 and 0.84-0.99x from 113; at 175-235 variables the
# dense step took 0.9-1.9 ms.
BLOCK_MIN_NVAR = 110

# Newton decrement lambda^2 = -grad.d below which the full step needs no
# line search.  With unit weights phi is standard self-concordant (M = 1):
# for lambda < 1 the full step stays in the domain and phi falls by at
# least lambda^2 + lambda + log(1 - lambda), which meets the Armijo
# condition (0.01 lambda^2) up to lambda^2 = 0.46; 1e-3 is well inside.
FULL_STEP_DECREMENT = 1e-3
LONG_STEP_DECREMENT = 0.1  # phase-2 centering tolerance between barrier weights
TAU_FACTOR = 100.0  # barrier-weight growth per outer step

MAX_INNER = 50  # Newton steps per centering
MAX_OUTER = 200  # barrier weights per phase


@dataclass(frozen=True)
class SolverOptions:
    tol_gap: float = 1e-6  # relative duality-gap target
    tol_kkt: float = 1e-7  # scaled stationarity residual


class PathPoint(NamedTuple):
    """A centered point of a phase-2 path: its weight, the point, the
    duals carried there and the origin budget's slack."""

    tau: float
    z: np.ndarray
    duals: np.ndarray
    budget_slack: float


@dataclass(frozen=True)
class SolveResult:
    status: str
    gamma: float | None = None
    mu: np.ndarray = field(default_factory=lambda: np.zeros(0))
    nu: np.ndarray = field(default_factory=lambda: np.zeros(0))
    t: dict[Exponent, float] = field(default_factory=dict)
    c: dict[Exponent, dict[int, float]] = field(default_factory=dict)
    iterations: int = 0
    outer_iterations: int = 0
    duality_gap: float = float("inf")
    kkt_residual: float = float("inf")
    max_residual: float = float("inf")
    gamma_trace: tuple[float, ...] = ()
    message: str = ""
    start: str = ""  # START_CONSTRUCTIVE, START_PHASE1 or START_WARM; "" if infeasible as built
    # A PathPoint after each phase-2 outer centering, tau ascending: the
    # central path that a warm start re-enters.
    path: tuple[PathPoint, ...] = field(default=(), compare=False, repr=False)


def _group_pairs(group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (i, j) of positions of the sorted labels group
    with group[i] == group[j], i-major and j ascending."""
    sizes = np.bincount(group)
    reps = sizes[group]
    left = np.repeat(np.arange(len(group)), reps)
    first = np.repeat(np.cumsum(reps) - reps, reps)
    right = (np.cumsum(sizes) - sizes)[group[left]] + np.arange(len(left)) - first
    return left, right


class _Barrier:
    """min sense * z[gamma] over rows z + rhs >= 0 and the model's sign
    bounds and circuits.

    Every c variable of a circuit is sign-bounded, so a nonpositive c_j
    shows as a nonpositive sign slack; no variable belongs to two
    circuits.

    The arrays fixed here say which entries of a point's value vector V
    (_Point.values), times which constant, make each term: one
    np.bincount(flat, V[h_a] V[h_b] h_coef) gives the Hessian in its
    first nvar^2 slots, from the first n_hess parts, and the gradient's
    terms in the nvar slots g_at after them.  flat is the scatter plan: every
    ordered pair of nonzeros sharing a general row (1/rho_k twice,
    coefficient a_kp a_kq), rows ascending, then the sign diagonal
    (1/sign twice), the same-circuit pairs (u_l u_r, or r(r-1) psi_l
    times psi_r where both are c entries) and the c diagonal (h_c times
    1).  np.bincount adds each entry's parts in that order, as a
    row-by-row dense assembly does.  The gradient's parts follow: the
    row nonzeros row-major (1/rho_k times a_kp) and then the sign, c and
    t terms, each times V's trailing 1; the gradient is tau obj less
    their sums.  Where border is set (_BlockPlan), the same parts, less
    those it drops, fill the block plan's slots instead, the gradient's
    among them, and its constant parts follow.

    Only rows, rhs and h_coef depend on the rows' values; every other
    array depends on their nonzero pattern and the circuits alone.  Each
    constant in h_coef is the product of two entries of the row nonzeros
    followed by a 1 (places h_cl, h_cr), so _set_values reads them all
    in one step, in the constructor and in with_values alike.
    """

    def __init__(self, model: RelaxationModel, sense: float, rows: np.ndarray,
                 rhs: np.ndarray):
        nvar = model.nvar
        self.obj = np.zeros(nvar)
        self.obj[model.gamma_index] = sense
        self.lower = np.asarray(model.nonneg_indices, dtype=np.intp)
        blocks = model.blocks
        nr, nl, nb = len(rhs), len(self.lower), len(blocks)
        self.num_terms = float(nr + nl + nb)
        # Circuits, flattened: entry k belongs to circuit blk[k].
        sizes = [len(blk.c_indices) for blk in blocks]
        self.t_idx = np.array([blk.t_index for blk in blocks], dtype=np.intp)
        self.c_idx = np.array([v for blk in blocks for v in blk.c_indices], dtype=np.intp)
        self.lam = np.array([x for blk in blocks for x in blk.lambdas], dtype=float)
        self.starts = np.cumsum([0] + sizes)[:-1].astype(np.intp)
        self.lam_log_lam = np.add.reduceat(self.lam * np.log(self.lam), self.starts)
        self.blk = np.repeat(np.arange(nb), sizes)
        nc = len(self.c_idx)
        # Offsets of V's parts after 1/rho: 1/sign, u_c, u_t, r(r-1) psi, psi, h_c, 1.
        o_sign = nr
        o_u = o_sign + nl  # u_c then u_t, in the order of the circuit variables
        o_rr = o_u + nc + nb
        o_psi, o_hc = o_rr + nc, o_rr + 2 * nc
        # Row nonzeros, row-major, and every ordered pair within a row.  A
        # part's coefficient is the product of two entries of the row
        # nonzeros followed by a 1 (_set_values); unit is that 1's place.
        self.nz_row, self.nz_col = nz_row, nz_col = np.nonzero(rows)
        unit = len(nz_row)
        pair_l, pair_r = _group_pairs(nz_row)
        # Circuit variables (c entries, then t entries) grouped by circuit.
        owner = np.concatenate([self.blk, np.arange(nb)])
        order = np.argsort(owner, kind="stable")
        left, right = _group_pairs(owner[order])
        circ_l, circ_r = order[left], order[right]
        circ_var = np.concatenate([self.c_idx, self.t_idx])
        self.n_slack = nr + nl  # the row and sign slacks lead joined
        # A circuit's relative slack rate along d: sum of V[u] d over its variables.
        self.u_at, self.u_owner, self.u_var = slice(o_u, o_rr), owner, circ_var
        one = o_hc + nc
        self.psi_at, self.hc_at = slice(o_psi, o_hc), slice(o_hc, one)
        # Each Hessian part's variables (at_p, at_q).
        at_p = np.concatenate([nz_col[pair_l], self.lower, circ_var[circ_l], self.c_idx])
        at_q = np.concatenate([nz_col[pair_r], self.lower, circ_var[circ_r], self.c_idx])
        squares = np.concatenate([nz_row[pair_l], np.arange(o_sign, o_u)])  # 1/rho_k, 1/sign
        both_c = (circ_l < nc) & (circ_r < nc)
        h_a = np.concatenate([squares, np.where(both_c, o_rr, o_u) + circ_l, np.arange(o_hc, one)])
        h_b = np.concatenate([squares, np.where(both_c, o_psi, o_u) + circ_r, np.full(nc, one)])
        units = np.full(len(at_p) - len(pair_l), unit)
        h_cl, h_cr = np.concatenate([pair_l, units]), np.concatenate([pair_r, units])
        # The barrier term of each Hessian part: row k, sign nr + j, circuit nr + nl + b.
        h_term = np.concatenate([squares, o_u + owner[circ_l], o_u + self.blk])
        # The gradient's parts, each times V's trailing 1: the row nonzeros,
        # then the sign, c and t terms, summed into their variables' slots.
        g_sel = np.concatenate([nz_row, np.arange(o_sign, o_rr)])
        g_to = np.concatenate([nz_col, self.lower, circ_var])
        g_cl = np.concatenate([np.arange(unit), np.full(o_rr - o_sign, unit)])
        if nb and nvar >= BLOCK_MIN_NVAR:
            self.border = border = _BlockPlan(self, nr, owner, circ_var)
            part_row = np.concatenate([nz_row[pair_l], np.full(len(at_p) - len(pair_l), -1)])
            hess_at = border.hessian_slots(at_p, at_q, part_row, len(pair_l) + nl)
            keep = hess_at >= 0
            hess_at, h_a, h_b, h_cl, h_cr, h_term = (
                x[keep] for x in (hess_at, h_a, h_b, h_cl, h_cr, h_term))
            self.g_at = grad_at = border.rhs_at
            const_at, const_cl = border.constants(nz_row, nz_col, unit)
            self.n_sums = border.n_sums
        else:
            self.border = None
            hess_at = at_p * nvar + at_q
            grad_at = nvar * nvar + np.arange(nvar)
            self.g_at = slice(nvar * nvar, None)
            const_at, const_cl = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
            self.n_sums = nvar * (nvar + 1)
        # One bincount makes the Hessian's parts (the first n_hess, weighted
        # by kappa), the gradient's, summed into the slots g_at, and the
        # block plan's constant parts.
        self.n_hess = len(hess_at)
        self.flat = np.concatenate([hess_at, grad_at[g_to], const_at])
        self.h_a = np.concatenate([h_a, g_sel, np.full(len(const_at), one)])
        self.h_b = np.concatenate([h_b, np.full(len(g_sel) + len(const_at), one)])
        self.h_cl = np.concatenate([h_cl, g_cl, const_cl])
        self.h_cr = np.concatenate([h_cr, np.full(len(g_sel) + len(const_at), unit)])
        self.h_term = h_term
        self._set_values(rows, rhs)

    def _set_values(self, rows: np.ndarray, rhs: np.ndarray) -> None:
        """Take rows and rhs, and read from rows each part's coefficient
        h_coef: a row pair's a_kp a_kq, a gradient row part's a_kp, a
        coupling row's a_k in the block plan, and 1 for every other part.
        rows must have the nonzero pattern the plan was built on."""
        self.rows, self.rhs = rows, rhs
        coef = np.append(rows[self.nz_row, self.nz_col], 1.0)
        self.h_coef = coef[self.h_cl] * coef[self.h_cr]

    def with_values(self, rows: np.ndarray, rhs: np.ndarray) -> _Barrier:
        """This plan for rows and rhs of the same shape and nonzero
        pattern: every index array shared, the values read again."""
        prob = object.__new__(_Barrier)
        prob.__dict__.update(self.__dict__)
        prob._set_values(rows, rhs)
        return prob


class _BlockPlan:
    """Where a large model's Newton system is solved circuit block by
    circuit block around a small border.

    Each circuit's variables (its c entries, then its t) form a block.  A
    general row with at most one circuit variable among its nonzeros (a
    magnitude row) stays with that variable's block; a row with several
    (the vertex and origin rows, phase 1's radius row) is a coupling row.
    The border is the variables outside every circuit (gamma, mu, nu),
    then one unknown y_k = (kappa_k / rho_k^2) a_k d per coupling row k:
    the quasidefinite system [H0 A_C^T; A_C -D^-1] (Vanderbei 1995), with
    D = diag(kappa / rho^2) and H0 the Hessian less the coupling rows,
    has the Newton step as its first part.

    A block of H0 is Delta + kappa_b (u u^T - w w^T), Delta diagonal: its
    circuit's rank-two term (_Point.values) and the diagonal of the sign
    bounds, the c diagonal and the rows that stay with it.  The
    bincount's output holds, in turn: that diagonal less the c diagonal,
    stacked (nb, size) and padded with ones; the blocks' rows of
    [E | -g], (nb, size, nf + 1), E their border columns; and the
    border's rows of [F | -g], (nf, nf + 1).  A coupling row's a_k (in E
    and in F both ways) enters as constant parts; its -rho_k^2 / kappa_k
    on F's diagonal is set per step (y_diag).
    """

    def __init__(self, prob: _Barrier, nr: int, owner: np.ndarray, circ_var: np.ndarray):
        nvar, nb = len(prob.obj), len(prob.t_idx)
        sizes = np.bincount(owner, minlength=nb)
        self.nb, self.size = nb, int(sizes.max())
        size = self.size
        self.block = np.full(nvar, -1)
        self.block[circ_var] = owner
        self.at = self.block * size  # a circuit variable's row of the stack
        self.at[prob.c_idx] += np.arange(len(prob.c_idx)) - prob.starts[prob.blk]
        self.at[prob.t_idx] += sizes - 1
        self.circ_at, self.c_at = self.at[circ_var], self.at[prob.c_idx]
        # u's and w's places in the (nb, 2, size) stack of _block_direction
        self.u_in_uw = self.circ_at + size * self.block[circ_var]
        self.w_in_uw = self.c_at + size * (self.block[prob.c_idx] + 1)
        self.outer = np.flatnonzero(self.block < 0)  # gamma, mu, nu
        n_g = len(self.outer)
        # Coupling rows: two or more circuit variables among the nonzeros.
        on = self.block[prob.nz_col] >= 0
        self.coupling = np.flatnonzero(np.bincount(prob.nz_row[on], minlength=nr) > 1)
        self.circuits = nr + len(prob.lower) + np.arange(nb)  # their terms in kappa
        self.nf = nf = n_g + len(self.coupling)
        self.place = np.full(nvar, -1)  # border place of the outer variables
        self.place[self.outer] = np.arange(n_g)
        self.y_of = np.full(nr, -1)  # border place of the coupling rows
        self.y_of[self.coupling] = np.arange(n_g, nf)
        self.e0 = nb * size
        self.f0 = self.e0 + nb * size * (nf + 1)
        self.n_sums = self.f0 + nf * (nf + 1)
        self.rhs_at = np.where(self.block >= 0, self.e0 + self.at * (nf + 1) + nf,
                               self.f0 + self.place * (nf + 1) + nf)
        self.y_diag = self.y_of[self.coupling] * (nf + 2)  # in the border's [F | -g]
        self.obj = np.zeros(nf)
        self.obj[:n_g] = prob.obj[self.outer]
        # Each variable's place in [d_outer, d stacked (nb, size)].
        self.order = np.where(self.block >= 0, n_g + self.at, self.place)

    def hessian_slots(self, at_p, at_q, part_row, first_circuit_part) -> np.ndarray:
        """Each Hessian part's slot in the bincount's output, -1 where it is
        dropped: a coupling row's pairs, the circuits' parts from
        first_circuit_part on (the closed form has them), and the
        border-to-block pairs that E holds transposed."""
        nf = self.nf
        bp, bq = self.block[at_p], self.block[at_q]
        slot = np.where(bq >= 0, self.at[at_p],
                        self.e0 + self.at[at_p] * (nf + 1) + self.place[at_q])
        slot = np.where(bp >= 0, slot, self.f0 + self.place[at_p] * (nf + 1) + self.place[at_q])
        dropped = (bp < 0) & (bq >= 0)
        dropped[first_circuit_part:] = True
        dropped |= (part_row >= 0) & (self.y_of[part_row] >= 0)
        return np.where(dropped, -1, slot)

    def constants(self, nz_row, nz_col, unit) -> tuple[np.ndarray, np.ndarray]:
        """(slots, value places) of the constant parts: the padding's unit
        diagonal (place unit), and each coupling row's a_k in E and, both
        ways, in F (its place among the row nonzeros nz_row, nz_col)."""
        nf = self.nf
        pad = np.flatnonzero(np.bincount(self.circ_at, minlength=self.e0) == 0)
        y = self.y_of[nz_row]
        on = np.flatnonzero(y >= 0)
        v, y = nz_col[on], y[on]
        circ = self.block[v] >= 0
        g = self.place[v[~circ]]
        at = np.concatenate([pad, self.e0 + self.at[v[circ]] * (nf + 1) + y[circ],
                             self.f0 + g * (nf + 1) + y[~circ], self.f0 + y[~circ] * (nf + 1) + g])
        return at, np.concatenate([np.full(len(pad), unit), on[circ], on[~circ], on[~circ]])


class _once:
    """A value computed on first access and then kept as a plain instance
    attribute: functools.cached_property without the lock that it takes
    on every first access before Python 3.12."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class _Point:
    """A point z of prob, evaluated once.

    rho, sign and geo are z's row, sign and circuit slacks (theta - t),
    and margin is the smallest of them.  theta and geo are None, and
    margin -inf, where some sign slack is nonpositive: some c_j may then
    lie outside the domain of log.  The barrier value's log sum and the
    value vector V are computed the first time they are asked for.
    """

    def __init__(self, prob: _Barrier, z: np.ndarray):
        self.prob, self.z = prob, z
        self.rho = prob.rows @ z + prob.rhs
        self.sign = z[prob.lower]
        self.theta = self.geo = None
        self.margin = -np.inf
        if np.minimum.reduce(self.sign, initial=np.inf) > 0.0:
            logs = np.add.reduceat(prob.lam * np.log(z[prob.c_idx]), prob.starts)
            self.theta = np.exp(logs - prob.lam_log_lam)
            self.geo = self.theta - z[prob.t_idx]
            self.joined = np.concatenate([self.rho, self.sign, self.geo])
            self.margin = float(np.minimum.reduce(self.joined, initial=np.inf))

    def phi(self, tau: float) -> float:
        """Barrier value at weight tau; inf outside the domain."""
        if not self.margin > 0.0:
            return np.inf
        return tau * float(self.prob.obj @ self.z) - self.log_sum

    @_once
    def log_sum(self) -> float:
        return float(np.add.reduce(np.log(self.joined)))

    @_once
    def values(self) -> np.ndarray:
        """The value vector V = [1/rho, 1/sign, u_c, u_t, r(r-1) psi, psi,
        h_c, 1].  A circuit term -log(slack) has gradient -u and Hessian
        u u^T - w w^T + diag(h_c), w = sqrt(r) psi on its c entries and 0
        on its t.  1/rho, 1/sign and u_t = -1/slack come from one
        reciprocal of joined."""
        prob = self.prob
        c = self.z[prob.c_idx]
        inverse = 1.0 / self.joined
        ratio = self.theta / self.geo
        r = ratio[prob.blk]
        psi = prob.lam / c
        u_c = r * psi
        return np.concatenate([inverse[:prob.n_slack], u_c, -inverse[prob.n_slack:],
                               (ratio * (ratio - 1.0))[prob.blk] * psi, psi, u_c / c, [1.0]])


def _grad_hess(point: _Point, tau: float,
               kappa: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(gradient, system) at point, from one np.bincount over the plan.
    system is the dense Hessian, or where prob.border is set the
    bincount's output that _block_direction reads.  kappa, where given,
    weights each barrier term's Hessian parts (rows, signs, circuits, as
    in joined)."""
    prob, values = point.prob, point.values
    weights = values[prob.h_a] * values[prob.h_b] * prob.h_coef
    if kappa is not None:
        weights[:prob.n_hess] *= kappa[prob.h_term]
    sums = np.bincount(prob.flat, weights, prob.n_sums)
    grad = tau * prob.obj - sums[prob.g_at]
    if prob.border is not None:
        return grad, sums
    nvar = len(grad)
    return grad, sums[:nvar * nvar].reshape(nvar, nvar)


_PLUS_MINUS = np.array([1.0, -1.0])


def _block_direction(point: _Point, sums: np.ndarray, tau: float,
                     kappa: np.ndarray | None) -> np.ndarray:
    """Newton step with every circuit block eliminated (_BlockPlan).

    Each block B = Delta + kappa (u u^T - w w^T) has the closed-form
    inverse Delta^-1 - Delta^-1 U K^-1 U^T Delta^-1 (Woodbury), U = [u w],
    K = [[1/kappa + u'Delta^-1 u, u'Delta^-1 w], [., -pi/kappa]].  The
    pivot pi = 1 - kappa w'Delta^-1 w cancels where the circuit is nearly
    active (sum lambda = 1), so it is summed as sum_j lambda_j o_j /
    Delta_j, o_j being Delta_j less its c-diagonal share; det K =
    -(K_11 pi / kappa + K_12^2) has no subtraction either.

    The border's Schur complement S = F - E^T B^-1 E is equilibrated
    before it is inverted: along the path its unknowns range from mu ~
    1e-9 to y ~ 1e10.  A solve K [d_B; d_F] = [r_B; r_F] takes d_F from S,
    with one step of iterative refinement, and d_B = B^-1 (r_B - E d_F).
    H d + g is the residual of the y rows times D = kappa / rho^2, which
    is large on a nearly active coupling row, so the step ends with one
    refinement of H d = -g (Skeel 1980; Higham 2002, ch. 12), its
    residual formed with y = D A_C d exactly.  sums is overwritten.
    """
    prob, plan = point.prob, point.prob.border
    values, nb, size, nf = point.values, plan.nb, plan.size, plan.nf
    n_g = len(plan.outer)
    k_circ = np.ones(nb) if kappa is None else kappa[plan.circuits]
    other = sums[:plan.e0]
    delta = other.copy()
    delta[plan.c_at] += values[prob.hc_at] * k_circ[prob.blk]
    pivot = np.bincount(prob.blk, prob.lam * other[plan.c_at] / delta[plan.c_at], nb)
    uw = np.zeros(2 * plan.e0)  # u and w of each block, (nb, 2, size)
    uw[plan.u_in_uw] = values[prob.u_at]
    uw[plan.w_in_uw] = np.sqrt(values[prob.u_at][:len(prob.c_idx)] * values[prob.psi_at])
    uw = uw.reshape(nb, 2, size)
    delta = delta.reshape(nb, size)
    uw_d = uw / delta[:, None, :]
    k1 = np.einsum("bs,bks->bk", uw[:, 0], uw_d)  # u'Delta^-1 u, u'Delta^-1 w
    k11 = 1.0 / k_circ + k1[:, 0]
    k_inv = np.empty((nb, 4))
    k_inv[:, 0] = -pivot / k_circ
    k_inv[:, 1] = k_inv[:, 2] = -k1[:, 1]
    k_inv[:, 3] = k11
    k_inv /= (-(k11 * pivot / k_circ + k1[:, 1] * k1[:, 1]))[:, None]  # det K
    b_inv = -uw_d.transpose(0, 2, 1) @ (k_inv.reshape(nb, 2, 2) @ uw_d)
    b_inv.reshape(nb, size * size)[:, ::size + 1] += 1.0 / delta

    stacked = sums[plan.e0:plan.f0].reshape(nb, size, nf + 1)  # [E | -g_B]
    e = stacked.reshape(nb * size, nf + 1)[:, :nf]
    z = (b_inv @ stacked).reshape(nb * size, nf + 1)
    rho = point.rho[plan.coupling]
    stiff = 1.0 / (rho * rho) if kappa is None else kappa[plan.coupling] / (rho * rho)
    border = sums[plan.f0:].reshape(nf, nf + 1)  # [F | -g_F less tau obj]
    border.flat[plan.y_diag] = -1.0 / stiff
    schur = border - e.T @ z
    scale = 1.0 / np.sqrt(np.abs(schur[:, :nf]).max(axis=1))
    scaled = schur[:, :nf] * scale * scale[:, None]
    s_inv = np.linalg.inv(scaled)

    def border_solve(r):  # S x = r, refined once
        r = scale * r
        x = s_inv @ r
        return scale * (x + s_inv @ (r - scaled @ x))

    d_f = border_solve(schur[:, nf] - tau * plan.obj)
    d_b = z[:, nf] - z[:, :nf] @ d_f
    # One refinement of H d = -g, with y = D A_C d.
    e_d = e.T @ d_b
    d_f[n_g:] = stiff * (e_d[n_g:] + border[n_g:, :n_g] @ d_f[:n_g])
    along = np.einsum("bks,bs->bk", uw, d_b.reshape(nb, size)) * k_circ[:, None] * _PLUS_MINUS
    h_b = delta * d_b.reshape(nb, size) + np.einsum("bk,bks->bs", along, uw)
    r_b = (stacked[:, :, nf] - h_b).reshape(-1) - e @ d_f
    r_f = np.zeros(nf)
    r_f[:n_g] = border[:n_g, nf] - tau * plan.obj[:n_g] - border[:n_g, :nf] @ d_f - e_d[:n_g]
    z_r = (b_inv @ r_b.reshape(nb, size, 1)).reshape(-1)
    fix_f = border_solve(r_f - e.T @ z_r)
    return np.concatenate([d_f[:n_g] + fix_f[:n_g], d_b + z_r - z[:, :nf] @ fix_f])[plan.order]


def _newton_step(point: _Point, tau: float,
                 kappa: np.ndarray | None) -> tuple[np.ndarray, float]:
    """(d, lambda^2): the Newton step at point, its Hessian weighted by
    kappa where given, and its decrement -grad.d.  A singular system, on
    either path, raises NumericalError."""
    grad, system = _grad_hess(point, tau, kappa)
    try:
        d = (np.linalg.solve(system, -grad) if point.prob.border is None
             else _block_direction(point, system, tau, kappa))
    except np.linalg.LinAlgError:
        raise st.NumericalError("singular Newton system") from None
    return d, -float(grad @ d)


def _fraction_to_boundary(rate: np.ndarray) -> float:
    """Largest step, capped at 1, along which quantities moving at the
    relative rates rate stay above 0.01 of their value: 0.99 over the
    fastest relative shrink rate."""
    fastest = -float(np.minimum.reduce(rate, initial=0.0))
    return 0.99 / fastest if fastest > 0.99 else 1.0


def _max_step(point: _Point, d: np.ndarray) -> tuple[float, np.ndarray]:
    """(step, rate): the largest step from point along d, capped at 1,
    that keeps the row and sign slacks strictly positive
    (_fraction_to_boundary), and their relative rates along d, rows
    first."""
    prob = point.prob
    rate = np.concatenate([prob.rows @ d, d[prob.lower]]) / point.joined[:prob.n_slack]
    return _fraction_to_boundary(rate), rate


def _dual_step(point: _Point, d: np.ndarray, duals: np.ndarray, kappa: np.ndarray,
               rate: np.ndarray) -> np.ndarray:
    """The duals after a step from point along d: the Newton step of
    y s = 1, y (1/kappa - 1 - r), by _fraction_to_boundary.  r is each
    term's relative slack rate along d: rate for the rows and signs, and
    for a circuit its linearization, sum of V[u] d over its variables."""
    prob = point.prob
    circ = np.bincount(prob.u_owner, point.values[prob.u_at] * d[prob.u_var], len(prob.t_idx))
    move = 1.0 / kappa - 1.0 - np.concatenate([rate, circ])
    return duals * (1.0 + _fraction_to_boundary(move) * move)


def _decrement_floor(tau: float) -> float:
    """Newton-decrement level below which float64 cannot improve the center."""
    return max(1e-17, 1e-21 * tau)


def _stall_tolerance(tau: float) -> float:
    """A stalled line search, or a decrement that stops falling, at this
    decrement still counts as centered."""
    return max(1e-8, 1e-15 * tau)


def _center(
    point: _Point,
    tau: float,
    tol: float = 0.0,
    stop_early=None,
    duals: np.ndarray | None = None,
) -> tuple[_Point, bool, int, float, np.ndarray]:
    """Damped Newton from point until the decrement is at most tol, or at
    the float floor when tol is below it; returns (point, converged,
    steps, decrement, duals).  A decrement within _stall_tolerance that
    no longer falls also ends it as converged: rounding, not the center,
    holds it there.

    duals holds y per barrier term, in the order of joined, scaled so
    that y s = 1 on the central path.  Each Newton system weights a
    term's Hessian by kappa = y s, and each step moves y by _dual_step.
    Without duals every weight is 1, and the returned duals are 1/s.
    """
    prob = point.prob
    steps = 0
    decrement = np.inf
    stop = max(tol, _decrement_floor(tau))
    kappa = None
    converged = False
    for _ in range(MAX_INNER):
        if duals is not None:
            kappa = duals * point.joined
        previous = decrement
        d, decrement = _newton_step(point, tau, kappa)
        if abs(decrement) <= stop or abs(previous) <= abs(decrement) <= _stall_tolerance(tau):
            converged = True
            break
        alpha, rate = _max_step(point, d)
        cand = _Point(prob, point.z + alpha * d)
        if not (0.0 < decrement <= FULL_STEP_DECREMENT and cand.margin > 0.0):
            phi0 = point.phi(tau)
            while alpha > 1e-16:
                if cand.phi(tau) <= phi0 - 0.01 * alpha * decrement:
                    break
                alpha *= 0.5
                cand = _Point(prob, point.z + alpha * d)
            else:
                break  # progress is below float resolution; fine if nearly centered
        if duals is not None:
            duals = _dual_step(point, d, duals, kappa, rate)
        point = cand
        steps += 1
        if stop_early is not None and stop_early(point):
            converged = True
            break
    converged = converged or abs(decrement) <= _stall_tolerance(tau)
    return point, converged, steps, decrement, 1.0 / point.joined if duals is None else duals


def _kkt_residual(point: _Point, tau: float) -> float:
    """Relative stationarity residual with implicit barrier duals 1/(tau*slack)."""
    grad_inf = float(np.max(np.abs(_grad_hess(point, tau)[0])))
    max_dual = 1.0 / point.margin / tau
    return grad_inf / (tau * (1.0 + max_dual))


def _set_start_slack(z: np.ndarray, col: int, rows: np.ndarray, rhs: np.ndarray) -> None:
    """Set z[col] in place so that every row it enters has slack at least
    max(1, 1e-9 * scale), the tightest exactly that; scale is the sum of
    the row's term magnitudes at z[col] = 0.  Against a row constant
    near 1e20 a unit slack is below float64 resolution.

    Column col has the same coefficient in every row it enters: -1 for
    gamma, which enters only the origin budget, and +1 for phase 1's w.
    """
    z[col] = 0.0
    enters = rows[:, col] != 0.0
    rows, rhs = rows[enters], rhs[enters]
    need = max(max(1.0, 1e-9 * (float(np.abs(row * z).sum()) + abs(const)))
               - float(row @ z + const) for row, const in zip(rows, rhs))
    z[col] = rows[0, col] * need


def _constructive_start(model: RelaxationModel) -> np.ndarray | None:
    """Closed-form strictly feasible point exploiting the model structure.

    Multipliers start at epsilon; each circuit gets provisional vertex
    shares within the available capacity, the geometric mean is lifted
    to twice the required magnitude through the origin share (when the
    cover touches the origin) or through bound-point shares backed by
    nu, and gamma absorbs the whole origin budget.  Returns None when
    some vertex capacity cannot be arranged; the generic phase 1 then
    takes over.
    """
    z = np.zeros(model.nvar)
    for v in model.mu_indices + model.nu_indices:
        z[v] = CANNED_EPS
    mu_vec = np.full(len(model.mu_indices), CANNED_EPS)
    nu_zero = np.zeros(model.lag.n)

    boostable: dict[int, int] = {}  # candidate index -> nu variable position
    fixed_part: dict[int, float] = {}
    for j in range(1, len(model.circuits_at)):
        if not model.circuits_at[j]:
            continue
        coeff = model.lag.coeffs.get(model.cands.points[j])
        if coeff is None:
            return None
        fixed = coeff.value(mu_vec, nu_zero)
        fixed_part[j] = fixed
        if coeff.nu:
            boostable[j] = min(coeff.nu)  # variable index whose nu backs this point

    c_vals = [np.zeros(len(blk.c_indices)) for blk in model.blocks]
    for bi, blk in enumerate(model.blocks):
        lams = np.asarray(blk.lambdas)
        s = blk.coeff.value(mu_vec, nu_zero)
        required = required_magnitude(blk.kind, s)
        target = 2.0 * (required + 1.0)
        prov = np.zeros(len(blk.cand_indices))
        origin_k = None
        for k, j in enumerate(blk.cand_indices):
            if j == 0:
                origin_k = k
            elif j in boostable:
                prov[k] = 1.0
            else:
                avail = fixed_part[j]
                if avail <= 1e-9:
                    return None
                prov[k] = min(1.0, 0.9 * avail / len(model.circuits_at[j]))
        if origin_k is not None:
            others = [k for k, j in enumerate(blk.cand_indices) if j != 0]
            log_prod = sum(lams[k] * (np.log(prov[k]) - np.log(lams[k])) for k in others)
            c0 = lams[origin_k] * (target / np.exp(log_prod)) ** (1.0 / lams[origin_k])
            if not np.isfinite(c0) or c0 > 1e7:
                return None
            prov[origin_k] = c0
        else:
            boost_ks = [k for k, j in enumerate(blk.cand_indices) if j in boostable]
            lam_boost = float(sum(lams[k] for k in boost_ks))
            if lam_boost <= 0.0:
                return None
            factor = (target / geometric_mean(prov, lams)) ** (1.0 / lam_boost)
            if not np.isfinite(factor) or factor > 1e5:
                return None
            for k in boost_ks:
                prov[k] *= factor
        c_vals[bi] = prov
        z[blk.t_index] = required + 1.0
        for k, cvar in enumerate(blk.c_indices):
            z[cvar] = prov[k]

    # Back the bound points with enough nu to leave unit slack.
    for j, nu_pos in boostable.items():
        total = sum(c_vals[bi][k] for bi, k in model.circuits_at[j])
        z[model.nu_indices[nu_pos]] = max(CANNED_EPS, total + 1.0 - fixed_part[j])

    _set_start_slack(z, model.gamma_index, model.rows, model.rhs)
    return z


def phase2_plan(model: RelaxationModel, like: _Barrier | None = None) -> _Barrier:
    """The phase-2 plan of model (max gamma): like, with model's values,
    where model's rows have like's shape and nonzero pattern; else a
    fresh one.

    like is the phase-2 plan of another box's model on the same root.
    Those models share their circuits and sign bounds, fixed by the
    root's covers, so their rows are all that can differ: in their
    values (big-M) and, where some M_i**a_i is 0, in their pattern.
    """
    rows = model.rows
    if like is not None and like.rows.shape == rows.shape \
            and np.array_equal(like.rows != 0.0, rows != 0.0):
        return like.with_values(rows, model.rhs)
    return _Barrier(model, -1.0, rows, model.rhs)


def _phase1_problem(model: RelaxationModel) -> _Barrier:
    """min w, gamma's column read as w.

    gamma's row, the origin budget, is dropped (gamma always has
    feasible room); the other rows are shifted by w; sign bounds and
    circuits stay hard.  The last row, PHASE1_RADIUS - sum of the
    sign-bounded variables >= 0, is not shifted: it keeps the problem
    bounded.
    """
    g = model.gamma_index
    free = model.rows[:, g] == 0.0
    rows = model.rows[free]
    rows[:, g] = 1.0
    radius = np.zeros(model.nvar)
    radius[list(model.nonneg_indices)] = -1.0
    return _Barrier(model, 1.0, np.vstack([rows, radius]),
                    np.append(model.rhs[free], PHASE1_RADIUS))


def _phase1_start(prob: _Barrier, w: int) -> np.ndarray:
    """mu = nu = c = CANNED_EPS, t = theta(c) / 2 and w by _set_start_slack."""
    z = np.zeros(len(prob.obj))
    z[prob.lower] = CANNED_EPS
    z[prob.t_idx] = 0.5 * _Point(prob, z).theta
    _set_start_slack(z, w, prob.rows, prob.rhs)
    return z


def _phase1(model: RelaxationModel) -> tuple[np.ndarray | None, str, str, int]:
    """Minimize the uniform violation w from _phase1_start.

    Returns (z, status, message, steps).  z is the phase-2 point, gamma
    set by _set_start_slack, with status optimal, or None with status
    infeasible (no strictly feasible point exists) or numerical-error.
    """
    w = model.gamma_index
    prob = _phase1_problem(model)
    point = _Point(prob, _phase1_start(prob, w))

    total_steps, tau, duals = 0, 1.0, None
    found = lambda p: p.z[w] <= -1e-3
    for _ in range(MAX_OUTER):
        point, converged, steps, _, duals = _center(point, tau, stop_early=found, duals=duals)
        total_steps += steps
        if found(point):
            break
        if not converged:
            return None, st.NUMERICAL_ERROR, "phase-1 centering did not converge", total_steps
        gap = prob.num_terms / tau
        if gap <= 1e-9 * (1.0 + abs(point.z[w])):
            break
        tau *= TAU_FACTOR
        duals = duals * TAU_FACTOR  # the true duals y / tau stay where they are
    else:
        return None, st.NUMERICAL_ERROR, "phase-1 iteration cap exceeded", total_steps

    z = point.z
    if z[w] > -1e-8:
        # Binding, the radius row's slack is ~1/tau, not ~PHASE1_RADIUS / (free vars + 1).
        if point.rho[-1] < 1e-3 * PHASE1_RADIUS:
            return None, st.NUMERICAL_ERROR, "phase-1 bound row active", total_steps
        return (None, st.INFEASIBLE,
                f"no strictly feasible start exists (best violation {z[w]:.3e})", total_steps)

    _set_start_slack(z, w, model.rows, model.rhs)
    return z, st.OPTIMAL, "", total_steps


def _extract(model: RelaxationModel, point: _Point, stat: str, gap: float, kkt: float,
             trace: list[float], steps: int, outers: int, path: list[PathPoint],
             message: str = "") -> SolveResult:
    z = point.z
    c_vals: dict[Exponent, dict[int, float]] = {}
    t_vals: dict[Exponent, float] = {}
    for blk in model.blocks:
        t_vals[blk.beta] = float(z[blk.t_index])
        c_vals[blk.beta] = {
            j: float(z[v]) for j, v in zip(blk.cand_indices, blk.c_indices)
        }
    return SolveResult(
        status=stat,
        gamma=float(z[model.gamma_index]),
        mu=np.array([z[v] for v in model.mu_indices]),
        nu=np.array([z[v] for v in model.nu_indices]),
        t=t_vals,
        c=c_vals,
        iterations=steps,
        outer_iterations=outers,
        duality_gap=gap,
        kkt_residual=kkt,
        max_residual=max(0.0, -point.margin),
        gamma_trace=tuple(trace),
        message=message,
        path=tuple(path),
    )


def solve_relaxation(model: RelaxationModel, opts: SolverOptions | None = None,
                     warm: SolveResult | None = None, plan: _Barrier | None = None
                     ) -> SolveResult:
    """Barrier path-following on the relaxation; maximizes gamma.

    Returns status optimal once the scaled stationarity residual is
    below tol_kkt and the gap estimate is below tol_gap * (1 + |gamma|);
    infeasible when no strictly feasible point exists; numerical-error
    on iteration caps, divergence, line-search failure, or a singular
    Newton system.  The result's start names the start path taken.

    warm, a result solved on a model of the same shape (another box of
    one root), offers its path to re-enter (_enter_path); where no point
    of it is centered for this model, the solve starts cold.  plan, where
    given, is model's phase-2 plan (phase2_plan); else one is built.
    """
    opts = opts or SolverOptions()
    if model.infeasible_reason is not None:
        return SolveResult(status=st.INFEASIBLE, message=model.infeasible_reason)
    prob = phase2_plan(model) if plan is None else plan
    start, steps, path = START_CONSTRUCTIVE, 0, ()
    try:
        entry = None if warm is None else _enter_path(model, prob, warm.path)
        if entry is not None:
            start = START_WARM
            point, tau, duals, path = entry
            result = _path_follow(model, point, 0, opts, tau, duals)
        else:
            z = _constructive_start(model)
            point = None if z is None else _Point(prob, z)
            if point is None or not point.margin > 0.0:
                start = START_PHASE1
                z, stat, message, steps = _phase1(model)
                if z is None:
                    return SolveResult(status=stat, iterations=steps, message=message,
                                       start=start)
                point = _Point(prob, z)
                if not point.margin > 0.0:
                    raise st.NumericalError("the phase-1 point is not strictly feasible")
            result = _path_follow(model, point, steps, opts)
    except st.NumericalError as exc:
        result = SolveResult(status=st.NUMERICAL_ERROR, message=str(exc))
    return replace(result, start=start, path=path + result.path)


def _budget_row(model: RelaxationModel) -> int:
    """The origin budget: the one general row that gamma enters."""
    return int(np.flatnonzero(model.rows[:, model.gamma_index])[0])


def _enter_path(model: RelaxationModel, prob: _Barrier, path: tuple[PathPoint, ...]
                ) -> tuple[_Point, float, np.ndarray, tuple[PathPoint, ...]] | None:
    """The first point of path, from the largest tau down, that is
    centered for this model: (point, tau, duals, the points below tau),
    or None.

    Each point keeps its c, t, mu and nu; gamma moves so that the origin
    budget keeps the slack it had in its own model.  It must be strictly
    feasible, and its Newton decrement at its tau, weighted by kappa =
    y s from its duals y, at most LONG_STEP_DECREMENT: the test by which
    _path_follow accepted it as centered.
    """
    if not path or len(path[0].z) != model.nvar or len(path[0].duals) != prob.num_terms:
        return None  # no path, or one of a model of another shape
    budget, gamma = _budget_row(model), model.gamma_index
    for k in range(len(path) - 1, -1, -1):
        tau, z, duals, slack = path[k]
        z = z.copy()
        z[gamma] += float(model.rows[budget] @ z + model.rhs[budget]) - slack
        point = _Point(prob, z)
        if not point.margin > 0.0:
            continue
        try:
            decrement = _newton_step(point, tau, duals * point.joined)[1]
        except st.NumericalError:
            continue
        if abs(decrement) <= LONG_STEP_DECREMENT:
            return point, tau, duals, path[:k]
    return None


def _path_follow(model: RelaxationModel, point: _Point, total_steps: int,
                 opts: SolverOptions, tau: float = 1.0,
                 duals: np.ndarray | None = None) -> SolveResult:
    """Follow the central path from the strictly feasible point, at
    weight tau with the duals carried there (none: the first centering
    weights every term 1).  The result's path holds each outer
    centering's point."""
    prob = point.prob
    budget = _budget_row(model)
    trace: list[float] = []
    path: list[PathPoint] = []
    outers = 0
    for _ in range(MAX_OUTER):
        gap = prob.num_terms / tau
        point, converged, steps, _, duals = _center(point, tau, LONG_STEP_DECREMENT, duals=duals)
        total_steps += steps
        outers += 1
        if converged and gap <= opts.tol_gap * (1.0 + abs(point.z[model.gamma_index])):
            point, converged, steps, _, duals = _center(point, tau, duals=duals)
            total_steps += steps
        gamma = float(point.z[model.gamma_index])
        trace.append(gamma)
        if not converged:
            return _extract(model, point, st.NUMERICAL_ERROR, gap, _kkt_residual(point, tau),
                            trace, total_steps, outers, path, "inner Newton stalled")
        path.append(PathPoint(tau, point.z, duals, float(point.rho[budget])))
        if gap <= opts.tol_gap * (1.0 + abs(gamma)):
            kkt = _kkt_residual(point, tau)
            if kkt > opts.tol_kkt:
                return _extract(model, point, st.NUMERICAL_ERROR, gap, kkt, trace,
                                total_steps, outers, path,
                                f"stationarity residual {kkt:.2e} above tolerance")
            return _extract(model, point, st.OPTIMAL, gap, kkt, trace, total_steps, outers, path)
        # Jump exactly to the barrier weight that meets the gap target:
        # overshooting a full TAU_FACTOR costs conditioning for no benefit.
        tau_target = 1.01 * prob.num_terms / (opts.tol_gap * (1.0 + abs(gamma)))
        tau_next = tau * TAU_FACTOR
        if tau < tau_target <= tau_next:
            tau_next = tau_target
        duals = duals * (tau_next / tau)  # the true duals y / tau stay where they are
        tau = tau_next
    return _extract(model, point, st.NUMERICAL_ERROR, prob.num_terms / tau,
                    float("inf"), trace, total_steps, outers, path,
                    "outer iteration cap exceeded")
