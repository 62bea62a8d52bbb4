"""Lagrangian assembly and the convex lower-bounding model.

The Lagrangian

    L(x) = f(x) - gamma - sum_i mu_i g_i(x) - sum_i nu_i (M_i**a_i - x_i**a_i)

is required to decompose into nonnegative circuits plus monomial-square
leftovers.  Each coefficient of L is affine in (gamma, mu, nu); the
decomposition constraints are linear except for one concave
geometric-mean inequality per inner term, so maximizing gamma is a
convex problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covers import BoundConstraint
from .geometry import CandidateSet, Cover, CoverUnavailable, ONE_SIDED, inner_term_kind
from .poly import Exponent, PopInstance, zero_exponent


@dataclass(frozen=True)
class AffineCoeff:
    """A Lagrangian coefficient as an affine function of (gamma, mu, nu)."""

    constant: float = 0.0
    mu: dict[int, float] = field(default_factory=dict)
    nu: dict[int, float] = field(default_factory=dict)
    gamma_coeff: float = 0.0

    def value(self, mu_vec, nu_vec, gamma: float = 0.0) -> float:
        total = self.constant + self.gamma_coeff * gamma
        for i, c in self.mu.items():
            total += c * mu_vec[i]
        for i, c in self.nu.items():
            total += c * nu_vec[i]
        return total

    def is_constant(self) -> bool:
        return not self.mu and not self.nu and self.gamma_coeff == 0.0


@dataclass(frozen=True)
class LagrangianSupport:
    """Union support of the Lagrangian with affine coefficients."""

    n: int
    m: int
    coeffs: dict[Exponent, AffineCoeff]
    uses_bound_constraints: bool

    @property
    def support(self) -> set[Exponent]:
        return set(self.coeffs)


def assemble_lagrangian(
    inst: PopInstance, bcs: list[BoundConstraint], use_bcs: bool
) -> LagrangianSupport:
    """Symbolic coefficients of L on the union support.

    The gamma variable enters only the origin (coefficient -1); each
    bound constraint contributes +nu_i at a_i*e_i and -nu_i*M_i**a_i at
    the origin.
    """
    n = inst.n
    origin = zero_exponent(n)
    constant: dict[Exponent, float] = {origin: 0.0}
    mu_terms: dict[Exponent, dict[int, float]] = {}
    nu_terms: dict[Exponent, dict[int, float]] = {}

    for e, c in inst.objective.items():
        constant[e] = constant.get(e, 0.0) + c
    for i, g in enumerate(inst.constraints):
        for e, c in g.items():
            mu_terms.setdefault(e, {})[i] = mu_terms.get(e, {}).get(i, 0.0) - c
            constant.setdefault(e, 0.0)
    if use_bcs:
        for bc in bcs:
            p = bc.point(n)
            nu_terms.setdefault(p, {})[bc.var_index] = (
                nu_terms.get(p, {}).get(bc.var_index, 0.0) + 1.0
            )
            constant.setdefault(p, 0.0)
            nu_terms.setdefault(origin, {})[bc.var_index] = (
                nu_terms.get(origin, {}).get(bc.var_index, 0.0) - bc.big_m
            )

    coeffs = {
        e: AffineCoeff(
            constant=constant[e],
            mu=mu_terms.get(e, {}),
            nu=nu_terms.get(e, {}),
            gamma_coeff=-1.0 if e == origin else 0.0,
        )
        for e in constant
    }
    return LagrangianSupport(n=n, m=inst.m, coeffs=coeffs, uses_bound_constraints=use_bcs)


@dataclass(frozen=True)
class InnerBlock:
    """Decision variables attached to one covered inner term."""

    beta: Exponent
    kind: str  # two-sided / one-sided
    coeff: AffineCoeff  # the affine inner coefficient f_beta(mu)
    t_index: int
    cand_indices: tuple[int, ...]  # candidate positions with lambda > 0
    c_indices: tuple[int, ...]  # variable indices of the c_{beta,j}
    lambdas: tuple[float, ...]


@dataclass(frozen=True)
class RelaxationModel:
    """max z[gamma] over linear rows A z + b >= 0, sign bounds z_v >= 0
    for v in nonneg_indices and, per inner block, the concave circuit
    condition t <= prod_j (c_j / lambda_j)**lambda_j."""

    nvar: int
    gamma_index: int
    mu_indices: tuple[int, ...]
    nu_indices: tuple[int, ...]
    blocks: tuple[InnerBlock, ...]
    rows: np.ndarray  # (K, nvar)
    rhs: np.ndarray  # (K,)
    row_labels: tuple[str, ...]
    nonneg_indices: tuple[int, ...]
    # per candidate j, its circuits: (block index, position of j in the block), blocks ascending
    circuits_at: tuple[tuple[tuple[int, int], ...], ...]
    infeasible_reason: str | None
    # provenance needed by the certifier
    lag: LagrangianSupport
    cands: CandidateSet
    covers: dict[Exponent, Cover]
    bcs: tuple[BoundConstraint, ...]


def _affine_row(coeff: AffineCoeff, model_vars: "_VarLayout") -> tuple[np.ndarray, float]:
    row = np.zeros(model_vars.nvar)
    if coeff.gamma_coeff:
        row[model_vars.gamma] = coeff.gamma_coeff
    for i, c in coeff.mu.items():
        row[model_vars.mu[i]] = c
    for i, c in coeff.nu.items():
        row[model_vars.nu[i]] = c
    return row, coeff.constant


@dataclass
class _VarLayout:
    gamma: int
    mu: list[int]
    nu: list[int]
    nvar: int


def build_model(
    lag: LagrangianSupport,
    cands: CandidateSet,
    covers: dict[Exponent, Cover],
    bcs: list[BoundConstraint] | tuple[BoundConstraint, ...] = (),
) -> RelaxationModel:
    """Emit the vertex-splitting, origin-budget, magnitude and circuit
    constraints for the covered Lagrangian."""
    n, m = lag.n, lag.m
    origin = zero_exponent(n)
    cand_points = set(cands.points)

    inner = []
    for beta in sorted(lag.support - cand_points):
        coeff = lag.coeffs[beta]
        if coeff.is_constant() and coeff.constant == 0.0:
            continue  # nothing to certify at a vanished term
        if beta not in covers:
            raise CoverUnavailable(beta)
        inner.append((beta, coeff))

    gamma = 0
    mu = list(range(1, 1 + m))
    nu = list(range(1 + m, 1 + m + n)) if lag.uses_bound_constraints else []
    next_var = 1 + m + len(nu)

    blocks: list[InnerBlock] = []
    for beta, coeff in inner:
        cover = covers[beta]
        t_index = next_var
        next_var += 1
        idx = sorted(cover.weights)
        c_indices = tuple(range(next_var, next_var + len(idx)))
        next_var += len(idx)
        blocks.append(
            InnerBlock(
                beta=beta,
                kind=inner_term_kind(beta),
                coeff=coeff,
                t_index=t_index,
                cand_indices=tuple(idx),
                c_indices=c_indices,
                lambdas=tuple(cover.weights[j] for j in idx),
            )
        )

    layout = _VarLayout(gamma=gamma, mu=mu, nu=nu, nvar=next_var)
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    labels: list[str] = []
    infeasible_reason = None

    # Vertex splitting / origin budget: coeff_j(gamma, mu, nu) >= sum_beta c_{beta,j}.
    circuits_at: list[list[tuple[int, int]]] = [[] for _ in cands.points]
    for bi, blk in enumerate(blocks):
        for k, j in enumerate(blk.cand_indices):
            circuits_at[j].append((bi, k))
    for j, point in enumerate(cands.points):
        coeff = lag.coeffs.get(point)
        if coeff is None:
            continue  # candidate exponent absent from the support
        row, const = _affine_row(coeff, layout)
        for bi, k in circuits_at[j]:
            row[blocks[bi].c_indices[k]] -= 1.0
        if not row.any():
            if const <= 0.0:
                infeasible_reason = (
                    f"monomial-square coefficient at {point} is the constant {const}"
                )
            continue  # constant > 0: constraint always holds
        rows.append(row)
        rhs.append(const)
        labels.append("origin-budget" if point == origin else f"vertex-split {point}")

    # Magnitude links: t >= f_beta(mu) and/or t >= -f_beta(mu).
    for blk in blocks:
        srow, sconst = _affine_row(blk.coeff, layout)
        if blk.kind != ONE_SIDED:
            row = -srow.copy()
            row[blk.t_index] += 1.0
            rows.append(row)
            rhs.append(-sconst)
            labels.append(f"magnitude+ {blk.beta}")
        row = srow.copy()
        row[blk.t_index] += 1.0
        rows.append(row)
        rhs.append(sconst)
        labels.append(f"magnitude- {blk.beta}")

    # Sign bounds on everything except gamma.
    nonneg = mu + nu + [v for blk in blocks for v in (blk.t_index, *blk.c_indices)]

    return RelaxationModel(
        nvar=layout.nvar,
        gamma_index=gamma,
        mu_indices=tuple(mu),
        nu_indices=tuple(nu),
        blocks=tuple(blocks),
        rows=np.array(rows) if rows else np.zeros((0, layout.nvar)),
        rhs=np.array(rhs) if rhs else np.zeros(0),
        row_labels=tuple(labels),
        nonneg_indices=tuple(nonneg),
        circuits_at=tuple(map(tuple, circuits_at)),
        infeasible_reason=infeasible_reason,
        lag=lag,
        cands=cands,
        covers=dict(covers),
        bcs=tuple(bcs),
    )


def required_magnitude(kind: str, s):
    """What a circuit's geometric mean must dominate at inner coefficient s:
    |s| for a two-sided term, only -s (when positive) for a one-sided one.
    Works for floats and Fractions alike."""
    return max(0, -s) if kind == ONE_SIDED else abs(s)


def geometric_mean(c: np.ndarray, lambdas: np.ndarray) -> float:
    """prod_j (c_j / lambda_j)**lambda_j, computed in the log domain."""
    c = np.asarray(c, dtype=float)
    if np.any(c <= 0.0):
        return 0.0
    return float(np.exp(np.sum(lambdas * (np.log(c) - np.log(lambdas)))))


def dump_model(model: RelaxationModel) -> str:
    """One constraint per line: LIN rows and GEO circuit conditions."""
    names = {model.gamma_index: "gamma"}
    for k, v in enumerate(model.mu_indices):
        names[v] = f"mu[{k}]"
    for k, v in enumerate(model.nu_indices):
        names[v] = f"nu[{k}]"
    for blk in model.blocks:
        names[blk.t_index] = f"t[{blk.beta}]"
        for j, cvar in zip(blk.cand_indices, blk.c_indices):
            names[cvar] = f"c[{blk.beta},{j}]"

    lines = []
    for row, const, label in zip(model.rows, model.rhs, model.row_labels):
        terms = [f"{row[v]:+g}*{names[v]}" for v in np.nonzero(row)[0]]
        if const:
            terms.append(f"{const:+g}")
        lines.append(f"LIN {' '.join(terms)} >= 0   # {label}")
    for v in model.nonneg_indices:
        lines.append(f"LIN +1*{names[v]} >= 0   # bound var{v}")
    for blk in model.blocks:
        prods = " * ".join(
            f"(c[{blk.beta},{j}]/{lam:g})^{lam:g}"
            for j, lam in zip(blk.cand_indices, blk.lambdas)
        )
        lines.append(f"GEO t[{blk.beta}] <= {prods}")
    return "\n".join(lines)
