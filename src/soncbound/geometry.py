"""Support classification over the Newton polytope.

Splits a Lagrangian support into cover candidates (even exponents that
may serve as simplex vertices of circuits) and inner terms (everything
else), and computes barycentric coordinates of inner terms over the
candidate set by linear programming.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .poly import Exponent

ORIGIN = "origin"
SUPPORT_EVEN = "support-even"
BOUND_CONSTRAINT = "bound-constraint"

# A reconstructed cover must hit its target this tightly (absolute).
COVER_RESIDUAL_TOL = 1e-9

TWO_SIDED = "two-sided"
ONE_SIDED = "one-sided"


class CoverUnavailable(Exception):
    """No convex combination of the candidate points reaches the target."""

    def __init__(self, beta: Exponent):
        super().__init__(f"no cover available for inner exponent {beta}")
        self.beta = beta


class LpFailure(Exception):
    """The embedded LP solver gave up (cycling/iteration budget)."""


@dataclass(frozen=True)
class CandidateSet:
    """Ordered even exponents usable as circuit vertices.

    Index 0 is always the origin.  Tags record where each point came
    from: the origin itself, an even support point, or a bound
    constraint exponent a_i * e_i.
    """

    points: tuple[Exponent, ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        if not self.points or any(e != 0 for e in self.points[0]):
            raise ValueError("candidate set must start with the origin")
        if len(set(self.points)) != len(self.points):
            raise ValueError("candidate points must be pairwise distinct")
        for p in self.points:
            if any(e % 2 for e in p):
                raise ValueError(f"candidate {p} has an odd entry")

    def index_of(self, point: Exponent) -> int:
        return self.points.index(point)


@dataclass(frozen=True)
class Cover:
    """Barycentric certificate: beta = sum_j weights[j] * points[j]."""

    beta: Exponent
    weights: dict[int, float]  # candidate index -> lambda in (0, 1]

    @property
    def origin_weight(self) -> float:
        return self.weights.get(0, 0.0)


def is_even(e: Exponent) -> bool:
    return all(v % 2 == 0 for v in e)


def is_monomial_square(e: Exponent, coeff: float) -> bool:
    """True iff the term coeff * x^e is a square: even exponent, coeff >= 0."""
    return coeff >= 0 and is_even(e)


def inner_term_kind(e: Exponent) -> str:
    """Two-sided when some entry is odd, one-sided when all are even."""
    return ONE_SIDED if is_even(e) else TWO_SIDED


def _combination_lp(target: Exponent, points: list[Exponent], objective: np.ndarray) -> simplex.LpResult:
    """LP over lambda >= 0 with sum(lambda) = 1 and sum(lambda_j p_j) = target."""
    n = len(target)
    k = len(points)
    A = np.zeros((n + 1, k))
    for j, p in enumerate(points):
        A[:n, j] = p
    A[n, :] = 1.0
    rhs = np.array(list(target) + [1.0], dtype=float)
    return simplex.lp_solve(simplex.LpProblem(A, rhs, objective))


def polytope_vertices(support: set[Exponent] | list[Exponent]) -> set[Exponent]:
    """Vertices of conv(support): points not expressible as a convex
    combination of the remaining support points."""
    points = sorted(support)
    if not points:
        raise ValueError("empty support")
    vertices: set[Exponent] = set()
    for p in points:
        others = [q for q in points if q != p]
        if not others:
            vertices.add(p)
            continue
        res = _combination_lp(p, others, np.zeros(len(others)))
        if res.status == simplex.INFEASIBLE:
            vertices.add(p)
        elif res.status != simplex.OPTIMAL:
            raise LpFailure(f"vertex test failed for {p}: {res.status}")
    return vertices


def classify_support(
    support: set[Exponent] | list[Exponent], cands: CandidateSet
) -> tuple[list[Exponent], list[tuple[Exponent, str]]]:
    """Split a support into (candidates present, inner terms with kind tags).

    Candidates are exactly the exponents of cands; every other support
    exponent is an inner term, tagged two-sided when it has an odd entry
    and one-sided when all entries are even.
    """
    cand_set = set(cands.points)
    inner = [(e, inner_term_kind(e)) for e in sorted(support) if e not in cand_set]
    return list(cands.points), inner


def barycentric_coordinates(beta: Exponent, cands: CandidateSet) -> Cover:
    """Barycentric coordinates of beta over the candidate set.

    Returns a basic solution (at most n+1 nonzero weights) that
    maximizes the origin weight; raises CoverUnavailable when beta lies
    outside the convex hull of the candidates.
    """
    if beta in cands.points:
        raise ValueError(f"{beta} is itself a candidate, not an inner term")
    objective = np.zeros(len(cands.points))
    objective[0] = 1.0  # prefer origin mass: the certificate repair needs it
    res = _combination_lp(beta, list(cands.points), objective)
    if res.status == simplex.INFEASIBLE:
        raise CoverUnavailable(beta)
    if res.status != simplex.OPTIMAL:
        raise LpFailure(f"barycentric LP for {beta}: {res.status}")
    weights = {j: float(w) for j, w in enumerate(res.x) if w > 1e-12}
    cover = Cover(beta=beta, weights=weights)
    _validate_cover(cover, cands)
    return cover


def _validate_cover(cover: Cover, cands: CandidateSet) -> None:
    n = len(cover.beta)
    total = sum(cover.weights.values())
    recon = np.zeros(n)
    for j, w in cover.weights.items():
        recon += w * np.asarray(cands.points[j], dtype=float)
    if abs(total - 1.0) > COVER_RESIDUAL_TOL:
        raise LpFailure(f"cover weights for {cover.beta} sum to {total}")
    if np.max(np.abs(recon - np.asarray(cover.beta, dtype=float))) > COVER_RESIDUAL_TOL:
        raise LpFailure(f"cover for {cover.beta} reconstructs {recon}")
    if len(cover.weights) > n + 1:
        raise LpFailure(f"cover for {cover.beta} is not basic")
