"""Support classification over the Newton polytope.

Splits a Lagrangian support into cover candidates (even exponents that
may serve as simplex vertices of circuits) and inner terms (everything
else), and computes barycentric coordinates of inner terms over the
candidate set: by exact elimination where the candidates are the n + 1
vertices of a simplex, by linear programming otherwise.

The vertices of a support's hull are found with LPs only where two
exact integer steps leave the answer open:

* axis simplex: when the origin is in the support, a point p >= 0 whose
  nonzero entries lie on axes with a largest pure power m_i * e_i
  (m_i > 0) and satisfy sum p_i / m_i <= 1 equals the convex
  combination (1 - sum p_i/m_i) * 0 + sum (p_i/m_i) * m_i e_i, so it is
  no vertex unless it is one of those corners.  With the library's
  bound exponents this drops every point but the corners;
* lexicographic extremes: the largest and smallest point under the key
  (p_i, p), for each coordinate i, uniquely maximize a linear function
  (e_i plus a vanishing tie-break along the other coordinates), so they
  are vertices.

Each remaining point takes one LP against the points not yet shown to
be non-vertices.  That is enough: the dropped points are combinations
of vertices, and no vertex is ever dropped.  The candidate set needs
only the even vertices: then odd points still shape the hull every LP
compares against, since an even point may be a combination of odd
ones, but are never tested themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import simplex
from .poly import Exponent

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

    Index 0 is always the origin.
    """

    points: tuple[Exponent, ...]

    def __post_init__(self):
        if not self.points or any(e != 0 for e in self.points[0]):
            raise ValueError("candidate set must start with the origin")
        if len(set(self.points)) != len(self.points):
            raise ValueError("candidate points must be pairwise distinct")
        for p in self.points:
            if any(e % 2 for e in p):
                raise ValueError(f"candidate {p} has an odd entry")


@dataclass(frozen=True)
class Cover:
    """Barycentric certificate: beta = sum_j weights[j] * cands.points[j].

    exact_weights holds the same weights as exact rationals, solved from
    the candidate points the weights index; None when those points do not
    determine them uniquely.
    """

    beta: Exponent
    weights: dict[int, float]  # candidate index -> lambda in (0, 1]
    exact_weights: dict[int, Fraction] | None

    @property
    def origin_weight(self) -> float:
        return self.weights.get(0, 0.0)


def _solve_weights(beta: Exponent, points) -> list[Fraction] | None:
    """The unique rational lambda with sum_j lambda_j points[j] = beta
    and sum_j lambda_j = 1, by _exact_solve; None when there is none or
    many."""
    rows = [[p[i] for p in points] for i in range(len(beta))]
    return _exact_solve(rows + [[1] * len(points)], [*beta, 1])


def _exact_solve(rows: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """The unique rational x with rows @ x = rhs, by fraction-free
    elimination over the integers; None when there is none or many."""
    a = [row + [b] for row, b in zip(rows, rhs)]
    n = len(rows[0])
    for col in range(n):
        piv = next((i for i in range(col, len(a)) if a[i][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        p, pivot_row = a[col][col], a[col]
        a = [row if i == col or not row[col]
             else [p * v - row[col] * w for v, w in zip(row, pivot_row)]
             for i, row in enumerate(a)]
    if any(row[n] for row in a[n:]):
        return None
    return [Fraction(a[i][n], a[i][i]) for i in range(n)]


def is_even(e: Exponent) -> bool:
    return all(v % 2 == 0 for v in e)


def is_monomial_square(e: Exponent, coeff: float) -> bool:
    """True iff the term coeff * x^e is a square: even exponent, coeff >= 0."""
    return coeff >= 0 and is_even(e)


def inner_term_kind(e: Exponent) -> str:
    """Two-sided when some entry is odd, one-sided when all are even."""
    return ONE_SIDED if is_even(e) else TWO_SIDED


def _combination_lp(target: Exponent, points: list[Exponent],
                    objective: list[float]) -> simplex.LpResult:
    """LP over lambda >= 0 with sum(lambda) = 1 and sum(lambda_j p_j) = target."""
    rows = [[float(p[i]) for p in points] for i in range(len(target))] + [[1.0] * len(points)]
    rhs = [float(v) for v in target] + [1.0]
    return simplex.lp_solve(simplex.LpProblem(rows, rhs, objective))


def _axis_simplex_interior(points: list[Exponent]) -> set[Exponent]:
    """Points of conv(0, m_i e_i) other than its corners, m_i > 0 being
    the largest pure power on axis i; empty without the origin."""
    n = len(points[0])
    if (0,) * n not in points:
        return set()
    top: dict[int, int] = {}
    for p in points:
        axes = [i for i, v in enumerate(p) if v]
        if len(axes) == 1 and p[axes[0]] > 0:
            top[axes[0]] = max(top.get(axes[0], 0), p[axes[0]])
    corners = {tuple(m if j == i else 0 for j in range(n)) for i, m in top.items()}
    # sum p_i / m_i <= 1, in integers: sum p_i (L / m_i) <= L, L = lcm(m_i).
    lcm = math.lcm(*top.values())
    share = {i: lcm // m for i, m in top.items()}
    return {p for p in points
            if p not in corners and any(p) and min(p) >= 0
            and all(v == 0 or i in top for i, v in enumerate(p))
            and sum(v * share[i] for i, v in enumerate(p) if v) <= lcm}


def polytope_vertices(
    support: set[Exponent] | list[Exponent], even_only: bool = False
) -> set[Exponent]:
    """Vertices of conv(support): points not expressible as a convex
    combination of the remaining support points.  With even_only, just
    the even vertices; odd points are never decided.

    Exact integer steps decide most points without an LP.  Points in
    conv(0, m_i e_i), other than its corners, are dropped (see the
    module docstring); the largest and smallest point under the key
    (p_i, p), for each coordinate i, are vertices.  Every other point
    to decide is a vertex iff its LP against the surviving points is
    infeasible; points found inside drop out of later LPs.  Dropped
    points are convex combinations of vertices, none of which is ever
    dropped, and undecided points stay, so each LP sees the same hull as
    one against the whole support.
    """
    points = sorted(set(support))
    if not points:
        raise ValueError("empty support")
    inside = _axis_simplex_interior(points)
    alive = [p for p in points if p not in inside]
    vertices: set[Exponent] = set()
    for i in range(len(points[0])):
        vertices.add(max(alive, key=lambda p: (p[i], p)))
        vertices.add(min(alive, key=lambda p: (p[i], p)))
    if even_only:
        vertices = {p for p in vertices if is_even(p)}
    for p in [p for p in alive if p not in vertices and (is_even(p) or not even_only)]:
        others = [q for q in alive if q != p]
        res = _combination_lp(p, others, [0.0] * len(others))
        if res.status == simplex.INFEASIBLE:
            vertices.add(p)
        elif res.status == simplex.OPTIMAL:
            alive = others
        else:
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
    outside the convex hull of the candidates.  n + 1 affinely
    independent candidates determine the weights: they are solved
    exactly and no LP runs.  Otherwise an LP finds the weights, and
    their exact values are solved over the candidates it chose.
    """
    if beta in cands.points:
        raise ValueError(f"{beta} is itself a candidate, not an inner term")
    if len(cands.points) == len(beta) + 1:
        lam = _solve_weights(beta, cands.points)
        if lam is not None:
            if any(w.numerator < 0 for w in lam):
                raise CoverUnavailable(beta)
            exact = {j: w for j, w in enumerate(lam) if w.numerator}
            # numerator / denominator is float(w), without its call overhead.
            weights = {j: w.numerator / w.denominator for j, w in exact.items()}
            return _validate_cover(Cover(beta, weights, exact), cands)
    # Prefer origin mass: the certificate repair needs it.
    objective = [1.0] + [0.0] * (len(cands.points) - 1)
    res = _combination_lp(beta, list(cands.points), objective)
    if res.status == simplex.INFEASIBLE:
        raise CoverUnavailable(beta)
    if res.status != simplex.OPTIMAL:
        raise LpFailure(f"barycentric LP for {beta}: {res.status}")
    weights = {j: w for j, w in enumerate(res.x) if w > 1e-12}
    lam = _solve_weights(beta, [cands.points[j] for j in weights])
    exact = None if lam is None else dict(zip(weights, lam))
    return _validate_cover(Cover(beta, weights, exact), cands)


def _validate_cover(cover: Cover, cands: CandidateSet) -> Cover:
    """cover, once its weights are checked to reconstruct its beta."""
    n = len(cover.beta)
    total = sum(cover.weights.values())
    recon = [0.0] * n
    for j, w in cover.weights.items():
        recon = [r + w * p for r, p in zip(recon, cands.points[j])]
    if abs(total - 1.0) > COVER_RESIDUAL_TOL:
        raise LpFailure(f"cover weights for {cover.beta} sum to {total}")
    if max(abs(r - b) for r, b in zip(recon, cover.beta)) > COVER_RESIDUAL_TOL:
        raise LpFailure(f"cover for {cover.beta} reconstructs {tuple(recon)}")
    if len(cover.weights) > n + 1:
        raise LpFailure(f"cover for {cover.beta} is not basic")
    return cover
