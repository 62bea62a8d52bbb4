"""Bound constraints derived from variable boxes, and cover assembly.

Finite variable bounds l <= x <= u imply, for any even a_i, the valid
inequality x_i**a_i <= M_i**a_i with M_i = max(|l_i|, |u_i|).  Each such
bound constraint contributes the even exponent a_i * e_i as an extra
cover vertex, which is what makes every inner term coverable.  The
exponents come from one rule, select_bound_exponents; other exponents
enter only as an explicit override (PipelineOptions.exponents).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import CandidateSet, Cover
from .geometry import barycentric_coordinates, polytope_vertices
from .poly import Exponent, PopInstance, zero_exponent
from .status import NumericalError

@dataclass(frozen=True)
class BoundConstraint:
    """x_i**exponent <= big_m, i.e. the polynomial big_m - x_i**exponent >= 0."""

    var_index: int
    exponent: int
    big_m: float

    def __post_init__(self):
        if self.exponent < 2 or self.exponent % 2:
            raise ValueError(f"bound exponent must be even and >= 2, got {self.exponent}")
        if not (math.isfinite(self.big_m) and self.big_m >= 0):
            raise ValueError(f"big_m must be finite and nonnegative, got {self.big_m}")

    def point(self, n: int) -> Exponent:
        e = [0] * n
        e[self.var_index] = self.exponent
        return tuple(e)


def select_bound_exponents(
    inst: PopInstance, inner_terms: set[Exponent] | list[Exponent]
) -> tuple[int, ...]:
    """Choose even exponents a so that the origin and the points a_i*e_i
    cover every inner term via the explicit weights lambda_i = beta_i/a_i.

    One shared a = smallest even integer >= 2 and >= the largest total
    degree of the inner terms, plus 2 where a term other than a corner a*e_i has total
    degree a and no point of the instance lies beyond degree a.  Such a
    term lies on the face of conv(0, a*e_1, ..., a*e_n) opposite the
    origin, and no candidate lifts it off that face, so its cover would
    carry no origin weight, which the exact repair needs.
    """
    inner = list(inner_terms)
    if not inner:
        return (2,) * inst.n
    a = max(2, max(sum(b) for b in inner))
    a += a % 2
    top = max(sum(e) for poly in (inst.objective, *inst.constraints) for e in poly)
    if top <= a and any(sum(b) == a and max(b) < a for b in inner):
        a += 2
    return (a,) * inst.n


def box_magnitudes(lower: tuple[float, ...], upper: tuple[float, ...]) -> tuple[float, ...]:
    """max(|l_i|, |u_i|) per coordinate: all that bound constraints see of a box."""
    return tuple(max(abs(lo), abs(hi)) for lo, hi in zip(lower, upper))


def make_bound_constraints(inst: PopInstance, a: tuple[int, ...]) -> list[BoundConstraint]:
    """One bound constraint per variable with big_m = max(|l|,|u|)**a_i."""
    out = []
    for i, big in enumerate(box_magnitudes(inst.lower, inst.upper)):
        try:
            big_m = big ** a[i]
        except OverflowError:
            big_m = math.inf
        if not math.isfinite(big_m):
            raise NumericalError(
                f"bound constraint for variable {i}: {big}**{a[i]} overflows the float range"
            )
        out.append(BoundConstraint(var_index=i, exponent=a[i], big_m=big_m))
    return out


def build_candidate_set(
    support: set[Exponent] | list[Exponent],
    bcs: list[BoundConstraint],
    n: int,
) -> CandidateSet:
    """Candidates = origin + even polytope vertices + bound exponents.

    Even support points that are not vertices of the support's convex
    hull are left out: they become one-sided inner terms instead, so a
    negative coefficient there does not wreck feasibility.  Only even
    points are decided; odd points shape the hull but take no LP.
    """
    support = set(support)
    origin = zero_exponent(n)
    points = polytope_vertices(support | {origin}, even_only=True) - {origin}
    points.update(bc.point(n) for bc in bcs)
    return CandidateSet(points=(origin, *sorted(points)))


def build_candidates_and_covers(
    support: set[Exponent] | list[Exponent],
    bcs: list[BoundConstraint],
    n: int,
) -> tuple[CandidateSet, dict[Exponent, Cover]]:
    """Assemble the candidate set and one cover per inner term.

    Raises CoverUnavailable(beta) at the first inner term outside the
    candidate hull.  With bound constraints from select_bound_exponents
    this never happens; without them it is the common failure mode.
    """
    cands = build_candidate_set(support, bcs, n)
    cand_points = set(cands.points)
    covers: dict[Exponent, Cover] = {}
    for beta in sorted(set(support) - cand_points):
        covers[beta] = barycentric_coordinates(beta, cands)
    return cands, covers
