"""A posteriori certification of solver output.

One repair, in exact rational arithmetic, turns float multipliers and
vertex shares into a certificate whose inequalities hold exactly:
multipliers are clamped nonnegative, vertex shares are scaled down
exactly where a splitting constraint is violated, each circuit's origin
share is set in closed form, rounded up, so that its circuit inequality
holds as an integer-power inequality, and the bound is re-derived from
the origin budget.  repair_and_certify runs it on the solver output and
rounds the bound down to a float; strict_gamma runs it again on the
certificate's own floats.  Repair can only lower the bound, never raise
it above the solver's value.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .poly import Exponent, PopInstance, evaluate, zero_exponent
from .relaxation import RelaxationModel, required_magnitude
from .barrier import SolveResult

SOUNDNESS_SLACK = 1e-6  # f(x) >= gamma - SOUNDNESS_SLACK * (1 + |gamma|)
FEAS_SAMPLE_TOL = 1e-9  # sampled point counts as feasible when g >= -tol
ROOT_BITS = 64  # significant bits of the rounded-up root in each origin share
_FLOAT_MAX = Fraction(sys.float_info.max)


class RepairFailure(Exception):
    """The solver output could not be repaired into a certificate."""


@dataclass(frozen=True)
class CircuitCertificate:
    beta: Exponent
    lambdas: dict[int, float]  # candidate index -> barycentric weight
    c: dict[int, float]  # candidate index -> repaired vertex share
    inner_coeff: float  # f_beta(mu) at the clamped multipliers


@dataclass(frozen=True)
class Certificate:
    gamma_certified: float
    mu: np.ndarray
    nu: np.ndarray
    circuits: tuple[CircuitCertificate, ...]
    leftovers: dict[int, float]  # candidate index -> unused coefficient mass
    candidates: tuple[Exponent, ...]

    def to_json(self) -> str:
        data = {
            "gamma": self.gamma_certified,
            "mu": [float(v) for v in self.mu],
            "nu": [float(v) for v in self.nu],
            "candidates": [list(p) for p in self.candidates],
            "circuits": [
                {
                    "beta": list(circ.beta),
                    "lambda": [circ.lambdas.get(j, 0.0) for j in range(len(self.candidates))],
                    "c": [circ.c.get(j, 0.0) for j in range(len(self.candidates))],
                }
                for circ in self.circuits
            ],
            "leftovers": [self.leftovers.get(j, 0.0) for j in range(len(self.candidates))],
        }
        return json.dumps(data, indent=1)


def repair_and_certify(model: RelaxationModel, result: SolveResult) -> Certificate:
    """Turn an optimal SolveResult into a rigorously repaired Certificate.

    The bound is the exact repair's, rounded down to a float; the
    certificate's other floats are its exact values, rounded.  Raises
    RepairFailure when a cover carries no origin weight while its inner
    coefficient is nonzero, or when a non-origin share vanished.
    """
    if result.gamma is None:
        raise RepairFailure("solver result carries no bound")
    rep = _repair(model, result.mu, result.nu, result.c, Fraction(result.gamma))
    gamma = _float_below(rep.gamma)
    circuits = tuple(
        CircuitCertificate(
            beta=blk.beta,
            lambdas=dict(model.covers[blk.beta].weights),
            c={j: float(v) for j, v in rep.shares[blk.beta].items()},
            inner_coeff=float(rep.inner[blk.beta]),
        )
        for blk in model.blocks
    )
    leftovers = {0: float(rep.budget - Fraction(gamma))}
    leftovers.update((j, float(v)) for j, v in rep.leftovers.items())
    return Certificate(
        gamma_certified=gamma,
        mu=np.array([float(v) for v in rep.mu]),
        nu=np.array([float(v) for v in rep.nu]),
        circuits=circuits,
        leftovers=leftovers,
        candidates=model.cands.points,
    )


def strict_gamma(model: RelaxationModel, cert: Certificate) -> Fraction:
    """Re-derive the certified bound in exact rational arithmetic.

    This is the exact repair again, run on the certificate's own floats
    (multipliers and vertex shares; origin shares are recomputed) and
    capped at its certified bound, so strict <= certified holds by
    construction.  The returned Fraction is a rigorous lower bound.
    """
    shares = {circ.beta: circ.c for circ in cert.circuits}
    return _repair(model, cert.mu, cert.nu, shares, Fraction(cert.gamma_certified)).gamma


def strict_gamma_float(model: RelaxationModel, cert: Certificate) -> float:
    """Float representation of the strict bound, rounded toward -inf."""
    return _float_below(strict_gamma(model, cert))


def _float_below(value: Fraction) -> float:
    """The largest float <= value."""
    nearest = float(value)  # correctly rounded
    return nearest if Fraction(nearest) <= value else math.nextafter(nearest, -math.inf)


@dataclass(frozen=True)
class _Repair:
    gamma: Fraction  # min(budget, cap)
    budget: Fraction  # origin coefficient minus the origin shares
    mu: list[Fraction]
    nu: list[Fraction]
    shares: dict[Exponent, dict[int, Fraction]]  # circuit -> candidate index -> share
    inner: dict[Exponent, Fraction]  # circuit -> inner coefficient f_beta(mu)
    leftovers: dict[int, Fraction]  # non-origin candidate index -> unused mass


def _repair(model: RelaxationModel, mu, nu, c, cap: Fraction) -> _Repair:
    """The one certificate repair, in exact rational arithmetic.

    Multipliers are clamped at 0, vertex shares c (circuit -> candidate
    index -> share) are scaled down exactly where a splitting constraint
    is violated, each circuit's origin share is set in closed form
    (_origin_share), and the bound is re-derived from the origin budget
    and capped at cap.
    """
    mu = [Fraction(max(0.0, float(v))) for v in mu]
    nu = [Fraction(max(0.0, float(v))) for v in nu]
    nu_full = nu + [Fraction(0)] * (model.lag.n - len(nu))
    shares = {beta: {j: Fraction(float(v)) for j, v in cb.items()} for beta, cb in c.items()}

    leftovers = {}
    for j, point in enumerate(model.cands.points[1:], start=1):
        coeff = model.lag.coeffs.get(point)
        value = _exact_affine(coeff, mu, nu_full) if coeff is not None else Fraction(0)
        if value < 0:
            raise RepairFailure(
                f"vertex coefficient at {point} is negative ({float(value):.3e}) after clamping"
            )
        betas = [model.blocks[bi].beta for bi, _ in model.circuits_at[j]]
        total = sum(shares[b][j] for b in betas)
        if total > value:
            for b in betas:
                shares[b][j] *= value / total
            total = value
        leftovers[j] = value - total

    inner = {}
    origin_shares = Fraction(0)
    for blk in model.blocks:
        circ = shares[blk.beta]
        s = inner[blk.beta] = _exact_affine(blk.coeff, mu, nu_full)
        required = required_magnitude(blk.kind, s)
        if required:
            circ[0] = _origin_share(model, blk.beta, circ, required, s)
            origin_shares += circ[0]
        elif 0 in circ:
            circ[0] = Fraction(0)

    origin = model.lag.coeffs[zero_exponent(model.lag.n)]
    budget = _exact_affine(origin, mu, nu_full) - origin_shares
    return _Repair(min(budget, cap), budget, mu, nu, shares, inner, leftovers)


def _origin_share(model: RelaxationModel, beta: Exponent, shares: dict[int, Fraction],
                  required: Fraction, s: Fraction) -> Fraction:
    """c0 = lam0 * y for the least dyadic y of ROOT_BITS bits with
    prod_j (c_j / lam_j)**lam_j >= required, over the cover's exact
    weights lam.

    With L the lcm of the weights' denominators, that inequality is
    y**(lam0 L) >= required**L / prod_{j != 0} (c_j / lam_j)**(lam_j L),
    an integer-power inequality, so y is an integer root rounded up.
    """
    weights = model.covers[beta].exact_weights
    if weights is None or any(w.numerator < 0 for w in weights.values()):
        raise RepairFailure(f"no exact barycentric weights for {beta}")
    if not weights.get(0):
        raise RepairFailure(
            f"cover of {beta} has no origin weight; "
            "the required magnitude cannot be absorbed at the origin"
        )
    lcm = math.lcm(*(w.denominator for w in weights.values()))
    num, den = required.numerator**lcm, required.denominator**lcm
    for j, w in weights.items():
        if j == 0 or not w:
            continue
        c_j = shares[j]
        if c_j.numerator <= 0:
            raise RepairFailure(
                f"non-origin share at candidate {j} vanished for {beta} "
                f"while the inner coefficient is {float(s):.3e}"
            )
        k = w.numerator * (lcm // w.denominator)  # w * L
        num *= (c_j.denominator * w.numerator) ** k
        den *= (c_j.numerator * w.denominator) ** k
    lam0 = weights[0]
    c0 = lam0 * _root_up(num, den, lam0.numerator * (lcm // lam0.denominator))
    if c0 > _FLOAT_MAX:
        raise RepairFailure(f"origin share for {beta} overflows")
    return c0


def _root_up(num: int, den: int, p: int) -> Fraction:
    """The least y = m * 2**e, m of ROOT_BITS bits, with y**p >= num / den > 0."""
    t = num.bit_length() - den.bit_length()  # floor(log2(num / den)) is t or t - 1
    if num << max(0, -t) < den << max(0, t):
        t -= 1
    # The root lies in [2**(t // p), 2**(t // p + 1)), so m lies in
    # [2**(ROOT_BITS - 1), 2**ROOT_BITS].
    e = t // p - ROOT_BITS + 1
    shift = e * p
    target = -(-(num << max(0, -shift)) // (den << max(0, shift)))  # ceil(num / den / 2**shift)
    m = _iroot_up(target, p)
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _iroot_up(n: int, p: int) -> int:
    """The least integer m with m**p >= n >= 1, by integer Newton steps."""
    drop = max(0, n.bit_length() - 64)
    guess = max(1, int(2.0 ** ((math.log2(n >> drop) + drop) / p)))

    def step(x: int) -> int:  # at or above floor(n ** (1/p)) from any x >= 1
        return ((p - 1) * x + n // x ** (p - 1)) // p

    x = step(guess)
    while (y := step(x)) < x:  # descends to floor(n ** (1/p))
        x = y
    return x if x**p >= n else x + 1


def _exact_affine(coeff, mu, nu) -> Fraction:
    """coeff's value at the exact multipliers mu and nu.

    Every operand is a float or a Fraction made from one, so every
    denominator is a power of two: the terms are summed as integers over
    the largest denominator, with one Fraction at the end.
    """
    terms = [coeff.constant.as_integer_ratio()]
    for part, values in ((coeff.mu, mu), (coeff.nu, nu)):
        for i, v in part.items():
            num, den = v.as_integer_ratio()
            x = values[i]
            terms.append((num * x.numerator, den * x.denominator))
    top = max(den for _, den in terms)
    return Fraction(sum(num * (top // den) for num, den in terms), top)


@dataclass(frozen=True)
class SoundnessReport:
    samples: int
    feasible: int
    violations: int
    min_slack: float | None  # min of f(x) - gamma over feasible samples
    vacuous: bool

    def ok(self) -> bool:
        return self.violations == 0


def sample_soundness_check(
    inst: PopInstance, gamma: float, k: int = 1000, seed: int = 0
) -> SoundnessReport:
    """Sample k box points and check f(x) >= gamma on the feasible ones.

    A point is kept when every constraint satisfies g_i(x) >= -1e-9; the
    bound check allows slack 1e-6 * (1 + |gamma|).  An empty feasible
    sample set is reported as vacuous, not as a failure.
    """
    rng = random.Random(seed)
    allowed = gamma - SOUNDNESS_SLACK * (1.0 + abs(gamma))
    feasible = 0
    violations = 0
    min_slack = None
    for _ in range(k):
        x = [rng.uniform(lo, hi) for lo, hi in zip(inst.lower, inst.upper)]
        if any(evaluate(g, x) < -FEAS_SAMPLE_TOL for g in inst.constraints):
            continue
        feasible += 1
        fx = evaluate(inst.objective, x)
        slack = fx - gamma
        if min_slack is None or slack < min_slack:
            min_slack = slack
        if fx < allowed:
            violations += 1
    return SoundnessReport(
        samples=k,
        feasible=feasible,
        violations=violations,
        min_slack=min_slack,
        vacuous=feasible == 0,
    )
