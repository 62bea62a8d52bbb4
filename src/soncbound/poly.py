"""Sparse multivariate polynomials and box-constrained problem instances.

A polynomial is a dict mapping exponent tuples to nonzero float
coefficients:

    Polynomial = dict[Exponent, float]
    Exponent   = tuple[int, ...]      # one entry per variable

The zero polynomial is the empty dict.  Instances bundle an objective,
a list of inequality constraints (each read as g_i(x) >= 0) and finite
variable bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

Exponent = tuple[int, ...]
Polynomial = dict[Exponent, float]

# Coefficients smaller than this are rejected at parse time as zero.
ZERO_COEFF_THRESHOLD = 1e-300

# Cancellation threshold for scale_add: terms below this magnitude are
# dropped so that numerical dust cannot create phantom support points.
CANCEL_THRESHOLD = 1e-14

MAX_EXPONENT_ENTRY = 2**31


class InstanceFormatError(ValueError):
    """Raised when instance text violates the JSON instance format."""


@dataclass(frozen=True)
class PopInstance:
    """A box-constrained polynomial optimization problem.

    min f(x)  s.t.  g_i(x) >= 0 (i = 1..m),  lower <= x <= upper.
    """

    n: int
    objective: Polynomial
    constraints: list[Polynomial] = field(default_factory=list)
    lower: tuple[float, ...] = ()
    upper: tuple[float, ...] = ()

    @property
    def m(self) -> int:
        return len(self.constraints)

    def box_center(self) -> tuple[float, ...]:
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.lower, self.upper))


def zero_exponent(n: int) -> Exponent:
    return (0,) * n


def evaluate(p: Polynomial, x) -> float:
    """Evaluate p at the point x, with the convention 0**0 = 1."""
    total = 0.0
    for exps, coeff in p.items():
        term = coeff
        for e, v in zip(exps, x):
            if e:
                term *= v**e
        total += term
    return total


def scale_add(acc: Polynomial, s: float, p: Polynomial) -> Polynomial:
    """Return acc + s*p, dropping terms that cancel below 1e-14."""
    out = dict(acc)
    for exps, coeff in p.items():
        out[exps] = out.get(exps, 0.0) + s * coeff
    return {e: c for e, c in out.items() if abs(c) > CANCEL_THRESHOLD}


def total_degree(p: Polynomial) -> int:
    """Maximum total degree over the support of a nonzero polynomial."""
    if not p:
        raise ValueError("total degree of the zero polynomial is undefined")
    return max(sum(e) for e in p)


def _parse_poly(raw, n: int, what: str) -> Polynomial:
    if not isinstance(raw, list):
        raise InstanceFormatError(f"{what}: expected a list of [exponent, coefficient] pairs")
    poly: Polynomial = {}
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2):
            raise InstanceFormatError(f"{what}: malformed term {item!r}")
        exps_raw, coeff = item
        if not isinstance(exps_raw, list) or len(exps_raw) != n:
            raise InstanceFormatError(
                f"{what}: exponent {exps_raw!r} does not have length n={n}"
            )
        exps = []
        for e in exps_raw:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise InstanceFormatError(f"{what}: exponent entry {e!r} is not a nonnegative integer")
            if e >= MAX_EXPONENT_ENTRY:
                raise InstanceFormatError(f"{what}: exponent entry {e} exceeds the supported degree range")
            exps.append(e)
        key = tuple(exps)
        if not isinstance(coeff, (int, float)) or isinstance(coeff, bool):
            raise InstanceFormatError(f"{what}: coefficient {coeff!r} is not a number")
        coeff = float(coeff)
        if not math.isfinite(coeff):
            raise InstanceFormatError(f"{what}: coefficient is not finite")
        if abs(coeff) < ZERO_COEFF_THRESHOLD:
            raise InstanceFormatError(f"{what}: zero coefficient at exponent {list(key)}")
        if key in poly:
            raise InstanceFormatError(f"{what}: duplicate exponent {list(key)}")
        poly[key] = coeff
    return poly


def parse_instance(text: str) -> PopInstance:
    """Parse the JSON instance format into a validated PopInstance.

    Format: {"n": int, "objective": [[[e1,...,en], c], ...],
             "constraints": [poly, ...], "lower": [...], "upper": [...]}
    where each constraint polynomial is read as g(x) >= 0.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceFormatError("instance must be a JSON object")

    for key in ("n", "objective", "constraints", "lower", "upper"):
        if key not in data:
            raise InstanceFormatError(f"missing field {key!r}")

    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InstanceFormatError(f"n must be a positive integer, got {n!r}")

    objective = _parse_poly(data["objective"], n, "objective")
    if not isinstance(data["constraints"], list):
        raise InstanceFormatError("constraints: expected a list of polynomials")
    constraints = [
        _parse_poly(raw, n, f"constraint {i}") for i, raw in enumerate(data["constraints"])
    ]

    lower = data["lower"]
    upper = data["upper"]
    for name, bounds in (("lower", lower), ("upper", upper)):
        if not isinstance(bounds, list) or len(bounds) != n:
            raise InstanceFormatError(f"{name}: expected a list of {n} numbers")
        for b in bounds:
            if not isinstance(b, (int, float)) or isinstance(b, bool) or not math.isfinite(float(b)):
                raise InstanceFormatError(f"{name}: bound {b!r} is not a finite number")
    lower = tuple(float(b) for b in lower)
    upper = tuple(float(b) for b in upper)
    for i, (lo, hi) in enumerate(zip(lower, upper)):
        if lo > hi:
            raise InstanceFormatError(f"variable {i}: lower bound {lo} exceeds upper bound {hi}")

    return PopInstance(n=n, objective=objective, constraints=constraints, lower=lower, upper=upper)


def serialize_instance(inst: PopInstance) -> str:
    """Inverse of parse_instance (parse . serialize . parse is identity)."""

    def poly_out(p: Polynomial):
        return [[list(e), c] for e, c in sorted(p.items())]

    data = {
        "n": inst.n,
        "objective": poly_out(inst.objective),
        "constraints": [poly_out(g) for g in inst.constraints],
        "lower": list(inst.lower),
        "upper": list(inst.upper),
    }
    return json.dumps(data, indent=1)
