"""Instance and model builders shared by the test modules."""

import json

from soncbound.covers import build_candidates_and_covers, make_bound_constraints
from soncbound.generator import generate_instance
from soncbound.poly import parse_instance
from soncbound.relaxation import assemble_lagrangian, build_model


def inst_from(d):
    return parse_instance(json.dumps(d))


def make_inst(n=1, lower=(-1,), upper=(2,), objective=(((1,), -1.0),), constraints=()):
    """The instance with the given terms; min -x on [-1, 2] by default."""
    return inst_from({
        "n": n,
        "objective": [[list(e), c] for e, c in objective],
        "constraints": [[[list(e), c] for e, c in g] for g in constraints],
        "lower": list(lower),
        "upper": list(upper),
    })


def build_for(inst, a=None):
    """inst's relaxation model, with bound exponents a (none when None)."""
    bcs = [] if a is None else make_bound_constraints(inst, a)
    lag = assemble_lagrangian(inst, bcs, a is not None)
    cands, covers = build_candidates_and_covers(lag.support, bcs, inst.n)
    return build_model(lag, cands, covers, bcs)


def acceptance_instance(i):
    """Instance i of the acceptance corpus (seed 1000 + i)."""
    return generate_instance(1000 + i, n=1 + i % 3, m=i % 3, max_degree=3 + i % 4, density=0.5)
