"""Seeded stress families beyond the acceptance corpus.

Every solve must end in one of the four statuses without an exception;
every optimal result must satisfy strict <= certified <= solver and pass
the sampled soundness check; and the optimal count per family must not
fall below the recorded floor.  The box scales 1e-4, 1e-2, 100 and 1000
are 0/30 optimal today (the point-like boxes end against the
regularization cap, the wide ones with a stalled first centering), so
their floor is 0 and they check statuses and soundness only.
"""

import dataclasses

import pytest

from soncbound import status as st
from soncbound.certify import sample_soundness_check, strict_gamma_float
from soncbound.generator import generate_instance
from soncbound.pipeline import solve_instance


def _scaled_box(inst, k):
    return dataclasses.replace(inst, lower=tuple(k * v for v in inst.lower),
                               upper=tuple(k * v for v in inst.upper))


def _box_family(k):
    return [_scaled_box(generate_instance(s, n=1 + s % 3, m=s % 2, max_degree=4 + s % 3), k)
            for s in range(30)]


def _degree_family(d):
    return [generate_instance(s, n=1 + s % 2, m=s % 2, max_degree=d) for s in range(20)]


def _fixed_family():
    insts = [generate_instance(s, n=2, m=1, max_degree=4) for s in range(10)]
    return [dataclasses.replace(inst, lower=(inst.lower[0], 0.5), upper=(inst.upper[0], 0.5))
            for inst in insts]


# (family, builder, least optimal count)
FAMILIES = [
    ("box-1e-4", lambda: _box_family(1e-4), 0),
    ("box-1e-2", lambda: _box_family(1e-2), 0),
    ("box-10", lambda: _box_family(10), 2),
    ("box-100", lambda: _box_family(100), 0),
    ("box-1000", lambda: _box_family(1000), 0),
    ("degree-7", lambda: _degree_family(7), 18),
    ("degree-9", lambda: _degree_family(9), 13),
    ("degree-11", lambda: _degree_family(11), 5),
    ("degree-12", lambda: _degree_family(12), 5),
    ("fixed-x2", _fixed_family, 10),
]


@pytest.mark.parametrize("build,floor", [f[1:] for f in FAMILIES], ids=[f[0] for f in FAMILIES])
def test_stress_family(build, floor):
    optimal = 0
    for inst in build():
        res = solve_instance(inst)
        assert res.status in st.ALL_STATUSES
        if res.status != st.OPTIMAL:
            continue
        optimal += 1
        strict = strict_gamma_float(res.model, res.certificate)
        assert strict <= res.gamma_certified <= res.gamma_solver
        assert sample_soundness_check(inst, res.gamma_certified).ok()
    assert optimal >= floor
