"""Seeded stress families beyond the acceptance corpus.

Every solve must end in one of the four statuses without an exception;
every optimal result must satisfy strict <= certified <= solver and pass
the sampled soundness check; and the optimal count per family must not
fall below the recorded floor.  On the small boxes the bound-constraint
multipliers grow like 1/M_i**a_i: at scale 1e-2, 11/30 solves are
optimal, some with multipliers above 1e8, and the rest stall in
centering.  The box scales 1e-4, 100 and 1000 are 0/30 optimal today,
all with a stalled centering, so their floor is 0 and they check
statuses and soundness only.
"""

import dataclasses

import pytest

from soncbound import barrier
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
    ("box-1e-2", lambda: _box_family(1e-2), 11),
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


def test_box_multipliers_beyond_1e8():
    inst = _box_family(1e-2)[10]
    res = solve_instance(inst)
    assert res.status == st.OPTIMAL, res.message
    assert res.solve.nu.max() > 1e8
    strict = strict_gamma_float(res.model, res.certificate)
    assert strict <= res.gamma_certified <= res.gamma_solver
    assert sample_soundness_check(inst, res.gamma_certified).ok()


def test_final_centering_stops_once_the_decrement_stalls(monkeypatch):
    # The last centering reaches a decrement within the stall tolerance
    # that stops falling: it must end there, not after MAX_INNER steps.
    calls = []
    center = barrier._center

    def spy(point, tau, tol=0.0, stop_early=None, duals=None):
        out = center(point, tau, tol, stop_early, duals)
        calls.append((tol, out[1], out[2]))
        return out

    monkeypatch.setattr(barrier, "_center", spy)
    res = solve_instance(_degree_family(9)[13])
    assert res.status == st.OPTIMAL, res.message
    tol, converged, steps = calls[-1]
    assert tol == 0.0 and converged
    assert steps < 10  # 4; MAX_INNER is 50


def test_stall_rule_ends_the_final_centering(monkeypatch):
    # With the float floor at 0, only _center's stall rule can end the
    # final centering: a decrement within _stall_tolerance that stops
    # falling.  Without that rule the centering takes all MAX_INNER steps.
    monkeypatch.setattr(barrier, "_decrement_floor", lambda tau: 0.0)
    calls = []
    center = barrier._center

    def spy(point, tau, tol=0.0, stop_early=None, duals=None):
        out = center(point, tau, tol, stop_early, duals)
        calls.append((tau, tol, out[1], out[2], out[3]))
        return out

    monkeypatch.setattr(barrier, "_center", spy)
    res = solve_instance(_degree_family(9)[13])
    assert res.status == st.OPTIMAL, res.message
    tau, tol, converged, steps, decrement = calls[-1]
    assert tol == 0.0 and converged
    assert 0.0 < abs(decrement) <= barrier._stall_tolerance(tau)
    assert steps < 10  # 5; MAX_INNER is 50
