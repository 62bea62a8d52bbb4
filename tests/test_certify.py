import json
import random
from fractions import Fraction

import numpy as np
import pytest

from soncbound import geometry
from soncbound import status as st
from soncbound.barrier import SolveResult, solve_relaxation
from soncbound.certify import (
    ROOT_BITS,
    RepairFailure,
    _root_up,
    repair_and_certify,
    sample_soundness_check,
    strict_gamma,
    strict_gamma_float,
)
from soncbound.covers import build_candidates_and_covers, make_bound_constraints
from soncbound.generator import generate_instance
from soncbound.pipeline import solve_instance
from soncbound.poly import parse_instance
from soncbound.relaxation import assemble_lagrangian, build_model


def make_inst(n=1, lower=(-1,), upper=(2,), objective=(((1,), -1.0),), constraints=()):
    return parse_instance(
        json.dumps(
            {
                "n": n,
                "objective": [[list(e), c] for e, c in objective],
                "constraints": [[[list(e), c] for e, c in g] for g in constraints],
                "lower": list(lower),
                "upper": list(upper),
            }
        )
    )


def build_for(inst, a=None):
    lag_plain = assemble_lagrangian(inst, [], False)
    if a is None:
        bcs = []
        lag = lag_plain
    else:
        bcs = make_bound_constraints(inst, a)
        lag = assemble_lagrangian(inst, bcs, True)
    cands, covers = build_candidates_and_covers(
        lag.support, bcs, inst.n, genuine_support=lag_plain.support
    )
    return build_model(lag, cands, covers, bcs)


MIN_X_MODEL = build_for(make_inst(), a=(2,))

MOTZKIN = make_inst(
    n=2, lower=(-2, -2), upper=(2, 2),
    objective=(((4, 2), 1.0), ((2, 4), 1.0), ((2, 2), -3.0), ((0, 0), 1.0)),
)


def exact_min_x_result(gamma=-2.0, c1=0.25):
    """Hand-built solver output for min -x with a=2: nu=1/4, c at (2,) = 1/4."""
    return SolveResult(
        status=st.OPTIMAL,
        gamma=gamma,
        mu=np.zeros(0),
        nu=np.array([0.25]),
        t={(1,): 1.0},
        c={(1,): {0: 1.0, 1: c1}},
    )


class TestRepairFormula:
    def test_closed_form_origin_share(self):
        # lam = (1/2, 1/2), |s| = 1, c_vertex = 1/4:
        # c0 = 0.5 * (1 / (0.25/0.5)^0.5)^2 = 1, gamma = -4*0.25 - 1 = -2
        cert = repair_and_certify(MIN_X_MODEL, exact_min_x_result())
        circ = cert.circuits[0]
        assert circ.c[0] == pytest.approx(1.0, rel=1e-12)
        assert cert.gamma_certified == pytest.approx(-2.0, abs=1e-9)

    def test_inflated_shares_lose_at_most_two_percent(self):
        base = repair_and_certify(MIN_X_MODEL, exact_min_x_result())
        # inflate the vertex share by 1%: splitting constraint forces a
        # downscale back, so the certificate can only get (slightly) worse
        bumped = repair_and_certify(MIN_X_MODEL, exact_min_x_result(c1=0.25 * 1.01))
        assert bumped.gamma_certified <= exact_min_x_result().gamma + 1e-9
        assert abs(bumped.gamma_certified - base.gamma_certified) <= 0.02 * abs(
            base.gamma_certified
        )

    def test_motzkin_exact_output_certifies_zero(self):
        model = build_for(MOTZKIN)
        exact = SolveResult(
            status=st.OPTIMAL,
            gamma=0.0,
            mu=np.zeros(0),
            nu=np.zeros(0),
            t={(2, 2): 3.0},
            c={(2, 2): {0: 1.0, 1: 1.0, 2: 1.0}},
        )
        cert = repair_and_certify(model, exact)
        assert cert.gamma_certified == pytest.approx(0.0, abs=1e-9)

    def test_never_improves_on_solver(self):
        for inst, a in ((make_inst(), (2,)), (MOTZKIN, None),
                        (make_inst(objective=(((2,), -1.0),)), (4,))):
            model = build_for(inst, a=a)
            res = solve_relaxation(model)
            assert res.status == st.OPTIMAL
            cert = repair_and_certify(model, res)
            assert cert.gamma_certified <= res.gamma + 1e-9

    def test_idempotent(self):
        model = build_for(make_inst(), a=(2,))
        res = solve_relaxation(model)
        cert1 = repair_and_certify(model, res)
        again = SolveResult(
            status=st.OPTIMAL,
            gamma=cert1.gamma_certified,
            mu=cert1.mu,
            nu=cert1.nu,
            t={c.beta: 0.0 for c in cert1.circuits},
            c={c.beta: dict(c.c) for c in cert1.circuits},
        )
        cert2 = repair_and_certify(model, again)
        assert abs(cert2.gamma_certified - cert1.gamma_certified) <= 1e-12

    def test_leftovers_nonnegative(self):
        model = build_for(MOTZKIN)
        res = solve_relaxation(model)
        cert = repair_and_certify(model, res)
        assert all(v >= 0.0 for v in cert.leftovers.values())


class TestRepairFailures:
    def test_no_origin_weight(self):
        # x^4 + y^4 - x^2 y^2 + 1: (2,2) sits on the segment between (4,0)
        # and (0,4), so its only cover has zero origin weight
        inst = make_inst(
            n=2, lower=(-1, -1), upper=(1, 1),
            objective=(((4, 0), 1.0), ((0, 4), 1.0), ((2, 2), -1.0), ((0, 0), 1.0)),
        )
        model = build_for(inst)
        res = solve_relaxation(model)
        assert res.status == st.OPTIMAL
        with pytest.raises(RepairFailure, match="origin weight"):
            repair_and_certify(model, res)

    def test_vanished_vertex_share(self):
        bad = SolveResult(
            status=st.OPTIMAL,
            gamma=-2.0,
            mu=np.zeros(0),
            nu=np.array([0.25]),
            t={(1,): 1.0},
            c={(1,): {0: 1.0, 1: 0.0}},  # zero share while |s| = 1
        )
        with pytest.raises(RepairFailure, match="vanished"):
            repair_and_certify(MIN_X_MODEL, bad)

    def test_certificate_json_schema(self):
        res = solve_relaxation(MIN_X_MODEL)
        cert = repair_and_certify(MIN_X_MODEL, res)
        data = json.loads(cert.to_json())
        assert set(data) == {"gamma", "mu", "nu", "candidates", "circuits", "leftovers"}
        assert data["circuits"][0].keys() == {"beta", "lambda", "c"}
        assert len(data["leftovers"]) == len(data["candidates"])


class TestStrictMode:
    def test_exact_input_certifies_minus_two(self):
        cert = repair_and_certify(MIN_X_MODEL, exact_min_x_result())
        g = strict_gamma(MIN_X_MODEL, cert)
        # rigorous bound sits at -2 up to the outward rounding of the
        # origin share (one part in 2**40)
        assert Fraction(-2) - Fraction(1, 10**9) <= g <= Fraction(-2)

    def test_strict_never_above_float_certificate(self):
        for inst, a in ((make_inst(), (2,)), (MOTZKIN, None)):
            model = build_for(inst, a=a)
            res = solve_relaxation(model)
            cert = repair_and_certify(model, res)
            sg = strict_gamma_float(model, cert)
            assert sg <= cert.gamma_certified + 1e-15
            assert sg >= cert.gamma_certified - 1e-6  # no wild loss either

    def test_strict_bound_is_sound_on_samples(self):
        inst = make_inst()
        model = build_for(inst, a=(2,))
        cert = repair_and_certify(model, solve_relaxation(model))
        sg = strict_gamma_float(model, cert)
        report = sample_soundness_check(inst, sg, k=500, seed=3)
        assert report.ok()

    def test_strict_settles_high_degree_origin_share(self):
        res = solve_instance(generate_instance(3, n=2, m=1, max_degree=8))
        assert res.status == st.OPTIMAL
        assert strict_gamma(res.model, res.certificate) <= Fraction(res.gamma_certified)


class TestExactWeights:
    def test_solved_once_per_cover(self, monkeypatch):
        calls = []
        exact_solve = geometry._exact_solve

        def counting(rows, rhs):
            calls.append(rhs)
            return exact_solve(rows, rhs)

        monkeypatch.setattr(geometry, "_exact_solve", counting)
        # acceptance seed 1002: nine circuits
        res = solve_instance(generate_instance(1002, n=3, m=2, max_degree=5, density=0.5))
        assert res.status == st.OPTIMAL
        strict_gamma(res.model, res.certificate)
        strict_gamma(res.model, res.certificate)
        betas = [tuple(rhs[:-1]) for rhs in calls]  # each call solves for [*beta, 1]
        assert len(betas) >= 3
        assert len(set(betas)) == len(betas)
        assert set(betas) <= set(res.model.covers)


class TestOriginShareRoot:
    @pytest.mark.parametrize("p", range(1, 13))
    def test_least_dyadic_at_or_above_the_root(self, p):
        rng = random.Random(p)
        for _ in range(20):
            num = rng.randrange(1, 2 ** rng.randrange(1, 400))
            den = rng.randrange(1, 2 ** rng.randrange(1, 400))
            y, r = _root_up(num, den, p), Fraction(num, den)
            assert y**p >= r
            assert (y * (1 - Fraction(1, 2**50))) ** p < r
            odd = y.numerator >> ((y.numerator & -y.numerator).bit_length() - 1)
            assert y.denominator & (y.denominator - 1) == 0  # a power of two
            assert odd.bit_length() <= ROOT_BITS


class TestSoundnessCheck:
    def test_valid_bound_passes(self):
        inst = make_inst()
        report = sample_soundness_check(inst, gamma=-2.0, k=500, seed=1)
        assert report.ok()
        assert not report.vacuous
        assert report.min_slack >= 0.0  # slack smallest near x = 2

    def test_invalid_bound_caught(self):
        inst = make_inst()
        report = sample_soundness_check(inst, gamma=-1.0, k=500, seed=1)
        assert report.violations > 0

    def test_infeasible_constraints_vacuous(self):
        inst = make_inst(constraints=((((0,), -1.0),),))  # g = -1 >= 0 never
        report = sample_soundness_check(inst, gamma=0.0, k=100, seed=1)
        assert report.vacuous
        assert report.violations == 0

    def test_deterministic_in_seed(self):
        inst = make_inst()
        r1 = sample_soundness_check(inst, gamma=-2.0, k=200, seed=7)
        r2 = sample_soundness_check(inst, gamma=-2.0, k=200, seed=7)
        assert r1 == r2
