import json
import time

import numpy as np
import pytest

from soncbound import barrier
from soncbound import status as st
from soncbound.barrier import SolverOptions, solve_relaxation
from soncbound.certify import strict_gamma_float
from soncbound.covers import build_candidates_and_covers, make_bound_constraints
from soncbound.generator import generate_instance
from soncbound.pipeline import PipelineOptions, prepare_root, solve_instance
from soncbound.poly import evaluate, parse_instance
from soncbound.relaxation import assemble_lagrangian, build_model, geometric_mean


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


MOTZKIN = make_inst(
    n=2, lower=(-2, -2), upper=(2, 2),
    objective=(((4, 2), 1.0), ((2, 4), 1.0), ((2, 2), -3.0), ((0, 0), 1.0)),
)


def brute_force_min_x_bound():
    """Grid oracle for min -x on [-1,2] with a=2: gamma = -(4 nu + c0),
    subject to 2 sqrt(c0 c2) >= 1 with c2 <= nu."""
    best = -np.inf
    for nu in np.linspace(1e-3, 2.0, 4000):
        c0 = 1.0 / (4.0 * nu)  # tight circuit condition at c2 = nu
        best = max(best, -(4.0 * nu + c0))
    return best


class TestClosedForms:
    def test_min_minus_x(self):
        model = build_for(make_inst(), a=(2,))
        start = time.perf_counter()
        res = solve_relaxation(model)
        assert time.perf_counter() - start < 1.0
        assert res.status == st.OPTIMAL
        assert res.gamma == pytest.approx(-2.0, abs=1e-5)
        assert brute_force_min_x_bound() == pytest.approx(-2.0, abs=1e-3)

    def test_min_minus_x_squared_a4(self):
        model = build_for(make_inst(objective=(((2,), -1.0),)), a=(4,))
        start = time.perf_counter()
        res = solve_relaxation(model)
        assert time.perf_counter() - start < 1.0
        assert res.status == st.OPTIMAL
        # calculus oracle: min over nu of 16 nu + 1/(4 nu) = 4 at nu = 1/8
        assert res.gamma == pytest.approx(-4.0, abs=1e-5)
        assert res.nu[0] == pytest.approx(1 / 8, abs=1e-3)

    def test_motzkin_gamma_zero(self):
        model = build_for(MOTZKIN)
        start = time.perf_counter()
        res = solve_relaxation(model)
        assert time.perf_counter() - start < 1.0
        assert res.status == st.OPTIMAL
        assert res.gamma == pytest.approx(0.0, abs=1e-5)


class TestStatuses:
    def test_trivially_infeasible(self):
        model = build_for(make_inst(objective=(((4,), -1.0),)))
        res = solve_relaxation(model)
        assert res.status == st.INFEASIBLE

    def test_phase1_infeasible(self):
        # min x^2 - x^4 s.t. x^4 >= 0: coefficient at (4,) is -1 - mu, never >= 0
        inst = make_inst(objective=(((2,), 1.0), ((4,), -1.0)),
                         constraints=((((4,), 1.0),),))
        model = build_for(inst, a=(2,))
        res = solve_relaxation(model)
        assert res.status == st.INFEASIBLE

    def test_iteration_cap_is_numerical_error(self):
        model = build_for(make_inst(), a=(2,))
        res = solve_relaxation(model, SolverOptions(max_outer=2))
        assert res.status == st.NUMERICAL_ERROR

    def test_liftable_negative_vertex_solved(self):
        # min -x^4 s.t. 1 - x^4 >= 0 on [-1,1]: optimum -1 via mu = 1
        inst = make_inst(lower=(-1,), upper=(1,), objective=(((4,), -1.0),),
                         constraints=((((0,), 1.0), ((4,), -1.0)),))
        model = build_for(inst, a=(2,))
        res = solve_relaxation(model)
        assert res.status == st.OPTIMAL
        assert res.gamma == pytest.approx(-1.0, abs=1e-4)


class TestSolverInvariants:
    def test_interior_residuals(self):
        for inst, a in ((make_inst(), (2,)), (MOTZKIN, None)):
            model = build_for(inst, a=a)
            res = solve_relaxation(model)
            assert res.status == st.OPTIMAL
            assert res.max_residual <= 1e-7
            for blk in model.blocks:
                c = np.array([res.c[blk.beta][j] for j in blk.cand_indices])
                theta = geometric_mean(c, np.array(blk.lambdas))
                assert res.t[blk.beta] <= theta * (1 + 1e-7)

    def test_gamma_trace_nondecreasing(self):
        for inst, a in ((make_inst(), (2,)), (MOTZKIN, None),
                        (make_inst(objective=(((2,), -1.0),)), (4,))):
            res = solve_relaxation(build_for(inst, a=a))
            trace = res.gamma_trace
            assert all(trace[i + 1] >= trace[i] - 1e-10 for i in range(len(trace) - 1))

    def test_determinism_bit_identical(self):
        model = build_for(MOTZKIN)
        r1 = solve_relaxation(model)
        r2 = solve_relaxation(model)
        assert r1.gamma == r2.gamma
        assert r1.mu.tobytes() == r2.mu.tobytes()
        assert r1.nu.tobytes() == r2.nu.tobytes()
        assert r1.gamma_trace == r2.gamma_trace
        assert r1.iterations == r2.iterations

    def test_kkt_and_gap_reported(self):
        res = solve_relaxation(build_for(make_inst(), a=(2,)))
        assert res.kkt_residual <= 1e-7
        assert res.duality_gap <= 1e-6 * (1 + abs(res.gamma))


class TestSoundnessOnSamples:
    def test_bound_holds_on_feasible_samples(self):
        rng = np.random.default_rng(5)
        inst = make_inst(
            objective=(((2,), 1.0), ((1,), -1.0)),
            constraints=((((0,), 1.0), ((2,), -1.0)),),
        )
        model = build_for(inst, a=(2,))
        res = solve_relaxation(model)
        assert res.status == st.OPTIMAL
        gamma = res.gamma
        for _ in range(1000):
            x = [rng.uniform(-1, 2)]
            if evaluate(inst.constraints[0], x) < 0:
                continue
            assert evaluate(inst.objective, x) >= gamma - 1e-6 * (1 + abs(gamma))

    def test_big_m_monotonicity(self):
        # nested boxes: growing the box never improves the bound
        gammas = []
        for hi in (1.0, 2.0, 3.0, 4.0):
            inst = make_inst(lower=(-hi,), upper=(hi,))
            res = solve_relaxation(build_for(inst, a=(2,)))
            assert res.status == st.OPTIMAL
            gammas.append(res.gamma)
        for smaller, larger in zip(gammas, gammas[1:]):
            assert larger <= smaller + 1e-7


def _acceptance_instance(i):
    """Instance i of the acceptance corpus (seed 1000 + i)."""
    return generate_instance(1000 + i, n=1 + i % 3, m=i % 3, max_degree=3 + i % 4, density=0.5)


def _off_center(prob, z):
    """z moved along a seeded direction, at most a quarter of the way to
    the linear boundary.

    At a center the gradient would vanish; off it every term has a share.
    """
    move = np.random.default_rng(0).standard_normal(len(z)) * np.maximum(1.0, np.abs(z))
    rho, diag = barrier._slacks(prob, z)[:2]
    step = 0.25 * barrier._max_step(prob, rho, diag, move)
    while not barrier._strictly_feasible(prob, z + step * move):
        step *= 0.5
    return z + step * move


def _phase2_point(model):
    z, stat, message, _ = barrier._phase1(model, SolverOptions())
    assert stat == st.OPTIMAL and z is not None, message
    prob = barrier._phase2_problem(model)
    z, _, _, _ = barrier._center(prob, 1.0, z)
    return _off_center(prob, z)


def _phase1_point(model):
    """Near the phase-1 start point: the canned start shifted by w."""
    prob = barrier._phase1_problem(model)
    z = np.append(np.delete(barrier._canned_start(model), model.gamma_index), 0.0)
    z[prob.w_index] = 1.0 - min(0.0, barrier._feasible_margin(prob, z))
    return _off_center(prob, z)


@pytest.fixture(scope="module")
def circuit_models():
    """Acceptance seeds 1001, 1002 and 1004: 3, 9 and 4 circuits."""
    insts = [_acceptance_instance(i) for i in (1, 2, 4)]
    return [build_for(inst, prepare_root(inst, PipelineOptions()).exponents) for inst in insts]


class TestBarrierDerivatives:
    """phi, its gradient and its Hessian against central differences and
    against a per-circuit loop."""

    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("k", range(3))
    def test_against_central_differences(self, circuit_models, phase, k):
        model = circuit_models[k]
        assert len(model.blocks) >= 3
        if phase == 1:
            prob, z = barrier._phase1_problem(model), _phase1_point(model)
            assert prob.w_index >= 0
        else:
            prob, z = barrier._phase2_problem(model), _phase2_point(model)
        tau = 1.0
        grad, hess, _, _ = barrier._grad_hess(prob, tau, z)
        fd_grad = np.zeros_like(z)
        fd_hess = np.zeros_like(hess)
        for i in range(len(z)):
            h = 1e-7 * max(1.0, abs(z[i]))
            e = np.zeros_like(z)
            e[i] = h
            fd_grad[i] = (barrier._phi(prob, tau, z + e) - barrier._phi(prob, tau, z - e)) / (2 * h)
            fd_hess[:, i] = (barrier._grad_hess(prob, tau, z + e)[0]
                             - barrier._grad_hess(prob, tau, z - e)[0]) / (2 * h)
        scale = np.max(np.abs(grad))
        np.testing.assert_allclose(fd_grad, grad, rtol=1e-5, atol=1e-6 * scale)
        np.testing.assert_allclose(fd_hess, hess, rtol=1e-5, atol=1e-6 * np.max(np.abs(hess)))
        np.testing.assert_allclose(hess, hess.T, rtol=1e-12, atol=1e-12 * np.max(np.abs(hess)))

    @pytest.mark.parametrize("k", range(3))
    def test_against_loop_reference(self, circuit_models, k):
        model = circuit_models[k]
        prob, z = barrier._phase2_problem(model), _phase2_point(model)
        phi, grad, hess = _loop_reference(model, 2.0, z)
        assert barrier._phi(prob, 2.0, z) == pytest.approx(phi, rel=1e-12)
        for got, want in zip(barrier._grad_hess(prob, 2.0, z), (grad, hess)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want)))


def _max_step_from_z(prob, z, d):
    """The maximum step with the row and diagonal slacks recomputed at z."""
    rho = prob.rows @ z + prob.rhs
    diag = prob.diag_sign * z[prob.diag_idx] + prob.diag_off
    step = 1.0
    for slack, rate in ((rho, prob.rows @ d), (diag, prob.diag_sign * d[prob.diag_idx])):
        shrink = rate < -1e-300
        if shrink.any():
            step = min(step, 0.99 * float(np.min(slack[shrink] / -rate[shrink])))
    return step


class TestMaxStep:
    """_max_step on the slacks _grad_hess returns equals the step from
    slacks recomputed at the point, bit for bit."""

    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("k", range(3))
    def test_matches_recomputed_slacks(self, circuit_models, phase, k):
        model = circuit_models[k]
        if phase == 1:
            prob, z = barrier._phase1_problem(model), _phase1_point(model)
        else:
            prob, z = barrier._phase2_problem(model), _phase2_point(model)
        _, _, rho, diag = barrier._grad_hess(prob, 1.0, z)
        rng = np.random.default_rng(k)
        steps = []
        for _ in range(20):
            d = rng.standard_normal(len(z)) * np.maximum(1.0, np.abs(z))
            steps.append(barrier._max_step(prob, rho, diag, d))
            assert steps[-1] == _max_step_from_z(prob, z, d)
        assert min(steps) < 1.0  # some direction meets a boundary


def _loop_reference(model, tau, z):
    """Phase-2 phi, gradient and Hessian one circuit at a time, with the
    sign bounds and the caps as dense rows."""
    nvar = model.nvar
    signs = np.eye(nvar)[list(model.nonneg_indices)]
    rows = np.vstack([model.rows, signs, -np.eye(nvar)])
    rho = rows @ z + np.concatenate(
        [model.rhs, np.zeros(len(signs)), np.full(nvar, barrier.VARIABLE_CAP)])
    weights = np.concatenate(
        [np.ones(len(model.rhs) + len(signs)), np.full(nvar, barrier.CAP_WEIGHT)])
    phi = -tau * z[model.gamma_index] - weights @ np.log(rho)
    grad = -rows.T @ (weights / rho)
    grad[model.gamma_index] -= tau
    hess = (rows * (weights / rho**2)[:, None]).T @ rows
    for blk in model.blocks:
        idx, lam = list(blk.c_indices), np.array(blk.lambdas)
        c = z[idx]
        theta = geometric_mean(c, lam)
        slack = theta - z[blk.t_index]
        psi = lam / c
        u = np.zeros(nvar)
        u[idx] = theta * psi
        u[blk.t_index] = -1.0
        phi -= np.log(slack)
        grad -= u / slack
        hess += np.outer(u, u) / slack**2
        hess[np.ix_(idx, idx)] += theta * (np.diag(lam / c**2) - np.outer(psi, psi)) / slack
    return phi, grad, hess


# (seed, status, certified gamma) recorded before the barrier was vectorized.
PINNED_ACCEPTANCE = [
    (1000, "optimal", -18.14848713793409),
    (1001, "optimal", -8.462607374907929),
    (1002, "optimal", -109.58077342859151),
    (1003, "optimal", -7.110366597235498),
    (1004, "optimal", -11.93907839521359),
    (1005, "optimal", -70.3257965749946),
    (1006, "optimal", -48.40029156551881),
    (1007, "optimal", -9.204252193728273),
    (1008, "optimal", -15.623301918745083),
    (1009, "optimal", -3.5776626610310185),
    (1010, "optimal", -1.695331556002066),
    (1011, "optimal", -126.03996155688459),
    (1012, "optimal", -7.834990628371928),
    (1013, "optimal", -36.45393183965251),
    (1014, "optimal", -94.75024425409765),
    (1015, "optimal", -13.380247176026979),
    (1016, "optimal", -16.583031964220446),
    (1017, "optimal", -12.643469779496861),
    (1018, "optimal", -134.376951696047),
    (1019, "optimal", -90.9579109949044),
]
PINNED_HIGHDEG = [  # generate_instance(seed, n=4, m=2, max_degree=8)
    (0, "optimal", -110.70774741476762),
    (1, "optimal", -557.7956969915374),
    (2, "numerical-error", None),
    (3, "optimal", -149.72739312330893),
    (4, "numerical-error", None),
]


def _check_pinned(inst, status, gamma):
    res = solve_instance(inst)
    assert res.status == status
    if gamma is None:
        assert res.gamma_certified is None
    else:
        assert res.gamma_certified == pytest.approx(gamma, rel=1e-7)


# High-degree solves whose first centering succeeds only when it begins at
# the start point itself: (n, degree, m, seed, certified gamma).
NEWLY_OPTIMAL_HIGHDEG = [
    (2, 8, 1, 1, -23.235317759274732),
    (2, 8, 1, 4, -517.7116876075853),
    (2, 8, 1, 11, -514.2101946086946),
    (4, 8, 2, 17, -638.289051607057),
    (4, 8, 2, 19, -244.74239294921068),
]


class TestPinnedResults:
    @pytest.mark.parametrize("seed,status,gamma", PINNED_ACCEPTANCE)
    def test_acceptance(self, seed, status, gamma):
        _check_pinned(_acceptance_instance(seed - 1000), status, gamma)

    @pytest.mark.parametrize("seed,status,gamma", PINNED_HIGHDEG)
    def test_highdeg(self, seed, status, gamma):
        _check_pinned(generate_instance(seed, n=4, m=2, max_degree=8), status, gamma)

    @pytest.mark.parametrize("n,degree,m,seed,gamma", NEWLY_OPTIMAL_HIGHDEG)
    def test_highdeg_start_used_as_is(self, n, degree, m, seed, gamma):
        res = solve_instance(generate_instance(seed, n=n, m=m, max_degree=degree))
        assert res.status == st.OPTIMAL, res.message
        assert res.gamma_certified == pytest.approx(gamma, rel=1e-7)
        strict = strict_gamma_float(res.model, res.certificate)
        assert strict <= res.gamma_certified <= res.gamma_solver


class TestStartPoint:
    def test_origin_slack_positive_at_huge_big_m(self):
        # M**a = 3000**6 ~ 7e20: a unit slack is below float64 resolution
        model = build_for(make_inst(lower=(-3000,), upper=(3000,), objective=(((3,), 1.0),)),
                          a=(6,))
        z = barrier._constructive_start(model)
        origin = model.row_labels.index("origin-budget")
        assert model.rows[origin] @ z + model.rhs[origin] > 0.0
        assert barrier._strictly_feasible(barrier._phase2_problem(model), z)

    def test_infeasible_phase1_point_is_numerical_error(self, monkeypatch):
        model = solve_instance(generate_instance(9, n=1, m=0, max_degree=12)).model
        monkeypatch.setattr(barrier, "_phase1",
                            lambda m, opts: (np.zeros(m.nvar), st.OPTIMAL, "", 0))
        res = solve_relaxation(model)
        assert res.status == st.NUMERICAL_ERROR
        assert res.message == "the phase-1 point is not strictly feasible"
        assert res.start == barrier.START_PHASE1


class TestStartPath:
    def test_constructive(self):
        res = solve_instance(_acceptance_instance(0))
        assert res.status == st.OPTIMAL
        assert res.solve.start == barrier.START_CONSTRUCTIVE == "constructive"

    def test_phase1_when_no_constructive_point(self):
        res = solve_instance(generate_instance(9, n=1, m=0, max_degree=12))
        assert barrier._constructive_start(res.model) is None
        assert res.status == st.OPTIMAL
        assert res.solve.start == barrier.START_PHASE1 == "phase-1"

    def test_phase1_proves_infeasibility(self):
        inst = make_inst(lower=(-1,), upper=(1,), objective=(((4,), -1.0), ((2,), 1.0)))
        res = solve_instance(inst, PipelineOptions(use_bound_constraints=False))
        assert res.status == st.INFEASIBLE
        assert res.message.startswith("no strictly feasible start exists")
        assert res.solve.start == barrier.START_PHASE1
