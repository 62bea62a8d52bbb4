import dataclasses
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from soncbound import barrier
from soncbound import status as st
from soncbound.barrier import SolverOptions, solve_relaxation
from soncbound.certify import sample_soundness_check, strict_gamma_float
from soncbound.generator import generate_instance
from soncbound.pipeline import PipelineOptions, prepare_root, solve_instance
from soncbound.poly import evaluate, parse_instance
from soncbound.relaxation import geometric_mean

from builders import acceptance_instance, build_for, make_inst

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

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

    def test_iteration_cap_is_numerical_error(self, monkeypatch):
        model = build_for(make_inst(), a=(2,))
        monkeypatch.setattr(barrier, "MAX_OUTER", 2)
        res = solve_relaxation(model)
        assert res.status == st.NUMERICAL_ERROR

    def test_no_sign_bounds(self):
        # 1 + x^2 needs no multiplier and no circuit: the barrier has rows only
        inst = make_inst(lower=(-1,), upper=(1,), objective=(((0,), 1.0), ((2,), 1.0)))
        res = solve_instance(inst, PipelineOptions(use_bound_constraints=False))
        assert len(res.model.nonneg_indices) == 0
        assert res.status == st.OPTIMAL, res.message
        assert res.gamma_certified == pytest.approx(1.0, abs=1e-5)

    def test_phase1_bound_row_is_not_infeasibility(self):
        # min x^4 - 1e12 x^2 on [-1,1]: feasible only with nu >= 1e12, past
        # PHASE1_RADIUS, and the constructive start does not reach it
        inst = make_inst(lower=(-1,), upper=(1,), objective=(((4,), 1.0), ((2,), -1e12)))
        res = solve_instance(inst)
        z = barrier._constructive_start(res.model)
        prob = barrier.phase2_plan(res.model)
        assert z is None or not barrier._Point(prob, z).margin > 0.0
        assert res.status == st.NUMERICAL_ERROR
        assert res.message == "phase-1 bound row active"
        assert res.solve.start == barrier.START_PHASE1

    def test_stall_with_a_diverging_multiplier(self):
        # min -x s.t. -x^2 >= 0: -x + mu x^2 >= -1/(4 mu), so gamma nears 0
        # only as mu grows without limit
        inst = make_inst(constraints=((((2,), -1.0),),))
        res = solve_instance(inst)
        assert res.status == st.NUMERICAL_ERROR
        assert res.message == "inner Newton stalled"
        assert res.solve.mu.max() > 1e10

    def test_phase1_failure_reports_its_steps(self):
        # min x^4 - 1e16 x^2 on [-1,1]: the first phase-1 centering runs out
        inst = make_inst(lower=(-1,), upper=(1,), objective=(((4,), 1.0), ((2,), -1e16)))
        res = solve_instance(inst)
        assert res.status == st.NUMERICAL_ERROR
        assert res.message == "phase-1 centering did not converge"
        assert res.solve.iterations >= barrier.MAX_INNER

    def test_stationarity_residual_above_tolerance(self):
        inst = parse_instance((INSTANCES / "minx.json").read_text())
        res = solve_instance(inst, PipelineOptions(solver=SolverOptions(tol_kkt=1e-30)))
        assert res.status == st.NUMERICAL_ERROR
        assert res.message.startswith("stationarity residual ")
        assert res.message.endswith(" above tolerance")
        assert res.solve.iterations > 0
        assert res.certificate is None and res.gamma_certified is None

    def test_large_gamma_is_a_bound(self):
        # min 1e11 + x^4 - x on [-1,1]: a gamma near 1e11 is no sign of an
        # unbounded relaxation
        inst = make_inst(lower=(-1,), upper=(1,),
                         objective=(((0,), 1e11), ((4,), 1.0), ((1,), -1.0)))
        res = solve_instance(inst)
        assert res.status == st.OPTIMAL, res.message
        assert res.gamma_certified == pytest.approx(99999999992.87, abs=0.01)
        strict = strict_gamma_float(res.model, res.certificate)
        assert strict <= res.gamma_certified <= res.gamma_solver
        assert sample_soundness_check(inst, res.gamma_certified).ok()

    def test_liftable_negative_vertex_solved(self):
        # min -x^4 s.t. 1 - x^4 >= 0 on [-1,1]: optimum -1 via mu = 1
        inst = make_inst(lower=(-1,), upper=(1,), objective=(((4,), -1.0),),
                         constraints=((((0,), 1.0), ((4,), -1.0)),))
        model = build_for(inst, a=(2,))
        res = solve_relaxation(model)
        assert res.status == st.OPTIMAL
        assert res.gamma == pytest.approx(-1.0, abs=1e-4)


def _reported_point(model, res):
    """z rebuilt from res's gamma, mu, nu, t and c on model's variables."""
    z = np.zeros(model.nvar)
    z[model.gamma_index] = res.gamma
    z[list(model.mu_indices)] = res.mu
    z[list(model.nu_indices)] = res.nu
    for blk in model.blocks:
        z[blk.t_index] = res.t[blk.beta]
        z[list(blk.c_indices)] = [res.c[blk.beta][j] for j in blk.cand_indices]
    return z


def _assert_interior(model, res):
    """res's point, recomputed from the model: every row and sign bound
    holds, and every circuit within 1e-7 relative."""
    z = _reported_point(model, res)
    assert (model.rows @ z + model.rhs >= 0.0).all()
    assert (z[list(model.nonneg_indices)] >= 0.0).all()
    for blk in model.blocks:
        c = np.array([res.c[blk.beta][j] for j in blk.cand_indices])
        theta = geometric_mean(c, np.array(blk.lambdas))
        assert res.t[blk.beta] <= theta * (1 + 1e-7)


class TestSolverInvariants:
    def test_interior_residuals(self):
        for inst, a in ((make_inst(), (2,)), (MOTZKIN, None)):
            model = build_for(inst, a=a)
            res = solve_relaxation(model)
            assert res.status == st.OPTIMAL
            assert res.max_residual <= 1e-7
            _assert_interior(model, res)
        # Every result that carries a point, optimal or not, on the first 20
        # acceptance instances and the benchmark's high-degree corpus.
        corpus = [acceptance_instance(i) for i in range(20)] + [
            generate_instance(seed, n=n, m=m, max_degree=degree)
            for n, degree, m in ((2, 8, 1), (4, 8, 2), (1, 12, 0)) for seed in range(20)
        ]
        statuses = []
        for inst in corpus:
            res = solve_instance(inst)
            if res.solve is not None and res.solve.gamma is not None:
                assert res.solve.max_residual == 0.0
                _assert_interior(res.model, res.solve)
                statuses.append(res.status)
        assert statuses.count(st.OPTIMAL) >= 50 and st.NUMERICAL_ERROR in statuses

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


def _off_center(prob, z):
    """z moved along a seeded direction, at most a quarter of the way to
    the linear boundary.

    At a center the gradient would vanish; off it every term has a share.
    """
    move = np.random.default_rng(0).standard_normal(len(z)) * np.maximum(1.0, np.abs(z))
    step = 0.25 * barrier._max_step(barrier._Point(prob, z), move)[0]
    while not barrier._Point(prob, z + step * move).margin > 0.0:
        step *= 0.5
    return z + step * move


def _phase2_point(model):
    z, stat, message, _ = barrier._phase1(model)
    assert stat == st.OPTIMAL and z is not None, message
    prob = barrier.phase2_plan(model)
    point = barrier._center(barrier._Point(prob, z), 1.0)[0]
    return _off_center(prob, point.z)


def _phase1_point(model):
    """Near the phase-1 start point."""
    prob = barrier._phase1_problem(model)
    return _off_center(prob, barrier._phase1_start(prob, model.gamma_index))


@pytest.fixture(scope="module")
def circuit_models():
    """Acceptance seeds 1001, 1002 and 1004: 3, 9 and 4 circuits."""
    insts = [acceptance_instance(i) for i in (1, 2, 4)]
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
            assert prob.obj[model.gamma_index] == 1.0
            assert prob.rhs[-1] == barrier.PHASE1_RADIUS
        else:
            prob, z = barrier.phase2_plan(model), _phase2_point(model)
        tau = 1.0
        grad, hess = barrier._grad_hess(barrier._Point(prob, z), tau)
        fd_grad = np.zeros_like(z)
        fd_hess = np.zeros_like(hess)
        for i in range(len(z)):
            h = 1e-7 * max(1.0, abs(z[i]))
            e = np.zeros_like(z)
            e[i] = h
            plus, minus = barrier._Point(prob, z + e), barrier._Point(prob, z - e)
            fd_grad[i] = (plus.phi(tau) - minus.phi(tau)) / (2 * h)
            fd_hess[:, i] = (barrier._grad_hess(plus, tau)[0]
                             - barrier._grad_hess(minus, tau)[0]) / (2 * h)
        scale = np.max(np.abs(grad))
        np.testing.assert_allclose(fd_grad, grad, rtol=1e-5, atol=1e-6 * scale)
        np.testing.assert_allclose(fd_hess, hess, rtol=1e-5, atol=1e-6 * np.max(np.abs(hess)))
        np.testing.assert_allclose(hess, hess.T, rtol=1e-12, atol=1e-12 * np.max(np.abs(hess)))

    @pytest.mark.parametrize("k", range(3))
    def test_against_loop_reference(self, circuit_models, k):
        model = circuit_models[k]
        prob, z = barrier.phase2_plan(model), _phase2_point(model)
        phi, grad, hess = _loop_reference(model, 2.0, z)
        point = barrier._Point(prob, z)
        assert point.phi(2.0) == pytest.approx(phi, rel=1e-12)
        for got, want in zip(barrier._grad_hess(point, 2.0), (grad, hess)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want)))


def _dense_grad_hess(prob, tau, z, kappa=None):
    """Gradient and Hessian assembled densely from recomputed values:
    the row terms added row by row over all columns, each Hessian part
    as (1/rho_k)^2 a_kp a_kq, then the sign diagonal, the circuit terms
    as (circuits x nvar) matrix products and the c diagonal.  kappa, where
    given, weights each term's Hessian parts (rows, signs, circuits)."""
    nvar = len(z)
    point = barrier._Point(prob, z)
    rho, sign, theta, geo = point.rho, point.sign, point.theta, point.geo
    nr, nl, nb = len(rho), len(sign), len(geo)
    if kappa is None:
        kappa = np.ones(nr + nl + nb)  # every product below by 1.0 is exact
    k_row, k_sign, k_circ = np.split(kappa, [nr, nr + nl])
    terms = np.zeros(nvar)
    hess = np.zeros((nvar, nvar))
    for row, inv, k in zip(prob.rows, 1.0 / rho, k_row):
        terms += inv * row
        hess += (inv * inv * k) * np.outer(row, row)
    terms[prob.lower] += 1.0 / sign
    hess.flat[prob.lower * (nvar + 1)] += (1.0 / sign) ** 2 * k_sign
    c = z[prob.c_idx]
    psi = prob.lam / c
    r = theta / geo
    at_c = prob.blk * nvar + prob.c_idx
    at_t = np.arange(nb) * nvar + prob.t_idx
    U_c, U_t, Q, P = (np.zeros((nb, nvar)) for _ in range(4))
    U_c.flat[at_c] = r[prob.blk] * psi  # u on c
    U_t.flat[at_t] = -1.0 / geo  # u on t
    Q.flat[at_c] = (r * (r - 1.0))[prob.blk] * psi
    P.flat[at_c] = psi
    terms += U_c.sum(axis=0) + U_t.sum(axis=0)
    # u u^T on every pair touching a t; u_l u_r - w_l w_r = r(r-1) psi_l psi_r on c pairs
    W = k_circ[:, None]
    hess += (W * U_c).T @ U_t + (W * U_t).T @ U_c + (W * U_t).T @ U_t + (W * Q).T @ P
    hess.flat[prob.c_idx * (nvar + 1)] += r[prob.blk] * psi / c * k_circ[prob.blk]
    return tau * prob.obj - terms, hess


def _ref_gradient(point, tau):
    """The barrier's gradient as its own np.bincount, the form it took
    before it rode in the Hessian's: tau obj less V[sel] coef summed
    into to, over the row nonzeros row-major (1/rho_k times a_kp) and
    then the sign, c and t terms (1/sign, u_c, u_t, times 1)."""
    prob, values = point.prob, point.values
    nz_row, nz_col = np.nonzero(prob.rows)
    nr, n_terms = len(prob.rhs), len(prob.lower) + len(prob.c_idx) + len(prob.t_idx)
    sel = np.concatenate([nz_row, np.arange(nr, nr + n_terms)])
    to = np.concatenate([nz_col, prob.lower, prob.c_idx, prob.t_idx])
    coef = np.concatenate([prob.rows[nz_row, nz_col], np.ones(n_terms)])
    return tau * prob.obj - np.bincount(to, values[sel] * coef, len(prob.obj))


def _constructive_point(model):
    prob = barrier.phase2_plan(model)
    z = barrier._constructive_start(model)
    assert z is not None and barrier._Point(prob, z).margin > 0.0
    return prob, _off_center(prob, z)


class TestScatterPlan:
    """_grad_hess's scattered assembly equals the dense assembly bit for
    bit, with no dual weights or with kappa = 1, and within rounding under
    other weights."""

    @staticmethod
    def _assert_same(prob, z):
        point = barrier._Point(prob, z)
        ones = np.ones(int(prob.num_terms))
        kappa = np.random.default_rng(len(z)).uniform(0.01, 100.0, len(ones))
        for tau in (1.0, 1e4):
            dense_grad, dense_hess = _dense_grad_hess(prob, tau, z)
            assert _ref_gradient(point, tau).tobytes() == dense_grad.tobytes()
            for weights in (None, ones):
                grad, hess = barrier._grad_hess(point, tau, weights)
                assert np.array_equal(grad, dense_grad)
                assert np.array_equal(hess, dense_hess)
            grad, hess = barrier._grad_hess(point, tau, kappa)
            assert np.array_equal(grad, dense_grad)
            weighted = _dense_grad_hess(prob, tau, z, kappa)[1]
            np.testing.assert_allclose(hess, weighted, rtol=1e-12,
                                       atol=1e-12 * np.abs(weighted).max())

    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("k", range(3))
    def test_circuit_models(self, circuit_models, phase, k):
        model = circuit_models[k]
        if phase == 1:
            prob, z = barrier._phase1_problem(model), _phase1_point(model)
        else:
            prob, z = barrier.phase2_plan(model), _phase2_point(model)
        assert len(prob.rows) and len(prob.c_idx)
        self._assert_same(prob, z)

    def test_no_sign_bounds(self):
        inst = make_inst(lower=(-1,), upper=(1,), objective=(((0,), 1.0), ((2,), 1.0)))
        model = solve_instance(inst, PipelineOptions(use_bound_constraints=False)).model
        prob, z = _constructive_point(model)
        assert len(prob.lower) == 0
        self._assert_same(prob, z)

    def test_no_circuits(self):
        # min x^2 with the bound x^2 <= 1: only the origin and (2,), no inner term
        model = build_for(make_inst(lower=(-1,), upper=(1,), objective=(((2,), 1.0),)), a=(2,))
        prob, z = _constructive_point(model)
        assert len(prob.t_idx) == 0 and len(prob.lower) > 0
        self._assert_same(prob, z)


class TestKktGradient:
    """_kkt_residual reads the gradient that _grad_hess makes in the
    Hessian's np.bincount: bit for bit _ref_gradient's, at the end point
    of every acceptance and high-degree solve."""

    def test_corpus_end_points(self, monkeypatch):
        kkt = barrier._kkt_residual
        checked = []

        def compare(point, tau):
            got = kkt(point, tau)
            grad = _ref_gradient(point, tau)
            assert barrier._grad_hess(point, tau)[0].tobytes() == grad.tobytes()
            want = float(np.max(np.abs(grad))) / (tau * (1.0 + 1.0 / point.margin / tau))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            checked.append(got)
            return got

        monkeypatch.setattr(barrier, "_kkt_residual", compare)
        insts = [acceptance_instance(i) for i in range(100)] + [
            generate_instance(seed, n=n, m=m, max_degree=degree)
            for n, degree, m in ((2, 8, 1), (4, 8, 2), (1, 12, 0)) for seed in range(20)]
        reported = []
        for inst in insts:
            solve = solve_instance(inst).solve
            reported += [solve.kkt_residual] if solve and np.isfinite(solve.kkt_residual) else []
        assert checked == reported and len(reported) >= 150


def _dense_twin(monkeypatch, build, model):
    """build(model) with the dense Newton system at every model size."""
    monkeypatch.setattr(barrier, "BLOCK_MIN_NVAR", model.nvar + 1)
    prob = build(model)
    monkeypatch.undo()
    return prob


def _blocked(monkeypatch, build, model):
    """build(model) with the block path at every model size."""
    monkeypatch.setattr(barrier, "BLOCK_MIN_NVAR", 0)
    prob = build(model)
    monkeypatch.undo()
    return prob


@pytest.fixture(scope="module")
def wide_models():
    """The benchmark's two wide models (175 and 235 variables)."""
    insts = [generate_instance(0, n=6, m=1, max_degree=d, density=2.0) for d in (4, 5)]
    return [build_for(inst, prepare_root(inst, PipelineOptions()).exponents) for inst in insts]


def _path_points(prob, model, taus):
    """(tau, point, kappa) loosely centered at each tau in turn from the
    constructive start, the centerings after the first weighted by the
    carried duals as in _path_follow; kappa is the next step's weights."""
    point, duals, last = barrier._Point(prob, barrier._constructive_start(model)), None, None
    for tau in taus:
        if duals is not None:
            duals = duals * (tau / last)
        point, _, _, _, duals = barrier._center(point, tau, barrier.LONG_STEP_DECREMENT,
                                                duals=duals)
        last = tau
        yield tau, point, duals * point.joined


def _ld_residual(hess, grad, d):
    """||H d + g||_inf / ||g||_inf accumulated in long double."""
    ld = np.longdouble
    return float(np.abs(hess.astype(ld) @ d.astype(ld) + grad).max() / np.abs(grad).max())


def _block_step(point, tau, kappa=None):
    """(gradient, Newton step) of the block path at point."""
    grad, sums = barrier._grad_hess(point, tau, kappa)
    return grad, barrier._block_direction(point, sums, tau, kappa)


def _assert_matches_dense(dense, point, tau, kappa=None):
    """The block step at point against the dense LU of the same Hessian:
    the same gradient bit for bit, and a long-double residual within 10x
    of the LU's or below 1e-11.  Along the wide models' paths the LU
    reads 3e-16 to 3e-14 and the block step 4e-16 to 1.1e-12, the
    largest at tau = 1e8 under dual weights."""
    grad, hess = barrier._grad_hess(barrier._Point(dense, point.z), tau, kappa)
    grad_b, d = _block_step(point, tau, kappa)
    assert grad_b.tobytes() == grad.tobytes()
    d_dense = np.linalg.solve(hess, -grad)
    assert _ld_residual(hess, grad, d) <= max(10.0 * _ld_residual(hess, grad, d_dense), 1e-11)
    return d, d_dense


class TestBlockElimination:
    """Large models eliminate every circuit block and solve a small
    border (_BlockPlan); every model below BLOCK_MIN_NVAR variables
    solves the dense Newton system."""

    @pytest.mark.parametrize("k", range(2))
    def test_matches_dense_solve(self, wide_models, monkeypatch, k):
        model = wide_models[k]
        prob = barrier.phase2_plan(model)
        dense = _dense_twin(monkeypatch, barrier.phase2_plan, model)
        assert prob.border is not None and dense.border is None
        for tau, point, kappa in _path_points(prob, model, (1.0, 1e2, 1e4, 1e6, 1e8)):
            for weights in (None, kappa):
                d, d_dense = _assert_matches_dense(dense, point, tau, weights)
                if tau <= 1e4:  # beyond, the condition number sets the difference
                    assert np.linalg.norm(d - d_dense) <= 1e-9 * np.linalg.norm(d_dense)

    @pytest.mark.parametrize("k", range(3))
    def test_plan_is_the_dense_hessian(self, circuit_models, monkeypatch, k):
        """The block plan's parts, the blocks' closed form and the coupling
        rows' kappa a a^T / rho^2 put together give the dense Hessian."""
        model = circuit_models[k]
        for build, z in ((barrier.phase2_plan, _phase2_point(model)),
                         (barrier._phase1_problem, _phase1_point(model))):
            prob, dense = _blocked(monkeypatch, build, model), build(model)
            plan, nvar = prob.border, model.nvar
            kappa = np.random.default_rng(k).uniform(0.5, 2.0, int(prob.num_terms))
            point = barrier._Point(prob, z)
            grad, sums = barrier._grad_hess(point, 3.0, kappa)
            want_grad, want = barrier._grad_hess(barrier._Point(dense, z), 3.0, kappa)
            assert grad.tobytes() == want_grad.tobytes()
            values, k_circ = point.values, kappa[plan.circuits]
            hess = np.zeros((nvar, nvar))
            circ, outer = prob.u_var, plan.outer
            diag = sums[:plan.e0][plan.circ_at]
            hess[circ, circ] = diag
            hess[prob.c_idx, prob.c_idx] += values[prob.hc_at] * k_circ[prob.blk]
            u = np.zeros(nvar)
            u[prob.u_var] = values[prob.u_at]
            w = np.zeros(nvar)
            w[prob.c_idx] = np.sqrt(values[prob.u_at][:len(prob.c_idx)] * values[prob.psi_at])
            owner = plan.block
            for b in range(plan.nb):
                at = np.flatnonzero(owner == b)
                hess[np.ix_(at, at)] += k_circ[b] * (np.outer(u[at], u[at]) - np.outer(w[at], w[at]))
            stacked = sums[plan.e0:plan.f0].reshape(-1, plan.nf + 1)
            e = stacked[plan.circ_at][:, :len(outer)]
            hess[np.ix_(circ, outer)] = e
            hess[np.ix_(outer, circ)] = e.T
            border = sums[plan.f0:].reshape(plan.nf, plan.nf + 1)
            hess[np.ix_(outer, outer)] = border[:len(outer), :len(outer)]
            for row in plan.coupling:
                a = prob.rows[row]
                hess += kappa[row] * np.outer(a, a) / point.rho[row] ** 2
            np.testing.assert_allclose(hess, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            assert len(plan.coupling) == sum(
                np.count_nonzero(plan.block[np.flatnonzero(r)] >= 0) > 1 for r in prob.rows)

    def test_row_with_two_ts_is_a_coupling_row(self, wide_models, monkeypatch):
        model = wide_models[0]
        t0, t1 = model.blocks[0].t_index, model.blocks[1].t_index
        row = np.zeros(model.nvar)
        row[[t0, t1]] = -1.0
        z = barrier._constructive_start(model)
        bound = 2.0 * (z[t0] + z[t1]) + 1e3  # slack at the start, never binding
        wider = dataclasses.replace(model, rows=np.vstack([model.rows, row]),
                                    rhs=np.append(model.rhs, bound),
                                    row_labels=model.row_labels + ("t0 + t1",))
        prob = barrier.phase2_plan(wider)
        assert len(model.rows) in prob.border.coupling
        dense = _dense_twin(monkeypatch, barrier.phase2_plan, wider)
        for tau, point, kappa in _path_points(prob, wider, (1.0, 1e2, 1e4)):
            _assert_matches_dense(dense, point, tau, kappa)
        res, base = solve_relaxation(wider), solve_relaxation(model)
        assert res.status == base.status == st.OPTIMAL
        assert res.gamma == pytest.approx(base.gamma, rel=1e-7)

    def test_phase1_on_a_large_model(self, wide_models, monkeypatch):
        model = wide_models[0]
        prob = barrier._phase1_problem(model)
        radius = len(prob.rhs) - 1
        assert radius in prob.border.coupling
        dense = _dense_twin(monkeypatch, barrier._phase1_problem, model)
        point = barrier._Point(prob, barrier._phase1_start(prob, model.gamma_index))
        for tau in (1.0, 1e2):
            point = barrier._center(point, tau, 0.1)[0]
            _assert_matches_dense(dense, point, tau)
        z, stat, message, steps = barrier._phase1(model)
        assert stat == st.OPTIMAL, message
        assert barrier._Point(barrier.phase2_plan(model), z).margin > 0.0 and steps > 0

    def test_which_path(self, circuit_models, wide_models, monkeypatch):
        for model in circuit_models:
            assert model.nvar < barrier.BLOCK_MIN_NVAR
            assert barrier.phase2_plan(model).border is None
            assert barrier._phase1_problem(model).border is None
        for model in wide_models:
            assert model.nvar >= barrier.BLOCK_MIN_NVAR
            prob = barrier.phase2_plan(model)
            # gamma, one mu, six nu, and the origin and six vertex rows
            assert prob.border.nf == 15 and len(prob.border.coupling) == 7
            assert barrier._phase1_problem(model).border is not None
        calls = []
        block = barrier._block_direction
        monkeypatch.setattr(barrier, "_block_direction",
                            lambda *args: calls.append(1) or block(*args))
        start = barrier._Point(prob, barrier._constructive_start(model))
        _, _, steps, _, _ = barrier._center(start, 1.0, 0.1)
        assert len(calls) == steps + 1 > 1

    def test_small_models_stay_dense(self):
        """Every model of the acceptance and high-degree corpora, in both
        phases, is below BLOCK_MIN_NVAR and keeps the dense system."""
        insts = [acceptance_instance(i) for i in range(100)] + [
            generate_instance(seed, n=n, m=m, max_degree=degree)
            for n, degree, m in ((2, 8, 1), (4, 8, 2), (1, 12, 0)) for seed in range(20)]
        sizes = []
        for inst in insts:
            model = solve_instance(inst).model
            if model is None:
                continue
            sizes.append(model.nvar)
            assert barrier.phase2_plan(model).border is None
        assert len(sizes) >= 150 and max(sizes) < barrier.BLOCK_MIN_NVAR


def _max_step_from_z(prob, z, d):
    """The maximum step with the row and sign slacks recomputed at z:
    0.99 over the fastest relative shrink rate of any slack, capped at 1."""
    rates = [0.0]
    for slack, rate in ((prob.rows @ z + prob.rhs, prob.rows @ d), (z[prob.lower], d[prob.lower])):
        rates += [-float(x) / float(s) for x, s in zip(rate, slack)]
    fastest = max(rates)
    return 1.0 if fastest == 0.0 else min(1.0, 0.99 / fastest)


class TestMaxStep:
    """_max_step on a _Point's slacks equals the step from slacks
    recomputed at the point, bit for bit."""

    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("k", range(3))
    def test_matches_recomputed_slacks(self, circuit_models, phase, k):
        model = circuit_models[k]
        if phase == 1:
            prob, z = barrier._phase1_problem(model), _phase1_point(model)
        else:
            prob, z = barrier.phase2_plan(model), _phase2_point(model)
        point = barrier._Point(prob, z)
        rng = np.random.default_rng(k)
        steps = []
        for _ in range(20):
            d = rng.standard_normal(len(z)) * np.maximum(1.0, np.abs(z))
            steps.append(barrier._max_step(point, d)[0])
            assert steps[-1] == _max_step_from_z(prob, z, d)
        assert min(steps) < 1.0  # some direction meets a boundary

    @staticmethod
    def _one_row():
        """The barrier of -gamma - nu >= 0, nu >= 0, at gamma = -3, nu = 1."""
        model = build_for(make_inst(lower=(-1,), upper=(1,), objective=(((2,), 1.0),)), a=(2,))
        assert (model.gamma_index, model.nonneg_indices) == (0, (1,))
        prob = barrier._Barrier(model, -1.0, model.rows[:1], model.rhs[:1])
        assert prob.rows.tolist() == [[-1.0, -1.0]] and prob.rhs.tolist() == [0.0]
        point = barrier._Point(prob, np.array([-3.0, 1.0]))
        assert point.rho.tolist() == [2.0] and point.sign.tolist() == [1.0]
        return prob, point

    def test_full_step_and_exact_bound(self):
        _, point = self._one_row()
        for d in ([0.0, 0.0], [-1.0, 0.0], [-3.0, 2.0], [1.0, 0.0]):
            # no move, slacks that only grow, and a row shrinking by half per unit step
            assert barrier._max_step(point, np.array(d))[0] == 1.0
        assert barrier._max_step(point, np.array([4.0, 0.0]))[0] == 0.495  # row 0 at 1/2
        assert barrier._max_step(point, np.array([4.0, -4.0]))[0] == 0.2475  # sign at 1/4

    def test_phi_infinite_at_zero_row_slack(self):
        prob, point = self._one_row()
        assert np.isfinite(point.phi(1.0))
        edge = barrier._Point(prob, np.array([-1.0, 1.0]))
        assert edge.rho.tolist() == [0.0]
        assert edge.phi(1.0) == np.inf


def _loop_reference(model, tau, z):
    """Phase-2 phi, gradient and Hessian one circuit at a time, with the
    sign bounds as dense rows."""
    nvar = model.nvar
    signs = np.eye(nvar)[list(model.nonneg_indices)]
    rows = np.vstack([model.rows, signs])
    rho = rows @ z + np.concatenate([model.rhs, np.zeros(len(signs))])
    phi = -tau * z[model.gamma_index] - np.log(rho).sum()
    grad = -rows.T @ (1.0 / rho)
    grad[model.gamma_index] -= tau
    hess = (rows * (1.0 / rho**2)[:, None]).T @ rows
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
        _check_pinned(acceptance_instance(seed - 1000), status, gamma)

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

    def test_highdeg_without_variable_caps(self):
        # The center at tau = 1 has a variable at 2.1e7: no cap may stop the path there.
        res = solve_instance(generate_instance(2, n=2, m=1, max_degree=8))
        assert res.status == st.OPTIMAL, res.message
        assert res.gamma_certified == pytest.approx(-0.0631898065044517, rel=1e-7)
        strict = strict_gamma_float(res.model, res.certificate)
        assert strict <= res.gamma_certified <= res.gamma_solver


class TestLongStep:
    """Phase 2 centers loosely between barrier weights and tightly where
    the gap is read."""

    def test_loose_center_stops_at_its_tolerance(self, circuit_models):
        loose_total = tight_total = 0
        for model in circuit_models:
            start = barrier._Point(barrier.phase2_plan(model), _phase2_point(model))
            _, ok, loose, dec, _ = barrier._center(start, 1.0, barrier.LONG_STEP_DECREMENT)
            assert ok and abs(dec) <= barrier.LONG_STEP_DECREMENT
            _, ok, tight, dec, _ = barrier._center(start, 1.0)
            assert ok and abs(dec) <= barrier._decrement_floor(1.0)
            assert loose <= tight
            loose_total, tight_total = loose_total + loose, tight_total + tight
        assert loose_total < tight_total

    def test_only_the_final_center_is_tight(self, monkeypatch):
        calls = []
        original = barrier._center

        def spy(point, tau, *args, **kwargs):
            out = original(point, tau, *args, **kwargs)
            calls.append((point.prob.obj.min() < 0.0, tau, out[1], out[3]))  # phase 2 maximizes gamma
            return out

        monkeypatch.setattr(barrier, "_center", spy)
        res = solve_instance(acceptance_instance(0))
        assert res.status == st.OPTIMAL
        phase2 = [c for c in calls if c[0]]
        *earlier, (_, tau, converged, last) = phase2
        assert converged and abs(last) <= barrier._decrement_floor(tau)
        assert all(abs(dec) <= barrier.LONG_STEP_DECREMENT for _, _, _, dec in earlier)
        assert any(abs(dec) > barrier._decrement_floor(t) for _, t, _, dec in earlier)

    def test_acceptance_step_count(self):
        # 1,473 steps with every barrier weight centered to the float floor
        steps = sum(solve_instance(acceptance_instance(i)).solve.iterations for i in range(20))
        assert steps <= 436

    def test_highdeg_solved_by_long_steps(self):
        res = solve_instance(generate_instance(14, n=4, m=2, max_degree=8))
        assert res.status == st.OPTIMAL, res.message
        assert res.gamma_certified == pytest.approx(-155.5439416439218, rel=1e-7)
        strict = strict_gamma_float(res.model, res.certificate)
        assert strict <= res.gamma_certified <= res.gamma_solver

    def test_tau_growth_is_not_an_option(self):
        names = {f.name for f in dataclasses.fields(SolverOptions)}
        assert names == {"tol_gap", "tol_kkt"}


class TestSlackReuse:
    """Each point of a solve is evaluated once: no (problem, z) pair is
    made into a _Point twice within one solve, with the iterates of the
    tree that evaluated the start points and final points again."""

    def test_one_slack_evaluation_per_point(self, monkeypatch):
        seen, made = set(), []

        class Counted(barrier._Point):
            def __init__(self, prob, z):
                seen.add((prob, z.tobytes()))
                made.append(1)
                super().__init__(prob, z)

        monkeypatch.setattr(barrier, "_Point", Counted)
        steps = 0
        for i in range(20):
            seen.clear()
            made.clear()
            steps += solve_instance(acceptance_instance(i)).solve.iterations
            assert len(made) == len(seen) > 0
        assert steps == 436


def _spy_centers(monkeypatch):
    """Every _center call from now on, as (point, duals given, output)."""
    calls = []
    original = barrier._center

    def spy(point, tau, *args, **kwargs):
        out = original(point, tau, *args, **kwargs)
        calls.append((point, kwargs.get("duals") is not None, out))
        return out

    monkeypatch.setattr(barrier, "_center", spy)
    return calls


class TestDualWeights:
    """Every centering after a phase's first weights each barrier term's
    Hessian by kappa = y s, with the duals y carried from the last center."""

    def test_first_centering_is_unweighted(self, monkeypatch):
        center = barrier._center
        calls = _spy_centers(monkeypatch)
        for i in range(20):
            calls.clear()
            res = solve_instance(acceptance_instance(i))
            start, weighted, (point, converged, got, _, duals) = calls[0]
            assert start.prob.obj.min() < 0.0 and not weighted  # phase 2, no duals
            # The same centering with unit weights, from the constructive start.
            z = barrier._constructive_start(res.model)
            assert np.array_equal(start.z, z)
            unit = barrier._Point(barrier.phase2_plan(res.model), z)
            want, ok, steps, _, _ = center(unit, 1.0, barrier.LONG_STEP_DECREMENT)
            assert converged and ok and got == steps
            assert np.array_equal(point.z, want.z)
            assert np.array_equal(duals, 1.0 / point.joined)
            assert all(weighted for _, weighted, _ in calls[1:])

    def test_final_center_is_on_the_path(self, monkeypatch):
        calls = _spy_centers(monkeypatch)
        for i in range(20):
            calls.clear()
            assert solve_instance(acceptance_instance(i)).status == st.OPTIMAL
            point, duals = calls[-1][2][0], calls[-1][2][4]
            assert np.abs(duals * point.joined - 1.0).max() <= 1e-6

    def test_duals_stay_positive_through_a_stall(self, monkeypatch):
        # From the second centering on, one Newton step each: the first
        # weighted centering stalls.
        calls = _spy_centers(monkeypatch)
        spy = barrier._center

        def one_step_after_the_first(*args, **kwargs):
            if calls:
                monkeypatch.setattr(barrier, "MAX_INNER", 1)
            return spy(*args, **kwargs)

        monkeypatch.setattr(barrier, "_center", one_step_after_the_first)
        res = solve_instance(generate_instance(0, n=4, m=2, max_degree=8))
        assert res.status == st.NUMERICAL_ERROR and res.message == "inner Newton stalled"
        (_, _, first), (_, weighted, stalled) = calls
        assert first[1] and weighted and not stalled[1] and stalled[2] == 1
        assert np.isfinite(stalled[4]).all() and (stalled[4] > 0.0).all()
        # At defaults, every dual handed on in the high-degree corpus, stalls included.
        monkeypatch.undo()
        calls = _spy_centers(monkeypatch)
        stalls = 0
        for n, degree, m in ((2, 8, 1), (4, 8, 2), (1, 12, 0)):
            for seed in range(20):
                stalls += solve_instance(generate_instance(seed, n=n, m=m, max_degree=degree)
                                         ).message == "inner Newton stalled"
        assert stalls > 0 and any(weighted for _, weighted, _ in calls)
        assert all(np.isfinite(out[4]).all() and (out[4] > 0.0).all() for _, _, out in calls)


class TestStartPoint:
    def test_origin_slack_positive_at_huge_big_m(self):
        # M**a = 3000**6 ~ 7e20: a unit slack is below float64 resolution
        model = build_for(make_inst(lower=(-3000,), upper=(3000,), objective=(((3,), 1.0),)),
                          a=(6,))
        z = barrier._constructive_start(model)
        origin = model.row_labels.index("origin-budget")
        assert model.rows[origin] @ z + model.rhs[origin] > 0.0
        assert barrier._Point(barrier.phase2_plan(model), z).margin > 0.0

    def test_phase1_start_past_float_resolution(self):
        # min x^4 - 1e16 x^2 on [-1,1]: the start violates a row by more than
        # 2^53, where a unit slack on top of the violation rounds to 0
        inst = make_inst(lower=(-1,), upper=(1,), objective=(((4,), 1.0), ((2,), -1e16)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = solve_instance(inst)
        assert res.solve.start == barrier.START_PHASE1
        prob = barrier._phase1_problem(res.model)
        z = barrier._phase1_start(prob, res.model.gamma_index)
        assert z[res.model.gamma_index] > 2.0**53
        assert barrier._Point(prob, z).margin > 0.0

    def test_infeasible_phase1_point_is_numerical_error(self, monkeypatch):
        model = solve_instance(generate_instance(9, n=1, m=0, max_degree=12)).model
        monkeypatch.setattr(barrier, "_phase1",
                            lambda m: (np.zeros(m.nvar), st.OPTIMAL, "", 0))
        res = solve_relaxation(model)
        assert res.status == st.NUMERICAL_ERROR
        assert res.message == "the phase-1 point is not strictly feasible"
        assert res.start == barrier.START_PHASE1


class TestStartPath:
    def test_constructive(self):
        res = solve_instance(acceptance_instance(0))
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
