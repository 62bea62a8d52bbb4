import numpy as np
import pytest

from soncbound import barrier, pipeline
from soncbound import status as st
from soncbound.certify import sample_soundness_check, strict_gamma_float
from soncbound.bnb import solve_bnb
from soncbound.generator import generate_instance
from soncbound.pipeline import (
    PREPARE_ERRORS,
    PipelineOptions,
    failure_result,
    prepare_root,
    solve_instance,
    solve_on_box,
)

from builders import build_for, inst_from


MIN_X = inst_from({"n": 1, "objective": [[[1], -1.0]], "constraints": [],
                   "lower": [-1], "upper": [2]})
MIN_X2 = inst_from({"n": 1, "objective": [[[2], -1.0]], "constraints": [],
                    "lower": [-1], "upper": [2]})
MOTZKIN = inst_from({
    "n": 2,
    "objective": [[[4, 2], 1.0], [[2, 4], 1.0], [[2, 2], -3.0], [[0, 0], 1.0]],
    "constraints": [], "lower": [-2, -2], "upper": [2, 2],
})


class TestSolveInstance:
    def test_min_x_default(self):
        res = solve_instance(MIN_X)
        assert res.status == st.OPTIMAL
        assert res.gamma_solver == pytest.approx(-2.0, abs=1e-5)
        assert res.gamma_certified == pytest.approx(-2.0, abs=1e-5)
        assert res.certificate is not None
        assert res.bound_exponents == (2,)

    def test_min_x_without_bcs_unavailable(self):
        res = solve_instance(MIN_X, PipelineOptions(use_bound_constraints=False))
        assert res.status == st.COVER_UNAVAILABLE
        assert res.unavailable_beta == (1,)

    def test_exponent_override(self):
        res = solve_instance(MIN_X2, PipelineOptions(exponents=(4,)))
        assert res.status == st.OPTIMAL
        assert res.gamma_solver == pytest.approx(-4.0, abs=1e-5)
        assert res.bound_exponents == (4,)

    def test_motzkin_both_configs(self):
        for use in (True, False):
            res = solve_instance(MOTZKIN, PipelineOptions(use_bound_constraints=use))
            assert res.status == st.OPTIMAL
            assert res.gamma_certified == pytest.approx(0.0, abs=1e-5)

    def test_certified_never_above_solver(self):
        res = solve_instance(MIN_X)
        assert res.gamma_certified <= res.gamma_solver + 1e-9

    def test_repair_failure_demotes_to_numerical_error(self):
        # at a = 4, (2,2) is covered only through the (4,0)-(0,4) face:
        # repair impossible (the default exponents take a = 6)
        inst = inst_from({
            "n": 2,
            "objective": [[[4, 0], 1.0], [[0, 4], 1.0], [[2, 2], -1.0], [[0, 0], 1.0]],
            "constraints": [], "lower": [-1, -1], "upper": [1, 1],
        })
        res = solve_instance(inst, PipelineOptions(exponents=(4, 4)))
        assert res.status == st.NUMERICAL_ERROR
        assert "certification failed" in res.message
        assert res.gamma_solver is not None  # the uncertified bound is still reported

    def test_infeasible_status(self):
        inst = inst_from({"n": 1, "objective": [[[4], -1.0], [[2], 1.0]],
                          "constraints": [], "lower": [-1], "upper": [1]})
        res = solve_instance(inst, PipelineOptions(use_bound_constraints=False))
        assert res.status == st.INFEASIBLE


class TestSolveOnBox:
    def test_bounds_tighten_with_box(self):
        root = prepare_root(MIN_X, PipelineOptions())
        full = solve_on_box(root, (-1.0, ), (2.0, ))
        left = solve_on_box(root, (-1.0, ), (0.5, ))
        assert full.status == st.OPTIMAL and left.status == st.OPTIMAL
        assert full.gamma_certified == pytest.approx(-2.0, abs=1e-5)
        assert left.gamma_certified == pytest.approx(-1.0, abs=1e-5)
        assert left.gamma_certified >= full.gamma_certified - 1e-7

    def test_covers_reused_across_boxes(self):
        root = prepare_root(MOTZKIN, PipelineOptions())
        res = solve_on_box(root, (-1.0, -1.0), (1.0, 1.0))
        assert res.status == st.OPTIMAL
        assert res.gamma_certified <= 0.0 + 1e-6


class TestOnePipeline:
    """solve_instance is prepare_root plus solve_on_box on the instance box."""

    @pytest.mark.parametrize("use_bcs", [True, False])
    def test_parity_on_acceptance_seeds(self, use_bcs):
        options = PipelineOptions(use_bound_constraints=use_bcs)
        for i in range(10):
            inst = generate_instance(1000 + i, n=1 + i % 3, m=i % 3, max_degree=3 + i % 4,
                                     density=0.5)
            full = solve_instance(inst, options)
            try:
                parts = solve_on_box(prepare_root(inst, options), inst.lower, inst.upper)
            except PREPARE_ERRORS as exc:
                parts = failure_result(exc)
            assert full.status == parts.status
            assert full.gamma_solver == parts.gamma_solver
            assert full.gamma_certified == parts.gamma_certified
            assert full.unavailable_beta == parts.unavailable_beta
            if full.solve is not None:
                assert full.solve.iterations == parts.solve.iterations
            assert full.status == (st.OPTIMAL if use_bcs else st.COVER_UNAVAILABLE)

    def test_root_without_bound_constraints(self):
        root = prepare_root(MOTZKIN, PipelineOptions(use_bound_constraints=False))
        assert root.exponents is None
        res = solve_on_box(root, (-2.0, -2.0), (2.0, 2.0))
        assert res.status == st.OPTIMAL
        assert not res.model.nu_indices and not res.model.bcs
        assert res.bound_exponents is None
        assert res.gamma_certified == pytest.approx(0.0, abs=1e-5)

    def test_big_m_overflow_is_numerical_error(self):
        huge = inst_from({"n": 1, "objective": [[[1], -1.0]], "constraints": [],
                          "lower": [-1e200], "upper": [1e200]})
        res = solve_instance(huge)
        assert res.status == st.NUMERICAL_ERROR
        assert "overflows" in res.message


HARD = inst_from({"n": 1, "objective": [[[2], 1.0], [[4], -1.0]], "constraints": [],
                  "lower": [-1], "upper": [1]})
# x^2 + y^2 - x^4 + 0.5 x y: (4, 0) is a hull vertex with coefficient -1
SADDLE = inst_from({"n": 2, "objective": [[[2, 0], 1.0], [[0, 2], 1.0], [[4, 0], -1.0],
                                          [[1, 1], 0.5]],
                    "constraints": [], "lower": [-1, -1], "upper": [1, 1]})


class TestDefaultExponents:
    """An even hull vertex with a negative constant coefficient is a term
    the bound exponents must cover: as a candidate no multiplier lifts it."""

    @pytest.mark.parametrize("inst, exponents, expected", [
        (HARD, None, (4,)),
        (SADDLE, None, (4, 4)),
        (SADDLE, (4, 2), (4, 2)),
    ], ids=["hard-uniform", "saddle-uniform", "saddle-override"])
    def test_negative_square_vertex_is_covered(self, inst, exponents, expected):
        res = solve_instance(inst, PipelineOptions(exponents=exponents))
        assert res.status == st.OPTIMAL, res.message
        assert res.bound_exponents == expected
        assert strict_gamma_float(res.model, res.certificate) <= res.gamma_certified
        assert sample_soundness_check(inst, res.gamma_certified).ok()

    def test_hard_bound(self):
        res = solve_instance(HARD)
        assert res.gamma_certified == pytest.approx(-1.0, abs=1e-5)


class TestExponentOverride:
    """PipelineOptions.exponents is the one way to other bound exponents,
    so malformed ones are rejected where they enter."""

    @pytest.mark.parametrize("exponents, entry", [
        ((4, 3), "3"), ((0,), "0"), ((-2, 4), "-2"), ((4.0,), "4.0"), (("4",), "'4'"),
        ((True,), "True"), ((np.bool_(True),), "np.True_"), ((np.int64(5),), r"np.int64\(5\)"),
        (np.array([4.0]), r"np.float64\(4.0\)"),
    ])
    def test_bad_entry_rejected(self, exponents, entry):
        with pytest.raises(ValueError, match=f"got {entry}$"):
            PipelineOptions(exponents=exponents)

    @pytest.mark.parametrize("exponents", [
        np.array([4, 6]), tuple(np.array([4, 6])), [4, 6], (np.int32(4), 6),
    ], ids=["numpy-array", "numpy-ints", "list", "mixed"])
    def test_integer_sequence_kept_as_python_ints(self, exponents):
        options = PipelineOptions(exponents=exponents)
        assert options.exponents == (4, 6) and all(type(a) is int for a in options.exponents)
        assert hash(options) == hash(PipelineOptions(exponents=(4, 6)))

    @pytest.mark.parametrize("exponents", [(4,), (4, 4, 4)])
    @pytest.mark.parametrize("use_bcs", [True, False])
    def test_wrong_length_rejected_before_any_work(self, monkeypatch, exponents, use_bcs):
        lags = count_calls(monkeypatch, pipeline, "assemble_lagrangian")
        options = PipelineOptions(use_bound_constraints=use_bcs, exponents=exponents)
        with pytest.raises(ValueError, match=f"{len(exponents)} bound exponents for 2"):
            solve_instance(MOTZKIN, options)
        with pytest.raises(ValueError, match=f"{len(exponents)} bound exponents for 2"):
            solve_bnb(MOTZKIN, options, max_nodes=2)
        assert lags == []

    def test_override_reaches_a_better_bound(self):
        # highdeg s19/n2-d8-m1: the default rule takes (8, 8) and certifies
        # -7.958116149168632; (4, 12) certifies this bound, to the bit
        inst = generate_instance(19, n=2, m=1, max_degree=8)
        res = solve_instance(inst, PipelineOptions(exponents=(4, 12)))
        assert res.status == st.OPTIMAL, res.message
        assert res.bound_exponents == (4, 12)
        assert res.gamma_certified == -1.5801385906557566
        assert strict_gamma_float(res.model, res.certificate) <= res.gamma_certified
        assert res.gamma_certified <= res.gamma_solver
        assert sample_soundness_check(inst, res.gamma_certified).ok()


def count_calls(monkeypatch, module, name):
    """Wrap module.name to count its calls; returns the list of call args."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestNodeResultsReused:
    """solve_on_box solves each box key once per root."""

    def test_same_big_m_is_one_solve(self, monkeypatch):
        solves = count_calls(monkeypatch, pipeline, "solve_relaxation")
        root = prepare_root(HARD, PipelineOptions(exponents=(4,)))
        left = solve_on_box(root, (-1.0, ), (0.0, ))
        right = solve_on_box(root, (0.0, ), (1.0, ))
        assert len(solves) == 1 and root.relaxations_solved == 1
        assert left.status == right.status == st.OPTIMAL
        assert right.gamma_certified == left.gamma_certified
        assert right.certificate is left.certificate
        inner = solve_on_box(root, (0.0, ), (0.5, ))
        assert len(solves) == 2 and root.relaxations_solved == 2
        assert inner.status == st.OPTIMAL
        assert inner.gamma_certified != left.gamma_certified

    def test_without_bound_constraints_every_box_is_one_solve(self, monkeypatch):
        solves = count_calls(monkeypatch, pipeline, "solve_relaxation")
        root = prepare_root(MOTZKIN, PipelineOptions(use_bound_constraints=False))
        wide = solve_on_box(root, (-2.0, -2.0), (2.0, 2.0))
        narrow = solve_on_box(root, (0.0, -0.5), (0.25, 1.0))
        assert len(solves) == 1 and root.relaxations_solved == 1
        assert narrow.gamma_certified == wide.gamma_certified
        assert narrow.status == st.OPTIMAL

    def test_failures_are_stored_too(self, monkeypatch):
        # repair fails on this instance (see test_repair_failure_demotes_to_numerical_error)
        inst = inst_from({
            "n": 2,
            "objective": [[[4, 0], 1.0], [[0, 4], 1.0], [[2, 2], -1.0], [[0, 0], 1.0]],
            "constraints": [], "lower": [-1, -1], "upper": [1, 1],
        })
        solves = count_calls(monkeypatch, pipeline, "solve_relaxation")
        root = prepare_root(inst, PipelineOptions(exponents=(4, 4)))
        first = solve_on_box(root, (-1.0, -1.0), (1.0, 1.0))
        again = solve_on_box(root, (-1.0, 0.0), (1.0, 1.0))
        assert len(solves) == 1
        assert first.status == again.status == st.NUMERICAL_ERROR
        assert again.message == first.message

    def test_hit_returns_stored_result(self):
        root = prepare_root(HARD, PipelineOptions(exponents=(4,)))
        first = solve_on_box(root, (-1.0, ), (1.0, ))
        assert solve_on_box(root, (-1.0, ), (1.0, )) is first

    def test_fresh_root_per_call(self, monkeypatch):
        solves = count_calls(monkeypatch, pipeline, "solve_relaxation")
        for _ in range(2):
            assert solve_instance(HARD, PipelineOptions(exponents=(4,))).status == st.OPTIMAL
        assert len(solves) == 2

    @pytest.mark.parametrize("inst, use_bcs, lagrangians, bound_sets", [
        (generate_instance(1000, n=1, m=0, max_degree=3, density=0.5), True, 2, 1),
        (MOTZKIN, False, 1, 0),  # acceptance seeds stop at cover-unavailable without bcs
    ], ids=["with-bcs", "without-bcs"])
    def test_instance_box_reuses_root_model_parts(self, monkeypatch, inst, use_bcs,
                                                  lagrangians, bound_sets):
        lags = count_calls(monkeypatch, pipeline, "assemble_lagrangian")
        bcs = count_calls(monkeypatch, pipeline, "make_bound_constraints")
        res = solve_instance(inst, PipelineOptions(use_bound_constraints=use_bcs))
        assert res.status == st.OPTIMAL
        assert (len(lags), len(bcs)) == (lagrangians, bound_sets)


def _assert_same_plan(got, want):
    """Every attribute of two barrier plans (and of their block plans)
    equal, arrays byte for byte."""
    assert type(got) is type(want) and vars(got).keys() == vars(want).keys()
    for name, a in vars(want).items():
        b = vars(got)[name]
        if isinstance(a, np.ndarray):
            assert (b.dtype, b.shape, b.tobytes()) == (a.dtype, a.shape, a.tobytes()), name
        elif isinstance(a, barrier._BlockPlan):
            _assert_same_plan(b, a)
        else:
            assert b == a, name


def _solved_plans(monkeypatch, solve=None):
    """Wrap pipeline.solve_relaxation to keep each (model, plan) it is
    given, calling solve(model) in place of the solver where given."""
    seen = []
    original = pipeline.solve_relaxation

    def recorded(model, opts, warm=None, plan=None):
        seen.append((model, plan))
        if solve is not None:
            return solve(model)
        return original(model, opts, warm=warm, plan=plan)

    monkeypatch.setattr(pipeline, "solve_relaxation", recorded)
    return seen


def _no_solve(model):
    return barrier.SolveResult(status=st.NUMERICAL_ERROR)


WIDE = generate_instance(0, n=6, m=1, max_degree=4, density=2.0)  # the benchmark's 175 variables


class TestRootRelaxation:
    """prepare_root builds the model of the instance's own box and its
    phase-2 plan once; a solve of that box takes both as they are."""

    ROOTS = [(MIN_X, PipelineOptions()), (MOTZKIN, PipelineOptions(use_bound_constraints=False)),
             (WIDE, PipelineOptions())]
    IDS = ["min-x", "motzkin-without-bcs", "wide"]

    @pytest.mark.parametrize("inst, options", ROOTS, ids=IDS)
    def test_root_box_is_solved_on_the_root_model_and_plan(self, monkeypatch, inst, options):
        root = prepare_root(inst, options)
        seen = _solved_plans(monkeypatch, _no_solve)
        solve_on_box(root, inst.lower, inst.upper)
        ((model, plan),) = seen
        assert model is root.model and plan is root.plan

    @pytest.mark.parametrize("inst, options", ROOTS, ids=IDS)
    def test_root_model_and_plan_are_a_fresh_build(self, inst, options):
        root = prepare_root(inst, options)
        fresh = build_for(inst, root.exponents)
        assert root.model.rows.tobytes() == fresh.rows.tobytes()
        assert root.model.rhs.tobytes() == fresh.rhs.tobytes()
        _assert_same_plan(root.plan, barrier.phase2_plan(fresh))


class TestPlanReuse:
    """A model whose rows have the shape and nonzero pattern of the
    root's own model solves on the root's plan with its own values; the
    plan then equals a fresh one byte for byte, and it shares the root
    plan's index arrays.  Any other model gets a fresh plan."""

    @pytest.mark.parametrize("inst, options, reused", [
        (generate_instance(1002, n=2, m=1, max_degree=4),
         PipelineOptions(solver=barrier.SolverOptions(tol_gap=1e-8, tol_kkt=1e-5)), 0),
        (HARD, PipelineOptions(solver=barrier.SolverOptions(tol_gap=1e-8, tol_kkt=1e-5),
                               exponents=(4,)), 8),
    ], ids=["demo", "hard"])
    def test_every_bnb_node_model(self, monkeypatch, inst, options, reused):
        seen = _solved_plans(monkeypatch)
        res = solve_bnb(inst, options, max_nodes=40, gap_tol=1e-6, seed=0)
        assert len(seen) == res.relaxations_solved == reused + 1
        root_plan = seen[0][1]
        for model, plan in seen:
            _assert_same_plan(plan, barrier.phase2_plan(model))
            assert plan.flat is root_plan.flat
        assert sum(plan is not root_plan for _, plan in seen) == reused

    @pytest.mark.parametrize("degree", (4, 5))
    def test_wide_model_on_its_box_and_a_sub_box(self, monkeypatch, degree):
        """The benchmark's wide models (175 and 235 variables) take the
        block path, whose plan reads coupling constants from the rows."""
        inst = generate_instance(0, n=6, m=1, max_degree=degree, density=2.0)
        root = prepare_root(inst, PipelineOptions())
        seen = _solved_plans(monkeypatch, _no_solve)
        lower, upper = list(inst.lower), list(inst.upper)
        upper[0] = 0.5 * (lower[0] + upper[0])
        lower[1] = 0.25 * lower[1]
        solve_on_box(root, inst.lower, inst.upper)
        solve_on_box(root, tuple(lower), tuple(upper))
        (model, plan), (sub_model, sub_plan) = seen
        assert plan.border is not None and sub_model.rows.tobytes() != model.rows.tobytes()
        _assert_same_plan(barrier.phase2_plan(model, plan), barrier.phase2_plan(model))
        _assert_same_plan(sub_plan, barrier.phase2_plan(sub_model))
        assert sub_plan.flat is plan.flat and sub_plan.border is plan.border

    def test_other_pattern_builds_fresh(self, monkeypatch):
        """On the point box [0, 0], M**4 = 0 drops nu from the origin budget."""
        root = prepare_root(HARD, PipelineOptions(exponents=(4,)))
        seen = _solved_plans(monkeypatch, _no_solve)
        solve_on_box(root, (-1.0,), (1.0,))
        solve_on_box(root, (0.0,), (0.0,))
        solve_on_box(root, (-0.5,), (0.5,))
        (model, plan), (point_model, point_plan), (_, half_plan) = seen
        assert (point_model.rows != 0).sum() == (model.rows != 0).sum() - 1
        assert point_plan.flat is not plan.flat
        _assert_same_plan(point_plan, barrier.phase2_plan(point_model))
        assert root.plan is plan and half_plan.flat is plan.flat


def test_singular_newton_system_is_numerical_error(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(barrier.np.linalg, "solve", singular)
    for res in (solve_instance(MIN_X),
                solve_on_box(prepare_root(MIN_X, PipelineOptions()), (-1.0, ), (2.0, ))):
        assert res.status == st.NUMERICAL_ERROR
        assert res.message == "singular Newton system"


def test_singular_block_system_is_numerical_error(monkeypatch):
    """The block path (_block_direction) maps a singular border as the
    dense path maps a singular Hessian."""
    root = prepare_root(WIDE, PipelineOptions())
    assert root.plan.border is not None

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(barrier.np.linalg, "inv", singular)
    res = solve_on_box(root, WIDE.lower, WIDE.upper)
    assert res.status == st.NUMERICAL_ERROR
    assert res.message == "singular Newton system"
