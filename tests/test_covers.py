import pytest

from soncbound.covers import (
    BoundConstraint,
    build_candidates_and_covers,
    make_bound_constraints,
    select_bound_exponents,
)
from soncbound.certify import sample_soundness_check, strict_gamma_float
from soncbound.generator import generate_instance
from soncbound.geometry import CoverUnavailable
from soncbound.pipeline import solve_instance
from soncbound.relaxation import assemble_lagrangian
from soncbound.status import OPTIMAL, NumericalError

from builders import make_inst


class TestSelectExponents:
    def test_uniform_degree_four(self):
        inst = make_inst(n=2, lower=(-1, -1), upper=(1, 1), objective=(((2, 2), -1.0),))
        a = select_bound_exponents(inst, {(2, 2)})
        # total degree 4 would put (2,2) on the face of conv(0, 4e_1, 4e_2)
        assert a == (6, 6)
        # explicit construction: 2/6 + 2/6 < 1, origin weight 1/3
        assert sum(b / ai for b, ai in zip((2, 2), a)) < 1.0

    def test_uniform_linear(self):
        inst = make_inst()
        assert select_bound_exponents(inst, {(1,)}) == (2,)

    def test_uniform_mixed(self):
        inst = make_inst(n=2, lower=(-1, -1), upper=(1, 1), objective=(((3, 1), 1.0),))
        a = select_bound_exponents(inst, {(3, 1)})
        assert a == (6, 6)  # at (4, 4), 3/4 + 1/4 = 1 leaves no origin weight
        assert 3 / 6 + 1 / 6 < 1.0

    def test_uniform_corner_keeps_its_degree(self):
        # a negative pure power a*e_i is a corner of the simplex, not a face term
        inst = make_inst(n=2, lower=(-1, -1), upper=(1, 1), objective=(((4, 0), -1.0),))
        assert select_bound_exponents(inst, {(4, 0), (1, 1)}) == (4, 4)
        assert select_bound_exponents(inst, {(4, 0), (2, 2)}) == (6, 6)
        assert select_bound_exponents(inst, {(3, 0)}) == (4,) * 2

    def test_uniform_face_term_lifted_by_a_higher_vertex(self):
        # Motzkin: (4,2) and (2,4) lie beyond the face x + y = 4, so (2,2)
        # keeps origin weight 1/3 at a = 4, and a larger a only loosens the bound
        inst = make_inst(n=2, lower=(-2, -2), upper=(2, 2),
                         objective=(((4, 2), 1.0), ((2, 4), 1.0), ((2, 2), -3.0), ((0, 0), 1.0)))
        assert select_bound_exponents(inst, {(2, 2)}) == (4, 4)

    def test_face_term_is_certified(self):
        # x^4 + y^4 - x^2 y^2 + xy on [-1, 1]^2: at a = 4 the cover of (2, 2)
        # has no origin weight and the repair fails; a = 6 gives 1/3 each
        inst = make_inst(n=2, lower=(-1, -1), upper=(1, 1),
                         objective=(((4, 0), 1.0), ((0, 4), 1.0), ((2, 2), -1.0), ((1, 1), 1.0)))
        res = solve_instance(inst)
        assert res.bound_exponents == (6, 6)
        assert res.status == OPTIMAL, res.message
        assert res.gamma_certified == pytest.approx(-2.0000016, abs=1e-6)
        assert strict_gamma_float(res.model, res.certificate) <= res.gamma_certified
        assert res.gamma_certified <= res.gamma_solver
        assert sample_soundness_check(inst, res.gamma_certified).ok()

    def test_empty_inner_defaults(self):
        inst = make_inst()
        assert select_bound_exponents(inst, set()) == (2,)

    def test_evenness_always(self):
        inst = make_inst(n=3, lower=(-1,) * 3, upper=(1,) * 3, objective=(((1, 2, 3), 1.0),))
        a = select_bound_exponents(inst, {(1, 2, 3), (5, 0, 0)})
        assert all(ai % 2 == 0 for ai in a)


class TestMakeBoundConstraints:
    def test_big_m_example(self):
        inst = make_inst(lower=(-2,), upper=(1,))
        (bc,) = make_bound_constraints(inst, (4,))
        assert bc.big_m == 16.0

    def test_big_m_asymmetric(self):
        inst = make_inst(lower=(-1,), upper=(2,))
        (bc,) = make_bound_constraints(inst, (2,))
        assert bc.big_m == 4.0

    def test_degenerate_fixed_variable(self):
        inst = make_inst(lower=(0,), upper=(0,))
        (bc,) = make_bound_constraints(inst, (2,))
        assert bc.big_m == 0.0

    def test_overflow_names_variable(self):
        inst = make_inst(n=2, lower=(-1, -1e200), upper=(1, 1e200),
                         objective=(((1, 1), 1.0),))
        with pytest.raises(NumericalError, match="variable 1"):
            make_bound_constraints(inst, (2, 4))

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ValueError):
            BoundConstraint(var_index=0, exponent=3, big_m=1.0)


class TestBuildCandidatesAndCovers:
    def test_linear_without_bcs_unavailable(self):
        inst = make_inst()
        lag = assemble_lagrangian(inst, [], False)
        with pytest.raises(CoverUnavailable) as err:
            build_candidates_and_covers(lag.support, [], inst.n)
        assert err.value.beta == (1,)

    def test_linear_with_bc_covered(self):
        inst = make_inst()
        bcs = make_bound_constraints(inst, (2,))
        lag = assemble_lagrangian(inst, bcs, True)
        cands, covers = build_candidates_and_covers(lag.support, bcs, inst.n)
        assert cands.points == ((0,), (2,))
        assert covers[(1,)].weights[0] == pytest.approx(0.5, abs=1e-9)

    def test_motzkin_without_bcs_covered(self):
        inst = make_inst(
            n=2, lower=(-2, -2), upper=(2, 2),
            objective=(((4, 2), 1.0), ((2, 4), 1.0), ((2, 2), -3.0), ((0, 0), 1.0)),
        )
        lag = assemble_lagrangian(inst, [], False)
        cands, covers = build_candidates_and_covers(lag.support, [], inst.n)
        assert set(cands.points) == {(0, 0), (2, 4), (4, 2)}
        assert set(covers) == {(2, 2)}

    def test_bound_point_collision_kept_once(self):
        # objective already contains x^2; the bound point (2,) must appear once
        inst = make_inst(objective=(((2,), -1.0),))
        bcs = make_bound_constraints(inst, (2,))
        lag = assemble_lagrangian(inst, bcs, True)
        cands, _ = build_candidates_and_covers(lag.support, bcs, inst.n)
        assert cands.points.count((2,)) == 1
        # and the nu multiplier still feeds that exponent's coefficient
        assert lag.coeffs[(2,)].nu == {0: 1.0}

    def test_generated_instances_never_unavailable_with_bcs(self):
        for seed in range(40):
            inst = generate_instance(seed, n=1 + seed % 3, m=seed % 3,
                                     max_degree=3 + seed % 4)
            lag_plain = assemble_lagrangian(inst, [], False)
            from soncbound.covers import build_candidate_set
            from soncbound.geometry import classify_support

            cands0 = build_candidate_set(lag_plain.support, [], inst.n)
            _, inner0 = classify_support(lag_plain.support, cands0)
            a = select_bound_exponents(inst, [e for e, _ in inner0])
            bcs = make_bound_constraints(inst, a)
            lag = assemble_lagrangian(inst, bcs, True)
            cands, covers = build_candidates_and_covers(lag.support, bcs, inst.n)
            inner = set(lag.support) - set(cands.points)
            assert set(covers) == inner  # no CoverUnavailable raised
