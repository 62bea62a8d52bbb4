import numpy as np
import pytest
from hypothesis import given, strategies as hst

from soncbound.covers import make_bound_constraints
from soncbound.relaxation import (
    assemble_lagrangian,
    dump_model,
    geometric_mean,
)

from builders import build_for, make_inst


class TestAssembleLagrangian:
    def test_constraint_coefficients(self):
        # f = x^2 - x, g = 1 - x^2
        inst = make_inst(objective=(((2,), 1.0), ((1,), -1.0)),
                         constraints=((((0,), 1.0), ((2,), -1.0)),))
        lag = assemble_lagrangian(inst, [], False)
        assert lag.coeffs[(2,)].constant == 1.0
        assert lag.coeffs[(2,)].mu == {0: 1.0}  # -g coefficient = +1
        assert lag.coeffs[(1,)].constant == -1.0
        origin = lag.coeffs[(0,)]
        assert origin.constant == 0.0
        assert origin.mu == {0: -1.0}
        assert origin.gamma_coeff == -1.0

    def test_bound_constraint_contributions(self):
        # f = -x with a=2, big_m=4
        inst = make_inst()
        bcs = make_bound_constraints(inst, (2,))
        lag = assemble_lagrangian(inst, bcs, True)
        assert lag.coeffs[(2,)].nu == {0: 1.0}
        assert lag.coeffs[(1,)].constant == -1.0
        origin = lag.coeffs[(0,)]
        assert origin.nu == {0: -4.0}
        assert origin.gamma_coeff == -1.0

    def test_plain_objective(self):
        inst = make_inst(objective=(((2,), 3.0), ((0,), 1.5)))
        lag = assemble_lagrangian(inst, [], False)
        assert lag.coeffs[(2,)].constant == 3.0
        assert lag.coeffs[(0,)].constant == 1.5
        assert lag.coeffs[(0,)].gamma_coeff == -1.0
        assert not lag.coeffs[(2,)].mu and not lag.coeffs[(2,)].nu


class TestBuildModel:
    def test_motzkin_structure(self):
        inst = make_inst(
            n=2, lower=(-2, -2), upper=(2, 2),
            objective=(((4, 2), 1.0), ((2, 4), 1.0), ((2, 2), -3.0), ((0, 0), 1.0)),
        )
        model = build_for(inst)
        assert len(model.blocks) == 1
        blk = model.blocks[0]
        assert blk.beta == (2, 2)
        assert blk.kind == "one-sided"
        assert len(blk.c_indices) == 3
        assert blk.lambdas == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-9)
        # one-sided: single magnitude row t >= 3
        mag_rows = [lbl for lbl in model.row_labels if lbl.startswith("magnitude")]
        assert mag_rows == ["magnitude- (2, 2)"]

    def test_two_sided_rows(self):
        # L = nu x^2 - x - (gamma + 4 nu): inner (1,) two-sided with s = -1
        inst = make_inst()
        model = build_for(inst, a=(2,))
        blk = model.blocks[0]
        assert blk.kind == "two-sided"
        mag_rows = [lbl for lbl in model.row_labels if lbl.startswith("magnitude")]
        assert sorted(mag_rows) == ["magnitude+ (1,)", "magnitude- (1,)"]
        assert blk.lambdas == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_empty_inner_is_linear_program(self):
        inst = make_inst(objective=(((2,), 1.0), ((0,), 1.0)))
        model = build_for(inst)
        assert model.blocks == ()
        assert any(lbl == "origin-budget" for lbl in model.row_labels)

    def test_trivially_infeasible_detected(self):
        # -x^4 without lift: even vertex with constant -1
        inst = make_inst(objective=(((4,), -1.0),))
        model = build_for(inst)
        assert model.infeasible_reason is not None

    def test_dump_format(self):
        inst = make_inst()
        model = build_for(inst, a=(2,))
        text = dump_model(model)
        assert any(line.startswith("LIN ") for line in text.splitlines())
        assert any(line.startswith("GEO t[(1,)] <= ") for line in text.splitlines())

    def test_sign_bounds_only_as_indices(self):
        model = build_for(make_inst(), a=(2,))
        assert not any(lbl.startswith("bound") for lbl in model.row_labels)
        assert len(model.rows) == len(model.row_labels)
        bound_lines = [line for line in dump_model(model).splitlines() if "# bound" in line]
        assert bound_lines[0] == "LIN +1*nu[0] >= 0   # bound var1"
        assert len(bound_lines) == len(model.nonneg_indices)


class TestGeometricMean:
    def test_exact_value(self):
        # (c0/.5)^.5 * (c1/.5)^.5 = 2 sqrt(c0 c1)
        assert geometric_mean(np.array([1.0, 0.25]), np.array([0.5, 0.5])) == pytest.approx(1.0)

    @given(
        hst.lists(hst.floats(0.01, 100.0), min_size=2, max_size=5),
        hst.lists(hst.floats(0.01, 100.0), min_size=2, max_size=5),
        hst.integers(2, 5),
    )
    def test_midpoint_concavity(self, c1_raw, c2_raw, k):
        c1 = np.array((c1_raw * k)[:k])
        c2 = np.array((c2_raw * k)[:k])
        lams = np.full(k, 1.0 / k)
        mid = geometric_mean(0.5 * (c1 + c2), lams)
        assert mid >= 0.5 * (geometric_mean(c1, lams) + geometric_mean(c2, lams)) - 1e-9

    def test_zero_boundary(self):
        assert geometric_mean(np.array([0.0, 1.0]), np.array([0.5, 0.5])) == 0.0
