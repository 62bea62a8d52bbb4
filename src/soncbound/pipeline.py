"""End-to-end solve pipeline: classify, cover, model, solve, certify.

prepare_root fixes what does not depend on the box (bound exponents,
candidates, covers) and builds the instance box's model and barrier
plan; solve_on_box solves and certifies the model of one box, once per
distinct model of a root, each solve after the root's first starting
warm from the path of the last one, on the root's plan where the rows
keep its pattern (see barrier).  solve_instance is the two on the
instance's box, on a fresh root, so it always starts cold.
"""

from __future__ import annotations

import numbers
import operator
import time
from dataclasses import dataclass, field, replace

from . import status as st
from .barrier import SolveResult, SolverOptions, _Barrier, phase2_plan, solve_relaxation
from .certify import Certificate, RepairFailure, repair_and_certify
from .covers import (
    box_magnitudes,
    build_candidate_set,
    build_candidates_and_covers,
    make_bound_constraints,
    select_bound_exponents,
)
from .geometry import CoverUnavailable, LpFailure, classify_support
from .poly import Exponent, PopInstance
from .relaxation import LagrangianSupport, RelaxationModel, assemble_lagrangian, build_model


@dataclass(frozen=True)
class PipelineOptions:
    use_bound_constraints: bool = True
    exponents: tuple[int, ...] | None = None  # override of select_bound_exponents' a_i
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.exponents is not None:
            object.__setattr__(self, "exponents", tuple(map(_bound_exponent, self.exponents)))

    def check_fits(self, inst: PopInstance) -> None:
        """Raise ValueError unless exponents, where given, has one entry per variable."""
        if self.exponents is not None and len(self.exponents) != inst.n:
            raise ValueError(f"{len(self.exponents)} bound exponents for {inst.n} variables")


def _bound_exponent(a) -> int:
    """a as a Python int, where it is an even integer >= 2 (a bool is 0 or 1)."""
    k = operator.index(a) if isinstance(a, numbers.Integral) else 0
    if k < 2 or k % 2:
        raise ValueError(f"bound exponent must be an even int >= 2, got {a!r}")
    return k


@dataclass(frozen=True)
class PipelineResult:
    status: str
    gamma_solver: float | None = None
    gamma_certified: float | None = None
    certificate: Certificate | None = None
    solve: SolveResult | None = None
    model: RelaxationModel | None = None
    bound_exponents: tuple[int, ...] | None = None
    unavailable_beta: Exponent | None = None
    message: str = ""
    seconds: float = 0.0


PREPARE_ERRORS = (CoverUnavailable, LpFailure, st.NumericalError)


def failure_result(exc: Exception) -> PipelineResult:
    """The status a model-preparation failure (one of PREPARE_ERRORS) maps to."""
    if isinstance(exc, CoverUnavailable):
        return PipelineResult(
            status=st.COVER_UNAVAILABLE, unavailable_beta=exc.beta, message=str(exc)
        )
    return PipelineResult(status=st.NUMERICAL_ERROR, message=str(exc))


def solve_instance(inst: PopInstance, options: PipelineOptions | None = None) -> PipelineResult:
    """Run the full pipeline on one instance and map failures to statuses.

    This is prepare_root followed by solve_on_box on the instance's own
    box.  A certification repair failure demotes an optimal solve to the
    numerical-error status: the bound exists but cannot be vouched for.
    Exponents that do not fit the instance raise ValueError (check_fits).
    """
    start = time.perf_counter()
    try:
        result = solve_on_box(prepare_root(inst, options or PipelineOptions()),
                              inst.lower, inst.upper)
    except PREPARE_ERRORS as exc:
        result = failure_result(exc)
    return replace(result, seconds=time.perf_counter() - start)


@dataclass(frozen=True)
class RootStructure:
    """Everything box-independent, reusable across branch-and-bound nodes.

    model and plan are the relaxation of the instance's own box and its
    phase-2 barrier plan; every other box's model shares model's
    candidates and covers, and reuses plan where its rows keep plan's
    pattern (_solve_model).  _results holds the outcome of every box
    solved on this root, by its box key (see solve_on_box); _warm holds
    the last solve on this root that has a central path, the warm start
    of the next.  Both live and die with the root.
    """

    inst: PopInstance
    options: PipelineOptions
    exponents: tuple[int, ...] | None  # None without bound constraints
    model: RelaxationModel
    plan: _Barrier
    _results: dict[tuple[float, ...], PipelineResult] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    _warm: list[SolveResult] = field(
        default_factory=list, init=False, compare=False, repr=False)

    @property
    def relaxations_solved(self) -> int:
        """The number of distinct relaxations built and solved on this root."""
        return len(self._results)

    def box_key(self, lower: tuple[float, ...], upper: tuple[float, ...]) -> tuple[float, ...]:
        """What the model of a box depends on: M_i = max(|l_i|, |u_i|) with
        bound constraints, nothing without them."""
        return box_magnitudes(lower, upper) if self.options.use_bound_constraints else ()


def prepare_root(inst: PopInstance, options: PipelineOptions) -> RootStructure:
    """Fix the bound exponents and covers, and build the instance box's
    model and phase-2 plan, once; other boxes only change big-M.

    The exponents are options.exponents where given, else those of
    select_bound_exponents.  Raises ValueError, before any work, when
    options.exponents does not fit the instance (check_fits);
    CoverUnavailable when some inner term cannot be covered, LpFailure
    when an LP gives up, and NumericalError on big-M overflow.
    build_model adds no failure: it raises only at an inner term without
    a cover, and every support point that is not a candidate has one.
    """
    options.check_fits(inst)
    lag_plain = assemble_lagrangian(inst, [], False)
    a, bcs, lag = None, [], lag_plain
    if options.use_bound_constraints:
        if options.exponents is not None:
            a = options.exponents
        else:
            a = select_bound_exponents(inst, _terms_to_cover(lag_plain))
        bcs = make_bound_constraints(inst, a)
        lag = assemble_lagrangian(inst, bcs, True)
    cands, covers = build_candidates_and_covers(lag.support, bcs, inst.n)
    model = build_model(lag, cands, covers, bcs)
    return RootStructure(inst=inst, options=options, exponents=a, model=model,
                         plan=phase2_plan(model))


def _terms_to_cover(lag_plain: LagrangianSupport) -> list[Exponent]:
    """The terms the bound exponents must cover: the inner terms of the
    plain Lagrangian, and its even hull vertices whose coefficient is a
    negative constant, which no multiplier can lift while they stay
    candidates."""
    cands = build_candidate_set(lag_plain.support, [], lag_plain.n)
    _, inner = classify_support(lag_plain.support, cands)
    negative = [p for p in cands.points
                if lag_plain.coeffs[p].is_constant() and lag_plain.coeffs[p].constant < 0]
    return [e for e, _ in inner] + negative


def solve_on_box(
    root: RootStructure, lower: tuple[float, ...], upper: tuple[float, ...]
) -> PipelineResult:
    """Solve and certify the relaxation for a sub-box, reusing the root covers.

    The model sees the box only through root.box_key: the bound
    constraints' M_i = max(|l_i|, |u_i|), and nothing without them.
    Boxes with one key therefore share one bit-identical relaxation, so
    each key is solved and certified once per root, the root's own key
    on root.model; a later box with that key gets the stored result
    itself (every status included, its seconds those of the solve that
    made it): treat it, and its solve, model and certificate, as
    read-only.  A model that reads l and u itself must widen the key to
    the full box.
    """
    key = root.box_key(lower, upper)
    stored = root._results.get(key)
    if stored is None:
        stored = root._results[key] = _solve_model(root, key, lower, upper)
    return stored


def _solve_model(
    root: RootStructure, key: tuple[float, ...], lower: tuple[float, ...],
    upper: tuple[float, ...]
) -> PipelineResult:
    """Solve and certify the model of a box with this key.

    The root's key is solved on root.model and root.plan; another key
    builds its model on the root's candidates and covers, and its plan
    from root.plan (phase2_plan).  The solve is offered the root's last
    solve with a central path as its warm start: in a branch-and-bound
    dive, the parent's.  It then becomes the root's warm start in turn,
    if it has a path.
    """
    start = time.perf_counter()
    if key == root.box_key(root.inst.lower, root.inst.upper):
        model, plan = root.model, root.plan
    else:
        use_bcs = root.options.use_bound_constraints
        inst = replace(root.inst, lower=tuple(lower), upper=tuple(upper))
        try:
            bcs = make_bound_constraints(inst, root.exponents) if use_bcs else []
            model = build_model(assemble_lagrangian(inst, bcs, use_bcs), root.model.cands,
                                root.model.covers, bcs)
        except PREPARE_ERRORS as exc:
            return failure_result(exc)
        plan = phase2_plan(model, root.plan)
    result = solve_relaxation(model, root.options.solver,
                              warm=root._warm[-1] if root._warm else None, plan=plan)
    if result.path:
        root._warm[:] = [result]
    base = PipelineResult(
        status=result.status,
        gamma_solver=result.gamma,
        solve=result,
        model=model,
        bound_exponents=root.exponents,
        message=result.message,
        seconds=time.perf_counter() - start,
    )
    if result.status != st.OPTIMAL:
        return base
    try:
        cert = repair_and_certify(model, result)
    except RepairFailure as exc:
        return replace(
            base, status=st.NUMERICAL_ERROR, message=f"certification failed: {exc}"
        )
    return replace(base, gamma_certified=cert.gamma_certified, certificate=cert)
