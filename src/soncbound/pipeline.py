"""End-to-end solve pipeline: classify, cover, model, solve, certify."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from . import status as st
from .barrier import SolveResult, SolverOptions, solve_relaxation
from .certify import Certificate, RepairFailure, repair_and_certify
from .covers import (
    UNIFORM,
    build_candidate_set,
    build_candidates_and_covers,
    make_bound_constraints,
    select_bound_exponents,
)
from .geometry import CandidateSet, Cover, CoverUnavailable, LpFailure, classify_support
from .poly import Exponent, PopInstance
from .relaxation import RelaxationModel, assemble_lagrangian, build_model


@dataclass(frozen=True)
class PipelineOptions:
    use_bound_constraints: bool = True
    exponent_strategy: str = UNIFORM
    exponents: tuple[int, ...] | None = None  # explicit override of the a_i
    solver: SolverOptions = field(default_factory=SolverOptions)
    certify: bool = True


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


def prepare_model(inst: PopInstance, options: PipelineOptions) -> RelaxationModel:
    """Build the relaxation model, choosing bound exponents if requested.

    Raises CoverUnavailable when some inner term cannot be covered and
    NumericalError on LP failures or big-M overflow.
    """
    lag_plain = assemble_lagrangian(inst, [], False)
    if options.use_bound_constraints:
        if options.exponents is not None:
            a = tuple(options.exponents)
        else:
            cands_plain = build_candidate_set(lag_plain.support, [], inst.n)
            _, inner_plain = classify_support(lag_plain.support, cands_plain)
            a = select_bound_exponents(
                inst, [e for e, _ in inner_plain], options.exponent_strategy
            )
        bcs = make_bound_constraints(inst, a)
        lag = assemble_lagrangian(inst, bcs, True)
    else:
        bcs = []
        lag = lag_plain
    cands, covers = build_candidates_and_covers(
        lag.support, bcs, inst.n, genuine_support=lag_plain.support
    )
    return build_model(lag, cands, covers, bcs)


def solve_instance(inst: PopInstance, options: PipelineOptions | None = None) -> PipelineResult:
    """Run the full pipeline on one instance and map failures to statuses.

    A certification repair failure demotes an optimal solve to the
    numerical-error status: the bound exists but cannot be vouched for.
    """
    options = options or PipelineOptions()
    start = time.perf_counter()

    def done(result: PipelineResult) -> PipelineResult:
        return replace(result, seconds=time.perf_counter() - start)

    try:
        model = prepare_model(inst, options)
    except CoverUnavailable as exc:
        return done(
            PipelineResult(
                status=st.COVER_UNAVAILABLE,
                unavailable_beta=exc.beta,
                message=str(exc),
            )
        )
    except (LpFailure, st.NumericalError) as exc:
        return done(PipelineResult(status=st.NUMERICAL_ERROR, message=str(exc)))

    a = tuple(bc.exponent for bc in model.bcs) or None
    try:
        result = solve_relaxation(model, options.solver)
    except st.NumericalError as exc:
        return done(
            PipelineResult(
                status=st.NUMERICAL_ERROR, model=model, bound_exponents=a, message=str(exc)
            )
        )

    base = PipelineResult(
        status=result.status,
        gamma_solver=result.gamma,
        solve=result,
        model=model,
        bound_exponents=a,
        message=result.message,
    )
    if result.status != st.OPTIMAL or not options.certify:
        return done(base)

    try:
        cert = repair_and_certify(model, result)
    except RepairFailure as exc:
        return done(
            replace(
                base,
                status=st.NUMERICAL_ERROR,
                message=f"certification failed: {exc}",
            )
        )
    return done(replace(base, gamma_certified=cert.gamma_certified, certificate=cert))


@dataclass(frozen=True)
class RootStructure:
    """Everything box-independent, reusable across branch-and-bound nodes."""

    inst: PopInstance
    options: PipelineOptions
    exponents: tuple[int, ...]
    cands: CandidateSet
    covers: dict[Exponent, Cover]


def prepare_root(inst: PopInstance, options: PipelineOptions) -> RootStructure:
    """Fix the bound exponents and covers once; boxes only change big-M."""
    lag_plain = assemble_lagrangian(inst, [], False)
    if options.exponents is not None:
        a = tuple(options.exponents)
    else:
        cands_plain = build_candidate_set(lag_plain.support, [], inst.n)
        _, inner_plain = classify_support(lag_plain.support, cands_plain)
        a = select_bound_exponents(inst, [e for e, _ in inner_plain], options.exponent_strategy)
    bcs = make_bound_constraints(inst, a)
    lag = assemble_lagrangian(inst, bcs, True)
    cands, covers = build_candidates_and_covers(
        lag.support, bcs, inst.n, genuine_support=lag_plain.support
    )
    return RootStructure(inst=inst, options=options, exponents=a, cands=cands, covers=covers)


def solve_on_box(
    root: RootStructure, lower: tuple[float, ...], upper: tuple[float, ...]
) -> PipelineResult:
    """Solve the relaxation for a sub-box, reusing the root covers."""
    inst = replace(root.inst, lower=tuple(lower), upper=tuple(upper))
    start = time.perf_counter()
    try:
        bcs = make_bound_constraints(inst, root.exponents)
    except st.NumericalError as exc:
        return PipelineResult(status=st.NUMERICAL_ERROR, message=str(exc))
    lag = assemble_lagrangian(inst, bcs, True)
    model = build_model(lag, root.cands, root.covers, bcs)
    result = solve_relaxation(model, root.options.solver)
    base = PipelineResult(
        status=result.status,
        gamma_solver=result.gamma,
        solve=result,
        model=model,
        bound_exponents=root.exponents,
        message=result.message,
        seconds=time.perf_counter() - start,
    )
    if result.status != st.OPTIMAL or not root.options.certify:
        return base
    try:
        cert = repair_and_certify(model, result)
    except RepairFailure as exc:
        return replace(
            base, status=st.NUMERICAL_ERROR, message=f"certification failed: {exc}"
        )
    return replace(base, gamma_certified=cert.gamma_certified, certificate=cert)
