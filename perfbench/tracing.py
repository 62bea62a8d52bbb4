"""Spans around the public entry points of each soncbound layer.

The tracer replaces each entry point in the module that calls it (the
name as the caller binds it), so ``solve_instance``, ``prepare_root``
and ``solve_on_box`` all reach the wrapped versions.  Nothing under
``src/`` changes; ``uninstall`` puts the originals back.

A span records its name, parent, request (the benchmark's top-level
call it belongs to), start and end, the time its child spans cover, the
exception it ended with, and a few numbers read off the call's
arguments and result.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field

WRAPPED = {
    "pipeline": ("select_bound_exponents", "build_candidate_set", "classify_support",
                 "build_candidates_and_covers", "make_bound_constraints",
                 "assemble_lagrangian", "build_model", "solve_relaxation",
                 "repair_and_certify"),
    "simplex": ("lp_solve",),
    "bnb": ("prepare_root", "solve_on_box"),
}
COVERS = {"select_bound_exponents", "build_candidate_set", "classify_support",
          "build_candidates_and_covers", "make_bound_constraints"}
RELAXATION = {"assemble_lagrangian", "build_model"}
ROOTS = {"solve_instance", "solve_bnb"}  # the benchmark's own calls
PIPELINE = {"solve_instance", "solve_on_box"}


def _observe(name: str, args: tuple, result) -> dict:
    """Numbers a span keeps from its call."""
    if name == "lp_solve":
        return {"pivots": result.iterations}
    if name == "build_model":
        return {"nvar": result.nvar, "rows": len(result.rhs), "circuits": len(result.blocks)}
    if name == "solve_relaxation":
        return {"newton": result.iterations, "outer": result.outer_iterations,
                "stalled": int(result.message == "inner Newton stalled"),
                "failed": int(result.status != "optimal")}
    if name == "repair_and_certify":
        solver = args[1].gamma
        return {"loss": (solver - result.gamma_certified) / (1.0 + abs(solver))}
    if name == "solve_bnb":
        return {"nodes": result.nodes, "error_nodes": result.error_nodes}
    return {}


@dataclass
class Span:
    span_id: int
    parent: int  # -1 for a top-level call
    request: int
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    error: str = ""
    data: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._spans_made = 0
        self._requests = 0
        self._originals: list[tuple[object, str, object]] = []

    def install(self, sb) -> None:
        for module_name, names in WRAPPED.items():
            module = getattr(sb, module_name)
            for name in names:
                original = getattr(module, name)
                self._originals.append((module, name, original))
                setattr(module, name, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            module, name, original = self._originals.pop()
            setattr(module, name, original)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name; exceptions pass through."""
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._requests += 1
        self._spans_made += 1
        span = Span(self._spans_made, parent.span_id if parent else -1, self._requests, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        else:
            span.data = _observe(name, args, result)
            return result
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += span.seconds

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], bnb_gaps: dict[str, float]) -> dict[str, float]:
    """Per-layer figures of one traced pass (times in seconds, inclusive)."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def of(names):
        return [s for name in names for s in by_name.get(name, [])]

    def seconds(names):
        return sum(s.seconds for s in of(names))

    def total(names, key):
        return sum(s.data.get(key, 0) for s in of(names))

    barrier = by_name.get("solve_relaxation", [])
    barrier_s = seconds({"solve_relaxation"})
    newton = total({"solve_relaxation"}, "newton")
    models = by_name.get("build_model", [])
    nodes = by_name.get("solve_on_box", [])
    node_ids = {s.span_id for s in nodes}
    node_newton = sum(s.data.get("newton", 0) for s in barrier if s.parent in node_ids)
    top_s = seconds(ROOTS)
    repairs = by_name.get("repair_and_certify", [])
    return {
        "barrier.s": barrier_s,
        "barrier.share": barrier_s / top_s if top_s else 0.0,
        "barrier.ms_per_newton": 1e3 * barrier_s / newton if newton else 0.0,
        "barrier.newton_steps": newton,
        "barrier.outer_iters": total({"solve_relaxation"}, "outer"),
        "barrier.stalled": total({"solve_relaxation"}, "stalled"),
        "barrier.failed": total({"solve_relaxation"}, "failed")
        + sum(1 for s in barrier if s.error),
        "bnb.newton_per_node": node_newton / len(nodes) if nodes else 0.0,
        "bnb.node_solve_s": seconds({"solve_on_box"}),
        "bnb.self_s": sum(s.self_s for s in by_name.get("solve_bnb", [])),
        "bnb.prepare_root_s": seconds({"prepare_root"}),
        "bnb.error_nodes": total({"solve_bnb"}, "error_nodes"),
        "bnb.gap_demo": bnb_gaps.get("demo", 0.0),
        "bnb.gap_hard": bnb_gaps.get("hard", 0.0),
        "covers.s": seconds(COVERS),
        "simplex.s": seconds({"lp_solve"}),
        "simplex.lp_calls": len(by_name.get("lp_solve", [])),
        "simplex.pivots": total({"lp_solve"}, "pivots"),
        "relaxation.s": seconds(RELAXATION),
        "relaxation.nvar_p50": median_or_zero([s.data["nvar"] for s in models if s.data]),
        "relaxation.nvar_max": max((s.data["nvar"] for s in models if s.data), default=0),
        "relaxation.rows_p50": median_or_zero([s.data["rows"] for s in models if s.data]),
        "relaxation.circuits_p50": median_or_zero([s.data["circuits"] for s in models if s.data]),
        "certify.repair_s": seconds({"repair_and_certify"}),
        "certify.repair_failures": sum(1 for s in repairs if s.error == "RepairFailure"),
        "certify.gamma_loss_p50": median_or_zero([s.data["loss"] for s in repairs if s.data]),
        "pipeline.self_s": sum(s.self_s for s in of(PIPELINE)),
    }
