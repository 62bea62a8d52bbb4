"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
The corpus (100 seeded instances, n in {1,2,3}, degree caps 3..6) is
generated and solved once per session and shared across criteria.
"""

import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from soncbound import status as st
from soncbound.barrier import START_WARM, SolveResult, SolverOptions
from soncbound.bnb import GAP_REACHED, solve_bnb
from soncbound.certify import repair_and_certify, sample_soundness_check, strict_gamma
from soncbound.cli import main
from soncbound.generator import generate_instance
from soncbound.geometry import CandidateSet, CoverUnavailable, barycentric_coordinates
from soncbound.pipeline import PipelineOptions, PipelineResult, solve_instance
from soncbound.poly import PopInstance, serialize_instance

from builders import inst_from
from oracle import in_hull_exact

CORPUS_SIZE = 100
CORPUS_SEED0 = 1000


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def corpus_params(i: int):
    return dict(seed=CORPUS_SEED0 + i, n=1 + i % 3, m=i % 3, max_degree=3 + i % 4)


@dataclass
class CorpusEntry:
    inst: PopInstance
    params: dict
    with_bcs: PipelineResult
    without_bcs: PipelineResult


@pytest.fixture(scope="module")
def corpus():
    entries = []
    start = time.perf_counter()
    for i in range(CORPUS_SIZE):
        p = corpus_params(i)
        inst = generate_instance(**p)
        entries.append(
            CorpusEntry(
                inst=inst,
                params=p,
                with_bcs=solve_instance(inst),
                without_bcs=solve_instance(inst, PipelineOptions(use_bound_constraints=False)),
            )
        )
    elapsed = time.perf_counter() - start
    return entries, elapsed


MIN_X = {"n": 1, "objective": [[[1], -1.0]], "constraints": [], "lower": [-1], "upper": [2]}
MIN_X2 = {"n": 1, "objective": [[[2], -1.0]], "constraints": [], "lower": [-1], "upper": [2]}
MOTZKIN = {
    "n": 2,
    "objective": [[[4, 2], 1.0], [[2, 4], 1.0], [[2, 2], -3.0], [[0, 0], 1.0]],
    "constraints": [], "lower": [-2, -2], "upper": [2, 2],
}
# min x^2 - x s.t. 1 - x^2 >= 0 on [-1, 1]: the minimum -1/4 at x = 1/2
CONSTRAINED = {"n": 1, "objective": [[[2], 1.0], [[1], -1.0]],
               "constraints": [[[[0], 1.0], [[2], -1.0]]], "lower": [-1], "upper": [1]}


def test_criterion_1_status_table(corpus):
    """Without bound constraints covers are almost never available; with
    them they always are, and most instances solve to optimality fast."""
    entries, elapsed = corpus
    n = len(entries)
    unavailable_without = sum(
        1 for e in entries if e.without_bcs.status == st.COVER_UNAVAILABLE
    )
    unavailable_with = sum(1 for e in entries if e.with_bcs.status == st.COVER_UNAVAILABLE)
    optimal_with = sum(1 for e in entries if e.with_bcs.status == st.OPTIMAL)
    optimal_without = sum(1 for e in entries if e.without_bcs.status == st.OPTIMAL)
    ok = (
        n == CORPUS_SIZE
        and unavailable_without >= 0.90 * n
        and unavailable_with == 0
        and optimal_with >= 0.85 * n
        and optimal_with >= optimal_without  # adding vertices never loses covers
        and elapsed < 300.0
    )
    report(
        1, ok,
        f"without-bcs unavailable {unavailable_without}/{n}, "
        f"with-bcs unavailable {unavailable_with}/{n}, "
        f"with-bcs optimal {optimal_with}/{n}, runtime {elapsed:.1f}s (< 300s)",
    )
    assert ok


def test_criterion_2_closed_forms():
    cases = [
        ("min -x on [-1,2]", MIN_X, PipelineOptions(), -2.0),
        ("min -x^2 on [-1,2] with a=4", MIN_X2, PipelineOptions(exponents=(4,)), -4.0),
        ("Motzkin unconstrained", MOTZKIN, PipelineOptions(), 0.0),
        ("Motzkin without bcs", MOTZKIN, PipelineOptions(use_bound_constraints=False), 0.0),
        ("min x^2 - x s.t. 1 - x^2 >= 0", CONSTRAINED, PipelineOptions(), -0.25),
    ]
    ok = True
    details = []
    for name, data, options, expected in cases:
        start = time.perf_counter()
        res = solve_instance(inst_from(data), options)
        seconds = time.perf_counter() - start
        good = (
            res.status == st.OPTIMAL
            and abs(res.gamma_solver - expected) <= 1e-5
            and abs(res.gamma_certified - expected) <= 1e-5
            and seconds < 1.0
        )
        ok = ok and good
        details.append(f"{name}: gamma={res.gamma_solver:.7f} ({seconds:.2f}s)")
    report(2, ok, "; ".join(details))
    assert ok


def test_criterion_3_soundness(corpus):
    entries, _ = corpus
    violations = 0
    checked = 0
    for e in entries:
        if e.with_bcs.status != st.OPTIMAL:
            continue
        checked += 1
        rep = sample_soundness_check(
            e.inst, e.with_bcs.gamma_certified, k=1000, seed=e.params["seed"]
        )
        violations += rep.violations
    ok = checked > 0 and violations == 0
    report(3, ok, f"{checked} optimal solves x 1000 samples, {violations} violations")
    assert ok


def test_criterion_4_cover_correctness():
    rng = random.Random(20240101)
    checked = available = unavailable = 0
    ok = True
    while checked < 500:
        dim = rng.randint(1, 3)
        origin = (0,) * dim
        pts = {origin}
        for _ in range(40):
            if len(pts) >= rng.randint(2, 6):
                break
            pts.add(tuple(2 * rng.randint(0, 3) for _ in range(dim)))
        ordered = [origin] + sorted(pts - {origin})
        cands = CandidateSet(points=tuple(ordered))
        beta = tuple(rng.randint(0, 6) for _ in range(dim))
        if beta in pts:
            continue
        checked += 1
        expected_inside = in_hull_exact(beta, ordered) if len(ordered) <= 6 else None
        try:
            cover = barycentric_coordinates(beta, cands)
        except CoverUnavailable:
            unavailable += 1
            if expected_inside is True:
                ok = False
            continue
        available += 1
        if expected_inside is False:
            ok = False
        total = sum(cover.weights.values())
        recon = np.zeros(dim)
        for j, w in cover.weights.items():
            recon += w * np.array(ordered[j], float)
        if abs(total - 1.0) > 1e-9 or np.max(np.abs(recon - np.array(beta))) > 1e-9:
            ok = False
        if len(cover.weights) > dim + 1:
            ok = False
    report(
        4, ok,
        f"500 random pairs: {available} covered, {unavailable} unavailable, "
        "all residuals <= 1e-9, supports <= n+1, oracle agreement exact",
    )
    assert ok


def test_criterion_5_certifier_contract(corpus):
    entries, _ = corpus
    ok = True
    worst_gap = 0.0
    worst_drift = 0.0
    for e in entries:
        res = e.with_bcs
        if res.status != st.OPTIMAL:
            continue
        if res.gamma_certified > res.gamma_solver + 1e-9:
            ok = False
        worst_gap = max(worst_gap, res.gamma_certified - res.gamma_solver)
        cert = res.certificate
        again = SolveResult(
            status=st.OPTIMAL,
            gamma=cert.gamma_certified,
            mu=cert.mu,
            nu=cert.nu,
            t={c.beta: 0.0 for c in cert.circuits},
            c={c.beta: dict(c.c) for c in cert.circuits},
        )
        cert2 = repair_and_certify(res.model, again)
        drift = abs(cert2.gamma_certified - cert.gamma_certified)
        worst_drift = max(worst_drift, drift)
        if drift > 1e-12:
            ok = False
    report(
        5, ok,
        f"cert <= solver + 1e-9 (max excess {worst_gap:.2e}), "
        f"repair idempotent (max drift {worst_drift:.2e})",
    )
    assert ok


def test_strict_certifies_every_optimal_solve(corpus):
    """The exact re-check succeeds wherever a float certificate was issued."""
    entries, _ = corpus
    optimal = [e.with_bcs for e in entries if e.with_bcs.status == st.OPTIMAL]
    assert optimal
    for res in optimal:
        strict = strict_gamma(res.model, res.certificate)
        assert strict <= Fraction(res.gamma_certified) <= Fraction(res.gamma_solver)


def test_no_solve_starts_warm(corpus):
    """solve_instance prepares a fresh root, so no solve has a path to re-enter."""
    entries, _ = corpus
    starts = Counter(res.solve.start for e in entries for res in (e.with_bcs, e.without_bcs)
                     if res.solve is not None)
    assert sum(starts.values()) > 0 and starts[START_WARM] == 0


def test_criterion_6_bnb_sanity(corpus):
    entries, _ = corpus
    tight = PipelineOptions(solver=SolverOptions(tol_gap=1e-8, tol_kkt=1e-5))
    res = solve_bnb(inst_from(MIN_X2), tight, max_nodes=50, gap_tol=1e-6, seed=0)
    root_ok = (
        res.status == GAP_REACHED
        and res.nodes == 1
        and res.incumbent_value - res.lower_bound <= 1e-6
    )
    violations = 0
    branchings = 0
    for e in entries:
        if e.inst.n != 1:
            continue
        run = solve_bnb(e.inst, tight, max_nodes=10, gap_tol=1e-4, seed=0)
        for rec in run.records:
            if rec.computed_bound is not None and math.isfinite(rec.parent_bound):
                branchings += 1
                if rec.computed_bound < rec.parent_bound - 1e-7:
                    violations += 1
    ok = root_ok and violations == 0 and branchings > 0
    report(
        6, ok,
        f"min -x^2 root gap {res.incumbent_value - res.lower_bound:.1e} in {res.nodes} node; "
        f"{branchings} univariate branchings, {violations} monotonicity violations",
    )
    assert ok


def test_criterion_7_batch_determinism(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    for i in range(10):
        p = corpus_params(i)
        inst = generate_instance(**p)
        (directory / f"inst{i:02d}.json").write_text(serialize_instance(inst))
    csv1, csv2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    code1 = main(["batch", str(directory), "--csv", str(csv1)])
    code2 = main(["batch", str(directory), "--csv", str(csv2)])
    ok = code1 == 0 and code2 == 0 and csv1.read_bytes() == csv2.read_bytes()
    report(7, ok, f"two batch runs over 10 instances byte-identical ({len(csv1.read_bytes())} bytes)")
    assert ok
