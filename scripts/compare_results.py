#!/usr/bin/env python3
"""Compare the results of two source trees on fixed corpora.

Solves every instance once from each tree, each tree in its own
subprocess with only its own `src/` imported:

* the benchmark corpora of `perfbench/workloads.py` (`acceptance` in
  both configurations, `wide`, `highdeg`), and its `bnb` workload with
  `solve_bnb` at the benchmark's node budget and gap tolerance, B&B
  seed 1;
* `wide-seeds`: the `wide` builder at corpus seeds 1-8, 16 models of
  154-250 variables, so that changes to the large-model path show beyond
  the benchmark's two models;
* `highdeg-seeds`: the `highdeg` builder at corpus seeds 100 and 200,
  120 models, so that a trade of statuses between high-degree models
  shows beyond the benchmark's 60;
* the seeded stress families of `tests/test_stress.py`;
* the edge cases of ROADMAP.md (point box, the box ±1e-4, x^7 - x on
  ±1000, the infeasible constraint -1 - x^2 >= 0), two large
  coefficients on [-1, 1] (1e11 + x^4 - x, whose gamma is near -1e11,
  and x^4 - 1e16 x^2, whose phase-1 start violation is past 2^53), two
  with a negative square term on the unit box (x^2 - x^4, whose hull
  vertex (4,) has coefficient -1, and x^4 + y^4 - x^2 y^2 + xy, whose
  (2, 2) would lie on the face of conv(0, 4e_1, 4e_2) at the bound
  exponent 4, so the uniform rule takes 6) and constraints with a
  vanishing constant term, whose multipliers may have a recession
  direction; x^7 - x on ±1000 also runs through `solve_bnb`;
* a generic B&B corpus: the first GENERIC_BNB_RUNS with-bcs instances
  of the `acceptance` corpus, each a `solve_bnb` run at the benchmark's
  node budget, where splits lower the big-M values and node relaxations
  start warm from their parent's path.

The corpora are read from this script's tree and built with each tree's
generator, so both sides solve the same instances.  Nothing in either
tree is changed.  Per corpus the report gives the optimal counts, each
status change, each message change (grouped), the largest certified-
gamma drift where both sides are optimal (as |d gamma| / |gamma| and as
|d gamma| / (1 + |gamma|), the scale of the solver's gap test), the
largest stationarity residual of an optimal solve as the solver reports
it and as recomputed in long double (`ld_residual`), Newton steps (in
all, and in each solve's first phase-2 centering, read from a wrapped
`barrier._center`), `simplex.lp_solve` calls, RuntimeWarnings, and the
number of solves that are not the same bit for bit (`bits differ`):
whose status, message or Newton step count differ, or whose solver
gamma, certified gamma or stationarity residual differ in any bit.  A
status change lists both residuals of each side.  A second table counts
the solves that started from the constructive point, from phase 1 (with
how many of those ended optimal), warm from a path, and from neither.
For each benchmark B&B run it says whether nodes, status, error nodes,
relaxations_solved, incumbents and every record's id, depth and status
are equal, how far the bounds moved, whether the incumbent value moved
lower (better) or higher (worse) and by how many ulps (float64 values
between the two), whether the incumbent points are equal, and how many
LPs, Newton steps and warm starts each side's relaxations took and how
many phase-2 barrier plans they built
(read from a wrapped `barrier._Barrier.__init__`); for the generic
corpus it sums the same over its runs, and counts the runs whose
incumbent value moved lower and higher, with the largest move in ulps,
and the runs whose incumbent points differ.

    python scripts/compare_results.py PARENT_TREE CHANGE_TREE

Each subprocess runs with one BLAS thread (`OPENBLAS_NUM_THREADS`,
`OMP_NUM_THREADS` and `MKL_NUM_THREADS` set to 1), as
`perfbench/run.py` does, unless `--blas-threads N` sets another count:
the thread count can change the barrier's iterate path, not only its
speed.  At the default two OpenBLAS threads on a 2-core host, the dense
LU's rounding used to flip the verdict of `wide-seeds` s5/n6-d4; the
large models' Newton steps now solve a 15-unknown border, which does
not thread, and read the same at one and at two threads.

    python scripts/compare_results.py PARENT_TREE CHANGE_TREE --blas-threads 2

Exits 1 when some solve or B&B node that is optimal from PARENT_TREE is
not optimal from CHANGE_TREE.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OPTIMAL = "optimal"
BNB_FIELDS = ("nodes", "status", "error_nodes", "relaxations_solved", "incumbent_value",
              "incumbent_point")


def _box(obj, cons=(), lo=(-1,), hi=(1,)):
    return {"n": len(lo), "objective": obj, "constraints": list(cons),
            "lower": list(lo), "upper": list(hi)}


MINUS_X, X3 = [[[1], -1.0]], [[[3], 1.0]]
EDGE_CASES = {
    "point-box/-x": _box(MINUS_X, lo=(0,), hi=(0,)),
    "point-box/x^3": _box(X3, lo=(0,), hi=(0,)),
    "box-1e-4/-x": _box(MINUS_X, lo=(-1e-4,), hi=(1e-4,)),
    "box-1e-4/x^3": _box(X3, lo=(-1e-4,), hi=(1e-4,)),
    "x^7-x/1000": _box([[[7], 1.0], [[1], -1.0]], lo=(-1000,), hi=(1000,)),
    "infeasible/-1-x^2": _box([[[1], 1.0]], [[[[0], -1.0], [[2], -1.0]]]),
    "1e11+x^4-x": _box([[[0], 1e11], [[4], 1.0], [[1], -1.0]]),
    "x^4-1e16x^2": _box([[[4], 1.0], [[2], -1e16]]),
    "x^2-x^4": _box([[[2], 1.0], [[4], -1.0]]),
    "x^4+y^4-x^2y^2+xy": _box([[[4, 0], 1.0], [[0, 4], 1.0], [[2, 2], -1.0], [[1, 1], 1.0]],
                              lo=(-1, -1), hi=(1, 1)),
}
VANISHING_CONSTANT = {
    f"{on}/s.t.{cn}>=0": _box(o, [c], hi=(2,))
    for on, o in (("-x", MINUS_X), ("x^2-x", [[[2], 1.0], [[1], -1.0]]), ("x^3", X3))
    for cn, c in (("-x^2", [[[2], -1.0]]), ("-x^4", [[[4], -1.0]]),
                  ("-x^2-x^4", [[[2], -1.0], [[4], -1.0]]), ("x^2", [[[2], 1.0]]),
                  ("x^3", [[[3], 1.0]]))
}
BNB_EDGE_NODES = 30
BNB_SEED = 1
WIDE_SEEDS = range(1, 9)
HIGHDEG_SEEDS = (100, 200)
GENERIC_BNB_RUNS = 20
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _corpora(sb, workloads, stress):
    """corpus name -> list of (key, instance, options) for solve_instance."""
    out = {}
    for name in ("acceptance", "wide", "highdeg"):
        w = workloads.WORKLOADS[name]
        out[name] = [(it.key, it.inst, it.options) for it in w.build(sb, w.corpus_seed)]
    w = workloads.WORKLOADS["wide"]
    out["wide-seeds"] = [(it.key, it.inst, it.options) for seed in WIDE_SEEDS
                         for it in w.build(sb, seed)]
    w = workloads.WORKLOADS["highdeg"]
    out["highdeg-seeds"] = [(it.key, it.inst, it.options) for seed in HIGHDEG_SEEDS
                            for it in w.build(sb, seed)]
    out["stress"] = [(f"{family}/s{s}", inst, sb.PipelineOptions())
                     for family, build, _ in stress.FAMILIES for s, inst in enumerate(build())]
    out["edge"] = [(key, sb.parse_instance(json.dumps(spec)), sb.PipelineOptions())
                   for key, spec in {**EDGE_CASES, **VANISHING_CONSTANT}.items()]
    return out


def _bnb_runs(sb, workloads):
    """key -> (instance, options, solve_bnb keyword arguments)."""
    w = workloads.WORKLOADS["bnb"]
    gap_tol = workloads.BNB_GAP_TOL
    runs = {it.key: (it.inst, it.options,
                     dict(max_nodes=it.max_nodes, gap_tol=gap_tol, seed=BNB_SEED))
            for it in w.build(sb, w.corpus_seed)}
    runs["x^7-x/1000"] = (sb.parse_instance(json.dumps(EDGE_CASES["x^7-x/1000"])),
                          sb.PipelineOptions(), dict(max_nodes=BNB_EDGE_NODES, seed=BNB_SEED))
    w = workloads.WORKLOADS["acceptance"]
    with_bcs = [it for it in w.build(sb, w.corpus_seed) if it.latency][:GENERIC_BNB_RUNS]
    runs.update({f"generic/{it.key}": (it.inst, it.options,
                                       dict(max_nodes=workloads.BNB_NODES, gap_tol=gap_tol,
                                            seed=BNB_SEED)) for it in with_bcs})
    return runs


def collect(tree: Path) -> dict:
    """Every result of tree's solver on the corpora, as plain JSON data."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    import soncbound as sb
    import soncbound.simplex
    import test_stress
    import workloads

    assert Path(sb.__file__).resolve().is_relative_to(tree.resolve()), sb.__file__
    lp_calls = [0]
    lp_solve = sb.simplex.lp_solve

    def counted_lp_solve(*args, **kwargs):
        lp_calls[0] += 1
        return lp_solve(*args, **kwargs)

    sb.simplex.lp_solve = counted_lp_solve
    first = [None]  # Newton steps of the solve's first phase-2 centering
    center = sb.barrier._center

    def counted_center(point, *args, **kwargs):
        out = center(point, *args, **kwargs)
        if first[0] is None and point.prob.obj.min() < 0.0:  # phase 2 maximizes gamma
            first[0] = out[2]
        return out

    sb.barrier._center = counted_center
    out = {"solves": {}, "bnb": {}}
    for corpus, items in _corpora(sb, workloads, test_stress).items():
        records = out["solves"][corpus] = {}
        for key, inst, options in items:
            lp_calls[0], first[0] = 0, None
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                res = sb.solve_instance(inst, options)
            solve = res.solve
            records[key] = dict(status=res.status, message=res.message,
                                gamma=res.gamma_certified,
                                gamma_solver=solve.gamma if solve else None,
                                newton=solve.iterations if solve else 0,
                                newton_first=first[0] or 0,
                                kkt=solve.kkt_residual if solve else None,
                                kkt_ld=ld_residual(res.model, solve),
                                start=solve.start if solve else "",
                                lps=lp_calls[0], warnings=len(caught))
    relaxations = Counter()  # Newton steps and warm starts of a B&B run's relaxations
    solve_relaxation = sb.pipeline.solve_relaxation

    def counted_solve_relaxation(*args, **kwargs):
        res = solve_relaxation(*args, **kwargs)
        relaxations["newton"] += res.iterations
        relaxations["warm"] += res.start == "warm"
        return res

    sb.pipeline.solve_relaxation = counted_solve_relaxation
    init = sb.barrier._Barrier.__init__

    def counted_init(self, model, sense, *args):
        relaxations["plans"] += sense < 0  # a phase-2 plan: it maximizes gamma
        init(self, model, sense, *args)

    sb.barrier._Barrier.__init__ = counted_init
    for key, (inst, options, kwargs) in _bnb_runs(sb, workloads).items():
        lp_calls[0] = 0
        relaxations.clear()
        res = sb.solve_bnb(inst, options, **kwargs)
        out["bnb"][key] = dict(
            {f: getattr(res, f) for f in BNB_FIELDS}, lower_bound=res.lower_bound,
            lps=lp_calls[0], newton=relaxations["newton"], warm=relaxations["warm"],
            plans=relaxations["plans"],
            records=[[r.node_id, r.depth, r.status, r.parent_bound, r.computed_bound,
                      r.effective_bound] for r in res.records])
    return out


def ld_residual(model, solve) -> float | None:
    """The solver's scaled stationarity residual at the point solve
    reports, with every slack and gradient term in long double.

    z is rebuilt from solve's gamma, mu, nu, t and c on model's
    variables, and tau = num_terms / duality_gap, as the solver's gap
    estimate reads it.  None where solve carries no point.
    """
    if solve is None or solve.gamma is None or not math.isfinite(solve.duality_gap):
        return None
    ld = np.longdouble
    z = np.zeros(model.nvar, dtype=ld)
    z[model.gamma_index] = solve.gamma
    z[list(model.mu_indices)] = solve.mu
    z[list(model.nu_indices)] = solve.nu
    for blk in model.blocks:
        z[blk.t_index] = solve.t[blk.beta]
        z[list(blk.c_indices)] = [solve.c[blk.beta][j] for j in blk.cand_indices]
    lower = list(model.nonneg_indices)
    tau = ld(len(model.rhs) + len(lower) + len(model.blocks)) / ld(solve.duality_gap)
    rows = model.rows.astype(ld)
    rho = rows @ z + model.rhs.astype(ld)
    grad = -(rows.T @ (1 / rho))
    grad[model.gamma_index] -= tau  # tau * obj, maximizing gamma
    grad[lower] -= 1 / z[lower]
    slacks = [rho, z[lower]]
    for blk in model.blocks:
        c, lam = z[list(blk.c_indices)], np.array(blk.lambdas, dtype=ld)
        theta = np.exp(np.sum(lam * np.log(c / lam)))
        geo = theta - z[blk.t_index]
        grad[blk.t_index] += 1 / geo
        grad[list(blk.c_indices)] -= (theta / geo) * lam / c
        slacks.append(np.array([geo]))
    margin = min(s.min(initial=np.inf) for s in slacks)
    if not margin > 0:
        return math.inf
    return float(np.abs(grad).max() / (tau * (1 + 1 / (margin * tau))))


def _drift(p, c):
    """(|c - p| / |p|, |c - p| / (1 + |p|)); (0, 0) where equal, inf
    where one side is infinite."""
    if p == c:
        return 0.0, 0.0
    d = abs(c - p)
    if not math.isfinite(d + p):
        return math.inf, math.inf
    return (d / abs(p) if p else math.inf), d / (1.0 + abs(p))


def _ulps(p: float, c: float) -> float:
    """How many float64 steps lie from p to c: 0 where equal (-0.0 and
    0.0 included), inf where either is not finite and they differ."""
    if p == c:
        return 0
    if not (math.isfinite(p) and math.isfinite(c)):
        return math.inf
    # Sign-magnitude bits to a scale on which adjacent floats differ by 1.
    p, c = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (p, c))
    p, c = (x if x >= 0 else -(x & 0x7FFFFFFFFFFFFFFF) for x in (p, c))
    return abs(c - p)


def _bits(x):
    """x's float64 bits where x is a float, else x itself."""
    return struct.pack("<d", x) if isinstance(x, float) else x


BIT_FIELDS = ("status", "message", "newton", "gamma_solver", "gamma", "kkt")


def _differs(p: dict, c: dict) -> bool:
    """Whether two records of one solve differ in any field of BIT_FIELDS, bit for bit."""
    return any(_bits(p[f]) != _bits(c[f]) for f in BIT_FIELDS)


def _pair(record: dict) -> str:
    """A record's float64 and long-double residuals."""
    return ", ".join("-" if x is None else f"{x:.2e}" for x in (record["kkt"], record["kkt_ld"]))


def compare_solves(parent: dict, change: dict) -> list[str]:
    """Print the per-corpus comparison; return the keys that leave optimal."""
    left = []
    print(f"{'corpus':13s} {'solves':>6s} {'optimal P -> C':>15s} {'rel dgamma':>11s} "
          f"{'dgamma/(1+|g|)':>14s} {'max kkt P -> C':>20s} {'max ld kkt P -> C':>20s} "
          f"{'newton P -> C':>16s} {'first P -> C':>16s} {'LPs P -> C':>14s} warnings "
          f"{'bits differ':>11s}")
    details = []
    for corpus, prec in parent.items():
        crec = change[corpus]
        rel = scaled = 0.0
        worst = ""
        msgs = Counter()
        for key, p in prec.items():
            c = crec[key]
            if p["status"] != c["status"]:
                details.append(f"  {corpus} {key}: {p['status']} -> {c['status']} "
                               f"{c['message']}; residual (float64, long double) "
                               f"{_pair(p)} -> {_pair(c)}")
                if p["status"] == OPTIMAL:
                    left.append(f"{corpus} {key}")
            elif p["message"] != c["message"]:
                msgs[(p["message"], c["message"])] += 1
            if p["status"] == c["status"] == OPTIMAL:
                r, s = _drift(p["gamma"], c["gamma"])
                if r > rel:
                    worst = (f"  {corpus} largest relative drift: {key} "
                             f"{p['gamma']!r} -> {c['gamma']!r}")
                rel, scaled = max(rel, r), max(scaled, s)
        details += [worst] if worst else []
        for (pm, cm), n in sorted(msgs.items()):
            details.append(f"  {corpus} {n} x message {pm!r} -> {cm!r}")
        opt = [sum(r["status"] == OPTIMAL for r in side.values()) for side in (prec, crec)]
        kkt, kkt_ld = ([max((r[f] for r in side.values() if r["status"] == OPTIMAL), default=0.0)
                        for side in (prec, crec)] for f in ("kkt", "kkt_ld"))
        steps, first, lps, warned = (
            [sum(r[f] for r in side.values()) for side in (prec, crec)]
            for f in ("newton", "newton_first", "lps", "warnings"))
        differ = sum(_differs(p, crec[key]) for key, p in prec.items())
        print(f"{corpus:13s} {len(prec):6d} {f'{opt[0]} -> {opt[1]}':>15s} {rel:11.2e} "
              f"{scaled:14.2e} {f'{kkt[0]:.1e} -> {kkt[1]:.1e}':>20s} "
              f"{f'{kkt_ld[0]:.1e} -> {kkt_ld[1]:.1e}':>20s} "
              f"{f'{steps[0]:,} -> {steps[1]:,}':>16s} {f'{first[0]:,} -> {first[1]:,}':>16s} "
              f"{f'{lps[0]:,} -> {lps[1]:,}':>14s} "
              f"{f'{warned[0]} -> {warned[1]}':>8s} {differ:11d}")
    print("drifts, status and message changes:" if details else "no changes")
    print("\n".join(details))
    compare_starts(parent, change)
    return left


def compare_starts(parent: dict, change: dict) -> None:
    """Print, per corpus, how many solves started from the constructive
    point, how many from phase 1 (and of those, how many ended optimal),
    how many warm from a path, and how many started none of these (no
    model, or one infeasible as built)."""
    print(f"{'corpus':13s} {'constructive P -> C':>20s} {'phase-1 (optimal) P -> C':>26s} "
          f"{'warm P -> C':>12s} {'no start P -> C':>16s}")
    for corpus, prec in parent.items():
        cells = []
        for side in (prec, change[corpus]):
            starts = Counter(r["start"] for r in side.values())
            phase1_opt = sum(r["start"] == "phase-1" and r["status"] == OPTIMAL
                             for r in side.values())
            cells.append((starts["constructive"], f"{starts['phase-1']} ({phase1_opt})",
                          starts["warm"], len(side) - starts["constructive"]
                          - starts["phase-1"] - starts["warm"]))
        (pc, pp, pw, pn), (cc, cp, cw, cn) = cells
        print(f"{corpus:13s} {f'{pc} -> {cc}':>20s} {f'{pp} -> {cp}':>26s} "
              f"{f'{pw} -> {cw}':>12s} {f'{pn} -> {cn}':>16s}")


def _bnb_bounds(p: dict, c: dict) -> list[tuple[float, float]]:
    """The global bound and every node bound that both sides computed."""
    return [(p["lower_bound"], c["lower_bound"])] + [
        (x, y) for pr, cr in zip(p["records"], c["records"])
        for x, y in zip(pr[3:], cr[3:]) if x is not None and y is not None]


def _same_records(p: dict, c: dict) -> bool:
    """Whether two runs popped the same nodes: every record's id, depth and status."""
    return [r[:3] for r in p["records"]] == [r[:3] for r in c["records"]]


def _incumbent_move(p: dict, c: dict) -> str:
    """"better", "worse" or "equal": the change's incumbent value lower,
    higher or the same as the parent's."""
    pv, cv = p["incumbent_value"], c["incumbent_value"]
    return "better" if cv < pv else "worse" if cv > pv else "equal"


def _pc(p: dict, c: dict, field: str) -> str:
    """field of both sides, as "P -> C"."""
    return f"{p[field]:,} -> {c[field]:,}"


def compare_bnb(parent: dict, change: dict) -> list[str]:
    """Print the B&B comparison; return the nodes that leave optimal."""
    left = []
    generic = []
    for key, p in parent.items():
        c = change[key]
        left += [f"bnb {key} node {pr[0]}" for pr, cr in zip(p["records"], c["records"])
                 if pr[2] == OPTIMAL and cr[2] != OPTIMAL]
        if key.startswith("generic/"):
            generic.append((p, c))
            continue
        differ = [f"{f} {p[f]!r} -> {c[f]!r}" for f in BNB_FIELDS if p[f] != c[f]]
        same_records = _same_records(p, c)
        drift = max(_drift(x, y)[0] for x, y in _bnb_bounds(p, c))
        print(f"bnb {key}: {'all fields equal' if not differ else '; '.join(differ)}; "
              f"records (id, depth, status) {'equal' if same_records else 'DIFFER'}; "
              f"incumbent {_incumbent_move(p, c)}, value drift "
              f"{_ulps(p['incumbent_value'], c['incumbent_value'])} ulp, "
              f"points {'equal' if p['incumbent_point'] == c['incumbent_point'] else 'DIFFER'}; "
              f"nodes {p['nodes']}, lower bound {p['lower_bound']!r} -> {c['lower_bound']!r}, "
              f"largest relative bound drift {drift:.2e}, LPs {_pc(p, c, 'lps')}, "
              f"relaxations {_pc(p, c, 'relaxations_solved')}, phase-2 plans built "
              f"{_pc(p, c, 'plans')}, Newton steps {_pc(p, c, 'newton')}, "
              f"warm starts {_pc(p, c, 'warm')}")
    if generic:
        sums = [{f: sum(run[f] for run in runs) for f in
                 ("nodes", "error_nodes", "relaxations_solved", "plans", "newton", "warm")}
                for runs in zip(*generic)]
        statuses = [sorted(Counter(r[2] for run in runs for r in run["records"]).items())
                    for runs in zip(*generic)]
        fields = sum(any(p[f] != c[f] for f in BNB_FIELDS) for p, c in generic)
        aligned = [(p, c) for p, c in generic if _same_records(p, c)]
        moved = sum(p["lower_bound"] != c["lower_bound"] for p, c in generic)
        ulps = [_ulps(p["incumbent_value"], c["incumbent_value"]) for p, c in generic]
        moves = Counter(_incumbent_move(p, c) for p, c in generic)
        points = sum(p["incumbent_point"] != c["incumbent_point"] for p, c in generic)
        drift = max((_drift(x, y)[1] for p, c in aligned for x, y in _bnb_bounds(p, c)),
                    default=0.0)
        print(f"bnb generic ({len(generic)} runs, {_pc(*sums, 'nodes')} nodes): "
              f"runs with a field changed {fields}; runs whose records (id, depth, status) "
              f"differ {len(generic) - len(aligned)}; record statuses {statuses[0]} -> "
              f"{statuses[1]}; error nodes {_pc(*sums, 'error_nodes')}; lower bounds moved "
              f"{moved}; largest bound drift / (1 + |bound|) where records match {drift:.2e}; "
              f"incumbent values better {moves['better']}, worse {moves['worse']}, "
              f"equal {moves['equal']}, moved by at most {max(ulps)} ulp; "
              f"incumbent points differ {points}; "
              f"relaxations {_pc(*sums, 'relaxations_solved')}; "
              f"phase-2 plans built {_pc(*sums, 'plans')}; "
              f"Newton steps {_pc(*sums, 'newton')}; warm starts {_pc(*sums, 'warm')}")
    return left


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, nargs="?", help="source tree of the change")
    parser.add_argument("--collect", action="store_true",
                        help="print the JSON results of the one tree given, and exit")
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS threads of each tree's subprocess (default 1)")
    args = parser.parse_args()
    if args.collect:
        print(json.dumps(collect(args.parent)))
        return 0
    if args.change is None:
        parser.error("two trees are needed unless --collect is given")

    results = {}
    for side in ("parent", "change"):
        cmd = [sys.executable, __file__, str(getattr(args, side).resolve()), "--collect"]
        threads = {var: str(args.blas_threads) for var in BLAS_THREAD_VARS}
        out = subprocess.run(cmd, capture_output=True, text=True, env={**os.environ, **threads})
        if out.returncode != 0:
            raise RuntimeError(f"{side}: exit {out.returncode}\n{out.stderr[-2000:]}")
        results[side] = json.loads(out.stdout)
    left = compare_solves(results["parent"]["solves"], results["change"]["solves"])
    left += compare_bnb(results["parent"]["bnb"], results["change"]["bnb"])
    if left:
        print("LEFT OPTIMAL:\n  " + "\n  ".join(left))
    return 1 if left else 0


if __name__ == "__main__":
    sys.exit(main())
