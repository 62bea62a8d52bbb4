"""Command-line interface: solve, batch, generate, bnb subcommands."""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import status as st
from .barrier import SolverOptions
from .bnb import solve_bnb
from .generator import generate_instance
from .pipeline import PipelineOptions, solve_instance
from .poly import parse_instance, serialize_instance
from .relaxation import dump_model

WITH_BCS = "with-bcs"
WITHOUT_BCS = "without-bcs"
CSV_HEADER = "instance,config,status,gamma_solver,gamma_certified,seconds"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass
class StatusTable:
    """Per-configuration status counts for a batch run."""

    counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def add(self, config: str, stat: str) -> None:
        self.counts.setdefault(config, {s: 0 for s in st.ALL_STATUSES})[stat] += 1

    def total(self, config: str) -> int:
        return sum(self.counts.get(config, {}).values())

    def finite_rate(self, config: str) -> float:
        total = self.total(config)
        if not total:
            return 0.0
        return self.counts[config][st.OPTIMAL] / total

    def render(self) -> str:
        header = f"{'config':<14}" + "".join(f"{s:>20}" for s in st.ALL_STATUSES)
        lines = [header]
        for config in (WITH_BCS, WITHOUT_BCS):
            if config not in self.counts:
                continue
            row = f"{config:<14}" + "".join(
                f"{self.counts[config][s]:>20}" for s in st.ALL_STATUSES
            )
            lines.append(row)
        for config in (WITH_BCS, WITHOUT_BCS):
            if config in self.counts:
                lines.append(
                    f"finite-bound rate {config}: {100.0 * self.finite_rate(config):.1f}%"
                )
        return "\n".join(lines)


def _pipeline_options(args, use_bcs: bool,
                      solver: SolverOptions | None = None) -> PipelineOptions:
    return PipelineOptions(
        use_bound_constraints=use_bcs,
        exponents=args.bound_exponents,
        solver=solver or SolverOptions(tol_gap=args.tol_gap),
    )


def _bound_exponents(text: str) -> tuple[int, ...]:
    """--bound-exponents A1,A2,...: each entry checked as PipelineOptions checks it."""
    try:
        return PipelineOptions(exponents=tuple(int(v) for v in text.split(","))).exponents
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    """The relaxation flags of solve, batch and bnb."""
    p.add_argument("--bound-exponents", type=_bound_exponents, default=None,
                   metavar="A1,A2,...",
                   help="even bound exponents, one per variable, in place of the default rule")
    p.add_argument("--tol-gap", type=float, default=1e-6)


def _add_bcs_flag(p: argparse.ArgumentParser) -> None:
    """solve and bnb; batch runs both configurations."""
    p.add_argument("--no-bound-constraints", action="store_true",
                   help="vanilla relaxation without box-derived cover vertices")


def _load_instance(path: str, options: PipelineOptions):
    """The instance at path, or None after a message on stderr when it
    cannot be read or parsed or when options' exponents do not fit it."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    try:
        inst = parse_instance(text)
        options.check_fits(inst)
    except ValueError as exc:  # InstanceFormatError is one
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None
    return inst


def _gamma_str(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def cmd_solve(args) -> int:
    options = _pipeline_options(args, use_bcs=not args.no_bound_constraints)
    inst = _load_instance(args.instance, options)
    if inst is None:
        return 1
    result = solve_instance(inst, options)

    if args.dump_model and result.model is not None:
        print(dump_model(result.model))
    if args.format == "json":
        payload = {
            "instance": args.instance,
            "status": result.status,
            "gamma_solver": result.gamma_solver,
            "gamma_certified": result.gamma_certified,
            "bound_exponents": list(result.bound_exponents or ()),
            "seconds": round(result.seconds, 6),
            "message": result.message,
        }
        if result.solve is not None:
            payload["mu"] = [float(v) for v in result.solve.mu]
            payload["nu"] = [float(v) for v in result.solve.nu]
            payload["iterations"] = result.solve.iterations
            payload["outer_iterations"] = result.solve.outer_iterations
            payload["start"] = result.solve.start
        print(json.dumps(payload, indent=1))
    else:
        print(f"instance: {args.instance}")
        print(f"status: {result.status}")
        if result.message:
            print(f"note: {result.message}")
        if result.gamma_solver is not None:
            print(f"gamma (solver):    {result.gamma_solver:.9f}")
        if result.gamma_certified is not None:
            print(f"gamma (certified): {result.gamma_certified:.9f}")
        if result.solve is not None and result.solve.status == st.OPTIMAL:
            mu_max = max(result.solve.mu, default=0.0)
            nu_max = max(result.solve.nu, default=0.0)
            print(f"multipliers: max mu {mu_max:.6g}, max nu {nu_max:.6g}")
            print(f"iterations: {result.solve.iterations}")
        print(f"seconds: {result.seconds:.3f}")

    if args.emit_certificate and result.certificate is not None:
        Path(args.emit_certificate).write_text(result.certificate.to_json())
    return st.EXIT_CODES[result.status]


def _run_both_configs(job) -> list[tuple[str, str, str, str, str, float]]:
    path, args_dict = job
    ns = argparse.Namespace(**args_dict)
    inst = _load_instance(path, _pipeline_options(ns, use_bcs=True))
    name = Path(path).name
    rows = []
    if inst is None:
        for config in (WITH_BCS, WITHOUT_BCS):
            rows.append((name, config, st.NUMERICAL_ERROR, "", "", 0.0))
        return rows
    for config, use_bcs in ((WITH_BCS, True), (WITHOUT_BCS, False)):
        result = solve_instance(inst, _pipeline_options(ns, use_bcs=use_bcs))
        rows.append(
            (
                name,
                config,
                result.status,
                _gamma_str(result.gamma_solver),
                _gamma_str(result.gamma_certified),
                result.seconds,
            )
        )
    return rows


def cmd_batch(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: {args.directory} is not a directory", file=sys.stderr)
        return 1
    paths = sorted(str(p) for p in directory.glob("*.json"))
    args_dict = vars(args).copy()
    for drop in ("func", "directory", "csv", "jobs", "timing"):
        args_dict.pop(drop, None)

    jobs = [(path, args_dict) for path in paths]
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            per_instance = list(pool.map(_run_both_configs, jobs))
    else:
        per_instance = [_run_both_configs(job) for job in jobs]

    table = StatusTable()
    csv_lines = [CSV_HEADER]
    for rows in per_instance:
        for name, config, stat, g_solver, g_cert, seconds in rows:
            table.add(config, stat)
            sec_str = f"{seconds:.3f}" if args.timing else "0.000"
            csv_lines.append(f"{name},{config},{stat},{g_solver},{g_cert},{sec_str}")

    print(table.render())
    csv_text = "\n".join(csv_lines) + "\n"
    if args.csv:
        Path(args.csv).write_text(csv_text)
        print(f"wrote {args.csv}")
    else:
        print(csv_text, end="")
    return 0


def cmd_generate(args) -> int:
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for k in range(args.count):
            seed = args.seed + k
            inst = generate_instance(seed, args.n, args.m, args.max_degree, args.density)
            name = f"gen-s{seed}-n{args.n}-m{args.m}-d{args.max_degree}.json"
            (out / name).write_text(serialize_instance(inst))
        print(f"wrote {args.count} instances to {args.out}")
        return 0
    inst = generate_instance(args.seed, args.n, args.m, args.max_degree, args.density)
    print(serialize_instance(inst))
    return 0


def cmd_bnb(args) -> int:
    solver = SolverOptions(tol_gap=min(args.tol_gap, 1e-8), tol_kkt=1e-5)
    options = _pipeline_options(args, use_bcs=not args.no_bound_constraints, solver=solver)
    inst = _load_instance(args.instance, options)
    if inst is None:
        return 1
    result = solve_bnb(
        inst,
        options,
        max_nodes=args.max_nodes,
        gap_tol=args.gap_tol,
        seed=args.seed,
        log=print,
    )
    print(f"status: {result.status}")
    print(f"lower bound: {result.lower_bound:.9g}")
    if math.isfinite(result.incumbent_value):
        print(f"incumbent: {result.incumbent_value:.9g} at {result.incumbent_point}")
        print(f"gap: {result.incumbent_value - result.lower_bound:.3e}")
    else:
        print("incumbent: none (no feasible sample found)")
    print(f"nodes: {result.nodes} (errors: {result.error_nodes})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sonc-bound",
                     description="Certified polynomial lower bounds via circuit decompositions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="bound a single instance file")
    p_solve.add_argument("instance")
    _add_common_flags(p_solve)
    _add_bcs_flag(p_solve)
    p_solve.add_argument("--format", choices=("text", "json"), default="text")
    p_solve.add_argument("--emit-certificate", default=None, metavar="PATH")
    p_solve.add_argument("--dump-model", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_batch = sub.add_parser("batch", help="run a directory of instances in both configurations")
    p_batch.add_argument("directory")
    _add_common_flags(p_batch)
    p_batch.add_argument("--jobs", type=int, default=1)
    p_batch.add_argument("--csv", default=None, metavar="PATH")
    p_batch.add_argument("--timing", action="store_true",
                         help="record wall-clock seconds in the CSV (off by default "
                              "so identical runs produce identical output)")
    p_batch.set_defaults(func=cmd_batch)

    p_gen = sub.add_parser("generate", help="emit seeded random instances")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--n", type=int, default=2)
    p_gen.add_argument("--m", type=int, default=1)
    p_gen.add_argument("--max-degree", type=int, default=4)
    p_gen.add_argument("--density", type=float, default=0.5)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--out", default=None, metavar="DIR")
    p_gen.set_defaults(func=cmd_generate)

    p_bnb = sub.add_parser("bnb", help="branch-and-bound over the variable box")
    p_bnb.add_argument("instance")
    _add_common_flags(p_bnb)
    _add_bcs_flag(p_bnb)
    p_bnb.add_argument("--seed", type=int, default=0, help="incumbent sampling")
    p_bnb.add_argument("--max-nodes", type=int, default=1000)
    p_bnb.add_argument("--gap-tol", type=float, default=1e-6)
    p_bnb.set_defaults(func=cmd_bnb)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
