"""Batch command line: simulation, both solvers, the experiment runners, and
the nonlinear Gronwall bound evaluator.

Every subcommand takes --config <file.json> and --out <dir>; without
--config a small built-in demo configuration is used. Outputs are CSV
tables plus report.json. Exit status: 0 when every asserted verdict passed,
2 when hypothesis checks were unmet, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .bounds import PiecewiseConstantRate, bihari_bound
from .config import basis_from_config, generator_from_config, load_config, resolve_model_grid
from .experiments import Case, Report
from .levy import simulate_paths
from .mc import bootstrap_y0, solve_mc
from .terminals import make_terminal
from .tree import DEFAULT_FP_TOL, build_tree, solve_backward, solve_truncated


def _write_report(report: Report, out_dir: Path) -> None:
    (out_dir / "report.json").write_text(report.to_json() + "\n")


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _exit_code(report: Report) -> int:
    """1 if any case failed, else 2 if any precondition is unmet, else 0."""
    statuses = {c.status for c in report.cases}
    if "fail" in statuses:
        return 1
    return 2 if "preconditions-unmet" in statuses else 0


def _demo_model_config() -> dict:
    return {
        "model": {"drift": 0.1, "sigma": 1.0, "marks": [{"x": 0.5, "lambda": 0.3}]},
        "grid": {"T": 1.0, "steps": 8},
        "generator": {"name": "linear_driver", "a": 0.2, "b": 0.2, "c": -0.5},
        "terminal": "x",
        "seed": 0,
    }


def _cmd_simulate(cfg: dict, out_dir: Path) -> int:
    cfg = cfg or {**_demo_model_config(), "count": 1000}
    model, grid = resolve_model_grid(cfg)
    bundle = simulate_paths(model, grid, int(cfg.get("count", 1000)), int(cfg.get("seed", 0)))
    bundle.to_csv(out_dir / "paths.csv")
    x = bundle.states()
    case = Case(name="simulate", data={
        "paths": bundle.n_paths,
        "terminal_mean": float(x[:, -1].mean()),
        "terminal_se": float(x[:, -1].std(ddof=1) / np.sqrt(bundle.n_paths)),
        "analytic_terminal_mean": model.mean_terminal_state(grid.horizon),
    })
    report = Report("simulate", cfg, [case])
    _write_report(report, out_dir)
    print(f"simulate: {bundle.n_paths} paths -> {out_dir / 'paths.csv'}")
    return _exit_code(report)


def _solution_rows(sol) -> list:
    rows = []
    j = sol.tree.model.n_marks
    for lvl, y in enumerate(sol.Y):
        has_zu = lvl < len(sol.Z)
        for node in range(y.size):
            row = [lvl, node, repr(float(y[node]))]
            row.append(repr(float(sol.Z[lvl][node])) if has_zu else "")
            for k in range(j):
                row.append(repr(float(sol.U[lvl][node, k])) if has_zu else "")
            rows.append(row)
    return rows


def _cmd_solve_lattice(cfg: dict, out_dir: Path) -> int:
    cfg = cfg or _demo_model_config()
    model, grid = resolve_model_grid(cfg)
    g = generator_from_config(cfg["generator"])
    xi = make_terminal(cfg["terminal"])
    tol = float(cfg.get("fixed_point_tol", DEFAULT_FP_TOL))
    tree = build_tree(model, grid)
    level = cfg.get("truncation_level")
    sol = solve_truncated(tree, g, xi, int(level), tol=tol) if level is not None else solve_backward(tree, g, xi, tol=tol)
    j = model.n_marks
    _write_csv(out_dir / "solution.csv", ["level", "node", "Y", "Z"] + [f"U_{k + 1}" for k in range(j)], _solution_rows(sol))
    case = Case(name="solve-lattice", data={"y0": sol.y0, "levels": tree.n_steps + 1,
                                            "max_fixed_point_iterations": max(sol.fp_iterations, default=0)})
    report = Report("solve-lattice", cfg, [case])
    _write_report(report, out_dir)
    print(f"solve-lattice: Y0 = {sol.y0:.10g}")
    return _exit_code(report)


def _cmd_solve_mc(cfg: dict, out_dir: Path) -> int:
    cfg = cfg or {**_demo_model_config(), "paths": 20000, "basis_degree": 3}
    model, grid = resolve_model_grid(cfg)
    g = generator_from_config(cfg["generator"])
    xi = make_terminal(cfg["terminal"])
    basis = basis_from_config(cfg)
    sol = solve_mc(model, grid, g, xi, paths=int(cfg["paths"]), basis=basis, seed=int(cfg.get("seed", 0)))
    m = sol.Y.shape[0]
    j = model.n_marks
    rows = []
    for i in range(grid.steps):
        row = [i, float(sol.Y[:, i].mean()), float(sol.Y[:, i].std(ddof=1) / math.sqrt(m)), float(sol.Z[:, i].mean())]
        row += [float(sol.U[:, i, k].mean()) for k in range(j)]
        rows.append(row)
    _write_csv(out_dir / "mc_summary.csv", ["step", "Y_mean", "Y_se", "Z_mean"] + [f"U_{k + 1}_mean" for k in range(j)], rows)
    est = None
    if cfg.get("bootstrap", True):
        est = bootstrap_y0(model, grid, g, xi, paths=int(cfg["paths"]), basis=basis,
                           seed=int(cfg.get("seed", 0)), n_boot=int(cfg.get("n_boot", 24)))
    case = Case(name="solve-mc", data={"y0": sol.y0, "paths": m, "degrees_used": list(sol.degrees_used),
                                       "y0_se_bootstrap": est.se if est else None})
    report = Report("solve-mc", cfg, [case])
    _write_report(report, out_dir)
    print(f"solve-mc: Y0 = {sol.y0:.6g}" + (f" (bootstrap se {est.se:.3g})" if est else ""))
    return _exit_code(report)


def _cmd_compare(cfg: dict, out_dir: Path) -> int:
    report = experiments.run_comparison(cfg)
    rows = [
        [c.name, c.status, c.data.get("y0"), c.data.get("y0_prime"), c.data.get("max_violation"),
         c.data.get("max_violation_refined")]
        for c in report.cases
    ]
    _write_csv(out_dir / "pairs.csv", ["pair", "status", "y0", "y0_prime", "max_violation", "max_violation_refined"], rows)
    _write_report(report, out_dir)
    print(f"compare: {sum(c.status == 'pass' for c in report.cases)}/{len(report.cases)} pairs ordered")
    return _exit_code(report)


def _cmd_counterexample(cfg: dict, out_dir: Path) -> int:
    report = experiments.run_counterexample(cfg)
    rows = [[w["level"], w["node"], w["Y"], w["Y_prime"], w["margin"]] for c in report.cases for w in c.witnesses]
    _write_csv(out_dir / "witnesses.csv", ["level", "node", "Y", "Y_prime", "margin"], rows)
    _write_report(report, out_dir)
    main_case = report.cases[0]
    print(f"counterexample: max margin {main_case.data.get('max_margin')} ({main_case.status})")
    return _exit_code(report)


def _cmd_truncate_study(cfg: dict, out_dir: Path) -> int:
    report = experiments.run_truncation_study(cfg)
    rows = [
        [r["n"], r["kept_marks"], r["dY"], r["dZ"], r["dU"], r["y0_truncated"]]
        for c in report.cases for r in c.data.get("levels", [])
    ]
    _write_csv(out_dir / "levels.csv", ["n", "kept_marks", "dY", "dZ", "dU", "y0_truncated"], rows)
    _write_report(report, out_dir)
    print(f"truncate-study: {report.cases[0].status}")
    return _exit_code(report)


def _cmd_apriori(cfg: dict, out_dir: Path) -> int:
    report = experiments.run_apriori_check(cfg)
    rows = [
        [c.name, c.status, c.data.get("C_K"), c.data.get("E_sup_Y2"), c.data.get("ZU_integral")]
        for c in report.cases
    ]
    _write_csv(out_dir / "instances.csv", ["instance", "status", "C_K", "E_sup_Y2", "ZU_integral"], rows)
    _write_report(report, out_dir)
    print(f"apriori: {sum(c.status == 'pass' for c in report.cases)}/{len(report.cases)} instances dominated")
    return _exit_code(report)


def _cmd_convergence(cfg: dict, out_dir: Path) -> int:
    report = experiments.run_convergence(cfg)
    ref_case = report.cases[0]
    steps = ref_case.data.get("steps", [])
    y0s = ref_case.data.get("y0", [])
    errs = ref_case.data.get("errors", [None] * len(steps))
    rows = list(zip(steps, y0s, errs))
    _write_csv(out_dir / "refinement.csv", ["steps", "y0", "error_vs_reference"], rows)
    _write_report(report, out_dir)
    order = ref_case.data.get("fitted_order")
    print(f"convergence: fitted order {order}" if order is not None else "convergence: gaps reported")
    return _exit_code(report)


def _cmd_bihari(cfg: dict, out_dir: Path) -> int:
    cfg = cfg or {"c": 1.0, "K": {"times": [0.0, 1.0], "values": [2.0]}, "rho": "identity", "t": 0.0, "T": 1.0}
    k_spec = cfg["K"]
    if isinstance(k_spec, dict):
        rate = PiecewiseConstantRate(k_spec["times"], k_spec["values"])
    else:
        const = float(k_spec)
        rate = PiecewiseConstantRate([float(cfg["t"]), float(cfg["T"])], [const])
    res = bihari_bound(float(cfg["c"]), rate, cfg.get("rho", "identity"), float(cfg["t"]), float(cfg["T"]))
    case = Case(name="bihari", data={"status": res.status, "bound": res.bound,
                                     "G_of_c": res.G_of_c, "integral_K": res.integral_K})
    report = Report("bihari", cfg, [case])
    _write_csv(out_dir / "bound.csv", ["c", "rho", "t", "T", "integral_K", "G_of_c", "status", "bound"],
               [[cfg["c"], cfg.get("rho", "identity"), cfg["t"], cfg["T"], res.integral_K, res.G_of_c, res.status, res.bound]])
    _write_report(report, out_dir)
    print(f"bihari: {res.bound if res.status == 'ok' else res.status}")
    return _exit_code(report)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "solve-lattice": _cmd_solve_lattice,
    "solve-mc": _cmd_solve_mc,
    "compare": _cmd_compare,
    "counterexample": _cmd_counterexample,
    "truncate-study": _cmd_truncate_study,
    "apriori": _cmd_apriori,
    "convergence": _cmd_convergence,
    "bihari": _cmd_bihari,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jumpbsde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="JSON config (built-in demo when omitted)")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config) if args.config else None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[args.command](cfg, out_dir)


if __name__ == "__main__":
    sys.exit(main())
