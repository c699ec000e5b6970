"""Batch command line: simulation, both solvers, the experiment runners, and
the nonlinear Gronwall bound evaluator.

Every subcommand takes --config <file.json> and --out <dir>; without
--config a small built-in demo configuration is used. Each subcommand writes
one CSV table plus report.json, whose meta.runtime_seconds is the time the
subcommand took to compute its results and meta.peak_rss_mb the process's
peak resident memory in MB. Exit status: 0 when every asserted verdict
passed, 2 when hypothesis checks were unmet, 1 otherwise, and 3 with one
line on stderr when the config or an input is invalid, or with argparse's
usage message on a usage error (console script).
"""

from __future__ import annotations

import argparse
import csv
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import experiments
from .bounds import BoundInputError, PiecewiseConstantRate, bihari_bound
from .config import (ConfigError, _check_keys, basis_from_config, config_value, generator_from_config,
                     load_config, resolve_model_grid)
from .experiments import Case, Report
from .levy import ModelError, simulate_paths
from .mc import bootstrap_y0, solve_mc
from .terminals import make_terminal
from .tree import build_tree, solve_backward, solve_truncated


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
    }


def _model_grid(command: str, cfg: dict, *keys: str):
    """resolve_model_grid, then reject a top-level key that is neither 'model', 'grid' nor one of keys."""
    model, grid = resolve_model_grid(cfg)
    _check_keys(command, cfg, dict.fromkeys(["model", "grid", *keys]))
    return model, grid


# Every command maps a config (None for the built-in demo) to
# (report, CSV header, CSV rows, one-line summary).


def _simulate(cfg):
    demo = _demo_model_config()
    cfg = cfg or {"model": demo["model"], "grid": demo["grid"], "seed": 0, "count": 1000}
    model, grid = _model_grid("simulate", cfg, "seed", "count")
    bundle = simulate_paths(model, grid, config_value(cfg, "count", int, 1000), config_value(cfg, "seed", int, 0))
    x = bundle.states()
    case = Case(name="simulate", data={
        "paths": bundle.n_paths,
        "terminal_mean": float(x[:, -1].mean()),
        "terminal_se": float(x[:, -1].std(ddof=1) / np.sqrt(bundle.n_paths)),
        "analytic_terminal_mean": model.mean_terminal_state(grid.horizon),
    })
    j = model.n_marks
    rows = ([p, i, repr(float(bundle.dw[p, i]))] + [int(bundle.dn[p, i, k]) for k in range(j)]
            for p in range(bundle.n_paths) for i in range(grid.steps))
    header = ["path", "step", "dW"] + [f"dN_{k + 1}" for k in range(j)]
    return Report("simulate", cfg, [case]), header, rows, f"{bundle.n_paths} paths -> paths.csv"


def _point_header(j: int) -> list:
    """The columns that name a lattice point: level, point number, Brownian value and per-mark jump counts."""
    return ["level", "point", "W"] + [f"N_{k + 1}" for k in range(j)]


def _solution_rows(sol) -> list:
    """One row per lattice point: its _point_header columns, Y, and Z and U except at the last level."""
    lat, z, u = sol.tree.lattice, sol.Z.lattice, sol.U.lattice
    j = sol.tree.model.n_marks
    rows = []
    for lvl, y in enumerate(sol.Y.lattice):
        for p in range(y.size):
            row = [lvl, p, repr(float(lat.w[lvl][p]))] + [int(c) for c in lat.counts[lvl][p]] + [repr(float(y[p]))]
            row += ([repr(float(z[lvl][p]))] + [repr(float(v)) for v in u[lvl][p]]) if lvl < len(z) else [""] * (1 + j)
            rows.append(row)
    return rows


def _solve_lattice(cfg):
    cfg = cfg or _demo_model_config()
    model, grid = _model_grid("solve-lattice", cfg, "generator", "terminal", "truncation_level")
    g = generator_from_config(cfg["generator"])
    xi = make_terminal(cfg["terminal"])
    tree = build_tree(model, grid)
    level = config_value(cfg, "truncation_level", int, None)
    sol = solve_truncated(tree, g, xi, level) if level is not None else solve_backward(tree, g, xi)
    case = Case(name="solve-lattice", data={"y0": sol.y0, "levels": tree.n_steps + 1,
                                            "max_fixed_point_iterations": max(sol.fp_iterations, default=0)})
    header = _point_header(model.n_marks) + ["Y", "Z"] + [f"U_{k + 1}" for k in range(model.n_marks)]
    report = Report("solve-lattice", cfg, [case],
                    meta={"fp_iterations": list(sol.fp_iterations), "nodes": tree.node_counts()})
    return report, header, _solution_rows(sol), f"Y0 = {sol.y0:.10g}"


def _solve_mc(cfg):
    cfg = cfg or {**_demo_model_config(), "seed": 0, "paths": 20000, "basis_degree": 3}
    model, grid = _model_grid("solve-mc", cfg, "generator", "terminal", "seed", "paths", "basis_degree", "bootstrap")
    g = generator_from_config(cfg["generator"])
    xi = make_terminal(cfg["terminal"])
    basis = basis_from_config(cfg)
    paths, seed = config_value(cfg, "paths", int), config_value(cfg, "seed", int, 0)
    bootstrap = config_value(cfg, "bootstrap", bool, True)
    start = time.perf_counter()
    sol = solve_mc(model, grid, g, xi, paths=paths, basis=basis, seed=seed)
    seconds = {"solve_mc": time.perf_counter() - start, "bootstrap": None}
    m = sol.Y.shape[0]
    j = model.n_marks
    rows = []
    for i in range(grid.steps):
        y = sol.Y[:, i]
        # a column of one value has se 0; np.std would read the rounding of its mean
        se = 0.0 if (y == y[0]).all() else float(y.std(ddof=1) / math.sqrt(m))
        row = [i, float(y.mean()), se, float(sol.Z[:, i].mean())]
        row += [float(sol.U[:, i, k].mean()) for k in range(j)]
        rows.append(row)
    est = None
    if bootstrap:
        start = time.perf_counter()
        est = bootstrap_y0(model, grid, g, xi, paths=paths, basis=basis, seed=seed)
        seconds["bootstrap"] = time.perf_counter() - start
    case = Case(name="solve-mc", data={"y0": sol.y0, "paths": m, "degrees_used": list(sol.degrees_used),
                                       "y0_se_bootstrap": est.se if est else None})
    header = ["step", "Y_mean", "Y_se", "Z_mean"] + [f"U_{k + 1}_mean" for k in range(j)]
    summary = f"Y0 = {sol.y0:.6g}" + (f" (bootstrap se {est.se:.3g})" if est else "")
    meta = {"fp_iterations": list(sol.fp_iterations), "seconds": seconds}
    return Report("solve-mc", cfg, [case], meta=meta), header, rows, summary


def _per_case(report: Report, key: str, fields: list, verdict: str):
    """One row per case: its name, its status and the given case.data fields."""
    rows = [[c.name, c.status] + [c.data.get(f) for f in fields] for c in report.cases]
    passed = sum(c.status == "pass" for c in report.cases)
    return report, [key, "status"] + fields, rows, f"{passed}/{len(report.cases)} {verdict}"


def _compare(cfg):
    return _per_case(experiments.run_comparison(cfg), "pair",
                     ["y0", "y0_prime", "max_violation", "max_violation_refined"], "pairs ordered")


def _apriori(cfg):
    return _per_case(experiments.run_apriori_check(cfg), "instance",
                     ["C_K", "E_sup_Y2", "ZU_integral"], "instances dominated")


def _counterexample(cfg):
    """witnesses.csv: the violating case's ordering witnesses, one row per lattice point."""
    report = experiments.run_counterexample(cfg)
    main_case = report.cases[0]
    rows = [[w["level"], w["point"], w["w"], *w["counts"], w["Y"], w["Y_prime"], w["margin"]]
            for w in main_case.witnesses]
    header = _point_header(resolve_model_grid(report.config)[0].n_marks) + ["Y", "Y_prime", "margin"]
    summary = f"max margin {main_case.data.get('max_margin')} ({main_case.status})"
    return report, header, rows, summary


def _truncate_study(cfg):
    report = experiments.run_truncation_study(cfg)
    rows = [
        [r["n"], r["kept_marks"], r["dY"], r["dZ"], r["dU"], r["y0_truncated"]]
        for c in report.cases for r in c.data.get("levels", [])
    ]
    return report, ["n", "kept_marks", "dY", "dZ", "dU", "y0_truncated"], rows, report.cases[0].status


def _convergence(cfg):
    report = experiments.run_convergence(cfg)
    ref_case = report.cases[0]
    steps = ref_case.data.get("steps", [])
    y0s = ref_case.data.get("y0", [])
    errs = ref_case.data.get("errors", [None] * len(steps))
    order = ref_case.data.get("fitted_order")
    summary = f"fitted order {order}" if order is not None else "no order fitted"
    return report, ["steps", "y0", "error_vs_reference"], list(zip(steps, y0s, errs)), summary


def _bihari(cfg):
    default = {"c": 1.0, "K": {"times": [0.0, 1.0], "values": [2.0]}, "rho": "identity", "t": 0.0, "T": 1.0}
    cfg = cfg or default
    _check_keys("bihari", cfg, default)
    c, t, T = (config_value(cfg, key) for key in ("c", "t", "T"))
    k_spec = cfg["K"]
    if isinstance(k_spec, dict):
        rate = PiecewiseConstantRate(config_value(k_spec, "times", [float]), config_value(k_spec, "values", [float]))
    else:  # a constant rate; a zero-length window has no table span, and its integral is 0
        const = config_value(cfg, "K")
        rate = PiecewiseConstantRate([t, T], [const]) if T > t else (lambda s: const)
    rho = cfg.get("rho", "identity")
    res = bihari_bound(c, rate, rho, t, T)
    case = Case(name="bihari", data={"status": res.status, "bound": res.bound,
                                     "G_of_c": res.G_of_c, "integral_K": res.integral_K})
    header = ["c", "rho", "t", "T", "integral_K", "G_of_c", "status", "bound"]
    rho_name = rho["name"] if isinstance(rho, dict) else rho
    row = [cfg["c"], rho_name, cfg["t"], cfg["T"], res.integral_K, res.G_of_c, res.status, res.bound]
    report = Report("bihari", cfg, [case], meta={"quadratures": res.quadratures, "newton_steps": res.newton_steps})
    return report, header, [row], str(res.bound if res.status == "ok" else res.status)


# Subcommand name -> (command, CSV file name).
_COMMANDS = {
    "simulate": (_simulate, "paths.csv"),
    "solve-lattice": (_solve_lattice, "solution.csv"),
    "solve-mc": (_solve_mc, "mc_summary.csv"),
    "compare": (_compare, "pairs.csv"),
    "counterexample": (_counterexample, "witnesses.csv"),
    "truncate-study": (_truncate_study, "levels.csv"),
    "apriori": (_apriori, "instances.csv"),
    "convergence": (_convergence, "refinement.csv"),
    "bihari": (_bihari, "bound.csv"),
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
    command, csv_name = _COMMANDS[args.command]
    start = time.perf_counter()
    report, header, rows, summary = command(cfg)
    report.runtime_seconds = time.perf_counter() - start
    report.meta["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KB
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # only now, so a rejected config leaves no directory
    with open(out_dir / csv_name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    (out_dir / "report.json").write_text(report.to_json() + "\n")
    print(f"{args.command}: {summary}")
    return _exit_code(report)


def run(argv=None) -> int:
    """Console entry point: main(), with config and input errors as one line on stderr.

    Input errors and argparse usage errors exit 3, distinct from the verdict codes 0, 1 and 2.
    """
    try:
        return main(argv)
    except (ConfigError, BoundInputError, ModelError) as exc:
        command = next(a for a in (sys.argv[1:] if argv is None else argv) if a in _COMMANDS)
        print(f"jumpbsde {command}: error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:
        if exc.code == 2:  # argparse has printed its usage message
            return 3
        raise


if __name__ == "__main__":
    sys.exit(run())
