"""Experiment runners: solution ordering, the ordering counterexample, the
jump-truncation study, a-priori domination, and refinement/Monte-Carlo
convergence. Each runner consumes a plain config dict and emits a Report
whose asserted inequalities carry their measured sides.
"""

from __future__ import annotations

import datetime
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .bounds import apriori_bound
from .config import (ConfigError, _check_keys, basis_from_config, config_value, generator_from_config,
                     model_from_config, resolve_model_grid)
from .generators import (SamplerConfig, check_branch_weights, check_growth, check_jump_ordering, check_monotonicity,
                         check_ordering)
from .levy import TimeGrid, kept_marks_mask
from .mc import bootstrap_y0
from .terminals import make_terminal
from .tree import (DEFAULT_FP_TOL, ScenarioTree, TreeSolution, build_tree, l2_distance, solve_backward,
                   solve_truncated)


def _py(obj):
    """Recursively convert numpy scalars/arrays (and stringify anything else
    that JSON cannot carry, e.g. programmatic driver objects in configs)."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return str(obj)


@dataclass
class Verdict:
    name: str
    passed: bool
    lhs: float
    rhs: float
    tolerance: float = 0.0
    note: str = ""

    def to_dict(self) -> dict:
        return _py(self.__dict__)


@dataclass
class Case:
    name: str
    status: str = "pass"  # pass | fail | preconditions-unmet
    verdicts: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def assert_leq(self, name: str, lhs: float, rhs: float, tolerance: float = 0.0, note: str = "") -> None:
        passed = bool(lhs <= rhs + tolerance)
        self.verdicts.append(Verdict(name, passed, float(lhs), float(rhs), float(tolerance), note))
        if not passed:
            self.status = "fail"

    def assert_gt(self, name: str, lhs: float, rhs: float, note: str = "") -> None:
        passed = bool(lhs > rhs)
        self.verdicts.append(Verdict(name, passed, float(lhs), float(rhs), 0.0, note))
        if not passed:
            self.status = "fail"

    def unmet(self, reason: str) -> None:
        self.status = "preconditions-unmet"
        self.data.setdefault("unmet_reasons", []).append(reason)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "witnesses": _py(self.witnesses),
            "data": _py(self.data),
        }


@dataclass
class Report:
    experiment: str
    config: dict
    cases: list
    runtime_seconds: float = 0.0
    meta: dict = field(default_factory=dict)  # run diagnostics, merged into the meta block

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.cases)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "passed": self.passed,
            "config": _py(self.config),
            "cases": [c.to_dict() for c in self.cases],
            "meta": {
                **self.meta,  # merged first: the measured timestamp and runtime always win
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "runtime_seconds": self.runtime_seconds,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _checks_meta(reports) -> dict:
    """meta.checks: the condition checks a runner ran, their sampled points and the seconds spent in them."""
    return {"calls": len(reports), "points": sum(r.n_points for r in reports),
            "seconds": sum(r.seconds for r in reports)}


def _timed(fn):
    def wrapper(cfg=None):
        start = time.perf_counter()
        report = fn(cfg)
        report.runtime_seconds = time.perf_counter() - start
        return report

    return wrapper


# ---------------------------------------------------------------------------
# Tree measurements shared by several runners
# ---------------------------------------------------------------------------


def _lattice_coeff(tree: ScenarioTree, coeff, i: int) -> np.ndarray:
    """dt * c(ctx_i, t_i) at every level-i point of the count lattice."""
    c = np.asarray(coeff(tree.lattice.context(i), float(tree.grid.times[i])), dtype=float)
    return tree.grid.dt * np.broadcast_to(c, tree.lattice.x[i].shape)


def _sup_time_sum(tree: ScenarioTree, coeff) -> float:
    """Pathwise sup of sum_i dt * c(ctx_i, t_i) by the max-plus recursion V' = max over parents of
    V + dt c on the lattice; rounded addition is monotone, so it is the max of the path sums bitwise."""
    v = np.zeros(1)
    for i in range(tree.n_steps):
        v = tree.lattice.forward(i, v + _lattice_coeff(tree, coeff, i), law=False)
    return float(v.max())


def measure_ck(tree: ScenarioTree, g) -> float:
    """Pathwise sup of int (K1 + K2^2) dt on the grid."""
    return _sup_time_sum(tree, lambda ctx, t: g.K1(ctx, t) + np.asarray(g.K2(ctx, t)) ** 2)


def measure_e_if2(tree: ScenarioTree, g) -> float:
    """E[(int F dt)^2] on the grid, from each lattice point's mass-weighted moments m1, m2 of the
    running sum S: a step adds a = dt F to S, and the moments flow to the next level by the step's law."""
    lat, m1, m2 = tree.lattice, np.zeros(1), np.zeros(1)
    for i in range(tree.n_steps):
        a = _lattice_coeff(tree, g.F, i)
        s1, s2 = m1 + a * lat.mass[i], m2 + a * (2.0 * m1 + a * lat.mass[i])
        m1, m2 = lat.forward(i, s1), lat.forward(i, s2)
    return float(m2.sum())


def measure_beta2_budget(tree: ScenarioTree, g) -> float:
    """Pathwise sup of int beta^2 dt on the grid."""
    return _sup_time_sum(tree, lambda ctx, t: np.asarray(g.beta(ctx, t)) ** 2)


def _terminal_gap(tree: ScenarioTree, xi, xi_prime) -> float:
    """Largest node-wise excess of one terminal over another, taken over the leaf lattice points."""
    leaf = tree.lattice.context(tree.n_steps)
    return float(np.max(xi(leaf) - xi_prime(leaf)))


def max_ordering_violation(sol: TreeSolution, sol_prime: TreeSolution) -> float:
    """Largest node-wise excess of Y over Y' across all levels (negative when ordered strictly).

    Every lattice point is some node's, so the maximum is taken over the lattice values.
    """
    return max(float(np.max(ya - yb)) for ya, yb in zip(sol.Y.lattice, sol_prime.Y.lattice))


def stability_inputs(tree: ScenarioTree, sol, sol_prime, g, g_prime) -> dict:
    """Measured ingredients of the two-solution stability bound, from lattice values.

    delta = E|terminal gap|^2 + 2 E int |dY| |driver gap at the first
    solution's arguments| dt; a integrates the second driver's alpha;
    b is the pathwise budget of its beta^2.
    """
    lat, y, y_p = tree.lattice, sol.Y.lattice, sol_prime.Y.lattice
    e_dxi2 = lat.expectation((y[-1] - y_p[-1]) ** 2, tree.n_steps)
    cross = 0.0
    for i, (z, u) in enumerate(zip(sol.Z.lattice, sol.U.lattice)):
        ctx, t = lat.context(i), float(tree.grid.times[i])
        df = np.abs(np.asarray(g.eval(ctx, t, y[i], z, u), dtype=float)
                    - np.asarray(g_prime.eval(ctx, t, y[i], z, u), dtype=float))
        cross += lat.expectation(np.abs(y[i] - y_p[i]) * df, i) * tree.grid.dt
    a_val, _ = bounds.quad(lambda s: float(g_prime.alpha(s)), 0.0, tree.grid.horizon, limit=200)
    return {
        "delta": float(e_dxi2 + 2.0 * cross),
        "a": float(a_val),
        "b": measure_beta2_budget(tree, g_prime),
        "e_dxi2": float(e_dxi2),
    }


# ---------------------------------------------------------------------------
# Comparison suite
# ---------------------------------------------------------------------------


def default_comparison_pairs() -> list:
    """Pair suite: ordered data, ordered drivers, ordered-jump condition holds.

    Models are sized so both the base grid and its dt-halved refinement stay
    under the node cap.
    """
    bm = {"drift": 0.1, "sigma": 1.0, "marks": []}
    j1 = {"drift": 0.0, "sigma": 0.0, "marks": [{"x": 0.5, "lambda": 0.8}]}
    bj = {"drift": 0.0, "sigma": 1.0, "marks": [{"x": 0.5, "lambda": 0.8}]}
    j2 = {"drift": 0.1, "sigma": 0.0, "marks": [{"x": 0.5, "lambda": 0.6}, {"x": -0.3, "lambda": 0.4}]}
    bj2 = {"drift": 0.0, "sigma": 1.0, "marks": [{"x": 0.5, "lambda": 0.5}, {"x": -0.3, "lambda": 0.4}]}
    xi_lo = {"name": "tanh_x", "scale": 0.5}
    xi_hi = {"name": "tanh_x", "shift": 0.5}
    return [
        {"name": "zero_shift", "model": bm, "steps": 6, "generator": "zero",
         "generator_prime": {"name": "zero", "shift": 1.0}, "terminal": "x", "terminal_prime": "x"},
        {"name": "linear_y_shift", "model": bm, "steps": 6, "generator": {"name": "linear_y", "k": 0.8},
         "generator_prime": {"name": "linear_y", "k": 0.8, "shift": 0.5},
         "terminal": "tanh_x", "terminal_prime": "tanh_x"},
        {"name": "zdep_shift", "model": bm, "steps": 6,
         "generator": {"name": "linear_driver", "a": 0.5, "b": 0.5, "c": 0.0},
         "generator_prime": {"name": "linear_driver", "a": 0.5, "b": 0.5, "c": 0.0, "shift": 1.0},
         "terminal": "x", "terminal_prime": "x"},
        {"name": "linear_y_ordered_xi", "model": bm, "steps": 6, "generator": {"name": "linear_y", "k": 0.5},
         "generator_prime": {"name": "linear_y", "k": 0.5}, "terminal": xi_lo, "terminal_prime": xi_hi},
        {"name": "zdep_ordered_xi", "model": bm, "steps": 6,
         "generator": {"name": "linear_driver", "a": 0.3, "b": 0.4, "c": 0.0},
         "generator_prime": {"name": "linear_driver", "a": 0.3, "b": 0.4, "c": 0.0},
         "terminal": xi_lo, "terminal_prime": xi_hi},
        {"name": "jump_boundary_shift", "model": j1, "steps": 6,
         "generator": {"name": "linear_driver", "a": 0.0, "b": 0.0, "c": -1.0},
         "generator_prime": {"name": "linear_driver", "a": 0.0, "b": 0.0, "c": -1.0, "shift": 1.0},
         "terminal": "x", "terminal_prime": "x"},
        {"name": "jump_boundary_ordered_xi", "model": j1, "steps": 6,
         "generator": {"name": "linear_driver", "a": 0.0, "b": 0.0, "c": -1.0},
         "generator_prime": {"name": "linear_driver", "a": 0.0, "b": 0.0, "c": -1.0},
         "terminal": xi_lo, "terminal_prime": xi_hi},
        {"name": "jump_partial_ordered_xi", "model": j1, "steps": 6,
         "generator": {"name": "linear_driver", "a": 0.2, "b": 0.0, "c": -0.5},
         "generator_prime": {"name": "linear_driver", "a": 0.2, "b": 0.0, "c": -0.5},
         "terminal": xi_lo, "terminal_prime": xi_hi},
        {"name": "jump_zero_ordered_xi", "model": j1, "steps": 6, "generator": "zero",
         "generator_prime": "zero", "terminal": xi_lo, "terminal_prime": xi_hi},
        {"name": "bm_jump_boundary", "model": bj, "steps": 5,
         "generator": {"name": "linear_driver", "a": 0.0, "b": 0.0, "c": -1.0},
         "generator_prime": {"name": "linear_driver", "a": 0.0, "b": 0.0, "c": -1.0},
         "terminal": xi_lo, "terminal_prime": xi_hi},
        {"name": "two_marks_negative", "model": j2, "steps": 5,
         "generator": {"name": "linear_driver", "a": 0.0, "b": 0.0, "c": [-0.5, -0.25]},
         "generator_prime": {"name": "linear_driver", "a": 0.0, "b": 0.0, "c": [-0.5, -0.25]},
         "terminal": xi_lo, "terminal_prime": xi_hi},
        {"name": "tanh_jump_shift", "model": bj2, "steps": 3, "generator": "tanh_jump_integral",
         "generator_prime": {"name": "tanh_jump_integral", "shift": 0.5}, "terminal": "x", "terminal_prime": "x"},
    ]


def default_comparison_config() -> dict:
    return {
        "horizon": 1.0,
        "refine": True,
        "pairs": default_comparison_pairs(),
    }


def _pair_case(name: str, tree: ScenarioTree, g, g_prime, xi, xi_prime, checks: list) -> Case:
    """Solve one ordered pair on the lattice and assert node-wise solution ordering.

    Its hypotheses (sampled driver ordering, node-wise terminal ordering,
    ordered-jump condition for one driver, nonnegative branch weights of the
    scheme for one driver) gate the verdict: an unmet hypothesis yields a
    preconditions-unmet case with no ordering verdict asserted. The condition
    checks run are appended to checks.
    """
    case = Case(name=name)
    model, grid = tree.model, tree.grid
    sampler = SamplerConfig(horizon=grid.horizon)
    order = check_ordering(g, g_prime, model, sampler)
    if not order.passed:
        case.unmet("driver ordering f <= f' fails on sampled points")
        case.witnesses.extend(v.to_dict() for v in order.violations[:3])
    term_gap = _terminal_gap(tree, xi, xi_prime)
    if term_gap > 1e-12:
        case.unmet(f"terminal ordering fails node-wise (max excess {term_gap})")
    gamma, gamma_p = check_jump_ordering(g, model, sampler), check_jump_ordering(g_prime, model, sampler)
    weights = check_branch_weights(g, model, grid, sampler)
    weights_p = check_branch_weights(g_prime, model, grid, sampler)
    checks += [order, gamma, gamma_p, weights, weights_p]
    if not (gamma.passed or gamma_p.passed):
        case.unmet("neither driver passes the ordered-jump condition")
    if not (weights.passed or weights_p.passed):
        case.unmet("neither driver keeps every branch weight of the tree's implicit step nonnegative")
        case.witnesses.extend(v.to_dict() for v in weights.violations[:3])
    if case.status == "preconditions-unmet":
        return case

    sol = solve_backward(tree, g, xi)
    sol_p = solve_backward(tree, g_prime, xi_prime)
    viol = max_ordering_violation(sol, sol_p)
    case.data.update({"y0": sol.y0, "y0_prime": sol_p.y0, "max_violation": viol, "steps": grid.steps})
    case.assert_leq("ordering", viol, 0.0, tolerance=10.0 * DEFAULT_FP_TOL)
    return case


@_timed
def run_comparison(cfg: dict | None = None) -> Report:
    """Judge each configured pair with _pair_case; with refine, also assert that the ordering
    violation does not grow on the dt-halved grid."""
    cfg = cfg or default_comparison_config()
    _check_keys("comparison", cfg, default_comparison_config(), "pairs")
    if not cfg["pairs"]:
        raise ConfigError("compare needs at least one pair in 'pairs'")
    horizon = config_value(cfg, "horizon", float, 1.0)
    refine = config_value(cfg, "refine", bool, True)
    cases, checks = [], []
    for pair in cfg["pairs"]:
        model = model_from_config(pair["model"])
        g = generator_from_config(pair["generator"])
        gp = generator_from_config(pair["generator_prime"])
        xi = make_terminal(pair["terminal"])
        xip = make_terminal(pair["terminal_prime"])
        grid = TimeGrid(horizon=horizon, steps=config_value(pair, "steps", int))
        case = _pair_case(pair["name"], build_tree(model, grid), g, gp, xi, xip, checks)
        if refine and case.status != "preconditions-unmet":
            tree2 = build_tree(model, TimeGrid(horizon=horizon, steps=2 * grid.steps))
            viol2 = max_ordering_violation(solve_backward(tree2, g, xi), solve_backward(tree2, gp, xip))
            case.data["max_violation_refined"] = viol2
            case.assert_leq("violation_nonincreasing_under_refinement", viol2, max(case.data["max_violation"], 0.0),
                            tolerance=1e-15)
        cases.append(case)
    return Report("comparison", cfg, cases, meta={"checks": _checks_meta(checks)})


# ---------------------------------------------------------------------------
# Ordering counterexample without the ordered-jump condition
# ---------------------------------------------------------------------------


def default_counterexample_config() -> dict:
    """An instance frozen from a scan over one mark of size 1, lambda in {0.5, 1, 2}, T = 1 and
    1, 2, 4 or 8 steps with lambda dt < 1. Every scanned instance breaks the ordering; the one kept,
    lambda = 1 with 4 steps (margin 1.44), is not the largest margin (lambda = 2 with 8 steps, 4.96)."""
    return {
        "margin_factor": 100.0,
        "model": {"drift": 0.0, "sigma": 0.0, "marks": [{"x": 1.0, "lambda": 1.0}]},
        "grid": {"T": 1.0, "steps": 4},
        "generator": "jump_ordering_violator",
        "boundary_generator": {"name": "linear_driver", "a": 0.0, "b": 0.0, "c": -1.0},
        "terminal": {"name": "const", "value": 0.0},
        "terminal_prime": {"name": "jump_indicator", "mark": 0, "min_count": 1},
    }


def _violation_witnesses(sol: TreeSolution, sol_prime: TreeSolution, threshold: float) -> list:
    """Up to three lattice points per level where Y exceeds Y' by more than threshold, each named by
    its level, point number, Brownian value w and per-mark jump counts."""
    lat, out = sol.tree.lattice, []
    for lvl, (ya, yb) in enumerate(zip(sol.Y.lattice, sol_prime.Y.lattice)):
        excess = ya - yb
        for p in np.flatnonzero(excess > threshold)[:3]:
            out.append({"level": lvl, "point": int(p), "w": float(lat.w[lvl][p]),
                        "counts": lat.counts[lvl][p].astype(int).tolist(), "Y": float(ya[p]),
                        "Y_prime": float(yb[p]), "margin": float(excess[p])})
    return out


@_timed
def run_counterexample(cfg: dict | None = None) -> Report:
    """Exhibit ordered data whose solutions are not ordered once the ordered-jump condition is dropped,
    and judge the boundary driver against itself on the same terminals as a comparison pair
    (_pair_case)."""
    cfg = cfg or default_counterexample_config()
    _check_keys("counterexample", cfg, default_counterexample_config())
    margin_factor = config_value(cfg, "margin_factor", float, 100.0)
    if not margin_factor > 0:  # a threshold of 0 or below would count equal solutions as a violation
        raise ConfigError(f"config key 'margin_factor' must be positive, got {margin_factor!r}")
    threshold = margin_factor * DEFAULT_FP_TOL
    model, grid = resolve_model_grid(cfg)
    tree = build_tree(model, grid)
    g = generator_from_config(cfg["generator"])
    xi = make_terminal(cfg["terminal"])
    xip = make_terminal(cfg["terminal_prime"])

    case = Case(name="violating_driver")
    gamma = check_jump_ordering(g, model, SamplerConfig(horizon=grid.horizon))
    if gamma.passed:
        case.unmet("the configured driver does not violate the ordered-jump condition")
    if _terminal_gap(tree, xi, xip) > 1e-12:
        case.unmet("terminal ordering fails node-wise")
    if case.status != "preconditions-unmet":
        sol = solve_backward(tree, g, xi)
        sol_p = solve_backward(tree, g, xip)
        margin = max_ordering_violation(sol, sol_p)
        case.data.update({"y0": sol.y0, "y0_prime": sol_p.y0, "max_margin": margin, "threshold": threshold})
        case.witnesses = _violation_witnesses(sol, sol_p, threshold)
        case.assert_gt("violation_found", margin, threshold,
                       note="a node with Y > Y' beyond the threshold demonstrates the failure of ordering")

    checks = [gamma]
    gb = generator_from_config(cfg.get("boundary_generator", {"name": "linear_driver", "a": 0.0, "b": 0.0, "c": -1.0}))
    boundary = _pair_case("boundary_driver", tree, gb, gb, xi, xip, checks)
    return Report("counterexample", cfg, [case, boundary], meta={"checks": _checks_meta(checks)})


# ---------------------------------------------------------------------------
# Truncation study
# ---------------------------------------------------------------------------


def default_truncation_config() -> dict:
    return {
        "model": {"drift": 0.1, "sigma": 1.0, "marks": [{"x": 0.05, "lambda": 2.0}, {"x": 0.5, "lambda": 0.8}]},
        "grid": {"T": 1.0, "steps": 4},
        "generator": {"name": "linear_y", "k": 0.5},
        "terminal": "x",
        "levels": [1, 4, 100],
    }


@_timed
def run_truncation_study(cfg: dict | None = None) -> Report:
    """Distances between the full solution and the coarse-jump solutions,
    per truncation level; distances must be non-increasing and vanish once
    every mark is retained."""
    cfg = cfg or default_truncation_config()
    _check_keys("truncate-study", cfg, default_truncation_config())
    model, grid = resolve_model_grid(cfg)
    levels = sorted(config_value(cfg, "levels", [int]))
    if not levels:
        raise ConfigError("truncate-study needs at least one truncation level in 'levels'")
    case = Case(name="truncation_levels")

    kept_coarse = kept_marks_mask(model, levels[0])
    kept_fine = kept_marks_mask(model, levels[-1])
    if kept_coarse.all():
        case.unmet("the coarsest level removes no mark; the study would be vacuous")
    if not kept_fine.all():
        case.unmet("the finest level still removes a mark; the zero-distance verdict cannot apply")
    if case.status == "preconditions-unmet":
        return Report("truncate-study", cfg, [case])

    tree = build_tree(model, grid)
    g = generator_from_config(cfg["generator"])
    xi = make_terminal(cfg["terminal"])
    full = solve_backward(tree, g, xi)
    rows = []
    dists = []
    for n in levels:
        sol_n = solve_truncated(tree, g, xi, n)
        d = l2_distance(sol_n, full)
        dists.append(d)
        rows.append({"n": n, "kept_marks": int(kept_marks_mask(model, n).sum()), "dY": d.dY, "dZ": d.dZ, "dU": d.dU,
                     "y0_truncated": sol_n.y0})
    case.data["levels"] = rows
    case.data["y0_full"] = full.y0
    for k in range(len(levels) - 1):
        for comp in ("dY", "dZ", "dU"):
            case.assert_leq(
                f"{comp}_nonincreasing_n{levels[k]}_to_n{levels[k + 1]}",
                getattr(dists[k + 1], comp), getattr(dists[k], comp), tolerance=1e-15,
            )
    case.assert_leq("final_distance_zero", dists[-1].total(), 0.0,
                    note="no mark removed at the finest level: the coarse solve is the full solve")
    return Report("truncate-study", cfg, [case], meta={"nodes": tree.node_counts()})


# ---------------------------------------------------------------------------
# A-priori domination
# ---------------------------------------------------------------------------


def default_apriori_config() -> dict:
    model = {"drift": 0.1, "sigma": 1.0, "marks": [{"x": 0.5, "lambda": 0.5}, {"x": -0.3, "lambda": 0.4}]}
    gens = ["zero", {"name": "linear_y", "k": 0.8}, "linear_driver", "tanh_jump_integral", "jump_ordering_violator"]
    return {
        "model": model,
        "grid": {"T": 1.0, "steps": 4},
        "instances": [{"generator": g, "terminal": t} for g in gens for t in ("x", "tanh_x")],
    }


@_timed
def run_apriori_check(cfg: dict | None = None) -> Report:
    """Tree-measured solution norms against the explicit a-priori constants."""
    cfg = cfg or default_apriori_config()
    _check_keys("apriori", cfg, default_apriori_config(), "instances")
    if not cfg["instances"]:
        raise ConfigError("apriori needs at least one instance in 'instances'")
    model, grid = resolve_model_grid(cfg)
    tree = build_tree(model, grid)
    sampler = SamplerConfig(horizon=grid.horizon)
    cases, checks = [], []
    for inst in cfg["instances"]:
        g = generator_from_config(inst["generator"])
        xi = make_terminal(inst["terminal"])
        case = Case(name=f"{g.name}|{inst['terminal'] if isinstance(inst['terminal'], str) else inst['terminal']['name']}")
        growth = check_growth(g, model, sampler)
        mono = check_monotonicity(g, model, sampler)
        checks += [growth, mono]
        if not growth.passed:
            case.unmet("declared growth coefficients fail on sampled points")
        if not mono.passed:
            case.unmet("declared monotonicity coefficients fail on sampled points")
        if case.status == "preconditions-unmet":
            cases.append(case)
            continue
        sol = solve_backward(tree, g, xi)
        ck = measure_ck(tree, g)
        e_xi2 = tree.lattice.expectation(sol.Y.lattice[-1] ** 2, tree.n_steps)
        e_if2 = measure_e_if2(tree, g)
        bound = apriori_bound(ck, e_xi2, e_if2)
        sup_y2 = sol.expected_sup_y_squared()
        z2, u2 = sol.zu_integrals()
        case.data.update({"C_K": ck, "E_xi2": e_xi2, "E_IF2": e_if2, "c1": bound.c1, "min_C1": bound.min_C1,
                          "E_sup_Y2": sup_y2, "ZU_integral": z2 + u2})
        case.assert_leq("sup_Y_dominated", sup_y2, bound.sup_Y_bound)
        case.assert_leq("ZU_dominated", z2 + u2, bound.ZU_bound)
        cases.append(case)
    return Report("apriori", cfg, cases, meta={"checks": _checks_meta(checks)})


# ---------------------------------------------------------------------------
# Refinement and Monte-Carlo convergence
# ---------------------------------------------------------------------------


def default_convergence_config() -> dict:
    return {
        "model": {"drift": 0.0, "sigma": 0.0, "marks": []},
        "T": 1.0,
        "steps_list": [25, 50, 100, 200],
        "generator": {"name": "linear_y", "k": 1.0},
        "terminal": {"name": "const", "value": 1.0},
        "reference": math.e,
        "order_target": 1.0,
        "order_tol": 0.3,
        "mc": {
            "model": {"drift": 0.0, "sigma": 1.0, "marks": [{"x": 0.5, "lambda": 0.2}]},
            "steps": 10,
            "generator": {"name": "linear_driver", "a": 0.15, "b": 0.2, "c": -0.5},
            "terminal": "x",
            "paths": 20000,
            "basis_degree": 3,
            "seed": 2024,
        },
    }


def default_mc_suite() -> list:
    """Tree-feasible instances for oracle equivalence of the regression solver.

    The regression solver takes the tree's implicit step, but not the tree's
    law: paths carry Gaussian increments and Poisson counts, the tree +-sqrt(dt)
    signs and at most one jump per mark per step, so in general the two
    solve different discrete problems. This suite agrees because its terminal
    is affine, which the polynomial basis spans exactly, and the increments
    of both laws have the same means.
    """
    bm = {"drift": 0.05, "sigma": 1.0, "marks": []}
    j1 = {"drift": 0.0, "sigma": 1.0, "marks": [{"x": 0.5, "lambda": 0.2}]}
    j2 = {"drift": 0.1, "sigma": 0.0, "marks": [{"x": 0.6, "lambda": 0.25}, {"x": -0.4, "lambda": 0.2}]}
    jv = {"drift": 0.0, "sigma": 1.0, "marks": [{"x": 0.8, "lambda": 0.1}]}
    return [
        {"name": "bm_zero", "model": bm, "steps": 10, "generator": "zero", "terminal": "x"},
        {"name": "bm_linear_y", "model": bm, "steps": 16, "generator": {"name": "linear_y", "k": 0.4}, "terminal": "x"},
        {"name": "bm_zdep", "model": bm, "steps": 16,
         "generator": {"name": "linear_driver", "a": 0.2, "b": 0.3, "c": 0.0}, "terminal": "x"},
        {"name": "jump_small", "model": j1, "steps": 10,
         "generator": {"name": "linear_driver", "a": 0.15, "b": 0.2, "c": -0.5}, "terminal": "x"},
        {"name": "jump_tanh", "model": j1, "steps": 10, "generator": "tanh_jump_integral", "terminal": "x"},
        {"name": "two_jumps", "model": j2, "steps": 10,
         "generator": {"name": "linear_driver", "a": 0.2, "b": 0.0, "c": [0.4, -0.6]}, "terminal": "x"},
        {"name": "violator_linear", "model": jv, "steps": 10, "generator": "jump_ordering_violator", "terminal": "x"},
    ]


def fit_order(ns, errs) -> float:
    """Slope of -log err against log N, ignoring zero errors; at least two errors must be nonzero."""
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    mask = errs > 0
    slope = np.polyfit(np.log(ns[mask]), np.log(errs[mask]), 1)[0]
    return float(-slope)


def gap_orders(gaps) -> list:
    """log2 of each ratio of consecutive refinement gaps; a pair with a zero gap has no order and is skipped."""
    return [math.log2(a / b) for a, b in zip(gaps[:-1], gaps[1:]) if a > 0 and b > 0]


@_timed
def run_convergence(cfg: dict | None = None) -> Report:
    """dt-refinement of the lattice value plus Monte-Carlo versus lattice gaps."""
    cfg = cfg or default_convergence_config()
    _check_keys("convergence", cfg, default_convergence_config(), "mc")
    model = model_from_config(cfg["model"])
    horizon = config_value(cfg, "T", float, 1.0)
    g = generator_from_config(cfg["generator"])
    xi = make_terminal(cfg["terminal"])
    steps_list = config_value(cfg, "steps_list", [int])
    if not steps_list:
        raise ConfigError("convergence needs at least one step count in 'steps_list'")
    if any(a >= b for a, b in zip(steps_list[:-1], steps_list[1:])):
        raise ConfigError(f"steps_list must be strictly increasing, got {steps_list}")

    case = Case(name="dt_refinement")
    y0s = []
    for n in steps_list:
        tree = build_tree(model, TimeGrid(horizon=horizon, steps=n))
        y0s.append(solve_backward(tree, g, xi).y0)
    gaps = [abs(a - b) for a, b in zip(y0s[:-1], y0s[1:])]
    case.data.update({"steps": steps_list, "y0": y0s, "gaps": gaps})
    reference = config_value(cfg, "reference", float, None)
    if reference is not None:
        errs = [abs(y - reference) for y in y0s]
        case.data.update({"reference": reference, "errors": errs})
        target = config_value(cfg, "order_target", float, 1.0)
        tol = config_value(cfg, "order_tol", float, 0.3)
        if sum(e > 0 for e in errs) < 2:
            case.unmet("fewer than two nonzero errors against 'reference': no order can be fitted")
        else:
            order = fit_order(steps_list, errs)
            case.data["fitted_order"] = order
            case.assert_leq("order_within_band", abs(order - target), tol)
    else:
        case.data["fitted_order_from_gaps"] = gap_orders(gaps)
        case.unmet("no 'reference': refinement gaps are reported, not checked")
    cases = [case]

    mc_cfg = cfg.get("mc")
    if mc_cfg:
        mc_case = Case(name="mc_vs_lattice")
        mc_model = model_from_config(mc_cfg["model"])
        mc_grid = TimeGrid(horizon=horizon, steps=config_value(mc_cfg, "steps", int))
        mc_g = generator_from_config(mc_cfg["generator"])
        mc_xi = make_terminal(mc_cfg["terminal"])
        tree = build_tree(mc_model, mc_grid)
        y0_tree = solve_backward(tree, mc_g, mc_xi).y0
        est = bootstrap_y0(
            mc_model, mc_grid, mc_g, mc_xi,
            paths=config_value(mc_cfg, "paths", int),
            basis=basis_from_config(mc_cfg),
            seed=config_value(mc_cfg, "seed", int, 0),
        )
        mc_case.data.update({"y0_tree": y0_tree, "y0_mc": est.y0, "se": est.se})
        mc_case.assert_leq("mc_gap_within_3se", abs(est.y0 - y0_tree), 3.0 * est.se)
        cases.append(mc_case)
    return Report("convergence", cfg, cases)
