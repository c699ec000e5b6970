"""The four benchmark workloads: inputs made from a seed, operations, checks.

Every workload is a closed loop from one client: the benchmark starts the
next operation only when the previous one has returned and been checked.
One pass runs every operation of the workload once, in a fixed order.

An operation returns (work units, problems). Problems are correctness
failures found by the benchmark's own checks against the tree oracle, a
closed form or a self-consistency identity; they are never read from
`Report.passed` or CLI exit codes. An operation that raises is counted as
failed by the runner and the pass goes on.

The modules are driven only through their public functions. Each public
call is wrapped in a span named `<module>.<function>`, or `<module>.<group>`
for related calls (`generators.checks`, `tree.solution_norms`,
`experiments.measures`), so that the traced run can attribute time, counts
and memory to the layers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import jumpbsde as jb
from jumpbsde.config import generator_from_config, model_from_config, resolve_model_grid
from jumpbsde.experiments import (
    default_apriori_config,
    default_comparison_pairs,
    default_counterexample_config,
    default_mc_suite,
    max_ordering_violation,
    measure_ck,
    measure_e_if2,
)
from jumpbsde.tree import DEFAULT_FP_TOL, DEFAULT_NODE_CAP

MB = 1024.0 * 1024.0

# ---------------------------------------------------------------------------
# Workload table: why each workload exists and what it exercises
# ---------------------------------------------------------------------------

# "reference" is the kind of reference sample the runner times beside the
# workload's operations to report them at a fixed machine speed (speed.py).
WORKLOADS = {
    "lsmc_oracle": {
        "why": (
            "Acceptance-criterion-8 traffic: per instance the tree oracle, then simulate_paths, solve_mc and "
            "bootstrap_y0, checked |Y0_mc - Y0_tree| <= 3 se. Simulation and the regression/bootstrap do "
            "nearly all the work. The lambda*dt = 0.4 instance keeps the known U bias visible."
        ),
        "loop": "closed loop, 1 client, 1 process",
        "reference": "python",
        "work_unit": "path-steps (simulations plus backward passes, bootstrap replicates included)",
        "exercises": ["block RNG streams (levy)", "batched bootstrap (mc)", "LSMC jump-coefficient fix (mc)"],
        "bypasses": ["recombining lattice (tree oracle is a small share)", "Bihari inversion"],
    },
    "tree_markov": {
        "why": (
            "Comparison pair suite with dt-halving refinement near the 2M-node cap, Y0 dt-refinement on jump "
            "models up to the cap, and the shipped counterexample. Every node value is a function of the "
            "up-sign and jump counts, so a recombining lattice applies to all of it."
        ),
        "loop": "closed loop, 1 client, 1 process",
        "reference": "python",
        "work_unit": "tree nodes solved",
        "exercises": ["one backward kernel and recombining lattice (tree)", "vectorised condition checks (generators)"],
        "bypasses": ["LSMC simulation and bootstrap", "coarse projection", "Bihari inversion"],
    },
    "tree_pathwise": {
        "why": (
            "Truncation study on a wide 1.12M-node tree with direct project_coarse calls, and the a-priori "
            "check over the driver catalog. These quantities are path dependent and stay on the product "
            "tree, so lattice or LSMC changes should not move this workload."
        ),
        "loop": "closed loop, 1 client, 1 process",
        "reference": "python",
        "work_unit": "tree nodes solved or projected",
        "exercises": ["coarse projection and truncated solve (tree)", "tree storage without per-level wpaths/counts"],
        "bypasses": ["recombining lattice (path-dependent data)", "LSMC simulation and bootstrap", "Bihari inversion"],
    },
    "bihari_grid": {
        "why": (
            "bihari_bound over the rho catalog x c x piecewise-constant K tables x windows. The Bihari layer "
            "is scalar quadrature and bracketing that no array workload touches."
        ),
        "loop": "closed loop, 1 client, 1 process",
        "reference": "python+quad",
        "work_unit": "bounds computed",
        "exercises": ["Bihari transform and inversion (bounds)"],
        "bypasses": ["every array layer: levy, mc, tree, generators"],
    },
}

# ---------------------------------------------------------------------------
# Sizes (fixed; the seed changes values, never sizes)
# ---------------------------------------------------------------------------

FP_TOL = DEFAULT_FP_TOL
COMPARISON_TOL = 10.0 * FP_TOL

# LSMC: 24 replicates as in the acceptance gate; the path count is scaled
# down from the gate's 100,000 so a pass over all eight instances takes a
# few seconds on a 2-core box (per-path costs are unchanged).
LSMC_PATHS = 4000
LSMC_BOOT = 24
LSMC_DEGREE = 3

# lambda*dt = 0.4: the LSMC jump coefficient divides by the Bernoulli
# variance while the paths carry Poisson counts, so U is inflated by
# 1/(1 - lambda*dt) (ROADMAP item 2). Expected to fail its check until fixed.
JUMP_HEAVY = {
    "name": "jump_heavy_ldt04",
    "model": {"drift": 0.0, "sigma": 1.0, "marks": [{"x": 0.5, "lambda": 4.0}]},
    "steps": 10,
    "generator": {"name": "linear_driver", "a": 0.15, "b": 0.2, "c": -0.5},
    "terminal": "x",
}
KNOWN_DEFECTS = {"jump_heavy_ldt04": "ROADMAP item 2: LSMC U normalisation uses the Bernoulli variance"}

# Y0 dt-refinement on jump models, up to the node cap; affine terminal and
# linear driver, so every node value has a closed form.
REFINEMENT_SERIES = [
    {"name": "refine_bm_jump", "model": {"drift": 0.1, "sigma": 1.0, "marks": [{"x": 0.5, "lambda": 0.8}]},
     "steps": [2, 4, 6, 8, 10], "driver": {"a": 0.5, "b": 0.3, "c": -0.5}},
    {"name": "refine_pure_jump", "model": {"drift": 0.1, "sigma": 0.0, "marks": [{"x": 1.5, "lambda": 0.6}]},
     "steps": [3, 7, 11, 15, 19], "driver": {"a": 0.4, "b": 0.0, "c": 0.5}},
]

WIDE_MODEL = {"drift": 0.1, "sigma": 1.0,
              "marks": [{"x": 0.05, "lambda": 2.0}, {"x": 0.5, "lambda": 0.8}, {"x": -0.2, "lambda": 1.0}]}
WIDE_STEPS = 5
WIDE_LEVELS = [1, 3, 5, 20]  # removes all marks, keeps 0.5, keeps 0.5 and -0.2, keeps all
WIDE_K = 0.5
APRIORI_STEPS = 6

BIHARI_C = 10
BIHARI_RATES = 10
BIHARI_SPAN = 2.0
BIHARI_IDENTITY_RTOL = 1e-8
BIHARI_TRANSFORM_TOL = 1e-8


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _rng(seed: int, tag: str) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed), key]))


def _seed_int(seed: int, tag: str) -> int:
    return int(_rng(seed, tag).integers(0, 2**31 - 1))


def tree_nodes(branching: int, steps: int) -> int:
    return sum(branching**i for i in range(steps + 1))


def model_branching(model_cfg: dict) -> int:
    return (2 if float(model_cfg.get("sigma", 0.0)) > 0 else 1) * 2 ** len(model_cfg.get("marks", []))


def max_base_steps_for_refinement(model_cfg: dict, cap: int = DEFAULT_NODE_CAP) -> int:
    """Largest base step count whose dt-halved (doubled-step) tree fits under the cap."""
    b = model_branching(model_cfg)
    n = 1
    while tree_nodes(b, 2 * (n + 1)) <= cap:
        n += 1
    return n


def affine_closed_form(model: jb.LevyModel, horizon: float, steps: int, a: float, b: float, c) -> tuple:
    """Tree solution for terminal x and driver a*y + b*z + sum_j c_j lambda_j u_j.

    Y_i = alpha_i X_i + beta_i on every node: Z = alpha_{i+1} sigma, U_j = alpha_{i+1} x_j,
    and the implicit step gives alpha_i = alpha_{i+1} q, beta_i = (beta_{i+1} +
    alpha_{i+1} dt kappa) q with q = 1/(1 - a dt), kappa = m + b sigma + sum c lambda x,
    m the mean drift of the state (small marks are compensated).
    """
    dt = horizon / steps
    sizes, lam, small = model.jump_sizes, model.intensities, model.small_mask
    cs = np.broadcast_to(np.asarray(c, dtype=float), lam.shape) if lam.size else np.zeros(0)
    m = model.drift + float((sizes[~small] * lam[~small]).sum()) if lam.size else model.drift
    kappa = m + b * model.sigma + (float((cs * lam * sizes).sum()) if lam.size else 0.0)
    q = 1.0 / (1.0 - a * dt)
    alpha = [0.0] * (steps + 1)
    beta = [0.0] * (steps + 1)
    alpha[steps] = 1.0
    for i in range(steps - 1, -1, -1):
        alpha[i] = alpha[i + 1] * q
        beta[i] = (beta[i + 1] + alpha[i + 1] * dt * kappa) * q
    limit = kappa * (math.expm1(a * horizon) / a if a else horizon)
    return alpha, beta, limit


def _affine_error(tree: jb.ScenarioTree, sol: jb.TreeSolution, alpha, beta) -> float:
    return max(float(np.max(np.abs(y - (alpha[i] * tree.states[i] + beta[i])))) for i, y in enumerate(sol.Y))


def _tree_array_mb(tree: jb.ScenarioTree) -> float:
    """Bytes of the tree's public per-level arrays (computed, not measured)."""
    total = sum(a.nbytes for arrs in (tree.states, tree.wpaths, tree.counts, tree.node_prob) for a in arrs)
    total += tree.dw_branch.nbytes + tree.dn_branch.nbytes + tree.branch_prob.nbytes
    return total / MB


def _build_tree(tr, model, grid):
    with tr.span("tree.build_tree"):
        tree = jb.build_tree(model, grid)
    if tr.enabled:
        tr.count("tree.nodes", tree_nodes(tree.branching, tree.n_steps))
        tr.gauge_max("tree.array_mb", _tree_array_mb(tree))
    return tree


def _count_solution(tr, tree, sol) -> None:
    if tr.enabled:
        tr.count("tree.fp_iterations", sum(sol.fp_iterations))
        tr.count("tree.node_updates", sum(tree.level_size(i) * it for i, it in enumerate(sol.fp_iterations)))


def _solve_backward(tr, tree, g, xi):
    with tr.span("tree.solve_backward"):
        sol = jb.solve_backward(tree, g, xi, tol=FP_TOL)
    _count_solution(tr, tree, sol)
    return sol


def _check(tr, fn, *args):
    with tr.span("generators.checks"):
        report = fn(*args)
    tr.count("generators.check_points", report.n_points)
    return report


def _project(tr, tree, values, n, level):
    with tr.span("tree.project_coarse"):
        return jb.project_coarse(tree, values, n, level=level)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class Problems(list):
    """Failed checks of one operation, as (kind, message) pairs.

    "exact" checks (closed forms, identities, bitwise properties) fail only on
    wrong output. The "statistical" 3-se gate of LSMC against the oracle is
    counted only when an independent set of paths repeats the miss (see
    _lsmc_op), so on correct output it fails about once in 4,000 operations.
    """

    def exact(self, msg: str) -> None:
        self.append(("exact", msg))

    def statistical(self, msg: str) -> None:
        self.append(("statistical", msg))


@dataclass
class Operation:
    name: str
    run: Callable  # run(tracer, pass_state) -> (work, problems)
    known_defect: str | None = None


@dataclass
class Workload:
    inputs: dict
    operations: list


def _lsmc_op(inst: dict, seed: int, confirm_seed: int) -> Operation:
    """One LSMC-vs-oracle instance; `confirm_seed` draws the paths that confirm a miss.

    With 24 bootstrap replicates the se is itself an estimate, and on correct
    instances one estimate in 60 or so misses the 3-se gate (measured over
    the default suite and 35 seeds at 4,000 paths). A miss is therefore
    re-tested on independent paths and fails the operation only when that
    estimate misses too. A real bias such as jump_heavy_ldt04's (about 10 se)
    misses both; a chance miss rarely repeats, so the failed count of a run
    does not depend on which seeds happen to draw one.
    """

    def run(tr, state):
        model = model_from_config(inst["model"])
        grid = jb.TimeGrid(1.0, int(inst["steps"]))
        g = generator_from_config(inst["generator"])
        xi = jb.make_terminal(inst["terminal"])
        basis = jb.RegressionBasis(degree=LSMC_DEGREE)
        tree = _build_tree(tr, model, grid)
        oracle = _solve_backward(tr, tree, g, xi)
        with tr.span("levy.simulate_paths"):
            bundle = jb.simulate_paths(model, grid, LSMC_PATHS, seed)
        with tr.span("mc.solve_mc"):
            mcs = jb.solve_mc(model, grid, g, xi, LSMC_PATHS, basis=basis, seed=seed)
        with tr.span("mc.bootstrap_y0"):
            est = jb.bootstrap_y0(model, grid, g, xi, LSMC_PATHS, basis=basis, seed=seed, n_boot=LSMC_BOOT)
        steps = grid.steps
        if tr.enabled:
            tr.count("levy.path_steps", LSMC_PATHS * steps)
            tr.count("mc.bootstrap.passes", LSMC_BOOT + 1)
            # _fit starts at the basis degree and drops one degree per rank-deficient
            # attempt; a degenerate state column is fitted once with the constant basis.
            spread = bundle.states().std(axis=0)
            attempts = sum(1 if spread[i] == 0.0 else LSMC_DEGREE - d + 1 for i, d in enumerate(mcs.degrees_used))
            tr.count("mc.fit_steps", steps)
            tr.count("mc.fit_attempts", attempts)
        problems = Problems()
        if bundle.dw.shape != (LSMC_PATHS, steps) or not np.isfinite(bundle.dw).all() or (bundle.dn < 0).any():
            problems.exact("simulate_paths returned malformed increments")
        if abs(mcs.y0 - est.y0) > 1e-12 * (1.0 + abs(est.y0)):
            problems.exact(f"solve_mc y0 {mcs.y0!r} differs from bootstrap base y0 {est.y0!r} on the same paths")
        work = LSMC_PATHS * steps * (3 + 1 + 1 + LSMC_BOOT)
        gap = abs(est.y0 - oracle.y0)
        if not gap <= 3.0 * est.se:
            with tr.span("mc.bootstrap_y0"):
                again = jb.bootstrap_y0(model, grid, g, xi, LSMC_PATHS, basis=basis, seed=confirm_seed,
                                        n_boot=LSMC_BOOT)
            tr.count("mc.bootstrap.passes", LSMC_BOOT + 1)
            work += LSMC_PATHS * steps * (1 + LSMC_BOOT)
            gap2 = abs(again.y0 - oracle.y0)
            if not gap2 <= 3.0 * again.se:
                problems.statistical(f"|Y0_mc - Y0_tree| = {gap:.6g} > 3 se = {3.0 * est.se:.6g}, "
                                     f"and on independent paths {gap2:.6g} > {3.0 * again.se:.6g}")
        return work, problems

    return Operation(inst["name"], run, KNOWN_DEFECTS.get(inst["name"]))


def lsmc_oracle(seed: int) -> Workload:
    instances = default_mc_suite() + [JUMP_HEAVY]
    seeds = {inst["name"]: _seed_int(seed, "lsmc:" + inst["name"]) for inst in instances}
    confirm = {inst["name"]: _seed_int(seed, "lsmc-confirm:" + inst["name"]) for inst in instances}
    inputs = {"instances": instances, "mc_seeds": seeds, "confirm_seeds": confirm, "paths": LSMC_PATHS,
              "n_boot": LSMC_BOOT}
    ops = [_lsmc_op(inst, seeds[inst["name"]], confirm[inst["name"]]) for inst in instances]
    return Workload(inputs, ops)


def _pair_op(pair: dict, sampler: jb.SamplerConfig) -> Operation:
    def run(tr, state):
        model = model_from_config(pair["model"])
        g, gp = generator_from_config(pair["generator"]), generator_from_config(pair["generator_prime"])
        xi, xip = jb.make_terminal(pair["terminal"]), jb.make_terminal(pair["terminal_prime"])
        grid = jb.TimeGrid(1.0, int(pair["steps"]))
        tree = _build_tree(tr, model, grid)
        problems = Problems()
        if not _check(tr, jb.check_ordering, g, gp, model, sampler).passed:
            problems.exact("precondition: sampled driver ordering fails")
        leaf = tree.context(tree.n_steps)
        if float(np.max(xi(leaf) - xip(leaf))) > 1e-12:
            problems.exact("precondition: terminal ordering fails node-wise")
        if not (_check(tr, jb.check_jump_ordering, g, model, sampler).passed
                or _check(tr, jb.check_jump_ordering, gp, model, sampler).passed):
            problems.exact("precondition: neither driver passes the ordered-jump condition")
        sol, sol_p = _solve_backward(tr, tree, g, xi), _solve_backward(tr, tree, gp, xip)
        with tr.span("experiments.measures"):
            viol = max_ordering_violation(sol, sol_p)
        tree2 = _build_tree(tr, model, jb.TimeGrid(1.0, 2 * grid.steps))
        sol2, sol2_p = _solve_backward(tr, tree2, g, xi), _solve_backward(tr, tree2, gp, xip)
        with tr.span("experiments.measures"):
            viol2 = max_ordering_violation(sol2, sol2_p)
        if not viol <= COMPARISON_TOL:
            problems.exact(f"ordering violated: max(Y - Y') = {viol:.3g} > {COMPARISON_TOL:g}")
        if not viol2 <= max(viol, 0.0) + 1e-15:
            problems.exact(f"violation grew under refinement: {viol2:.3g} > {max(viol, 0.0):.3g}")
        work = 2 * tree_nodes(tree.branching, tree.n_steps) + 2 * tree_nodes(tree2.branching, tree2.n_steps)
        return work, problems

    return Operation(pair["name"], run)


def _refinement_op(series: dict) -> Operation:
    def run(tr, state):
        model = model_from_config(series["model"])
        d = series["driver"]
        g = jb.linear_driver(d["a"], d["b"], d["c"])
        xi = jb.make_terminal("x")
        problems, errors, work = Problems(), [], 0
        for n in series["steps"]:
            tree = _build_tree(tr, model, jb.TimeGrid(1.0, n))
            sol = _solve_backward(tr, tree, g, xi)
            alpha, beta, limit = affine_closed_form(model, 1.0, n, d["a"], d["b"], d["c"])
            err = _affine_error(tree, sol, alpha, beta)
            if not err <= 1e-9 * max(1.0, abs(beta[0])):
                problems.exact(f"N={n}: node values differ from the affine closed form by {err:.3g}")
            errors.append(abs(sol.y0 - limit))
            work += tree_nodes(tree.branching, n)
        for (n0, e0), (n1, e1) in zip(zip(series["steps"], errors), zip(series["steps"][1:], errors[1:])):
            if not e1 <= e0 + 1e-12:
                problems.exact(f"Y0 error grew from N={n0} ({e0:.3g}) to N={n1} ({e1:.3g})")
        return work, problems

    return Operation(series["name"], run)


def _counterexample_op(cfg: dict, sampler: jb.SamplerConfig) -> Operation:
    def run(tr, state):
        model, grid = resolve_model_grid(cfg)
        tree = _build_tree(tr, model, grid)
        g = generator_from_config(cfg["generator"])
        gb = generator_from_config(cfg["boundary_generator"])
        xi, xip = jb.make_terminal(cfg["terminal"]), jb.make_terminal(cfg["terminal_prime"])
        threshold = float(cfg["margin_factor"]) * FP_TOL
        problems = Problems()
        if _check(tr, jb.check_jump_ordering, g, model, sampler).passed:
            problems.exact("precondition: the violating driver passes the ordered-jump condition")
        if not _check(tr, jb.check_jump_ordering, gb, model, sampler).passed:
            problems.exact("precondition: the boundary driver fails the ordered-jump condition")
        sols = [_solve_backward(tr, tree, gen, term) for gen in (g, gb) for term in (xi, xip)]
        with tr.span("experiments.measures"):
            margin = max_ordering_violation(sols[0], sols[1])
            boundary = max_ordering_violation(sols[2], sols[3])
        if not margin > threshold:
            problems.exact(f"counterexample margin {margin:.3g} not above {threshold:g}")
        if not boundary <= COMPARISON_TOL:
            problems.exact(f"boundary driver violates ordering by {boundary:.3g}")
        return 4 * tree_nodes(tree.branching, tree.n_steps), problems

    return Operation("counterexample", run)


def tree_markov(seed: int) -> Workload:
    pairs = []
    for pair in default_comparison_pairs():
        pair = dict(pair)
        pair["steps"] = max_base_steps_for_refinement(pair["model"])
        pairs.append(pair)
    sampler_seed = _seed_int(seed, "tree_markov:sampler")
    sampler = jb.SamplerConfig(horizon=1.0, seed=sampler_seed)
    cx = default_counterexample_config()
    inputs = {"pairs": pairs, "refinement": REFINEMENT_SERIES, "counterexample": cx, "sampler_seed": sampler_seed}
    ops = [_pair_op(p, sampler) for p in pairs]
    ops += [_refinement_op(s) for s in REFINEMENT_SERIES]
    ops.append(_counterexample_op(cx, sampler))
    return Workload(inputs, ops)


def _wide_tree_op() -> Operation:
    def run(tr, state):
        model = model_from_config(WIDE_MODEL)
        g, xi = jb.linear_y(WIDE_K), jb.make_terminal("x")
        tree = _build_tree(tr, model, jb.TimeGrid(1.0, WIDE_STEPS))
        full = _solve_backward(tr, tree, g, xi)
        state.update(wide_tree=tree, wide_full=full, wide_g=g, wide_xi=xi, wide_prev=None)
        alpha, beta, _ = affine_closed_form(model, 1.0, WIDE_STEPS, WIDE_K, 0.0, 0.0)
        err = _affine_error(tree, full, alpha, beta)
        problems = Problems()
        if not err <= 1e-9:
            problems.exact(f"full solution differs from the affine closed form by {err:.3g}")
        return tree_nodes(tree.branching, tree.n_steps), problems

    return Operation("wide_tree_full_solve", run)


def _truncation_op(n: int, noise_seed: int, last: bool) -> Operation:
    def run(tr, state):
        tree, full = state["wide_tree"], state["wide_full"]
        leaf = tree.n_steps
        with tr.span("tree.solve_truncated"):
            sol_n = jb.solve_truncated(tree, state["wide_g"], state["wide_xi"], n, tol=FP_TOL)
        _count_solution(tr, tree, sol_n)
        with tr.span("tree.solution_norms"):
            dist = jb.l2_distance(sol_n, full)
        work = tree_nodes(tree.branching, leaf)
        problems = Problems()
        for lvl in range(1, leaf + 1):
            _project(tr, tree, full.Y[lvl], n, lvl)
            work += tree.level_size(lvl)
        noise = np.random.default_rng(noise_seed).standard_normal(tree.level_size(leaf))
        for name, v in (("full Y", full.Y[leaf]), ("seeded leaf values", noise), ("truncated Y", sol_n.Y[leaf])):
            once = _project(tr, tree, v, n, leaf)
            twice = _project(tr, tree, once, n, leaf)
            work += 2 * v.size
            if not np.array_equal(once, twice):
                problems.exact(f"project_coarse(n={n}) is not idempotent on {name}")
            if name == "truncated Y" and not np.array_equal(once, v):
                problems.exact(f"truncated solution at n={n} is not coarse-measurable")
        prev = state["wide_prev"]
        if prev is not None:
            for comp in ("dY", "dZ", "dU"):
                if not getattr(dist, comp) <= getattr(prev, comp) + 1e-15:
                    problems.exact(f"{comp} grew from the previous level to n={n}")
        state["wide_prev"] = dist
        if last and (dist.dY, dist.dZ, dist.dU) != (0.0, 0.0, 0.0):
            problems.exact(f"distance at full retention n={n} is {dist.total():.3g}, not 0")
        return work, problems

    return Operation(f"truncate_n{n}", run)


def _apriori_tree_op(cfg: dict) -> Operation:
    def run(tr, state):
        model, grid = resolve_model_grid(cfg)
        tree = _build_tree(tr, model, grid)
        state.update(apriori_tree=tree, apriori_model=model)
        return 0, Problems()

    return Operation("apriori_tree", run)


def _apriori_op(inst: dict, sampler: jb.SamplerConfig) -> Operation:
    label = f"{inst['generator'] if isinstance(inst['generator'], str) else inst['generator']['name']}|{inst['terminal']}"

    def run(tr, state):
        tree, model = state["apriori_tree"], state["apriori_model"]
        g, xi = generator_from_config(inst["generator"]), jb.make_terminal(inst["terminal"])
        problems = Problems()
        if not _check(tr, jb.check_growth, g, model, sampler).passed:
            problems.exact("precondition: declared growth coefficients fail on sampled points")
        if not _check(tr, jb.check_monotonicity, g, model, sampler).passed:
            problems.exact("precondition: declared monotonicity coefficients fail on sampled points")
        sol = _solve_backward(tr, tree, g, xi)
        with tr.span("experiments.measures"):
            ck = measure_ck(tree, g)
            e_if2 = measure_e_if2(tree, g)
        with tr.span("tree.solution_norms"):
            e_xi2 = tree.expectation(sol.Y[-1] ** 2, tree.n_steps)
            sup_y2 = sol.expected_sup_y_squared()
            z2, u2 = sol.zu_integrals()
        with tr.span("bounds.apriori_bound"):
            bound = jb.apriori_bound(ck, e_xi2, e_if2)
        if not sup_y2 <= bound.sup_Y_bound:
            problems.exact(f"E sup|Y|^2 = {sup_y2:.6g} exceeds the a-priori bound {bound.sup_Y_bound:.6g}")
        if not z2 + u2 <= bound.ZU_bound:
            problems.exact(f"Z/U integral {z2 + u2:.6g} exceeds the a-priori bound {bound.ZU_bound:.6g}")
        return tree_nodes(tree.branching, tree.n_steps), problems

    return Operation(f"apriori:{label}", run)


def tree_pathwise(seed: int) -> Workload:
    cfg = default_apriori_config()
    cfg["grid"] = dict(cfg["grid"], steps=APRIORI_STEPS)
    sampler_seed = _seed_int(seed, "tree_pathwise:sampler")
    noise_seed = _seed_int(seed, "tree_pathwise:noise")
    sampler = jb.SamplerConfig(horizon=1.0, seed=sampler_seed)
    inputs = {"wide_model": WIDE_MODEL, "wide_steps": WIDE_STEPS, "levels": WIDE_LEVELS, "apriori": cfg,
              "sampler_seed": sampler_seed, "noise_seed": noise_seed}
    ops = [_wide_tree_op()]
    ops += [_truncation_op(n, noise_seed + k, n == WIDE_LEVELS[-1]) for k, n in enumerate(WIDE_LEVELS)]
    ops.append(_apriori_tree_op(cfg))
    ops += [_apriori_op(inst, sampler) for inst in cfg["instances"]]
    return Workload(inputs, ops)


def _table_integral(times, values, t, T) -> float:
    total = 0.0
    for lo, hi, v in zip(times[:-1], times[1:], values):
        total += max(min(hi, T) - max(lo, t), 0.0) * v
    return total


def _bihari_op(rho: str, c: float, table: int, times, values, t: float, T: float) -> Operation:
    def run(tr, state):
        rate = jb.PiecewiseConstantRate(times, values)
        with tr.span("bounds.bihari_bound"):
            res = jb.bihari_bound(c, rate, rho, t, T)
        tr.count("bounds.bihari_bound.calls")
        expected_int = _table_integral(times, values, t, T)
        problems = Problems()
        if not abs(res.integral_K - expected_int) <= 1e-12 * max(1.0, expected_int):
            problems.exact(f"integral of K {res.integral_K!r} != {expected_int!r}")
        if res.status == "out-of-domain":
            tr.count("bounds.bihari.out_of_domain")
        elif res.status != "ok" or res.bound is None or not math.isfinite(res.bound):
            problems.exact(f"unexpected result {res}")
        elif rho == "identity":
            exact = c * math.exp(expected_int)
            if not abs(res.bound - exact) <= BIHARI_IDENTITY_RTOL * exact:
                problems.exact(f"identity bound {res.bound!r} != c exp(int K) = {exact!r}")
        else:
            modulus = jb.rho_catalog()[rho]
            lhs = jb.bihari_transform(res.bound, modulus) - jb.bihari_transform(c, modulus)
            if not abs(lhs - expected_int) <= BIHARI_TRANSFORM_TOL * max(1.0, expected_int):
                problems.exact(f"G(bound) - G(c) = {lhs!r} != int K = {expected_int!r}")
        return 1, problems

    return Operation(f"bihari:{rho}:c={c:.4g}:K{table}:[{t:.3g},{T:.3g}]", run)


def _strata(rng, lo: float, hi: float, count: int) -> list:
    """One uniform draw in each of `count` equal slices of [lo, hi]: the seed moves
    the values, while every run keeps one value per slice (bound cost depends on c)."""
    edges = np.linspace(lo, hi, count + 1)
    return rng.uniform(edges[:-1], edges[1:]).tolist()


def bihari_grid(seed: int) -> Workload:
    rng = _rng(seed, "bihari_grid")
    rhos = sorted(jb.rho_catalog())
    cs = np.exp(_strata(rng, math.log(0.05), math.log(5.0), BIHARI_C)).tolist()
    # The cost of a bound depends on c and on the integral of K, so both are
    # drawn one per slice; each K table gets its own window and is scaled to
    # its drawn integral, and the cost of a pass varies little between seeds.
    integrals = rng.permutation(_strata(rng, 0.05, 3.0, BIHARI_RATES))
    rates = []
    for k, t in enumerate(_strata(rng, 0.0, BIHARI_SPAN - 0.05, BIHARI_RATES)):
        pieces = 2 + k % 4
        inner = np.sort(rng.uniform(0.0, BIHARI_SPAN, size=pieces - 1))
        times = [0.0] + inner.tolist() + [BIHARI_SPAN]
        T = float(rng.uniform(t + 0.05, BIHARI_SPAN))
        values = rng.uniform(0.1, 1.0, size=pieces)
        values = (values * integrals[k] / _table_integral(times, values, t, T)).tolist()
        rates.append((times, values, t, T))
    inputs = {"rhos": rhos, "c": cs, "rates": rates}
    ops = [_bihari_op(rho, c, k, *rate) for rho in rhos for c in cs for k, rate in enumerate(rates)]
    return Workload(inputs, ops)


BUILDERS = {
    "lsmc_oracle": lsmc_oracle,
    "tree_markov": tree_markov,
    "tree_pathwise": tree_pathwise,
    "bihari_grid": bihari_grid,
}


def make_workload(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


def inputs_digest(workload: Workload) -> str:
    """Stable digest of a workload's generated inputs."""
    blob = json.dumps(workload.inputs, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()
