import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpbsde import (
    GeneratorSpec,
    LevyModel,
    TimeGrid,
    build_tree,
    constant_coeff,
    jump_ordering_violator,
    l2_distance,
    linear_driver,
    linear_y,
    shift_generator,
    solve_backward,
    stability_bound,
    tanh_jump_integral,
    zero_generator,
)
from jumpbsde.config import ConfigError
from jumpbsde.experiments import (
    default_apriori_config,
    default_comparison_config,
    default_comparison_pairs,
    default_convergence_config,
    default_counterexample_config,
    default_truncation_config,
    gap_orders,
    measure_beta2_budget,
    measure_ck,
    max_ordering_violation,
    measure_e_if2,
    run_apriori_check,
    run_comparison,
    run_convergence,
    run_counterexample,
    run_truncation_study,
    stability_inputs,
)
from jumpbsde.terminals import make_terminal


def small_comparison_config(pairs):
    return {"refine": True, "pairs": pairs}


def test_equal_pair_gives_identical_solutions():
    pair = {
        "name": "equal",
        "model": {"drift": 0.0, "sigma": 1.0, "marks": [{"x": 0.5, "lambda": 0.6}]},
        "steps": 3,
        "generator": {"name": "linear_driver", "a": 0.2, "b": 0.1, "c": -0.5},
        "generator_prime": {"name": "linear_driver", "a": 0.2, "b": 0.1, "c": -0.5},
        "terminal": "tanh_x",
        "terminal_prime": "tanh_x",
    }
    report = run_comparison(small_comparison_config([pair]))
    case = report.cases[0]
    assert case.status == "pass"
    assert case.data["max_violation"] == 0.0  # same fixed points bit for bit


def test_boundary_shift_pair_gap_is_horizon():
    # driver gap of one with y-free drivers: the value gap integrates to T
    pair = [p for p in default_comparison_pairs() if p["name"] == "jump_boundary_shift"][0]
    report = run_comparison(small_comparison_config([pair]))
    case = report.cases[0]
    assert case.status == "pass"
    assert case.data["y0_prime"] - case.data["y0"] == pytest.approx(1.0, abs=1e-10)


def test_unordered_drivers_mark_preconditions_unmet():
    pair = {
        "name": "unordered",
        "model": {"drift": 0.0, "sigma": 1.0, "marks": []},
        "steps": 2,
        "generator": {"name": "linear_y", "k": 1.0},
        "generator_prime": "zero",
        "terminal": "x",
        "terminal_prime": "x",
    }
    report = run_comparison(small_comparison_config([pair]))
    case = report.cases[0]
    assert case.status == "preconditions-unmet"
    assert not case.verdicts  # no ordering verdict was asserted
    assert not report.passed


def test_unordered_terminals_mark_preconditions_unmet():
    pair = {
        "name": "bad_terminals",
        "model": {"drift": 0.0, "sigma": 1.0, "marks": []},
        "steps": 2,
        "generator": "zero",
        "generator_prime": "zero",
        "terminal": {"name": "x", "shift": 1.0},
        "terminal_prime": "x",
    }
    report = run_comparison(small_comparison_config([pair]))
    assert report.cases[0].status == "preconditions-unmet"


def test_pair_outside_the_discrete_margin_marks_preconditions_unmet():
    # linear_driver(0, 0.5, -1) passes every continuous-time precondition, but on a jump branch with
    # dW = -sqrt(dt) its one-step weight 1 + c + b dW is -0.25, and the solutions are not ordered
    pair = {
        "name": "outside_the_discrete_margin",
        "model": {"drift": 0.0, "sigma": 1.0, "marks": [{"x": 0.5, "lambda": 0.8}]},
        "steps": 4,
        "generator": {"name": "linear_driver", "a": 0.0, "b": 0.5, "c": -1.0},
        "generator_prime": {"name": "linear_driver", "a": 0.0, "b": 0.5, "c": -1.0},
        "terminal": make_terminal({"name": "const", "value": 0.0}),
        "terminal_prime": lambda ctx: (ctx.counts[:, 0] >= 1) * np.maximum(-ctx.w, 0.0),
    }
    report = run_comparison(small_comparison_config([pair]))
    case = report.cases[0]
    assert case.status == "preconditions-unmet" and not case.verdicts
    assert case.data["unmet_reasons"] == ["neither driver keeps every branch weight of the tree's implicit step "
                                          "nonnegative"]
    assert case.witnesses[0]["rhs"] == pytest.approx(-0.25, abs=1e-12)
    assert report.meta["checks"]["calls"] == 5  # ordering, two jump-ordering and two branch-weight checks


def test_default_comparison_suite_has_enough_pairs():
    assert len(default_comparison_pairs()) >= 10


def test_counterexample_default_instance():
    report = run_counterexample()
    main, boundary = report.cases
    assert main.status == "pass"
    assert main.data["max_margin"] > 100 * 1e-12
    assert main.witnesses, "a violating node must be reported"
    assert boundary.status == "pass"
    assert boundary.data["max_violation"] <= 1e-11


def test_counterexample_equal_terminals_find_nothing():
    cfg = default_counterexample_config()
    cfg["terminal_prime"] = cfg["terminal"]
    report = run_counterexample(cfg)
    main = report.cases[0]
    assert main.data["max_margin"] == 0.0
    assert main.status == "fail"  # no violation found is recorded, not asserted away
    assert not report.passed


def test_counterexample_search_contains_shipped_instance():
    # the scan that default_counterexample_config's instance was frozen from
    g, xi = jump_ordering_violator(), make_terminal({"name": "const", "value": 0.0})
    xi_prime = make_terminal({"name": "jump_indicator", "mark": 0})
    margins = {}
    for lam in (0.5, 1.0, 2.0):
        for steps in (s for s in (1, 2, 4, 8) if lam / s < 1.0):
            tree = build_tree(LevyModel(0.0, 0.0, ((1.0, lam),)), TimeGrid(1.0, steps))
            margins[lam, steps] = max_ordering_violation(*(solve_backward(tree, g, t) for t in (xi, xi_prime)))
    shipped = default_counterexample_config()
    assert (shipped["model"]["marks"], shipped["grid"]) == ([{"x": 1.0, "lambda": 1.0}], {"T": 1.0, "steps": 4})
    assert len(margins) == 9 and min(margins.values()) > 0.0 and margins[1.0, 4] > 1.0


def test_truncation_study_default_and_small_mark_free_data():
    report = run_truncation_study()
    assert report.passed
    rows = report.cases[0].data["levels"]
    assert rows[-1]["dY"] == 0.0 and rows[-1]["dU"] == 0.0
    assert rows[0]["dY"] >= rows[1]["dY"] >= rows[2]["dY"]

    cfg = default_truncation_config()
    cfg["terminal"] = {"name": "jump_indicator", "mark": 1}  # kept mark only
    cfg["generator"] = "zero"
    cfg["levels"] = [3, 4, 100]
    report2 = run_truncation_study(cfg)
    assert report2.passed
    assert all(r["dY"] == 0.0 and r["dZ"] == 0.0 for r in report2.cases[0].data["levels"])


def test_truncation_study_preconditions():
    cfg = default_truncation_config()
    cfg["levels"] = [1, 2]  # the finest level still removes the 0.05 mark
    report = run_truncation_study(cfg)
    assert report.cases[0].status == "preconditions-unmet"


def test_apriori_default_sweep():
    report = run_apriori_check()
    assert report.passed
    for case in report.cases:
        sup_v = [v for v in case.verdicts if v.name == "sup_Y_dominated"][0]
        assert sup_v.lhs <= sup_v.rhs


def test_apriori_flags_wrong_declared_coefficients():
    bad = GeneratorSpec(
        name="underdeclared",
        eval=lambda ctx, t, y, z, u: 3.0 * np.asarray(y, dtype=float),
        K1=constant_coeff(1.0),
        alpha=lambda t: 3.0,
    )
    cfg = {
        "model": {"drift": 0.0, "sigma": 1.0, "marks": []},
        "grid": {"T": 1.0, "steps": 3},
        "instances": [{"generator": bad, "terminal": "x"}],
    }
    report = run_apriori_check(cfg)
    assert report.cases[0].status == "preconditions-unmet"


def test_convergence_default_order_and_mc_agreement():
    report = run_convergence()
    ref, mc = report.cases
    assert ref.status == "pass"
    assert abs(ref.data["fitted_order"] - 1.0) <= 0.3
    assert mc.status == "pass"
    assert abs(mc.data["y0_mc"] - mc.data["y0_tree"]) <= 3 * mc.data["se"]


def test_convergence_zero_driver_gaps_vanish():
    cfg = {
        "model": {"drift": 0.3, "sigma": 1.0, "marks": []},
        "T": 1.0,
        "steps_list": [4, 8, 16],
        "generator": "zero",
        "terminal": "x",
        "reference": None,
        "mc": None,
    }
    report = run_convergence(cfg)
    case = report.cases[0]
    assert all(g <= 1e-13 for g in case.data["gaps"])
    # with no reference nothing is asserted, so the run does not pass
    assert case.status == "preconditions-unmet" and case.verdicts == []
    assert case.data["unmet_reasons"] == ["no 'reference': refinement gaps are reported, not checked"]


def test_convergence_rejects_steps_that_do_not_increase():
    cfg = {"model": {"drift": 0.3, "sigma": 1.0, "marks": []}, "T": 1.0, "steps_list": [4, 4, 8],
           "generator": "zero", "terminal": "x", "reference": None, "mc": None}
    with pytest.raises(ConfigError, match=r"steps_list must be strictly increasing, got \[4, 4, 8\]"):
        run_convergence(cfg)


def test_gap_orders_skip_zero_gaps():
    # a zero gap next to a positive one has no order (log2 of 0 or of infinity)
    assert gap_orders([0.0, 0.1, 0.05, 0.0, 0.0]) == [1.0]
    assert gap_orders([0.4, 0.1]) == [2.0]
    assert gap_orders([0.1]) == [] and gap_orders([]) == []


def test_reports_are_reproducible_modulo_meta():
    r1 = run_counterexample()
    r2 = run_counterexample()
    d1, d2 = r1.to_dict(), r2.to_dict()
    assert "timestamp" in d1["meta"] and "runtime_seconds" in d1["meta"]
    d1.pop("meta"), d2.pop("meta")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_report_verdicts_carry_measured_sides():
    report = run_truncation_study()
    payload = json.loads(report.to_json())
    for case in payload["cases"]:
        for verdict in case["verdicts"]:
            assert "lhs" in verdict and "rhs" in verdict


def test_stability_bound_dominates_measured_gaps():
    model = LevyModel(0.1, 1.0, ((0.5, 0.5), (-0.3, 0.4)))
    tree = build_tree(model, TimeGrid(1.0, 4))
    g = linear_driver(0.3, 0.2, -0.5)
    g_prime = shift_generator(linear_driver(0.3, 0.2, -0.5), 0.4)
    xi = make_terminal({"name": "tanh_x", "scale": 0.5})
    xi_prime = make_terminal({"name": "tanh_x", "shift": 0.3})
    sol = solve_backward(tree, g, xi)
    sol_prime = solve_backward(tree, g_prime, xi_prime)
    inputs = stability_inputs(tree, sol, sol_prime, g, g_prime)
    bound = stability_bound(inputs["a"], inputs["b"], inputs["delta"], g_prime.rho)
    d = l2_distance(sol, sol_prime)
    sup_gap = max(
        tree.expectation((ya - yb) ** 2, lvl) for lvl, (ya, yb) in enumerate(zip(sol.Y, sol_prime.Y))
    )
    assert sup_gap + d.dZ + d.dU <= bound
    assert d.total() <= bound  # horizon is 1 here, so the integral version holds too


# ---------------------------------------------------------------------------
# Markov measurements on the count lattice against product-tree path sums
# ---------------------------------------------------------------------------


def pathwise_time_sum(tree, coeff):
    """Reference: per-leaf left-endpoint sums sum_i dt * c(ctx_i, t_i) along every product-tree path."""
    run = np.zeros(1)
    for i in range(tree.n_steps):
        c = np.asarray(coeff(tree.context(i), float(tree.grid.times[i])), dtype=float)
        run = np.repeat(run + tree.grid.dt * np.broadcast_to(c, (tree.level_size(i),)), tree.branching)
    return run


def product_stability_delta(tree, sol, sol_prime, g, g_prime):
    """Reference: (delta, E|terminal gap|^2) of stability_inputs from per-node values."""
    e_dxi2 = tree.expectation((sol.Y[-1] - sol_prime.Y[-1]) ** 2, tree.n_steps)
    cross = 0.0
    for i in range(tree.n_steps):
        ctx, t, args = tree.context(i), float(tree.grid.times[i]), (sol.Y[i], sol.Z[i], sol.U[i])
        df = np.abs(np.asarray(g.eval(ctx, t, *args), dtype=float) - np.asarray(g_prime.eval(ctx, t, *args), dtype=float))
        cross += tree.expectation(np.abs(sol.Y[i] - sol_prime.Y[i]) * df, i) * tree.grid.dt
    return e_dxi2 + 2.0 * cross, e_dxi2


# F, K1, K2 and beta vary with the state, the Brownian value, the jump counts and time
STATE_COEFFS = GeneratorSpec(
    name="state_coefficients",
    eval=lambda ctx, t, y, z, u: 0.2 * np.sin(ctx.x + t) + 0.1 * np.cos(ctx.w) - 0.3 * np.asarray(y, dtype=float),
    F=lambda ctx, t: 0.2 + 0.1 * np.abs(np.cos(ctx.w)) + np.abs(np.sin(ctx.x + t)),
    K1=lambda ctx, t: 0.3 + 0.1 * np.tanh(ctx.x) ** 2 + 0.05 * t,
    K2=lambda ctx, t: 0.1 * np.abs(ctx.w) + ctx.counts.sum(axis=1) + t,
    beta=lambda ctx, t: np.sin(ctx.x) * ctx.w - t,
)
MEASURE_DRIVERS = [zero_generator(), linear_y(0.8), linear_driver(0.3, 0.2, -0.5), tanh_jump_integral(),
                   jump_ordering_violator(), shift_generator(linear_driver(0.3, 0.2, -0.5), 0.4), STATE_COEFFS,
                   shift_generator(STATE_COEFFS, -0.7)]
MEASURE_TERMINALS = ["x", "tanh_x", {"name": "tanh_x", "shift": 0.3}, {"name": "clip_x", "lo": -0.3, "hi": 0.4}]


@st.composite
def measured_trees(draw):
    """sigma in {0, 1}, 0-2 marks with lambda dt < 1, 1-6 steps, two drivers and two terminals."""
    steps = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.sampled_from([0.5, -0.3, 1.5]), max_size=2, unique=True))
    marks = tuple((x, draw(st.floats(0.05, 0.95)) * steps) for x in sizes)
    tree = build_tree(LevyModel(draw(st.floats(-0.5, 0.5)), draw(st.sampled_from([0.0, 1.0])), marks),
                      TimeGrid(1.0, steps))
    drivers = [draw(st.sampled_from(MEASURE_DRIVERS)) for _ in range(2)]
    return tree, drivers, [make_terminal(draw(st.sampled_from(MEASURE_TERMINALS))) for _ in range(2)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(measured_trees())
def test_lattice_measures_match_product_path_sums(problem):
    tree, (g, g_prime), (xi, xi_prime) = problem
    for h in (g, g_prime):
        ck = pathwise_time_sum(tree, lambda ctx, t: h.K1(ctx, t) + np.asarray(h.K2(ctx, t)) ** 2).max()
        assert measure_ck(tree, h) == ck
        assert measure_beta2_budget(tree, h) == pathwise_time_sum(tree, lambda ctx, t: np.asarray(h.beta(ctx, t)) ** 2).max()
        i_f = pathwise_time_sum(tree, h.F)
        assert measure_e_if2(tree, h) == pytest.approx((i_f * i_f) @ tree.node_prob[tree.n_steps], rel=1e-12, abs=0.0)
    sol, sol_prime = solve_backward(tree, g, xi), solve_backward(tree, g_prime, xi_prime)
    inputs = stability_inputs(tree, sol, sol_prime, g, g_prime)
    delta, e_dxi2 = product_stability_delta(tree, sol, sol_prime, g, g_prime)
    assert inputs["delta"] == pytest.approx(delta, rel=1e-12, abs=0.0)
    assert inputs["e_dxi2"] == pytest.approx(e_dxi2, rel=1e-12, abs=0.0)
    assert inputs["b"] == measure_beta2_budget(tree, g_prime)


def test_markov_measurements_leave_the_product_index_unenumerated():
    tree = build_tree(LevyModel(0.1, 1.0, ((0.5, 0.5), (-0.3, 0.4))), TimeGrid(1.0, 4))
    g, g_prime = STATE_COEFFS, shift_generator(linear_driver(0.3, 0.2, -0.5), 0.4)
    sol, sol_prime = solve_backward(tree, g, make_terminal("x")), solve_backward(tree, g_prime, make_terminal("tanh_x"))
    measure_ck(tree, g), measure_beta2_budget(tree, g), measure_e_if2(tree, g)
    stability_inputs(tree, sol, sol_prime, g, g_prime)
    assert len(tree.index._levels) == 1  # the root alone: no product level was enumerated
    tree.states[2]
    assert len(tree.index._levels) == 2  # a per-node read enumerates the levels up to its parents'


# Catalog specs are copied whole by config.resolve_spec, which rejects unknown parameters itself.
SPEC_KEYS = {"generator", "generator_prime", "boundary_generator", "terminal", "terminal_prime"}


class ReadRecorder(dict):
    """A config object that records each key looked up in it by [], get or in, with every
    nested object but the catalog specs wrapped the same; log maps its path to (held, read)."""

    def __init__(self, data: dict, path: str, log: dict):
        super().__init__({k: v if k in SPEC_KEYS else record_reads(v, f"{path}.{k}", log) for k, v in data.items()})
        self.read = set()
        log[path] = (set(data), self.read)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def record_reads(value, path: str, log: dict):
    if isinstance(value, dict):
        return ReadRecorder(value, path, log)
    if isinstance(value, list):
        return [record_reads(v, f"{path}[{i}]", log) for i, v in enumerate(value)]
    return value


@pytest.mark.parametrize("runner, default", [
    (run_comparison, default_comparison_config),
    (run_counterexample, default_counterexample_config),
    (run_truncation_study, default_truncation_config),
    (run_apriori_check, default_apriori_config),
    (run_convergence, default_convergence_config),
], ids=["comparison", "counterexample", "truncation", "apriori", "convergence"])
def test_runner_reads_exactly_the_keys_its_default_holds(runner, default):
    """Every key a default config holds is read, and no key it lacks is looked up: a setting
    that no default sets has no place in the runner, and a key no runner reads none in the default."""
    log = {}
    runner(record_reads(default(), "cfg", log))
    assert len(log) > 2
    unmatched = {path: {"unread": sorted(held - read), "absent": sorted(read - held)}
                 for path, (held, read) in log.items() if held != read}
    assert unmatched == {}
