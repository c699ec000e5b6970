import ast
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jumpbsde
from jumpbsde import (
    FixedPointError,
    GeneratorSpec,
    LevyModel,
    ModelError,
    TimeGrid,
    TreeSizeError,
    build_tree,
    check_branch_weights,
    check_jump_ordering,
    constant_coeff,
    jump_ordering_violator,
    l2_distance,
    linear_driver,
    linear_y,
    project_coarse,
    shift_generator,
    solve_backward,
    solve_truncated,
    tanh_jump_integral,
    zero_generator,
)
from jumpbsde.experiments import _sup_time_sum, max_ordering_violation, measure_e_if2
from jumpbsde.generators import CHECK_SLACK, Affine, StepContext, branch_weight_margin, truncate_generator
from jumpbsde.levy import kept_marks_mask
from jumpbsde.terminals import make_terminal
from jumpbsde.tree import (
    DEFAULT_FP_MAX_ITER,
    DEFAULT_FP_TOL,
    _removed_count_average,
    implicit_step,
)

XI_X = make_terminal("x")
XI_TANH = make_terminal("tanh_x")
ZERO = zero_generator()


def test_binary_tree_shape_and_probabilities():
    tree = build_tree(LevyModel(0.0, 1.0), TimeGrid(1.0, 3))
    assert tree.branching == 2
    assert tree.level_size(3) == 8
    assert np.allclose(tree.node_prob[3], 1.0 / 8.0)


def test_single_mark_one_step_probabilities():
    tree = build_tree(LevyModel(0.0, 0.0, ((1.0, 0.1),)), TimeGrid(1.0, 1))
    assert tree.branching == 2
    # branch bit 1 means the mark fired
    assert np.allclose(sorted(tree.branch_prob), [0.1, 0.9])
    assert tree.branch_prob[1] == pytest.approx(0.1)


def test_two_marks_with_brownian_leaf_count():
    tree = build_tree(LevyModel(0.0, 1.0, ((0.5, 0.4), (-0.2, 0.3))), TimeGrid(1.0, 2))
    assert tree.branching == 8
    assert tree.level_size(2) == 64
    assert abs(tree.node_prob[2].sum() - 1.0) <= 1e-14


def test_tree_rejects_oversize_and_fast_marks():
    with pytest.raises(TreeSizeError):
        build_tree(LevyModel(0.0, 1.0, ((0.5, 0.1), (0.3, 0.1))), TimeGrid(1.0, 10))
    with pytest.raises(ModelError):
        build_tree(LevyModel(0.0, 0.0, ((1.0, 5.0),)), TimeGrid(1.0, 2))


def test_conditional_expectation_basics():
    # the lattice's one-step average E[. | F_i]: constants pass through, and the Brownian value and the
    # compensated count are martingales
    tree = build_tree(LevyModel(0.0, 1.0, ((0.6, 0.5),)), TimeGrid(1.0, 3))
    lat, dt = tree.lattice, tree.grid.dt
    assert np.array_equal(lat.one_step(1, np.full(lat.x[2].size, 3.25), dt)[0], np.full(lat.x[1].size, 3.25))
    assert np.allclose(lat.one_step(1, lat.w[2], dt)[0], lat.w[1], atol=1e-15)
    compensated = [lat.counts[i][:, 0] - 0.5 * dt * i for i in (1, 2)]
    assert np.allclose(lat.one_step(1, compensated[1], dt)[0], compensated[0], atol=1e-15)


def test_two_point_compensated_mean_is_exact_zero():
    # single mark, no Brownian part: p(1-p) + (1-p)(-p) cancels exactly
    tree = build_tree(LevyModel(0.0, 0.0, ((1.0, 0.7),)), TimeGrid(1.0, 2))
    terms = tree.dn_tilde_branch()[:, 0] * tree.branch_prob
    assert terms[0] == -terms[1]  # the two products cancel bit for bit


def test_tower_property():
    # two one-step averages on the lattice are the two-step average over a product node's B^2 grandchildren
    tree = build_tree(LevyModel(0.1, 1.0, ((0.5, 0.5),)), TimeGrid(1.0, 4))
    lat, dt = tree.lattice, tree.grid.dt
    values = np.random.default_rng(8).standard_normal(lat.x[3].size)
    two_hops = lat.one_step(1, lat.one_step(2, values, dt)[0], dt)[0]
    p2 = np.kron(tree.branch_prob, tree.branch_prob)
    direct = values[tree.index[3]].reshape(-1, tree.branching**2) @ p2
    assert np.allclose(two_hops[tree.index[1]], direct, atol=1e-14)


def test_brownian_martingale_solution():
    tree = build_tree(LevyModel(0.0, 1.0), TimeGrid(1.0, 5))
    sol = solve_backward(tree, ZERO, make_terminal("w"))
    for lvl in range(6):
        assert np.allclose(sol.Y[lvl], tree.wpaths[lvl], atol=1e-14)
    for z in sol.Z:
        assert np.allclose(z, 1.0, atol=1e-13)


def test_deterministic_linear_recursion():
    k, n = 1.0, 40
    tree = build_tree(LevyModel(0.0, 0.0), TimeGrid(1.0, n))
    sol = solve_backward(tree, linear_y(k), make_terminal({"name": "const", "value": 1.0}))
    assert sol.y0 == pytest.approx((1.0 - k / n) ** -n, rel=1e-10)


def test_jump_indicator_value():
    lam, n = 0.7, 6
    tree = build_tree(LevyModel(0.0, 0.0, ((1.0, lam),)), TimeGrid(1.0, n))
    sol = solve_backward(tree, ZERO, make_terminal({"name": "jump_indicator", "mark": 0}))
    assert sol.y0 == pytest.approx(1.0 - (1.0 - lam / n) ** n, abs=1e-13)


def test_zero_driver_is_exact_martingale_and_representation():
    # binary alphabets: the one-step expansion in (1, dW) or (1, dN~) is complete
    cases = [
        (LevyModel(0.0, 1.0), make_terminal("tanh_x")),
        (LevyModel(0.2, 0.0, ((0.8, 0.9),)), make_terminal({"name": "jump_indicator", "mark": 0})),
        # product alphabet with an affine terminal: no cross terms appear
        (LevyModel(0.1, 1.0, ((0.5, 0.6),)), XI_X),
    ]
    for model, xi in cases:
        tree = build_tree(model, TimeGrid(1.0, 4))
        sol = solve_backward(tree, ZERO, xi)
        for i in range(tree.n_steps):
            nxt = sol.Y[i + 1].reshape(-1, tree.branching)
            assert np.array_equal(tree.lattice.one_step(i, sol.Y.lattice[i + 1], tree.grid.dt)[0], sol.Y.lattice[i])
            pred = (
                sol.Y[i][:, None]
                + np.outer(sol.Z[i], tree.dw_branch)
                + sol.U[i] @ tree.dn_tilde_branch().T
            )
            assert np.abs(nxt - pred).max() <= 1e-12


def test_representation_residual_is_orthogonal_to_increments():
    # nonlinear terminal on a product alphabet: the residual is genuine higher
    # chaos, orthogonal to the constant, Brownian and compensated jump factors
    tree = build_tree(LevyModel(0.0, 1.0, ((0.5, 0.6),)), TimeGrid(1.0, 3))
    sol = solve_backward(tree, ZERO, make_terminal("tanh_x"))
    p = tree.branch_prob
    for i in range(tree.n_steps):
        nxt = sol.Y[i + 1].reshape(-1, tree.branching)
        resid = nxt - (
            sol.Y[i][:, None] + np.outer(sol.Z[i], tree.dw_branch) + sol.U[i] @ tree.dn_tilde_branch().T
        )
        assert np.abs(resid @ p).max() <= 1e-14
        assert np.abs(resid @ (p * tree.dw_branch)).max() <= 1e-14
        assert np.abs(resid @ (p * tree.dn_tilde_branch()[:, 0])).max() <= 1e-14


def test_one_step_identity_holds_at_solver_tolerance():
    tree = build_tree(LevyModel(0.1, 1.0, ((0.5, 0.5),)), TimeGrid(1.0, 4))
    g = linear_driver(0.6, 0.4, -0.5)
    tol = 1e-12
    sol = solve_backward(tree, g, make_terminal("tanh_x"), tol=tol)
    dt = tree.grid.dt
    for i in range(tree.n_steps):
        ey = sol.Y[i + 1].reshape(-1, tree.branching) @ tree.branch_prob
        f_val = np.asarray(g.eval(tree.context(i), tree.grid.times[i], sol.Y[i], sol.Z[i], sol.U[i]))
        assert np.abs(sol.Y[i] - ey - dt * f_val).max() <= 5 * tol


def test_fixed_point_divergence_raises():
    # y_k = 1 + 5 y_(k-1) from y_0 = 1: the k-th update moves y by 5^k, and dt * K1 = 5
    assert DEFAULT_FP_MAX_ITER == 200
    tree = build_tree(LevyModel(0.0, 0.0), TimeGrid(1.0, 1))
    five_y = GeneratorSpec(name="5y", eval=lambda ctx, t, y, z, u: 5.0 * np.asarray(y, dtype=float),
                           K1=constant_coeff(5.0))  # a plain eval, so the fixed point runs
    with pytest.raises(FixedPointError, match=r"step 0 within 200 iterations: last delta 6\.22e\+139, "
                                              r"estimated contraction dt\*K1 = 5$"):
        solve_backward(tree, five_y, make_terminal({"name": "const", "value": 1.0}))


def test_affine_step_without_a_unique_solution_raises():
    # dt = 1/2: y = 1 + 2.5 y has a root, but y - dt f(y) decreases in y; at slope 2 it is constant
    tree = build_tree(LevyModel(0.0, 1.0), TimeGrid(1.0, 2))
    with pytest.raises(FixedPointError, match=r"^implicit step has no unique solution at step 1: "
                                              r"1 - dt\*slope = -1\.5 <= 0$"):
        solve_backward(tree, linear_y(5.0), make_terminal({"name": "const", "value": 1.0}))
    with pytest.raises(FixedPointError, match=r"at step 1: 1 - dt\*slope = 0 <= 0$"):
        solve_backward(tree, linear_y(2.0), XI_X)
    assert issubclass(FixedPointError, ModelError)  # an input error: the CLI prints one line and exits 3


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_with_a_non_finite_solution_raises_on_both_paths(bad):
    # the closed form returned ([nan], 1) here; the plain-eval fixed point stops at its first nan delta
    ctx = StepContext(model=LevyModel(0.0, 1.0), x=np.zeros(2))
    z, u = np.zeros(2), np.zeros((2, 0))
    through_ey = [(g, np.array([0.5, bad]), z) for g in (linear_y(0.5), linear_driver(0.5, 0.3, 0.0), SLOPED_STATE)]
    through_offset = [(g, np.zeros(2), np.array([bad, 0.5])) for g in (linear_driver(0.5, 0.3, 0.0), SLOPED_STATE)]
    for g, ey, zz in through_ey + through_offset:
        with pytest.raises(FixedPointError, match=r"^implicit step has a non-finite solution at step 3$"):
            implicit_step(g, ctx, 0.0, 0.5, ey, zz, u, 3)
        with pytest.raises(FixedPointError, match=r"^implicit step has a non-finite solution at step 3$"):
            implicit_step(plain_copy(g), ctx, 0.0, 0.5, ey, zz, u, 3)
    tree = build_tree(LevyModel(0.0, 1.0, ((0.5, 0.8),)), TimeGrid(1.0, 3))
    nan_at_a_jump = lambda ctx: np.where(ctx.counts[:, 0] > 0, bad, 0.0)  # noqa: E731
    for solve in (solve_backward, partial(solve_truncated, n=1)):
        with pytest.raises(FixedPointError, match=r"non-finite solution at step 2$"):
            solve(tree, linear_driver(0.2, 0.3, -0.5), nan_at_a_jump)


@pytest.mark.parametrize("kwargs, message", [({"tol": float("nan")}, "tolerance must be positive, got nan"),
                                             ({"tol": 0.0}, "tolerance must be positive, got 0.0")])
def test_fixed_point_rejects_bad_inputs(kwargs, message):
    # a NaN tolerance used to run every iteration and report "last delta 0"
    tree = build_tree(LevyModel(0.0, 1.0), TimeGrid(1.0, 2))
    with pytest.raises(ValueError, match=message):
        solve_backward(tree, linear_y(0.5), XI_X, **kwargs)
    ctx = tree.lattice.context(0)
    with pytest.raises(ValueError, match=message):
        implicit_step(linear_y(0.5), ctx, 0.0, 0.5, np.ones(1), np.zeros(1), np.zeros((1, 0)), 0, **kwargs)


def test_solvers_use_a_replaced_eval_not_the_curried_form_it_replaced():
    tree = build_tree(LevyModel(0.1, 1.0, ((0.5, 0.8),)), TimeGrid(1.0, 3))
    g = linear_driver(0.3, 0.4, -0.5)
    doubled = replace(g, eval=lambda ctx, t, y, z, u: 2.0 * g.eval(ctx, t, y, z, u))
    plain = GeneratorSpec(name="doubled", eval=doubled.eval)  # eval only, never curried
    for spec, ref, old in [(doubled, plain, g),
                           (shift_generator(doubled, 0.3), shift_generator(plain, 0.3), shift_generator(g, 0.3))]:
        got, want = solve_backward(tree, spec, XI_TANH), solve_backward(tree, ref, XI_TANH)
        assert got.y0 != solve_backward(tree, old, XI_TANH).y0, spec.name
        for a, b in zip(got.Y.lattice + got.Z.lattice + got.U.lattice, want.Y.lattice + want.Z.lattice + want.U.lattice):
            assert a.tobytes() == b.tobytes(), spec.name


TWO_MARK_MODEL = LevyModel(0.1, 1.0, ((0.05, 2.0), (0.5, 0.8)))


def test_project_en_constant_for_step_zero_indicator():
    tree = build_tree(TWO_MARK_MODEL, TimeGrid(1.0, 4))
    fired = tree.counts[1][:, 0] >= 1  # small-mark coordinate of the first letter
    out = project_coarse(tree, fired.astype(float), 4, level=1)
    lam_dt = 2.0 * tree.grid.dt
    assert np.allclose(out, lam_dt, atol=1e-15)


def test_project_en_identity_on_measurable_values():
    tree = build_tree(TWO_MARK_MODEL, TimeGrid(1.0, 3))
    # values built from the kept mark only are untouched bitwise
    vals = (tree.counts[3][:, 1] * 1.7 - 0.3) ** 2
    assert np.array_equal(project_coarse(tree, vals, 4, level=3), vals)


@st.composite
def coarse_problems(draw):
    """A small tree whose mark sizes straddle 1/n, values at one level, and n."""
    n = draw(st.integers(1, 8))
    steps = draw(st.integers(1, 4))
    n_marks = draw(st.integers(1, 2))
    factors = draw(st.lists(st.sampled_from([0.25, 0.5, 0.9, 1.0, 1.5, 3.0]), min_size=n_marks,
                            max_size=n_marks, unique=True))
    marks = tuple(
        (draw(st.sampled_from([1.0, -1.0])) * f / n, draw(st.floats(0.05, 0.95)) * steps) for f in factors
    )
    model = LevyModel(draw(st.floats(-0.5, 0.5)), draw(st.sampled_from([0.0, 1.0])), marks)
    tree = build_tree(model, TimeGrid(1.0, steps))
    level = draw(st.integers(0, steps))
    vals = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(tree.level_size(level))
    return tree, vals, level, n


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(coarse_problems())
def test_project_en_idempotent_and_contractive(problem):
    tree, vals, level, n = problem
    once = project_coarse(tree, vals, n, level=level)
    assert np.array_equal(project_coarse(tree, once, n, level=level), once)
    second = tree.expectation(vals * vals, level)
    assert tree.expectation(once * once, level) <= second * (1 + 1e-12)
    assert tree.expectation(once, level) == pytest.approx(tree.expectation(vals, level), abs=1e-12 * (1 + second))
    # projection onto the full information is the identity, and so is the coarse problem
    n_all = int(np.ceil(1.0 / np.abs(tree.model.jump_sizes).min())) + 1
    assert np.array_equal(project_coarse(tree, vals, n_all, level=level), vals)
    g = linear_driver(0.3, 0.2, -0.5)
    full, trunc = solve_backward(tree, g, XI_TANH), solve_truncated(tree, g, XI_TANH, n_all)
    for a, b in zip((*full.Y, *full.Z, *full.U), (*trunc.Y, *trunc.Z, *trunc.U)):
        assert np.array_equal(a, b)


def per_axis_projection(tree, values, n, level):
    """Reference projection: one gather, per-group weighted sum and scatter per step axis."""
    removed = ~kept_marks_mask(tree.model, n)
    if not removed.any() or level == 0:
        return np.array(values, dtype=float)
    b = tree.branching
    removed_idx = np.flatnonzero(removed)
    removed_bits_mask = int(sum(1 << int(k) for k in removed_idx))
    p_jump = tree.model.intensities * tree.grid.dt
    r = 1 << len(removed_idx)
    keys = [bi & ~removed_bits_mask for bi in range(b)]
    group_keys = sorted(set(keys))
    key_to_group = {k: gi for gi, k in enumerate(group_keys)}
    group_of_branch = np.array([key_to_group[k] for k in keys], dtype=np.intp)
    groups = np.empty((len(group_keys), r), dtype=np.intp)
    w = np.empty(r)
    for ridx in range(r):
        extra, wr = 0, 1.0
        for pos, mark in enumerate(removed_idx):
            bit = (ridx >> pos) & 1
            extra |= bit << int(mark)
            wr *= p_jump[mark] if bit else 1.0 - p_jump[mark]
        w[ridx] = wr
        for gi, key in enumerate(group_keys):
            groups[gi, ridx] = key | extra
    arr = np.asarray(values, dtype=float).reshape((b,) * level)
    for ax in range(level):
        vg = np.moveaxis(arr, ax, -1)[..., groups]
        rep = vg[..., :1]
        mean = rep[..., 0] + (vg - rep) @ w
        arr = np.moveaxis(mean[..., group_of_branch], -1, ax)
    return arr.reshape(-1)


def projection_problem(n, sigma, kept, steps, level, seed, lam=0.4):
    """Marks in the given kept/removed pattern at level n, with N(0,1) values at one level."""
    marks = tuple(((1.0 + i) / n if keep else (0.2 + 0.2 * i) / n, lam / (1 + i)) for i, keep in enumerate(kept))
    tree = build_tree(LevyModel(0.1, sigma, marks), TimeGrid(1.0, steps))
    return tree, np.random.default_rng(seed).standard_normal(tree.level_size(level)), level, n


@st.composite
def projection_problems(draw):
    kept = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    steps = draw(st.integers(1, 3))
    return projection_problem(draw(st.integers(1, 5)), draw(st.sampled_from([0.0, 1.0])), kept, steps,
                              draw(st.integers(0, steps)), draw(st.integers(0, 2**32 - 1)),
                              draw(st.floats(0.05, 0.95)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(projection_problems())
@example(projection_problem(2, 0.0, [False, True], 3, 3, 1))  # sigma = 0
@example(projection_problem(3, 1.0, [False, True, False], 3, 3, 2))  # removed bits not adjacent
@example(projection_problem(1, 0.0, [False, False, False], 2, 2, 3))  # R = 8
def test_project_coarse_matches_per_axis_reference(problem):
    tree, vals, level, n = problem
    expected = per_axis_projection(tree, vals, n, level)
    got = project_coarse(tree, vals, n, level=level)
    assert np.max(np.abs(got - expected), initial=0.0) <= 1e-12 * (1 + np.max(np.abs(vals)))


def test_project_coarse_rejects_a_level_that_does_not_fit():
    tree = build_tree(TWO_MARK_MODEL, TimeGrid(1.0, 3))  # 8**3 = 512 nodes at level 3
    for level in (2, 1, 4, -1):
        with pytest.raises(ModelError, match=f"^level {level} does not fit 512 values"):
            project_coarse(tree, np.zeros(512), 4, level=level)
    one_node = build_tree(LevyModel(0.0, 0.0), TimeGrid(1.0, 3))  # every level has one node
    with pytest.raises(ModelError, match="^level 4 does not fit 1 values"):
        project_coarse(one_node, np.ones(1), 1, level=4)


@st.composite
def lattice_measurable_levels(draw):
    """A solution level on a small tree with marks kept or removed at level n."""
    n = draw(st.integers(1, 5))
    sigma = draw(st.sampled_from([0.0, 1.0]))
    kept = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    steps = draw(st.integers(1, 3))
    marks = tuple((draw(st.sampled_from([1.0, -1.0])) * ((1.0 + i) / n if keep else (0.2 + 0.2 * i) / n),
                   draw(st.floats(0.05, 0.95)) * steps) for i, keep in enumerate(kept))
    tree = build_tree(LevyModel(draw(st.floats(-0.5, 0.5)), sigma, marks), TimeGrid(1.0, steps))
    terminals = SWEEP_TERMINALS + [{"name": "jump_indicator", "mark": k} for k in range(len(kept))]
    sol = solve_backward(tree, draw(st.sampled_from(SWEEP_DRIVERS)), make_terminal(draw(st.sampled_from(terminals))))
    return tree, sol, draw(st.integers(0, steps)), n


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lattice_measurable_levels())
def test_project_coarse_matches_the_removed_count_average(problem):
    """On values gathered from the lattice the product-tree projection equals the
    average over the removed marks' counts that the coarse sweep uses."""
    tree, sol, level, n = problem
    removed = ~kept_marks_mask(tree.model, n)
    got = project_coarse(tree, sol.Y[level], n, level=level)
    lattice = sol.Y.lattice[level]
    want = (_removed_count_average(tree, removed, level)(lattice) if removed.any() else lattice)[tree.index[level]]
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), float(np.max(np.abs(got - want)))


def test_solve_truncated_reduces_to_full_solver_when_nothing_removed():
    tree = build_tree(TWO_MARK_MODEL, TimeGrid(1.0, 3))
    g = linear_driver(0.3, 0.2, (0.4, -0.5))
    full = solve_backward(tree, g, XI_X)
    trunc = solve_truncated(tree, g, XI_X, 100)
    for a, b in zip((*full.Y, *full.Z, *full.U), (*trunc.Y, *trunc.Z, *trunc.U)):
        assert np.array_equal(a, b)
    d = l2_distance(full, trunc)
    assert (d.dY, d.dZ, d.dU) == (0.0, 0.0, 0.0)


def test_solve_truncated_exact_when_data_ignores_small_marks():
    tree = build_tree(TWO_MARK_MODEL, TimeGrid(1.0, 3))
    xi = make_terminal({"name": "jump_indicator", "mark": 1})  # kept mark only
    full = solve_backward(tree, ZERO, xi)
    trunc = solve_truncated(tree, ZERO, xi, 4)
    for a, b in zip(full.Y, trunc.Y):
        assert np.array_equal(a, b)
    for a, b in zip(full.U, trunc.U):
        assert np.allclose(a[:, 1], b[:, 1], atol=0.0)  # retained-mark coefficients match
        assert np.all(b[:, 0] == 0.0)  # removed-mark coefficient is pinned to zero


def test_solve_truncated_solution_is_coarse_measurable():
    # a driver reading the state exercises the driver projection path
    g = GeneratorSpec(
        name="state_tanh",
        eval=lambda ctx, t, y, z, u: 0.3 * np.tanh(np.asarray(ctx.x, dtype=float)) - 0.2 * np.asarray(y, dtype=float),
    )
    tree = build_tree(TWO_MARK_MODEL, TimeGrid(1.0, 3))
    sol = solve_truncated(tree, g, XI_X, 4)
    for lvl in range(tree.n_steps + 1):
        y = sol.Y[lvl]
        assert np.array_equal(project_coarse(tree, y, 4, level=lvl), y)


@pytest.mark.parametrize("marks, steps, n", [
    (((0.05, 2.0), (0.5, 0.8)), 6, 4),
    (((0.05, 2.0), (0.5, 0.8), (-0.2, 1.0)), 5, 3),
])
def test_truncated_solution_is_coarse_measurable_on_wide_lattices(marks, steps, n):
    # lattice levels of 27, 125 and 216 points: rows outside blocks of four must sum as the others do
    tree = build_tree(LevyModel(0.1, 1.0, marks), TimeGrid(1.0, steps))
    state_tanh = GeneratorSpec(
        name="state_tanh",
        eval=lambda ctx, t, y, z, u: 0.3 * np.tanh(np.asarray(ctx.x, dtype=float)) - 0.2 * np.asarray(y, dtype=float),
    )
    sol = solve_truncated(tree, state_tanh, XI_X, n)
    for lvl in range(steps + 1):
        assert np.array_equal(project_coarse(tree, sol.Y[lvl], n, level=lvl), sol.Y[lvl]), lvl
    xi = make_terminal({"name": "jump_indicator", "mark": 1})  # kept mark only
    full, trunc = solve_backward(tree, linear_y(0.5), xi), solve_truncated(tree, linear_y(0.5), xi, n)
    d = l2_distance(full, trunc)
    assert (d.dY, d.dZ) == (0.0, 0.0)


def test_truncation_distances_decrease_through_thresholds():
    tree = build_tree(TWO_MARK_MODEL, TimeGrid(1.0, 4))
    full = solve_backward(tree, linear_y(0.5), XI_X)
    dists = [l2_distance(solve_truncated(tree, linear_y(0.5), XI_X, n), full) for n in (1, 4, 100)]
    assert dists[0].dY > dists[1].dY > dists[2].dY == 0.0
    assert dists[0].dU > dists[1].dU > dists[2].dU == 0.0
    assert dists[2].dZ == 0.0


def test_expected_sup_and_integrals():
    tree = build_tree(LevyModel(0.0, 1.0), TimeGrid(1.0, 3))
    sol = solve_backward(tree, ZERO, make_terminal("w"))
    # running sup of |W| squared, averaged over the 8 sign paths
    run = np.abs(tree.wpaths[0])
    for lvl in range(1, 4):
        run = np.maximum(np.repeat(run, 2), np.abs(tree.wpaths[lvl]))
    expected = float((run * run) @ tree.node_prob[3])
    assert sol.expected_sup_y_squared() == pytest.approx(expected)
    z2, u2 = sol.zu_integrals()
    assert z2 == pytest.approx(1.0)  # Z is 1 throughout: int_0^1 1 ds
    assert u2 == 0.0


def test_l2_distance_constant_offset():
    tree = build_tree(LevyModel(0.0, 1.0), TimeGrid(1.0, 4))
    sol = solve_backward(tree, ZERO, XI_X)
    shifted = solve_backward(tree, ZERO, make_terminal({"name": "x", "shift": 0.5}))
    d = l2_distance(sol, shifted)
    assert d.dY == pytest.approx(0.25 * 1.0)  # c^2 * T over the left endpoints
    assert d.dZ == pytest.approx(0.0, abs=1e-28)
    finer = solve_backward(build_tree(LevyModel(0.0, 1.0), TimeGrid(1.0, 5)), ZERO, XI_X)
    with pytest.raises(ModelError, match="different trees"):
        l2_distance(sol, finer)


def one_step_weight_margin(tree, b, c) -> float:
    """Smallest one-step weight 1 + b dW + sum_j c_j dN~_j / (1 - lambda_j dt) of linear_driver(a, b, c).

    The implicit step gives (1 - a dt) Y_i = E[weight * Y_(i+1)] + dt * (the driver's constant),
    so a nonnegative margin orders the solutions of ordered terminals node by node.
    A jump of mark j contributes c_j and its absence -c_j p_j / (1 - p_j), p_j = lambda_j dt.
    """
    p = tree.model.intensities * tree.grid.dt
    margin = 1.0 - abs(b) * np.sqrt(tree.grid.dt) * (tree.model.sigma > 0)
    return margin + sum(min(cj, -cj * pj / (1.0 - pj)) for cj, pj in zip(c, p))


@st.composite
def linear_weight_problems(draw):
    """A small tree (lambda dt < 1), linear driver coefficients b and c, a time and a point seed."""
    steps = draw(st.integers(1, 6))
    marks = tuple((x, draw(st.floats(0.02, 0.98)) * steps)
                  for x in draw(st.lists(st.sampled_from([0.5, -0.3, 1.5]), max_size=2, unique=True)))
    tree = build_tree(LevyModel(0.1, draw(st.sampled_from([0.0, 1.0])), marks), TimeGrid(1.0, steps))
    coeff = st.floats(-2.0, 3.0)
    return tree, draw(coeff), [draw(coeff) for _ in marks], draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**16))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(linear_weight_problems())
def test_branch_weight_margin_of_a_linear_driver_is_the_closed_form(problem):
    """The sampled check's difference quotients give one_step_weight_margin at every point, to well
    inside CHECK_SLACK, and the check fails exactly where that margin is negative."""
    tree, b, c, t, seed = problem
    g = linear_driver(0.7, b, tuple(c) or 0.0)
    rng = np.random.default_rng(seed)
    m = 64
    ctx = StepContext(model=tree.model, x=rng.uniform(-3.0, 3.0, m))
    y, z = rng.uniform(-4.0, 4.0, (2, m))
    closed = one_step_weight_margin(tree, b, c)
    margin = branch_weight_margin(g, ctx, t, tree.grid.dt, y, z, 2.0 * rng.standard_normal((m, len(c))))
    assert np.abs(margin - closed).max() <= 0.5 * CHECK_SLACK
    if abs(closed) > 1e-9:
        assert check_branch_weights(g, tree.model, tree.grid).passed == (closed > 0.0)


@st.composite
def ordered_pairs(draw):
    """A small tree (lambda dt < 1), a linear driver inside the discrete margin, a shift of it,
    and a terminal gap s * 1{N_k >= m} (s alone without marks) above x."""
    steps = draw(st.integers(2, 4))
    n_marks = draw(st.integers(0, 2))
    sizes = draw(st.lists(st.sampled_from([0.5, -0.3, 1.5, 0.05]), min_size=n_marks, max_size=n_marks, unique=True))
    marks = tuple((x, draw(st.floats(0.05, 0.95)) * steps) for x in sizes)
    tree = build_tree(LevyModel(draw(st.floats(-0.5, 0.5)), draw(st.sampled_from([0.0, 1.0])), marks),
                      TimeGrid(1.0, steps))
    b = draw(st.floats(-1.0, 1.0))
    c = [draw(st.floats(-1.0, 2.0)) for _ in sizes]
    # The jump terms scale with c: shrink c into the margin when the drawn one falls below it.
    base, margin = one_step_weight_margin(tree, b, []), one_step_weight_margin(tree, b, c)
    if margin < 0.0:
        c = [cj * base / (base - margin) for cj in c]
    g = linear_driver(draw(st.floats(-1.0, 1.0)), b, tuple(c) or 0.0)
    s = draw(st.floats(0.0, 1.0))
    if n_marks:
        gap = make_terminal({"name": "jump_indicator", "mark": draw(st.integers(0, n_marks - 1)),
                             "min_count": draw(st.integers(1, 2)), "scale": s})
    else:
        gap = make_terminal({"name": "const", "value": s})
    return tree, g, one_step_weight_margin(tree, b, c), draw(st.floats(0.0, 1.0)), lambda ctx: XI_X(ctx) + gap(ctx)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ordered_pairs())
@example((build_tree(LevyModel(0.0, 1.0, ((0.5, 0.8), (-0.3, 0.4))), TimeGrid(1.0, 4)),
          linear_driver(0.5, 0.5, (-0.5, -0.25)), 0.0, 0.0, make_terminal("x")))
def test_comparison_theorem_holds_node_wise(pair):
    """Ordered data f <= f + delta, x <= x + s 1{jump} and a driver inside the discrete margin
    (1 + c_j >= |b| sqrt(dt) for one mark: every one-step weight nonnegative) order Y at every node."""
    tree, g, margin, delta, xi_up = pair
    assert check_jump_ordering(g, tree.model).passed and margin >= -1e-12
    assert check_branch_weights(g, tree.model, tree.grid).passed
    sol = solve_backward(tree, g, XI_X)
    sol_up = solve_backward(tree, shift_generator(g, delta), xi_up)
    for lvl, (y, y_up) in enumerate(zip(sol.Y, sol_up.Y)):
        assert np.all(y <= y_up + 10 * DEFAULT_FP_TOL), (lvl, float(np.max(y - y_up)))


def test_comparison_fails_outside_the_discrete_margin():
    """BM + one mark (x 0.5, lambda 0.8), 4 steps, linear_driver(0, 0.5, -1): c = -1 passes the
    ordered-jump condition c >= -1, but the discrete margin 1 + c >= |b| sqrt(dt) fails (0 < 0.25).
    On a jump branch with dW = -sqrt(dt) the one-step weight 1 + c + b dW is -0.25, so the
    nonnegative terminal gap 1{a jump} max(-W, 0) above 0 leaves Y above Y' by 0.05."""
    tree = build_tree(LevyModel(0.0, 1.0, ((0.5, 0.8),)), TimeGrid(1.0, 4))
    g = linear_driver(0.0, 0.5, -1.0)
    assert check_jump_ordering(g, tree.model).passed
    assert one_step_weight_margin(tree, 0.5, [-1.0]) == -0.25
    assert not check_branch_weights(g, tree.model, tree.grid).passed  # so run_comparison reports it unmet
    zero = make_terminal({"name": "const", "value": 0.0})
    gap = lambda ctx: (ctx.counts[:, 0] >= 1) * np.maximum(-ctx.w, 0.0)  # noqa: E731
    excess = max_ordering_violation(solve_backward(tree, g, zero), solve_backward(tree, g, gap))
    assert excess == pytest.approx(0.05, abs=1e-12)


# ---------------------------------------------------------------------------
# The lattice sweep against the product-tree sweep it replaced
# ---------------------------------------------------------------------------


def representation_weights(tree):
    """Per-branch weights of the one-step Z and U: Z = E[Y_next dW] / dt and
    U_j = E[Y_next dN~_j] / (lambda_j dt (1 - lambda_j dt)), the form the sweep once used."""
    dt, p = tree.grid.dt, tree.branch_prob
    w_z = p * tree.dw_branch / dt if tree.model.sigma > 0 else None
    p_jump = tree.model.intensities * dt
    w_u = p[:, None] * tree.dn_tilde_branch() / (p_jump * (1.0 - p_jump))[None, :] if tree.model.n_marks else None
    return w_z, w_u


def kids_table(tree, level):
    """kids[p, b]: the level-(level+1) point that branch b leads to from level-`level` point p,
    the point plus the branch's bits (the child table the lattice once kept)."""
    nb = tree.branching.bit_length() - 1
    coords = np.indices((level + 1,) * nb).reshape(nb, (level + 1) ** nb).T
    bits = np.indices((2,) * nb).reshape(nb, 2**nb).T
    strides = (level + 2) ** np.arange(nb - 1, -1, -1)
    return ((coords @ strides)[:, None] + bits @ strides).astype(np.int32)


def eager_index(tree):
    """The lattice point of every product node, every level enumerated from kids_table."""
    index = [np.zeros(1, dtype=np.int32)]
    for i in range(tree.n_steps):
        kids = kids_table(tree, i)
        index.append(np.add.outer(kids[:, 0][index[-1]], kids[0]).ravel())
    return index


def product_sweep(tree, g, xi, n=None):
    """Reference: the implicit backward sweep over every node of the product tree,
    projecting with project_coarse when a truncation level n is given."""
    steps, b, dt, j = tree.n_steps, tree.branching, tree.grid.dt, tree.model.n_marks
    w_z, w_u = representation_weights(tree)
    ys, zs, us = [None] * (steps + 1), [None] * steps, [None] * steps
    ys[steps] = np.asarray(xi(tree.context(steps)), dtype=float)
    if n is not None:
        removed = ~kept_marks_mask(tree.model, n)
        ys[steps] = project_coarse(tree, ys[steps], n, level=steps)
    for i in range(steps - 1, -1, -1):
        nxt = ys[i + 1].reshape(-1, b)
        ey = nxt @ tree.branch_prob
        z = nxt @ w_z if w_z is not None else np.zeros(ey.shape)
        u = nxt @ w_u if w_u is not None else np.zeros((ey.shape[0], j))
        project = None
        if n is not None:
            u[:, removed] = 0.0
            project = partial(project_coarse, tree, n=n, level=i)
        ys[i], _ = implicit_step(g, tree.context(i), float(tree.grid.times[i]), dt, ey, z, u, i, project)
        zs[i], us[i] = z, u
    return ys, zs, us


STATE_TANH = GeneratorSpec(
    name="state_tanh",
    eval=lambda ctx, t, y, z, u: 0.3 * np.tanh(np.asarray(ctx.x, dtype=float)) - 0.2 * np.asarray(y, dtype=float),
)
SWEEP_DRIVERS = [zero_generator(), linear_y(0.5), linear_driver(0.3, 0.4, -0.5), tanh_jump_integral(),
                 jump_ordering_violator(), STATE_TANH]
SWEEP_TERMINALS = ["x", "w", "tanh_x", {"name": "clip_x", "lo": -0.3, "hi": 0.4}, {"name": "const", "value": 0.7}]


@st.composite
def sweep_problems(draw):
    """sigma in {0, 1}, 0-3 marks kept or removed at level n, 1-5 steps (fewer on wide trees),
    a driver and a terminal."""
    n = draw(st.integers(1, 5))
    sigma = draw(st.sampled_from([0.0, 1.0]))
    kept = draw(st.lists(st.booleans(), max_size=3))
    branching = (2 if sigma else 1) * 2 ** len(kept)
    fits = [s for s in range(1, 6) if sum(branching**i for i in range(s + 1)) <= 40_000]
    steps = min(draw(st.integers(1, 5)), fits[-1])
    marks = tuple((draw(st.sampled_from([1.0, -1.0])) * ((1.0 + i) / n if keep else (0.2 + 0.2 * i) / n),
                   draw(st.floats(0.05, 0.95)) * steps) for i, keep in enumerate(kept))
    tree = build_tree(LevyModel(draw(st.floats(-0.5, 0.5)), sigma, marks), TimeGrid(1.0, steps))
    terminals = SWEEP_TERMINALS + [{"name": "jump_indicator", "mark": k, "min_count": m}
                                   for k in range(len(kept)) for m in (1, 2)]
    return tree, draw(st.sampled_from(SWEEP_DRIVERS)), make_terminal(draw(st.sampled_from(terminals))), n


def assert_matches_product(sol, reference):
    for name, got, want in zip("YZU", (sol.Y, sol.Z, sol.U), reference):
        for lvl, (a, b) in enumerate(zip(got, want)):
            assert a.shape == b.shape, (name, lvl)
            assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(b))), (name, lvl, float(np.max(np.abs(a - b))))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(sweep_problems())
def test_lattice_sweep_matches_product_sweep(problem):
    tree, g, xi, n = problem
    full = solve_backward(tree, g, xi)
    assert_matches_product(full, product_sweep(tree, g, xi))
    for level in range(1, n + 2):
        trunc = solve_truncated(tree, g, xi, level)
        assert_matches_product(trunc, product_sweep(tree, g, xi, level))
        if kept_marks_mask(tree.model, level).all():
            for a, b in zip((*full.Y, *full.Z, *full.U), (*trunc.Y, *trunc.Z, *trunc.U)):
                assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# The closed-form implicit step against the fixed point
# ---------------------------------------------------------------------------


def plain_copy(g):
    """g with a plain eval that computes the same numbers, so the solvers iterate its fixed point."""
    return replace(g, eval=lambda ctx, t, y, z, u: g.eval(ctx, t, y, z, u))


SLOPED_STATE = GeneratorSpec(  # affine in y with one slope per point
    name="sloped_state",
    eval=Affine(lambda ctx, t, z, u: (0.8 * np.tanh(np.asarray(ctx.x, dtype=float)), 0.3 * np.asarray(z, dtype=float))),
    K1=constant_coeff(0.8),
)
AFFINE_STATE_TANH = GeneratorSpec(  # STATE_TANH declared affine: its offset varies with the removed marks' counts
    name="affine_state_tanh",
    eval=Affine(lambda ctx, t, z, u: (-0.2, 0.3 * np.tanh(np.asarray(ctx.x, dtype=float)))),
)


@st.composite
def affine_drivers(draw, n_marks):
    """A catalog driver at drawn parameters (or SLOPED_STATE), shifted by a drawn delta or not."""
    coeff = st.floats(-4.0, 4.0)
    c = draw(st.one_of(coeff, st.lists(coeff, min_size=n_marks, max_size=n_marks).map(tuple)))
    g = draw(st.sampled_from([zero_generator(), linear_y(draw(coeff)), linear_driver(draw(coeff), draw(coeff), c or 0.5),
                              tanh_jump_integral(), jump_ordering_violator(), SLOPED_STATE]))
    return shift_generator(g, draw(st.floats(-2.0, 2.0))) if draw(st.booleans()) else g


@st.composite
def closed_form_steps(draw):
    """A driver, a model with 0-2 marks, 1-12 points and a dt with dt |slope| <= 1/2."""
    n_marks = draw(st.integers(0, 2))
    marks = tuple((0.3 * (k + 1) * draw(st.sampled_from([1.0, -1.0])), draw(st.floats(0.1, 3.0)))
                  for k in range(n_marks))
    model = LevyModel(draw(st.floats(-0.5, 0.5)), draw(st.sampled_from([0.0, 1.0])), marks)
    m = draw(st.integers(1, 12))
    vals = st.floats(-6.0, 6.0, allow_subnormal=False)
    arr = lambda *shape: np.array(draw(st.lists(vals, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))),
                                  dtype=float).reshape(shape)
    g = draw(affine_drivers(n_marks))
    ctx, t = StepContext(model=model, x=arr(m)), draw(st.floats(0.0, 1.0))
    ey, z, u = arr(m), arr(m), arr(m, n_marks)
    steepest = float(np.max(np.abs(g.eval.bind(ctx, t, z, u)[0])))
    dt = draw(st.floats(1e-3, 1.0)) * min(1.0, 0.5 / steepest if steepest else 1.0)
    return g, ctx, t, dt, ey, z, u


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(closed_form_steps())
def test_closed_form_step_matches_the_fixed_point(problem):
    g, ctx, t, dt, ey, z, u = problem
    slope, offset = g.eval.bind(ctx, t, z, u)
    scale = float(np.max(np.abs(ey) + dt * np.abs(offset)))  # |y| <= 2 scale, since dt |slope| <= 1/2
    tol = max(4e-15 * scale, 1e-300)
    closed, iterations = implicit_step(g, ctx, t, dt, ey, z, u, 0)
    fixed, fp_iterations = implicit_step(plain_copy(g), ctx, t, dt, ey, z, u, 0, tol=tol)
    assert iterations == 1 and closed.shape == fixed.shape == ey.shape
    assert np.abs(closed - fixed).max() <= 1e-14 * scale, g.name
    first_move = dt * np.abs(np.asarray(g.eval(ctx, t, ey, z, u), dtype=float)).max()
    assert fp_iterations >= (2 if first_move > tol else 1), g.name


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sweep_problems(), st.floats(-1.0, 1.0))
def test_truncated_sweep_takes_the_closed_form_for_every_affine_driver(problem, delta):
    tree, g, xi, n = problem
    for spec in (g, shift_generator(g, delta), SLOPED_STATE, AFFINE_STATE_TANH):
        for level in (None, n, n + 1):
            got, want = (solve_backward(tree, h, xi, tol=1e-14) if level is None else
                         solve_truncated(tree, h, xi, level, tol=1e-14) for h in (spec, plain_copy(spec)))
            for a, b in zip(got.Y.lattice + got.Z.lattice + got.U.lattice,
                            want.Y.lattice + want.Z.lattice + want.U.lattice):
                assert np.abs(a - b).max(initial=0.0) <= 1e-14 * (1.0 + np.abs(b).max(initial=0.0)), (spec.name, level)
            if isinstance(spec.eval, Affine):
                assert set(got.fp_iterations) == {1}, (spec.name, level)


@pytest.mark.parametrize("n", [1, 4])
def test_truncated_per_point_slope_is_the_limit_of_its_fixed_point(n):
    # n = 1 removes both marks, n = 4 the small one; the projected slope 0.8 tanh(x) varies along them
    tree = build_tree(TWO_MARK_MODEL, TimeGrid(1.0, 3))
    removed = ~kept_marks_mask(tree.model, n)
    got, want = (solve_truncated(tree, h, XI_X, n, tol=1e-14) for h in (SLOPED_STATE, plain_copy(SLOPED_STATE)))
    assert set(got.fp_iterations) == {1} and min(want.fp_iterations) >= 2
    for a, b in zip(got.Y.lattice + got.Z.lattice + got.U.lattice, want.Y.lattice + want.Z.lattice + want.U.lattice):
        assert np.abs(a - b).max() <= 1e-13
    for i, (y, z) in enumerate(zip(got.Y.lattice, got.Z.lattice)):  # constant along the removed marks' counts
        average = _removed_count_average(tree, removed, i)
        assert average(y).tobytes() == y.tobytes() and average(z).tobytes() == z.tobytes(), i


def test_truncated_and_plain_drivers_keep_the_fixed_point():
    tree = build_tree(TWO_MARK_MODEL, TimeGrid(1.0, 3))
    g = linear_driver(0.3, 0.2, (0.4, -0.5))
    assert set(solve_backward(tree, g, XI_X).fp_iterations) == {1}
    assert set(solve_truncated(tree, g, XI_X, 4).fp_iterations) == {1}  # a scalar slope passes the projection
    for spec in (truncate_generator(g, 2), plain_copy(g)):
        assert min(solve_backward(tree, spec, XI_X).fp_iterations) >= 2, spec.name
        assert min(solve_truncated(tree, spec, XI_X, 4).fp_iterations) >= 2, spec.name
    assert set(solve_truncated(tree, SLOPED_STATE, XI_X, 4).fp_iterations) == {1}  # and so does a per-point slope
    assert set(solve_backward(tree, SLOPED_STATE, XI_X).fp_iterations) == {1}


def closed_form_as_written(g, ctx, t, dt, ey, z, u, project=None):
    """(ey + dt offset) / (1 - dt slope), with project applied to the offset and a per-point slope, in the
    order the closed form once took, into a fresh array."""
    slope, offset = g.eval.bind(ctx, t, z, u)
    ey = np.asarray(ey, dtype=float)
    if project is not None:
        offset = project(np.broadcast_to(offset, ey.shape))
        if np.ndim(slope):
            slope = project(np.broadcast_to(slope, ey.shape))
    y = ey + dt * offset
    y /= 1.0 - dt * (float(slope) if np.ndim(slope) == 0 else np.asarray(slope, dtype=float))
    return y


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(closed_form_steps())
def test_closed_form_step_is_bitwise_as_written(problem):
    # scalar and per-point slopes, scalar and array offsets; ey is a row of the fitted values, as the LSMC
    # pass gives it, and the step leaves it as it was
    g, ctx, t, dt, ey, z, u = problem
    for project in (None, lambda v: np.full(np.shape(v), np.mean(v))):
        fitted = np.stack((np.full(ey.shape, np.nan), ey))
        y, iterations = implicit_step(g, ctx, t, dt, fitted[1], z, u, 0, project)
        written = closed_form_as_written(g, ctx, t, dt, ey, z, u, project)
        assert iterations == 1 and y.tobytes() == written.tobytes(), g.name
        assert not np.shares_memory(y, fitted) and fitted[1].tobytes() == ey.tobytes(), g.name


ALIASING_EVALS = {  # plain evals that return one of their inputs itself
    "y": lambda ctx, t, y, z, u: y,
    "z": lambda ctx, t, y, z, u: z,
    "x": lambda ctx, t, y, z, u: ctx.x,
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(closed_form_steps())
def test_plain_evals_returning_their_inputs_are_solved_as_copies(problem):
    # the fixed point accumulates ey + dt f in place, so it must own f: an aliased input would be overwritten
    _, ctx, t, dt, ey, z, u = problem
    dt = min(dt, 0.5)  # the y eval contracts by dt
    inputs = (ey, z, u, ctx.x)
    before = [a.tobytes() for a in inputs]
    for name, ev in ALIASING_EVALS.items():
        aliasing = GeneratorSpec(name=name, eval=ev)
        copying = GeneratorSpec(name=name, eval=lambda *args, ev=ev: np.array(ev(*args)))
        for project in (None, lambda v: np.full(np.shape(v), np.mean(v))):
            want, iterations = implicit_step(copying, ctx, t, dt, ey, z, u, 0, project)
            got, got_iterations = implicit_step(aliasing, ctx, t, dt, ey, z, u, 0, project)
            assert got_iterations == iterations and got.tobytes() == want.tobytes(), name
            assert [a.tobytes() for a in inputs] == before, name


def test_lattice_coordinates_and_node_counts():
    tree = build_tree(TWO_MARK_MODEL, TimeGrid(1.0, 3))
    assert tree.node_counts() == {"product": 1 + 8 + 64 + 512, "lattice": 1 + 8 + 27 + 64}
    # a node's lattice point carries its path's sign and jump counts
    bits = (np.arange(512)[:, None] >> np.arange(9)[None, :]) & 1  # three base-8 digits, bit k of each step
    steps_bits = bits.reshape(512, 3, 3)
    counts = steps_bits[:, :, :2].sum(axis=1)
    downs = steps_bits[:, :, 2].sum(axis=1)
    assert np.array_equal(tree.counts[3], counts)
    assert np.allclose(tree.wpaths[3], (3 - 2 * downs) * np.sqrt(1.0 / 3.0), atol=1e-15)
    assert tree.lattice.expectation(np.ones(64), 3) == pytest.approx(1.0, abs=1e-15)
    assert tree.expectation(np.ones(512), 3) == pytest.approx(1.0, abs=1e-15)


def test_solve_keeps_no_per_node_float_arrays():
    """About 1.1M nodes: build_tree plus solve_backward stays below 16 bytes per node.

    The product tree holds one int32 lattice index per node; states, node
    probabilities and the solution are gathered per node only when read.
    """
    model = LevyModel(0.1, 1.0, ((0.05, 2.0), (0.5, 0.8), (-0.2, 1.0)))
    nodes = sum(16**i for i in range(6))
    tracemalloc.start()
    try:
        y0 = solve_backward(build_tree(model, TimeGrid(1.0, 5)), linear_y(0.5), XI_X).y0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(y0)
    assert peak < 16 * nodes, f"peak {peak / nodes:.1f} bytes per node"


def test_lattice_only_solves_enumerate_no_product_index():
    """About 1.1M nodes: building, solving twice, y0 and the ordering violation stay below
    1 byte per node, because the product index is built only when a level is gathered."""
    model = LevyModel(0.1, 1.0, ((0.05, 2.0), (0.5, 0.8), (-0.2, 1.0)))
    nodes = sum(16**i for i in range(6))
    tracemalloc.start()
    try:
        tree = build_tree(model, TimeGrid(1.0, 5))
        sol = solve_backward(tree, linear_y(0.5), XI_X)
        sol_up = solve_backward(tree, linear_y(0.5), make_terminal({"name": "x", "shift": 0.5}))
        y0, violation = sol.y0, max_ordering_violation(sol, sol_up)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(y0) and violation < 0.0
    assert peak < nodes, f"peak {peak / nodes:.2f} bytes per node"


def test_gathered_levels_match_the_eagerly_enumerated_index():
    tree = build_tree(TWO_MARK_MODEL, TimeGrid(1.0, 3))
    sol = solve_backward(tree, linear_driver(0.3, 0.2, -0.5), XI_TANH)
    lat = tree.lattice
    index = eager_index(tree)
    for lvl in (3, 0, 2, 1):  # out of order: a later level builds the ones before it
        assert tree.index[lvl].dtype == np.int32 and np.array_equal(tree.index[lvl], index[lvl])
        for got, values in ((tree.states, lat.x), (tree.wpaths, lat.w), (tree.counts, lat.counts),
                            (tree.node_prob, lat.path_prob), (sol.Y, sol.Y.lattice)):
            assert np.array_equal(got[lvl], values[lvl][index[lvl]])
    assert sol.y0 == sol.Y.lattice[0][0]


def repeat_projection(tree, values, n, level):
    """project_coarse as first written: halve each removed bit axis into a fresh array, outermost
    first, then repeat the means back over the same axes, innermost first."""
    v = np.asarray(values, dtype=float)
    removed = ~kept_marks_mask(tree.model, n)
    if not removed.any() or level == 0:
        return v.copy()
    nb = tree.branching.bit_length() - 1
    p_jump = tree.model.intensities * tree.grid.dt
    after = [nb * (level - 1 - s) + k for s in range(level) for k in np.flatnonzero(removed)[::-1]]
    t = v
    for a in after:
        pair = t.reshape(-1, 2, 1 << a)
        t = np.subtract(pair[:, 1], pair[:, 0])
        t *= p_jump[a % nb]
        t += pair[:, 0]
    for a in reversed(after):
        t = np.repeat(t.reshape(-1, 1, 1 << a), 2, axis=1)
    return t.reshape(-1)


@st.composite
def product_problems(draw):
    """sigma in {0, 1}, 0-3 marks kept or removed at level n, 1-6 steps with at most 4096 leaves."""
    sigma = draw(st.sampled_from([0.0, 1.0]))
    kept = draw(st.lists(st.booleans(), max_size=3))
    max_steps = min(6, 12 // max(1, int(sigma) + len(kept)))
    steps = draw(st.integers(1, max_steps))
    return projection_problem(draw(st.integers(1, 5)), sigma, kept, steps, draw(st.integers(0, steps)),
                              draw(st.integers(0, 2**32 - 1)))


def same_bytes(got, want):
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(product_problems())
@example(projection_problem(2, 0.0, [], 6, 6, 1))  # one node per level, 2-D counts and U with J = 0
@example(projection_problem(2, 1.0, [], 6, 3, 1))  # Brownian alone: 2-D counts and U with J = 0
def test_every_gathered_level_equals_the_lattice_at_the_eager_index(problem):
    tree, _, _, _ = problem
    sol = solve_backward(tree, linear_driver(0.3, 0.2, -0.5), XI_TANH)
    lat, index = tree.lattice, eager_index(tree)
    for lvl in range(tree.n_steps, -1, -1):  # leaf first: its gathers run before anything enumerates its index
        for got, values in ((tree.states, lat.x), (tree.wpaths, lat.w), (tree.counts, lat.counts),
                            (tree.node_prob, lat.path_prob), (sol.Y, sol.Y.lattice)) + (
                           ((sol.Z, sol.Z.lattice), (sol.U, sol.U.lattice)) if lvl < tree.n_steps else ()):
            assert same_bytes(got[lvl], values[lvl][index[lvl]]), lvl
        assert same_bytes(tree.index[lvl], index[lvl])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(product_problems())
@example(projection_problem(3, 1.0, [False, True, False], 3, 2, 2))  # removed bits not adjacent
@example(projection_problem(2, 0.0, [False, True, False], 4, 4, 3))  # sigma = 0, at the leaf
@example(projection_problem(1, 0.0, [False, False], 5, 3, 4))  # sigma = 0, every mark removed
@example(projection_problem(4, 1.0, [True, False, False], 3, 1, 5))  # level 1
@example(projection_problem(4, 1.0, [False, True, False], 3, 3, 6))  # the leaf
def test_project_coarse_equals_the_repeat_based_projection_bytewise(problem):
    tree, vals, level, n = problem
    assert same_bytes(project_coarse(tree, vals, n, level=level), repeat_projection(tree, vals, n, level))


def test_a_wide_level_and_its_projection_allocate_little_beyond_the_output():
    """About 1.1M nodes: gathering the 16**5-node leaf states and projecting them each peak
    below 1.2 times their 8 MiB output."""
    tree = build_tree(LevyModel(0.1, 1.0, ((0.05, 2.0), (0.5, 0.8), (-0.2, 1.0))), TimeGrid(1.0, 5))
    output = 16**5 * 8
    peaks = []
    for read in (lambda: tree.states[5], lambda: project_coarse(tree, tree.states[5], n=1, level=5)):
        tracemalloc.start()
        try:
            read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.2 * output, [f"{p / output:.2f}x" for p in peaks]


def bit_shift_alphabet(model, grid):
    """The one-step alphabet built bit by bit: mark k is bit k of the branch and the Brownian sign,
    when sigma > 0, the top bit; a branch's law multiplies the sign's 1/2, then marks 0, 1, ..."""
    j, dt = model.n_marks, grid.dt
    has_w = model.sigma > 0.0
    b = np.arange((2 if has_w else 1) * 2**j)
    dn = ((b[:, None] >> np.arange(j)[None, :]) & 1).astype(float) if j else np.zeros((b.size, 0))
    if has_w:
        dw = np.where((b >> j) & 1 == 0, np.sqrt(dt), -np.sqrt(dt))
        prob = np.full(b.size, 0.5)
    else:
        dw, prob = np.zeros(b.size), np.ones(b.size)
    for k, q in enumerate(model.intensities * dt):
        prob = prob * np.where(dn[:, k] == 1.0, q, 1.0 - q)
    return dw, dn, prob


@st.composite
def alphabet_models(draw):
    """0-4 marks, sigma in {0, 1}, 1-3 steps, lambda * dt in (0, 1)."""
    steps = draw(st.integers(1, 3))
    marks = tuple((0.25 * (k + 1), draw(st.floats(0.01, 0.99)) * steps) for k in range(draw(st.integers(0, 4))))
    return LevyModel(0.1, draw(st.sampled_from([0.0, 1.0])), marks), TimeGrid(1.0, steps)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(alphabet_models())
def test_alphabet_read_off_the_lattice_matches_the_bit_construction(problem):
    model, grid = problem
    tree = build_tree(model, grid)
    for got, want in zip((tree.dw_branch, tree.dn_branch, tree.branch_prob), bit_shift_alphabet(model, grid)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_only_tree_reads_the_lattice_layout():
    """The box layout belongs to tree.py: other modules go through CountLattice's methods, never its
    per-axis bit laws or the product index's child table."""
    readers = [f"{path.name}:{node.lineno}" for path in sorted(Path(jumpbsde.__file__).parent.glob("*.py"))
               if path.name != "tree.py" for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr in ("bit_prob", "children", "kids")]
    assert readers == []


def test_only_the_driver_module_and_the_implicit_step_name_affine():
    """Affine is named in src by generators.py, which defines it, and tree.py, whose implicit_step solves it in
    closed form; no module calls a y-curried form (.affine( or .curry()."""
    named, curried = set(), []
    for path in sorted(Path(jumpbsde.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if "Affine" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                named.add(path.name)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("affine", "curry"):
                curried.append(f"{path.name}:{node.lineno}")
    assert named == {"generators.py", "tree.py"} and curried == []


# ---------------------------------------------------------------------------
# Per-axis lattice operators against the child-table gathers they replaced
# ---------------------------------------------------------------------------


@st.composite
def lattice_levels(draw):
    """sigma in {0, 1}, 0-3 marks with lambda dt in (0, 1), 1-6 steps (fewer on wide trees) and a seed."""
    sigma = draw(st.sampled_from([0.0, 1.0]))
    n_marks = draw(st.integers(0, 3))
    branching = (2 if sigma else 1) * 2**n_marks
    fits = [s for s in range(1, 7) if sum(branching**i for i in range(s + 1)) <= 2_000_000]
    steps = min(draw(st.integers(1, 6)), fits[-1])
    marks = tuple((0.3 * (k + 1), draw(st.floats(0.01, 0.99)) * steps) for k in range(n_marks))
    return build_tree(LevyModel(0.1, sigma, marks), TimeGrid(1.0, steps)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(lattice_levels())
def test_one_step_stencil_matches_the_child_table_gather(problem):
    """(E, Z, U) from per-axis stencils equal y'[kids] @ (branch_prob, w_z, w_u) to 1e-14 of the values' scale."""
    tree, seed = problem
    lat, dt, j = tree.lattice, tree.grid.dt, tree.model.n_marks
    w_z, w_u = representation_weights(tree)
    rng = np.random.default_rng(seed)
    for i in range(tree.n_steps):
        y = rng.standard_normal(lat.x[i + 1].size) * 10.0 ** rng.uniform(-3, 3)
        nxt = y[kids_table(tree, i)]
        size, scale = lat.x[i].size, np.abs(y).max()
        want = (nxt @ tree.branch_prob, nxt @ w_z if w_z is not None else np.zeros(size),
                nxt @ w_u if w_u is not None else np.zeros((size, j)))
        for name, got, ref, norm in zip("EZU", lat.one_step(i, y, dt), want, (1.0, 1.0 / np.sqrt(dt), 1.0)):
            assert got.shape == ref.shape, (name, i)
            err = np.abs(got - ref).max(initial=0.0)
            assert err <= 1e-14 * scale * norm, (name, i, float(err / scale / norm))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lattice_levels())
def test_max_plus_recursion_equals_the_maximum_at_scatter_bytewise(problem):
    """max is exact, so the per-axis max-plus step and its sup time sum equal np.maximum.at over the kids."""
    tree, seed = problem
    rng = np.random.default_rng(seed)
    table = [rng.standard_normal(x.size) for x in tree.lattice.x]
    coeff = lambda ctx, t: table[int(round(t / tree.grid.dt))]  # noqa: E731
    v = np.zeros(1)
    for i in range(tree.n_steps):
        step = v + tree.grid.dt * table[i]
        v = np.full(tree.lattice.x[i + 1].size, -np.inf)
        np.maximum.at(v, kids_table(tree, i), step[:, None])
        assert same_bytes(tree.lattice.forward(i, step, law=False), v), i
    assert np.float64(_sup_time_sum(tree, coeff)).tobytes() == np.float64(v.max()).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lattice_levels())
def test_moment_flow_matches_the_add_at_scatter(problem):
    """E[(int F dt)^2] from per-axis moment flows equals the np.add.at flow over the kids to 1e-14 relative."""
    tree, seed = problem
    rng = np.random.default_rng(seed)
    table = [rng.standard_normal(x.size) for x in tree.lattice.x]
    g = GeneratorSpec(name="table_F", eval=lambda ctx, t, y, z, u: np.zeros_like(y),
                      F=lambda ctx, t: table[int(round(t / tree.grid.dt))])
    lat, p, m1, m2 = tree.lattice, tree.branch_prob, np.zeros(1), np.zeros(1)
    for i in range(tree.n_steps):
        a = tree.grid.dt * table[i]
        s1, s2 = m1 + a * lat.mass[i], m2 + a * (2.0 * m1 + a * lat.mass[i])
        m1, m2 = (np.zeros(lat.x[i + 1].size) for _ in range(2))
        np.add.at(m1, kids_table(tree, i), s1[:, None] * p)
        np.add.at(m2, kids_table(tree, i), s2[:, None] * p)
        assert np.abs(lat.forward(i, s2) - m2).max() <= 1e-14 * np.abs(m2).max(), i
    assert measure_e_if2(tree, g) == pytest.approx(float(m2.sum()), rel=1e-14, abs=0.0)
