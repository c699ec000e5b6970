import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumpbsde import (
    FixedPointError,
    GeneratorSpec,
    LevyModel,
    ModelError,
    TimeGrid,
    TreeSizeError,
    build_tree,
    conditional_expectation,
    l2_distance,
    linear_driver,
    linear_y,
    project_coarse,
    shift_generator,
    solve_backward,
    solve_truncated,
    zero_generator,
)
from jumpbsde.levy import kept_marks_mask
from jumpbsde.terminals import make_terminal
from jumpbsde.tree import DEFAULT_FP_TOL

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
    tree = build_tree(LevyModel(0.0, 1.0, ((0.6, 0.5),)), TimeGrid(1.0, 3))
    const = np.full(tree.level_size(2), 3.25)
    assert np.array_equal(conditional_expectation(tree, const), np.full(tree.level_size(1), 3.25))
    # centered one-step increments average to zero
    dw_children = np.tile(tree.dw_branch, tree.level_size(2))
    assert np.allclose(conditional_expectation(tree, dw_children), 0.0, atol=1e-16)
    dnt_children = np.tile(tree.dn_tilde_branch()[:, 0], tree.level_size(2))
    assert np.allclose(conditional_expectation(tree, dnt_children), 0.0, atol=1e-16)


def test_two_point_compensated_mean_is_exact_zero():
    # single mark, no Brownian part: p(1-p) + (1-p)(-p) cancels exactly
    tree = build_tree(LevyModel(0.0, 0.0, ((1.0, 0.7),)), TimeGrid(1.0, 2))
    terms = tree.dn_tilde_branch()[:, 0] * tree.branch_prob
    assert terms[0] == -terms[1]  # the two products cancel bit for bit
    # the BLAS dot may fuse the multiply-add, leaving at most one ulp
    dnt_children = np.tile(tree.dn_tilde_branch()[:, 0], tree.level_size(1))
    out = conditional_expectation(tree, dnt_children)
    assert np.abs(out).max() <= 1e-16


def test_tower_property():
    tree = build_tree(LevyModel(0.1, 1.0, ((0.5, 0.5),)), TimeGrid(1.0, 4))
    rng = np.random.default_rng(8)
    values = rng.standard_normal(tree.level_size(3))
    two_hops = conditional_expectation(tree, conditional_expectation(tree, values))
    p2 = np.kron(tree.branch_prob, tree.branch_prob)
    direct = values.reshape(-1, tree.branching**2) @ p2
    assert np.allclose(two_hops, direct, atol=1e-14)


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
            assert np.array_equal(nxt @ tree.branch_prob, sol.Y[i])
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
    tree = build_tree(LevyModel(0.0, 0.0), TimeGrid(1.0, 1))
    with pytest.raises(FixedPointError, match=r"step 0 .*last delta 8\.88e\+34, estimated contraction dt\*K1 = 5$"):
        solve_backward(tree, linear_y(5.0), make_terminal({"name": "const", "value": 1.0}), max_iter=50)


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
    for a, b in zip(full.Y + full.Z + full.U, trunc.Y + trunc.Z + trunc.U):
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


def test_solve_truncated_reduces_to_full_solver_when_nothing_removed():
    tree = build_tree(TWO_MARK_MODEL, TimeGrid(1.0, 3))
    g = linear_driver(0.3, 0.2, (0.4, -0.5))
    full = solve_backward(tree, g, XI_X)
    trunc = solve_truncated(tree, g, XI_X, 100)
    for a, b in zip(full.Y + full.Z + full.U, trunc.Y + trunc.Z + trunc.U):
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
    dt = tree.grid.dt
    leaves = tree.wpaths[3]
    run = np.abs(tree.wpaths[0])
    for lvl in range(1, 4):
        run = np.maximum(np.repeat(run, 2), np.abs(tree.wpaths[lvl]))
    expected = float((run * run) @ tree.node_prob[3])
    assert sol.expected_sup_y_squared() == pytest.approx(expected)
    z2, u2 = sol.zu_integrals()
    assert z2 == pytest.approx(1.0)  # Z is 1 throughout: int_0^1 1 ds
    assert u2 == 0.0
    assert sol.sup_expected_y_squared() == pytest.approx(float((leaves * leaves) @ tree.node_prob[3]))


def test_l2_distance_constant_offset():
    tree = build_tree(LevyModel(0.0, 1.0), TimeGrid(1.0, 4))
    sol = solve_backward(tree, ZERO, XI_X)
    shifted = solve_backward(tree, ZERO, make_terminal({"name": "x", "shift": 0.5}))
    d = l2_distance(sol, shifted)
    assert d.dY == pytest.approx(0.25 * 1.0)  # c^2 * T over the left endpoints
    assert d.dZ == pytest.approx(0.0, abs=1e-28)


@st.composite
def ordered_pairs(draw):
    """A small tree (lambda dt < 1), a linear driver with every c_j >= -1, and ordered shifts of it and of x."""
    steps = draw(st.integers(2, 4))
    n_marks = draw(st.integers(0, 2))
    sizes = draw(st.lists(st.sampled_from([0.5, -0.3, 1.5, 0.05]), min_size=n_marks, max_size=n_marks, unique=True))
    marks = tuple((x, draw(st.floats(0.05, 0.95)) * steps) for x in sizes)
    tree = build_tree(LevyModel(draw(st.floats(-0.5, 0.5)), draw(st.sampled_from([0.0, 1.0])), marks),
                      TimeGrid(1.0, steps))
    c = tuple(draw(st.floats(-1.0, 2.0)) for _ in sizes) or 0.0
    g = linear_driver(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)), c)
    return tree, g, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ordered_pairs())
@example((build_tree(LevyModel(0.0, 1.0, ((0.5, 0.8), (-0.3, 0.4))), TimeGrid(1.0, 4)),
          linear_driver(0.5, 0.5, (-1.0, -1.0)), 0.0, 0.0))
def test_comparison_theorem_holds_node_wise(pair):
    """Ordered data f <= f + delta, x <= x + s and the ordered-jump condition c_j >= -1 order Y at every node."""
    tree, g, delta, s = pair
    assert g.satisfies_jump_ordering
    sol = solve_backward(tree, g, XI_X)
    sol_up = solve_backward(tree, shift_generator(g, delta), make_terminal({"name": "x", "shift": s}))
    for lvl, (y, y_up) in enumerate(zip(sol.Y, sol_up.Y)):
        assert np.all(y <= y_up + 10 * DEFAULT_FP_TOL), (lvl, float(np.max(y - y_up)))
