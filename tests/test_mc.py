import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumpbsde import (
    FixedPointError,
    LevyModel,
    ModelError,
    RegressionBasis,
    TimeGrid,
    bootstrap_y0,
    build_tree,
    jump_ordering_violator,
    l2_distance,
    linear_driver,
    linear_y,
    simulate_paths,
    solve_backward,
    solve_mc,
    tanh_jump_integral,
    truncate_generator,
    zero_generator,
)
from jumpbsde.config import generator_from_config, model_from_config
from jumpbsde.experiments import default_mc_suite
from jumpbsde.generators import StepContext
from jumpbsde.mc import _GRAM_RANK_TOL, RegressionError, _backward_pass, _design, _solve_nested, _weighted_sums
from jumpbsde.terminals import make_terminal
from jumpbsde.tree import implicit_step

XI_X = make_terminal("x")


def test_zero_driver_brownian_terminal_mean():
    model = LevyModel(0.0, 1.0)
    grid = TimeGrid(1.0, 6)
    est = bootstrap_y0(model, grid, zero_generator(), make_terminal("w"), paths=4000, seed=5)
    assert abs(est.y0 - 0.0) <= 3 * est.se


def test_exponential_growth_within_two_percent():
    # deterministic data, so the path count is irrelevant: the implicit
    # recursion gives (1 - k dt)^(-N), within 2% of e^k at N = 100
    k, n = 1.0, 100
    model = LevyModel(0.0, 0.0)
    sol = solve_mc(model, TimeGrid(1.0, n), linear_y(k), make_terminal({"name": "const", "value": 1.0}),
                   paths=500, seed=1)
    assert sol.y0 == pytest.approx((1.0 - k / n) ** (-n), rel=1e-10)
    assert abs(sol.y0 - np.e) / np.e < 0.02


def test_oracle_equivalence_small_instance():
    model = LevyModel(0.0, 1.0, ((0.5, 0.2),))
    grid = TimeGrid(1.0, 8)
    g = linear_driver(0.15, 0.2, -0.5)
    tree_y0 = solve_backward(build_tree(model, grid), g, XI_X).y0
    est = bootstrap_y0(model, grid, g, XI_X, paths=20000, seed=2024)
    assert abs(est.y0 - tree_y0) <= 3 * est.se


def test_bootstrap_se_shrinks_like_inverse_sqrt_paths():
    model = LevyModel(0.05, 1.0)
    grid = TimeGrid(1.0, 6)
    counts = [2500, 10000, 40000]
    ses = [bootstrap_y0(model, grid, zero_generator(), XI_X, paths=m, seed=77, n_boot=40).se for m in counts]
    slope = np.polyfit(np.log(counts), np.log(ses), 1)[0]
    assert abs(slope + 0.5) <= 0.1


def test_seed_determinism():
    model = LevyModel(0.0, 1.0, ((0.4, 0.3),))
    grid = TimeGrid(1.0, 5)
    g = linear_driver(0.2, 0.2, -0.4)
    a = solve_mc(model, grid, g, XI_X, paths=3000, seed=9)
    paths_a = simulate_paths(model, grid, 3000, 9)  # the kept bundle a was solved on
    simulate_paths(model, grid, 3000, 10)  # another key, so b solves on a second draw
    b = solve_mc(model, grid, g, XI_X, paths=3000, seed=9)
    assert simulate_paths(model, grid, 3000, 9) is not paths_a
    assert np.array_equal(a.Y, b.Y) and np.array_equal(a.Z, b.Z) and np.array_equal(a.U, b.U)


def _mc_digest(model, grid, g, xi, paths, seed, evict_between):
    sol = solve_mc(model, grid, g, xi, paths=paths, seed=seed)
    if evict_between:
        simulate_paths(model, grid, paths, seed + 1)
    est = bootstrap_y0(model, grid, g, xi, paths=paths, seed=seed)
    h = hashlib.sha256()
    for a in (sol.Y, sol.Z, sol.U, sol.degrees_used, sol.fp_iterations, [est.y0, est.se], est.samples,
              est.fp_iterations):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("inst", default_mc_suite(), ids=lambda inst: inst["name"])
def test_mc_outputs_do_not_depend_on_the_kept_draw(inst):
    model, g = model_from_config(inst["model"]), generator_from_config(inst["generator"])
    grid, paths, seed = TimeGrid(1.0, inst["steps"]), 1001, 5
    # each solver on its own draw, as before paths were kept
    simulate_paths(model, grid, paths, seed + 1)
    separate = _mc_digest(model, grid, g, XI_X, paths, seed, evict_between=True)
    # cold: solve_mc draws and bootstrap_y0 reuses the draw
    simulate_paths(model, grid, paths, seed + 1)
    cold = _mc_digest(model, grid, g, XI_X, paths, seed, evict_between=False)
    # warm: the draw and its cumulative paths exist before either solver runs
    bundle = simulate_paths(model, grid, paths, seed)
    bundle.states(), bundle.brownian(), bundle.jump_counts()
    warm = _mc_digest(model, grid, g, XI_X, paths, seed, evict_between=False)
    assert simulate_paths(model, grid, paths, seed) is bundle
    assert cold == separate and warm == separate



def test_degree_reduction_on_degenerate_state():
    # drift-only model: the state is deterministic, only the constant survives
    sol = solve_mc(LevyModel(1.0, 0.0), TimeGrid(1.0, 4), zero_generator(), XI_X, paths=200, seed=0)
    assert all(d == 0 for d in sol.degrees_used)
    assert sol.y0 == pytest.approx(1.0, abs=1e-12)


def test_path_count_validation():
    with pytest.raises(RegressionError):
        solve_mc(LevyModel(0.0, 1.0), TimeGrid(1.0, 2), zero_generator(), XI_X,
                 paths=20, basis=RegressionBasis(degree=3), seed=0)


def test_mc_rejects_fast_marks():
    model = LevyModel(0.0, 0.0, ((1.0, 3.0),))
    with pytest.raises(RegressionError):
        solve_mc(model, TimeGrid(1.0, 2), zero_generator(), XI_X, paths=500, seed=0)


def test_jump_coefficient_uses_poisson_variance():
    # Y = X exactly, so U = 0.5 on every path; lambda*dt = 0.4 makes a
    # Bernoulli normalization visible (it gives 0.5 / 0.6)
    model = LevyModel(0.0, 0.0, ((0.5, 4.0),))
    sol = solve_mc(model, TimeGrid(1.0, 10), zero_generator(), XI_X, paths=20000, seed=0)
    assert abs(sol.U.mean() - 0.5) < 0.02


def test_implicit_step_failure_names_the_step():
    # dt * K1 = 2: the one-step fixed point diverges
    with pytest.raises(FixedPointError, match="step 1"):
        solve_mc(LevyModel(0.0, 1.0), TimeGrid(1.0, 2), linear_y(4.0), XI_X, paths=200, seed=0)


def _reference_fit(x, targets, degree):
    deg = degree
    while True:
        phi = _design(x, deg)
        coef, _, rank, _ = np.linalg.lstsq(phi, targets, rcond=None)
        if rank == phi.shape[1]:
            return phi @ coef, deg if phi.shape[1] > 1 else 0
        deg -= 1


def _reference_y0(bundle, g, xi, degree, idx):
    """One unweighted implicit regression pass on the resampled paths idx."""
    model, grid = bundle.model, bundle.grid
    n, j, dt = grid.steps, model.n_marks, grid.dt
    x, w, c = bundle.states()[idx], bundle.brownian()[idx], bundle.jump_counts()[idx]
    dw, dnt = bundle.dw[idx], bundle.dn[idx] - model.intensities * dt
    y = xi(StepContext(model=model, x=x[:, n], w=w[:, n], counts=c[:, n]))
    degrees = [0] * n
    for i in range(n - 1, -1, -1):
        targets = np.column_stack([y, y * dw[:, i]] + [y * dnt[:, i, k] for k in range(j)])
        fitted, degrees[i] = _reference_fit(x[:, i], targets, degree)
        ey = fitted[:, 0]
        z = fitted[:, 1] / dt if model.sigma > 0 else np.zeros(ey.size)
        u = fitted[:, 2:] / (model.intensities * dt)
        ctx = StepContext(model=model, x=x[:, i], w=w[:, i], counts=c[:, i])
        y = ey
        for _ in range(200):
            y_new = ey + dt * np.asarray(g.eval(ctx, float(grid.times[i]), y, z, u), dtype=float)
            done = np.max(np.abs(y_new - y)) <= 1e-12
            y = y_new
            if done:
                break
    return y.mean(), degrees


@pytest.mark.parametrize("inst", default_mc_suite(), ids=lambda inst: inst["name"])
def test_weighted_bootstrap_matches_resampled_passes(inst):
    model = model_from_config(inst["model"])
    g = generator_from_config(inst["generator"])
    grid = TimeGrid(1.0, inst["steps"])
    paths, seed, n_boot = 4000, 3, 24
    est = bootstrap_y0(model, grid, g, XI_X, paths=paths, seed=seed, n_boot=n_boot)

    bundle = simulate_paths(model, grid, paths, seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(987,))))
    resamples = [np.arange(paths)] + [rng.integers(0, paths, size=paths) for _ in range(n_boot)]
    reference = [_reference_y0(bundle, g, XI_X, 3, idx) for idx in resamples]
    ref_y0 = np.array([y0 for y0, _ in reference])
    ref_degrees = np.array([degrees for _, degrees in reference])
    assert est.y0 == pytest.approx(ref_y0[0], abs=1e-10)
    np.testing.assert_allclose(est.samples, ref_y0[1:], rtol=0.0, atol=1e-10)

    weights = np.array([np.bincount(idx, minlength=paths) for idx in resamples], dtype=float)
    _, degrees, _, _ = _backward_pass(bundle, g, XI_X, RegressionBasis(), weights)
    np.testing.assert_array_equal(degrees, ref_degrees)
    if inst["name"] == "two_jumps":
        # pure-jump resamples lose rare lattice values, so some fits drop degree
        assert np.count_nonzero(degrees[1:] < degrees[0]) == 11


def test_l2_distance_rejects_mixed_kinds():
    model = LevyModel(0.0, 1.0)
    grid = TimeGrid(1.0, 3)
    mc = solve_mc(model, grid, zero_generator(), XI_X, paths=200, seed=0)
    tree_sol = solve_backward(build_tree(model, grid), zero_generator(), XI_X)
    for pair in ((mc, tree_sol), (mc, mc)):  # tree solutions only
        with pytest.raises(ModelError, match="needs two tree solutions"):
            l2_distance(*pair)


@pytest.mark.parametrize("n_boot", [0, 1])
def test_bootstrap_needs_two_resamples(n_boot):
    # the standard error of fewer than two replicates is undefined (n_boot = 1 gave NaN)
    with pytest.raises(RegressionError, match=f"^n_boot must be at least 2 .*, got {n_boot}$"):
        bootstrap_y0(LevyModel(0.0, 1.0), TimeGrid(1.0, 3), zero_generator(), XI_X, paths=200, n_boot=n_boot)


# ---------------------------------------------------------------------------
# The backward pass against a plain copy of the same arithmetic
# ---------------------------------------------------------------------------


def _plain_design(x, degree):
    x = np.asarray(x, dtype=float)
    s = x.std()
    if s == 0.0 or degree == 0:
        return np.ones((x.size, 1))
    return np.vander((x - x.mean()) / s, degree + 1, increasing=True)


def _plain_orthonormal_design(x, degree):
    phi = _plain_design(x, degree)
    q, r = np.linalg.qr(phi)
    k = phi.shape[1]
    while k > 1:
        s = np.linalg.svd(r[:k, :k], compute_uv=False)
        if s[-1] > np.finfo(float).eps * max(phi.shape[0], k) * s[0]:
            break
        k -= 1
    return q[:, :k]


def _plain_solve_nested(gram, rhs):
    """The rank test on every leading block of every row."""
    full = np.stack([np.linalg.eigvalsh(gram[:, :k, :k])[:, 0] > _GRAM_RANK_TOL
                     for k in range(1, gram.shape[1] + 1)], axis=1)
    kept = np.cumprod(full, axis=1).sum(axis=1)
    coef = np.zeros_like(rhs)
    for k in np.unique(kept):
        sel = kept == k
        coef[sel, :k] = np.linalg.solve(gram[sel, :k, :k], rhs[sel, :k])
    return coef, kept


def _plain_backward_pass(bundle, g, xi, degree, weights, fold=True):
    """_backward_pass(..., keep=True) written plainly: np.vander designs, broadcast Gram products,
    concatenated regressor columns, fresh arrays for every product and the nested rank test; rows after
    the first of a driver that declares linear coefficients are solved from them, unless not `fold`, when
    every row takes the per-row step."""
    model, grid = bundle.model, bundle.grid
    lin = g.linear if fold else None
    n, j, dt = grid.steps, model.n_marks, grid.dt
    x_path, w_path, c_path = bundle.states(), bundle.brownian(), bundle.jump_counts()
    dw, dnt = bundle.dw, bundle.dn - model.intensities * dt
    rows, m = weights.shape

    def context(i):
        return StepContext(model=model, x=x_path[:, i], w=w_path[:, i], counts=c_path[:, i])

    y = np.empty((rows, m))
    y[:] = xi(context(n))
    degrees = np.zeros((rows, n), dtype=int)
    iterations = np.zeros((rows, n), dtype=int)
    y_keep, z_keep, u_keep = np.empty((m, n + 1)), np.zeros((m, n)), np.zeros((m, n, j))
    y_keep[:, n] = y[0]
    for i in range(n - 1, -1, -1):
        q = _plain_orthonormal_design(x_path[:, i], degree)
        k = q.shape[1]
        gram = _weighted_sums(weights, (q[:, :, None] * q[:, None, :]).reshape(m, k * k)).reshape(rows, k, k)
        cols = np.concatenate([q, q * dw[:, i, None]] + [q * dnt[:, i, mk, None] for mk in range(j)], axis=1)
        rhs = _weighted_sums(weights * y, cols).reshape(rows, 2 + j, k).transpose(0, 2, 1)
        coef, kept = _plain_solve_nested(gram, rhs)
        degrees[:, i] = kept - 1
        for b in range(rows if lin is None else 1):
            fitted = q @ coef[b]
            z = fitted[:, 1] / dt if model.sigma > 0 else np.zeros(m)
            u = fitted[:, 2:] / (model.intensities * dt)
            y[b], iterations[b, i] = implicit_step(g, context(i), float(grid.times[i]), dt, fitted[:, 0], z, u, i)
            if b == 0:
                y_keep[:, i], z_keep[:, i], u_keep[:, i, :] = y[0], z, u
        if lin is not None:
            # fitted @ (1, b, c) is E[y'] + dt (b z + sum_j c_j lambda_j u_j)
            v = np.array([1.0, lin.b if model.sigma > 0 else 0.0, *lin.jump_coefficients(model)])
            y[1:] = (coef[1:] @ v) @ q.T / (1.0 - dt * lin.a)
            iterations[1:, i] = 1
    return (weights * y).sum(axis=1) / m, degrees, iterations, (y_keep, z_keep, u_keep)


def _plain_eval(g):
    """g with a plain eval, so the implicit step runs the fixed point on it."""
    return replace(g, name=f"plain {g.name}", eval=lambda ctx, t, y, z, u: g.eval(ctx, t, y, z, u))


PASS_DRIVERS = {
    "zero": lambda j: zero_generator(),
    "linear_y": lambda j: linear_y(-0.7),
    "linear_driver": lambda j: linear_driver(0.4, -0.3, tuple(0.5 - k for k in range(j)) or 0.5),
    "tanh_jump_integral": lambda j: tanh_jump_integral(),
    "jump_ordering_violator": lambda j: jump_ordering_violator(),
    "truncated": lambda j: truncate_generator(linear_driver(0.3, 0.8, 1.5), 1),
    "plain_eval": lambda j: _plain_eval(linear_driver(0.5, 0.2, -0.5)),
}


def _pass_inputs(sigma, sizes, steps, paths, seed, rows, zero_share, driver, terminal):
    """A path bundle, driver, terminal and weights: row 0 all ones or a resample, the other rows resamples,
    and the first zero_share of the paths weighted zero in every row after the first."""
    lam = [0.3 * steps, 0.6 * steps][:len(sizes)]  # lambda*dt is 0.3 and 0.6
    model = LevyModel(0.1, sigma, tuple(zip(sizes, lam)))
    bundle = simulate_paths(model, TimeGrid(1.0, steps), paths, seed)
    rng = np.random.default_rng(seed)
    weights = np.array([np.bincount(rng.integers(0, paths, size=paths), minlength=paths) for _ in range(rows)],
                       dtype=float)
    if seed % 2:
        weights[0] = 1.0
    weights[1:, :int(zero_share * paths)] = 0.0
    return bundle, PASS_DRIVERS[driver](len(sizes)), make_terminal(terminal), weights


def _assert_pass_matches_plain_copy(bundle, g, xi, weights):
    got = _backward_pass(bundle, g, xi, RegressionBasis(), weights, keep=True)
    want = _plain_backward_pass(bundle, g, xi, 3, weights)
    for name, a, b in zip(("y0", "degrees", "iterations"), got[:3], want[:3]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name, a, b in zip("YZU", got[3], want[3]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    return got[1]


@st.composite
def backward_passes(draw, drivers=tuple(sorted(PASS_DRIVERS))):
    n_marks = draw(st.integers(0, 2))
    sizes = [draw(st.sampled_from([0.5, -0.5])), draw(st.sampled_from([1.5, -0.3]))][:n_marks]
    return (draw(st.sampled_from([0.0, 1.0])), sizes, draw(st.integers(1, 6)), draw(st.integers(30, 300)),
            draw(st.integers(0, 2**16)), draw(st.integers(1, 5)), draw(st.sampled_from([0.0, 0.1, 0.5])),
            draw(st.sampled_from(drivers)), draw(st.sampled_from(["x", "tanh_x", "clip_x"])))


PURE_JUMP_PASS = (0.0, [0.5], 4, 203, 3, 5, 0.5, "linear_driver", "x")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(backward_passes())
@example(PURE_JUMP_PASS)
@example((1.0, [0.5, -0.3], 6, 301, 2, 4, 0.1, "plain_eval", "tanh_x"))
def test_backward_pass_is_bitwise_its_plain_copy(case):
    _assert_pass_matches_plain_copy(*_pass_inputs(*case))


def test_plain_copy_check_covers_a_pure_jump_state_that_drops_degree():
    degrees = _assert_pass_matches_plain_copy(*_pass_inputs(*PURE_JUMP_PASS))
    assert degrees.min() == 0  # the state is deterministic at step 0
    # at some step, some rows keep the whole basis and the others search their leading blocks
    assert ((degrees == 3).any(axis=0) & (degrees < 3).any(axis=0)).any()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(backward_passes(("jump_ordering_violator", "linear_driver", "linear_y", "zero")))
@example(PURE_JUMP_PASS)
def test_folded_rows_are_the_per_row_step(case):
    """Every row of a bootstrap pass of a declaring driver is folded; its Y0 is that of the per-row step
    up to rounding, with the same degrees and one iteration."""
    bundle, g, xi, weights = _pass_inputs(*case)
    assert g.linear is not None
    y0, degrees, iterations, _ = _backward_pass(bundle, g, xi, RegressionBasis(), weights)
    want_y0, want_degrees, want_iterations, _ = _plain_backward_pass(bundle, g, xi, 3, weights, fold=False)
    assert np.all(np.abs(y0 - want_y0) <= 1e-12 * np.maximum(1.0, np.abs(want_y0))), (y0 - want_y0)
    assert np.array_equal(degrees, want_degrees) and np.array_equal(iterations, want_iterations)


def test_folded_step_without_a_unique_solution_names_the_step():
    # dt * a = 2, as in test_implicit_step_failure_names_the_step, here raised by the folded rows
    with pytest.raises(FixedPointError, match=r"^implicit step has no unique solution at step 1: "
                                              r"1 - dt\*slope = -1 <= 0$"):
        bootstrap_y0(LevyModel(0.0, 1.0), TimeGrid(1.0, 2), linear_y(4.0), XI_X, paths=200, seed=0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_folded_step_with_a_non_finite_solution_names_the_step():
    infinite = lambda ctx: np.full(np.shape(ctx.x), np.inf)  # noqa: E731
    with pytest.raises(FixedPointError, match=r"^implicit step has a non-finite solution at step 2$"):
        bootstrap_y0(LevyModel(0.0, 1.0, ((0.5, 0.8),)), TimeGrid(1.0, 3), linear_driver(0.2, 0.3, -0.5), infinite,
                     paths=200, seed=0)


@st.composite
def gram_stacks(draw):
    """Gram stacks of 1-6 rows; per row, a random well-conditioned Gram matrix, one with a repeated or a
    zero column (rank deficient) or a diagonal with 1e-10 = _GRAM_RANK_TOL at a drawn position."""
    k0 = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    grams = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["full", "repeat", "zero", "at_tol"]))
        a = rng.standard_normal((40, k0))
        col = draw(st.integers(0, k0 - 1))
        if kind == "repeat" and k0 > 1:
            a[:, col] = a[:, col - 1]
        elif kind == "zero":
            a[:, col] = 0.0
        grams.append(np.diag(rng.uniform(0.5, 2.0, k0)) if kind == "at_tol" else a.T @ a / 40)
        if kind == "at_tol":
            grams[-1][col, col] = _GRAM_RANK_TOL
    gram = np.stack(grams)
    return gram, rng.standard_normal((gram.shape[0], k0, 3))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gram_stacks())
def test_solve_nested_is_bitwise_the_rank_test_on_every_leading_block(stack):
    gram, rhs = stack
    (coef, kept), (coef_ref, kept_ref) = _solve_nested(gram, rhs), _plain_solve_nested(gram, rhs)
    assert kept.tolist() == kept_ref.tolist()
    assert coef.tobytes() == coef_ref.tobytes()


def test_solve_nested_keeps_the_block_before_an_eigenvalue_at_the_tolerance():
    gram = np.stack([np.diag([1.0, _GRAM_RANK_TOL, 1.0]), np.diag([1.0, 1.0, _GRAM_RANK_TOL]), np.eye(3)])
    _, kept = _solve_nested(gram, np.ones((3, 3, 2)))
    assert kept.tolist() == [1, 2, 3]


def test_bootstrap_peak_memory_holds_no_per_step_regressors():
    """Per step the pass keeps one (paths, 2 + marks) array of increments; regressors for every step
    at once would add steps * paths * (2 + marks) doubles (2 MiB here) and break the guard."""
    model = LevyModel(0.0, 1.0, ((0.6, 0.25), (-0.4, 0.2)))
    grid, g = TimeGrid(1.0, 16), linear_driver(0.2, 0.3, [0.4, -0.6])
    bootstrap_y0(model, grid, g, XI_X, paths=400, seed=1)  # first-call allocations outside the trace
    tracemalloc.start()
    try:
        est = bootstrap_y0(model, grid, g, XI_X, paths=4000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(est.y0)
    assert peak <= 1.1 * 7.75 * 2**20, f"peak {peak / 2**20:.2f} MiB"
