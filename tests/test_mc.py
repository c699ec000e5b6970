import numpy as np
import pytest

from jumpbsde import (
    FixedPointError,
    LevyModel,
    RegressionBasis,
    TimeGrid,
    bootstrap_y0,
    build_tree,
    l2_distance,
    linear_driver,
    linear_y,
    simulate_paths,
    solve_backward,
    solve_mc,
    zero_generator,
)
from jumpbsde.config import generator_from_config, model_from_config
from jumpbsde.experiments import default_mc_suite
from jumpbsde.generators import StepContext
from jumpbsde.mc import RegressionError, _backward_pass, _design
from jumpbsde.terminals import make_terminal

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
    b = solve_mc(model, grid, g, XI_X, paths=3000, seed=9)
    assert np.array_equal(a.Y, b.Y) and np.array_equal(a.Z, b.Z) and np.array_equal(a.U, b.U)


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
    dw, dnt = bundle.dw[idx], bundle.dn_tilde[idx]
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


def test_l2_distance_mc_solutions():
    from dataclasses import replace

    model = LevyModel(0.0, 1.0)
    grid = TimeGrid(1.0, 5)
    a = solve_mc(model, grid, zero_generator(), XI_X, paths=400, seed=3)
    same = solve_mc(model, grid, zero_generator(), XI_X, paths=400, seed=3)
    d0 = l2_distance(a, same)
    assert (d0.dY, d0.dZ, d0.dU) == (0.0, 0.0, 0.0)
    offset = replace(a, Y=a.Y + 2.0)
    d = l2_distance(a, offset)
    assert d.dY == pytest.approx(4.0 * grid.horizon)
    assert d.dZ == 0.0 and d.dU == 0.0


def test_l2_distance_rejects_mixed_kinds():
    model = LevyModel(0.0, 1.0)
    grid = TimeGrid(1.0, 3)
    mc = solve_mc(model, grid, zero_generator(), XI_X, paths=200, seed=0)
    tree_sol = solve_backward(build_tree(model, grid), zero_generator(), XI_X)
    with pytest.raises(Exception):
        l2_distance(mc, tree_sol)


@pytest.mark.parametrize("n_boot", [0, 1])
def test_bootstrap_needs_two_resamples(n_boot):
    # the standard error of fewer than two replicates is undefined (n_boot = 1 gave NaN)
    with pytest.raises(RegressionError, match=f"^n_boot must be at least 2 .*, got {n_boot}$"):
        bootstrap_y0(LevyModel(0.0, 1.0), TimeGrid(1.0, 3), zero_generator(), XI_X, paths=200, n_boot=n_boot)
