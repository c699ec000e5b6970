import gc
import hashlib
import tracemalloc
import weakref
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
from jumpbsde import mc
from jumpbsde.config import generator_from_config, model_from_config
from jumpbsde.experiments import default_mc_suite
from jumpbsde.generators import StepContext
from jumpbsde.levy import PATH_BLOCK
from jumpbsde.mc import RegressionError, _backward_pass, _influence, _orthonormal_rows, _weighted_sums
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
    ses = [bootstrap_y0(model, grid, zero_generator(), XI_X, paths=m, seed=77).se for m in counts]
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
    for a in (sol.Y, sol.Z, sol.U, sol.degrees_used, sol.fp_iterations, [est.y0, est.se]):
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


BM = LevyModel(0.0, 1.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: RegressionBasis(2.5), RegressionError, "'degree' must be an integer, got 2.5"),
    (lambda: RegressionBasis(True), RegressionError, "'degree' must be an integer, got True"),
    (lambda: solve_mc(BM, TimeGrid(1.0, 3), zero_generator(), XI_X, paths=200.0), RegressionError,
     "'paths' must be an integer, got 200.0"),
    (lambda: bootstrap_y0(BM, TimeGrid(1.0, 3), zero_generator(), XI_X, paths=200.0), RegressionError,
     "'paths' must be an integer, got 200.0"),
    (lambda: simulate_paths(BM, TimeGrid(1.0, 3), 200.0, 0), ModelError, "'count' must be an integer, got 200.0"),
], ids=["degree", "bool_degree", "solve_paths", "bootstrap_paths", "count"])
def test_non_integer_sizes_are_named(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_numpy_integer_sizes_are_accepted():
    grid, g = TimeGrid(1.0, 3), zero_generator()
    basis = RegressionBasis(np.int64(2))
    est = bootstrap_y0(BM, grid, g, XI_X, paths=np.int64(200), basis=basis)
    want = bootstrap_y0(BM, grid, g, XI_X, paths=200, basis=RegressionBasis(2))
    assert (est.y0, est.se) == (want.y0, want.se)
    assert solve_mc(BM, grid, g, XI_X, paths=np.int16(200), basis=basis).y0 == solve_mc(BM, grid, g, XI_X, paths=200,
                                                                                        basis=basis).y0


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
        phi = _plain_design(x, deg)
        coef, _, rank, _ = np.linalg.lstsq(phi, targets, rcond=None)
        if rank == phi.shape[1]:
            return phi @ coef
        deg -= 1


def _reference_y0(bundle, g, xi, degree, idx):
    """One unweighted implicit regression pass on the resampled paths idx."""
    model, grid = bundle.model, bundle.grid
    n, j, dt = grid.steps, model.n_marks, grid.dt
    x, w, c = bundle.states()[idx], bundle.brownian()[idx], bundle.jump_counts()[idx]
    dw, dnt = bundle.dw[idx], bundle.dn[idx] - model.intensities * dt
    y = xi(StepContext(model=model, x=x[:, n], w=w[:, n], counts=c[:, n]))
    for i in range(n - 1, -1, -1):
        targets = np.column_stack([y, y * dw[:, i]] + [y * dnt[:, i, k] for k in range(j)])
        fitted = _reference_fit(x[:, i], targets, degree)
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
    return y.mean()


@pytest.mark.parametrize("inst", default_mc_suite(), ids=lambda inst: inst["name"])
def test_weighted_bootstrap_matches_resampled_passes(inst):
    """The first-order replicate of a resample, Y0 plus its weight changes times IF, lies within 0.1 se of a
    pass refitted on the resampled paths; Y0 is the pass on all paths, and se is the closed-form spread of the
    replicates, sqrt(sum_p (IF_p - mean IF)^2), bit for bit."""
    model = model_from_config(inst["model"])
    g = generator_from_config(inst["generator"])
    grid = TimeGrid(1.0, inst["steps"])
    paths, seed = 4000, 3
    est = bootstrap_y0(model, grid, g, XI_X, paths=paths, seed=seed)

    bundle = simulate_paths(model, grid, paths, seed)
    y0, coefs, _, _, _ = _backward_pass(bundle, g, XI_X, RegressionBasis())
    influence = _influence(bundle, g, XI_X, RegressionBasis(), coefs)
    centred = influence - influence.mean()
    assert est.se.hex() == float(np.sqrt(np.einsum("p,p->", centred, centred))).hex()

    rng = np.random.default_rng(seed)
    resamples = [np.arange(paths)] + [rng.integers(0, paths, size=paths) for _ in range(24)]
    ref_y0 = np.array([_reference_y0(bundle, g, XI_X, 3, idx) for idx in resamples])
    assert est.y0 == y0 == pytest.approx(ref_y0[0], abs=1e-10)
    replicates = [y0 + np.einsum("p,p->", np.bincount(idx, minlength=paths) - 1.0, influence) for idx in resamples[1:]]
    gaps = np.abs(replicates - ref_y0[1:])
    assert gaps.max() <= 0.1 * est.se, gaps.max() / est.se


COVERAGE_INSTANCES = [inst for inst in default_mc_suite() if inst["name"] in ("bm_zdep", "jump_small")]


@pytest.mark.parametrize("inst", COVERAGE_INSTANCES, ids=lambda inst: inst["name"])
def test_bootstrap_se_covers_the_tree_oracle(inst):
    """Over 200 seeds at 2,000 paths the z-scores (Y0 - tree Y0) / se have sd within 1 +- 0.15: se is the
    standard deviation of Y0 across independent draws, neither too small for the 3-se gate nor too large."""
    model, g = model_from_config(inst["model"]), generator_from_config(inst["generator"])
    grid = TimeGrid(1.0, inst["steps"])
    y0_tree = solve_backward(build_tree(model, grid), g, XI_X).y0
    z = []
    for seed in range(10_000, 10_200):
        est = bootstrap_y0(model, grid, g, XI_X, paths=2000, seed=seed)
        z.append((est.y0 - y0_tree) / est.se)
    assert abs(np.std(z, ddof=1) - 1.0) <= 0.15, np.std(z, ddof=1)


@pytest.mark.parametrize("inst", default_mc_suite(), ids=lambda inst: inst["name"])
def test_solve_mc_y0_is_the_bootstrap_base_row(inst):
    """bootstrap_y0 runs solve_mc's backward pass: a bootstrap that runs its own pass before solve_mc, solve_mc
    and a bootstrap that reuses solve_mc's pass give the same Y0, and both bootstraps the same se, bit for bit."""
    model, g = model_from_config(inst["model"]), generator_from_config(inst["generator"])
    grid = TimeGrid(1.0, inst["steps"])
    simulate_paths(model, grid, 4000, 4)  # another key, so seed 3 is drawn afresh, with no pass kept
    fresh = bootstrap_y0(model, grid, g, XI_X, paths=4000, seed=3)
    y0 = solve_mc(model, grid, g, XI_X, paths=4000, seed=3).y0
    reused = bootstrap_y0(model, grid, g, XI_X, paths=4000, seed=3)
    assert fresh.y0.hex() == y0.hex() == reused.y0.hex()
    assert fresh.se.hex() == reused.se.hex()


def _count_calls(monkeypatch, name):
    """Replace mc.<name> by a wrapper that records each call; returns the list of calls."""
    calls, original = [], getattr(mc, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mc, name, counted)
    return calls


REUSE_MODEL, REUSE_GRID = LevyModel(0.0, 1.0, ((0.5, 0.2),)), TimeGrid(1.0, 6)


def test_bootstrap_after_solve_mc_on_the_same_inputs_runs_one_pass(monkeypatch):
    g = linear_driver(0.15, 0.2, -0.5)
    simulate_paths(REUSE_MODEL, REUSE_GRID, 2000, 4)  # nothing kept for seed 3
    passes, adjoints = _count_calls(monkeypatch, "_backward_pass"), _count_calls(monkeypatch, "_influence")
    sol = solve_mc(REUSE_MODEL, REUSE_GRID, g, XI_X, paths=2000, seed=3)
    est = bootstrap_y0(REUSE_MODEL, REUSE_GRID, g, XI_X, paths=2000, seed=3)
    assert len(passes) == 1 and len(adjoints) == 1
    assert est.y0.hex() == sol.y0.hex()


BOOTSTRAP_CHANGES = {
    "driver": {"g": linear_driver(0.3, -0.1, 0.4)},
    "equal driver, another object": {"g": linear_driver(0.15, 0.2, -0.5)},
    "terminal": {"xi": make_terminal("w")},
    "basis": {"basis": RegressionBasis(2)},
    "seed": {"seed": 4},
    "another draw between": {},
}


@pytest.mark.parametrize("change", BOOTSTRAP_CHANGES)
def test_bootstrap_on_other_inputs_runs_its_own_pass(monkeypatch, change):
    """solve_mc's pass is reused only for the same bundle, the same g and xi objects and an equal basis; any
    other bootstrap runs a second pass, and its (y0, se) is a fresh call's, bit for bit."""
    base = {"g": linear_driver(0.15, 0.2, -0.5), "xi": XI_X, "basis": RegressionBasis(), "seed": 3}
    boot = {**base, **BOOTSTRAP_CHANGES[change]}

    def bootstrap(args):
        return bootstrap_y0(REUSE_MODEL, REUSE_GRID, args["g"], args["xi"], paths=2000, basis=args["basis"],
                            seed=args["seed"])

    simulate_paths(REUSE_MODEL, REUSE_GRID, 2000, 99)  # nothing kept for the draws below
    want = bootstrap(boot)
    passes = _count_calls(monkeypatch, "_backward_pass")
    solve_mc(REUSE_MODEL, REUSE_GRID, base["g"], base["xi"], paths=2000, basis=base["basis"], seed=base["seed"])
    if change == "another draw between":
        simulate_paths(REUSE_MODEL, REUSE_GRID, 2000, 99)
    got = bootstrap(boot)
    assert len(passes) == 2
    assert (got.y0.hex(), got.se.hex()) == (want.y0.hex(), want.se.hex())


def test_kept_pass_does_not_outlive_its_draw():
    g = linear_driver(0.15, 0.2, -0.5)
    solve_mc(REUSE_MODEL, REUSE_GRID, g, XI_X, paths=500, seed=1)
    bundle = weakref.ref(simulate_paths(REUSE_MODEL, REUSE_GRID, 500, 1))
    assert bundle() is not None
    simulate_paths(REUSE_MODEL, REUSE_GRID, 500, 2)  # another key drops the kept draw
    gc.collect()
    assert bundle() is None


def test_l2_distance_rejects_mixed_kinds():
    model = LevyModel(0.0, 1.0)
    grid = TimeGrid(1.0, 3)
    mc = solve_mc(model, grid, zero_generator(), XI_X, paths=200, seed=0)
    tree_sol = solve_backward(build_tree(model, grid), zero_generator(), XI_X)
    for pair in ((mc, tree_sol), (mc, mc)):  # tree solutions only
        with pytest.raises(ModelError, match="needs two tree solutions"):
            l2_distance(*pair)


# ---------------------------------------------------------------------------
# The backward pass against a plain copy of the same arithmetic
# ---------------------------------------------------------------------------


def _plain_design(x, degree):
    x = np.asarray(x, dtype=float)
    s = x.std()
    if s == 0.0 or degree == 0:
        return np.ones((x.size, 1))
    return np.vander((x - x.mean()) / s, degree + 1, increasing=True)


def _plain_orthonormal_rows(x, degree):
    """The Stieltjes recurrence on the standardized state, with a fresh array for every product."""
    m = x.size
    rows = [np.full(m, 1.0 / np.sqrt(m))]
    xt = x - x.mean()
    s = np.sqrt(np.einsum("m,m->", xt, xt) / m)
    if s == 0.0 or degree == 0:
        return np.array(rows)
    xt = xt / s
    tol = np.finfo(float).eps * max(m, degree + 1) * np.abs(xt).max()
    for _ in range(degree):
        q = np.array(rows)
        row = xt * rows[-1]
        for _ in range(2):  # classical Gram-Schmidt, twice
            row = row - np.einsum("k,km->m", np.einsum("km,m->k", q, row), q)
        norm = np.sqrt(np.einsum("m,m->", row, row))
        if norm <= tol:
            break
        rows.append(row / norm)
    return np.array(rows)


# The reference's rank rule for a weighted Gram matrix of the orthonormal design: a weight row that loses a
# support point of the state drives an eigenvalue to rounding level, far below this threshold.
GRAM_RANK_TOL = 1e-10


def _plain_solve_nested(gram, rhs):
    """The rank test on every leading block of every row."""
    full = np.stack([np.linalg.eigvalsh(gram[:, :k, :k])[:, 0] > GRAM_RANK_TOL
                     for k in range(1, gram.shape[1] + 1)], axis=1)
    kept = np.cumprod(full, axis=1).sum(axis=1)
    coef = np.zeros_like(rhs)
    for k in np.unique(kept):
        sel = kept == k
        coef[sel, :k] = np.linalg.solve(gram[sel, :k, :k], rhs[sel, :k])
    return coef, kept


def _plain_backward_pass(bundle, g, xi, degree, weights):
    """_backward_pass(..., keep=True) written plainly: the design rows by the recurrence; with weights None,
    one unit row fitted by the projections of incs * y onto q summed over blocks of PATH_BLOCK paths, with the
    full basis kept. Otherwise every row of weights refits each step by its weighted normal equations: the
    Gram matrix from the triangle of products q[a] * q[b], a <= b, mirrored, concatenated regressor rows,
    fresh arrays for every product and the nested rank test. Every row takes the per-row step."""
    model, grid = bundle.model, bundle.grid
    n, j, dt = grid.steps, model.n_marks, grid.dt
    x_path, w_path, c_path = bundle.states(), bundle.brownian(), bundle.jump_counts()
    dw, dnt = bundle.dw, bundle.dn - model.intensities * dt
    m = dw.shape[0]
    rows = 1 if weights is None else weights.shape[0]

    def context(i):
        return StepContext(model=model, x=x_path[:, i], w=w_path[:, i], counts=c_path[:, i])

    y = np.empty((rows, m))
    y[:] = xi(context(n))
    degrees = np.zeros((rows, n), dtype=int)
    iterations = np.zeros((rows, n), dtype=int)
    y_keep, z_keep, u_keep = np.empty((m, n + 1)), np.zeros((m, n)), np.zeros((m, n, j))
    y_keep[:, n] = y[0]
    for i in range(n - 1, -1, -1):
        q = _plain_orthonormal_rows(x_path[:, i], degree)
        k = q.shape[0]
        if weights is None:
            incs = np.array([np.ones(m), dw[:, i], *dnt[:, i].T])
            coef = sum(np.einsum("km,rm->kr", q[:, s:s + PATH_BLOCK], (incs * y[0])[:, s:s + PATH_BLOCK])
                       for s in range(0, m, PATH_BLOCK))[None]
            kept = np.array([k])
        else:
            pairs = [(a, b) for a in range(k) for b in range(a, k)]
            sums = _weighted_sums(weights, np.array([q[a] * q[b] for a, b in pairs]))
            gram = np.empty((rows, k, k))
            for p, (a, b) in enumerate(pairs):
                gram[:, a, b] = gram[:, b, a] = sums[:, p]
            cols = np.concatenate([q, q * dw[:, i]] + [q * dnt[:, i, mk] for mk in range(j)])
            rhs = _weighted_sums(weights * y, cols).reshape(rows, 2 + j, k).transpose(0, 2, 1)
            coef, kept = _plain_solve_nested(gram, rhs)
        degrees[:, i] = kept - 1
        for b in range(rows):
            fitted = np.einsum("kr,km->rm", coef[b], q)
            z = fitted[1] / dt if model.sigma > 0 else np.zeros(m)
            u = fitted[2:].T / (model.intensities * dt)
            y[b], iterations[b, i] = implicit_step(g, context(i), float(grid.times[i]), dt, fitted[0], z, u, i)
            if b == 0:
                y_keep[:, i], z_keep[:, i], u_keep[:, i, :] = y[0], z, u
    y0 = (y if weights is None else weights * y).sum(axis=1) / m
    return y0, degrees, iterations, (y_keep, z_keep, u_keep)


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


def _pass_inputs(sigma, sizes, steps, paths, seed, driver, terminal):
    """A path bundle, driver and terminal."""
    lam = [0.3 * steps, 0.6 * steps][:len(sizes)]  # lambda*dt is 0.3 and 0.6
    model = LevyModel(0.1, sigma, tuple(zip(sizes, lam)))
    bundle = simulate_paths(model, TimeGrid(1.0, steps), paths, seed)
    return bundle, PASS_DRIVERS[driver](len(sizes)), make_terminal(terminal)


def _assert_pass_matches_plain_copy(bundle, g, xi):
    y0, _, degrees, iterations, paths = _backward_pass(bundle, g, xi, RegressionBasis(), keep=True)
    want = _plain_backward_pass(bundle, g, xi, 3, None)
    assert y0.hex() == float(want[0][0]).hex()
    for name, a, b in zip(("degrees", "iterations"), (degrees, iterations), want[1:3]):
        assert a.dtype == b.dtype and a.tobytes() == b[0].tobytes(), name
    for name, a, b in zip("YZU", paths, want[3]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    return degrees


@st.composite
def backward_passes(draw):
    n_marks = draw(st.integers(0, 2))
    sizes = [draw(st.sampled_from([0.5, -0.5])), draw(st.sampled_from([1.5, -0.3]))][:n_marks]
    return (draw(st.sampled_from([0.0, 1.0])), sizes, draw(st.integers(1, 6)), draw(st.integers(30, 300)),
            draw(st.integers(0, 2**16)), draw(st.sampled_from(sorted(PASS_DRIVERS))),
            draw(st.sampled_from(["x", "tanh_x", "clip_x"])))


PURE_JUMP_PASS = (0.0, [0.5], 4, 203, 3, "linear_driver", "x")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(backward_passes())
@example(PURE_JUMP_PASS)
@example((1.0, [0.5, -0.3], 6, 301, 2, "plain_eval", "tanh_x"))
def test_backward_pass_is_bitwise_its_plain_copy(case):
    bundle, g, xi = _pass_inputs(*case)
    _assert_pass_matches_plain_copy(bundle, g, xi)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(backward_passes())
@example(PURE_JUMP_PASS)
def test_projection_fit_is_the_normal_equations(case):
    """The unit-weight row fitted by projection onto the orthonormal design is the row that solves the
    normal equations of unit weights, up to rounding, with the same degrees and iterations."""
    bundle, g, xi = _pass_inputs(*case)
    y0, _, degrees, iterations, paths = _backward_pass(bundle, g, xi, RegressionBasis(), keep=True)
    want = _plain_backward_pass(bundle, g, xi, 3, np.ones((1, bundle.dw.shape[0])))
    for name, a, b in zip(("y0", *"YZU"), (np.array([y0]), *paths), (want[0], *want[3])):
        assert a.shape == b.shape and np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b))), name
    assert np.array_equal(degrees, want[1][0]) and np.array_equal(iterations, want[2][0])


def test_weighted_sums_do_not_depend_on_the_input_layout():
    # np.einsum sums in an order that follows the memory layout: F-ordered inputs moved the last digits
    rng = np.random.default_rng(3)
    weights, a = rng.standard_normal((4, 5000)), rng.standard_normal((6, 5000))
    want = _weighted_sums(weights, a).tobytes()
    assert _weighted_sums(weights, np.asfortranarray(a)).tobytes() == want
    assert _weighted_sums(np.asfortranarray(weights), a).tobytes() == want


def test_plain_copy_check_covers_a_pure_jump_state_that_drops_degree():
    degrees = _assert_pass_matches_plain_copy(*_pass_inputs(*PURE_JUMP_PASS))
    assert degrees[0] == 0 and degrees.max() == 3  # the state is deterministic at step 0 only


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(backward_passes(), st.integers(0, 2**16))
@example(PURE_JUMP_PASS, 0)
@example((1.0, [0.5, -0.3], 6, 301, 2, "plain_eval", "tanh_x"), 1)
@example((1.0, [0.5, -0.3], 3, 97, 5, "truncated", "clip_x"), 2)
def test_influence_is_the_derivative_of_y0_in_a_path_weight(case, pick):
    """IF_p from the forward adjoint is a central difference, in path p's weight, of the weighted pass
    written plainly, which refits every step by its weighted normal equations: for three paths p, to
    1e-6 max|IF|. Y0 is homogeneous of degree 1 in the weights, so IF sums to Y0."""
    bundle, g, xi = _pass_inputs(*case)
    m, eps = bundle.dw.shape[0], 1e-4
    y0, coefs, _, _, _ = _backward_pass(bundle, g, xi, RegressionBasis())
    influence = _influence(bundle, g, xi, RegressionBasis(), coefs)
    picked = np.random.default_rng(pick).choice(m, size=3, replace=False)
    weights = np.ones((6, m))
    weights[0::2][np.arange(3), picked] += eps
    weights[1::2][np.arange(3), picked] -= eps
    shifted = _plain_backward_pass(bundle, g, xi, 3, weights)[0]
    difference = (shifted[0::2] - shifted[1::2]) / (2.0 * eps)
    scale = np.abs(influence).max()
    assert np.all(np.abs(difference - influence[picked]) <= 1e-6 * scale), (difference - influence[picked]) / scale
    assert abs(influence.sum() - y0) <= 1e-12 * (1.0 + abs(y0))


def test_folded_step_without_a_unique_solution_names_the_step():
    # dt * a = 2, as in test_implicit_step_failure_names_the_step, raised by bootstrap_y0
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
def regression_states(draw):
    """A state on 20-4000 paths with a basis degree: continuous (Gaussian at some level and scale),
    lattice-valued (few distinct values, rare ones too, as pure-jump states take) or constant."""
    kind = draw(st.sampled_from(["lattice", "continuous", "constant"]))
    degree = draw(st.sampled_from([3, 4, 2, 1, 0]))
    m = draw(st.sampled_from([4000, 20, 203, 1024]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    level = draw(st.sampled_from([0.3, 0.0, -2.5, 40.0]))
    if kind == "continuous":
        x = level + draw(st.sampled_from([1e-3, 1.0, 30.0])) * rng.standard_normal(m)
    elif kind == "lattice":
        rate_up, rate_down = draw(st.sampled_from([0.3, 0.01, 2.0])), draw(st.sampled_from([0.0, 0.05, 1.0]))
        x = level + 0.5 * rng.poisson(rate_up, m) - 0.3 * rng.poisson(rate_down, m)
    else:
        x = np.full(m, level)
    return x, degree


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(regression_states())
@example((0.5 * (np.arange(1000) == 7), 4))  # two values, one of them on a single path
@example((np.repeat([0.0, 0.5, 1.0, -0.3], [900, 60, 3, 37]), 4))
def test_design_rows_are_an_orthonormal_basis_of_the_full_rank_vandermonde(state):
    x, degree = state
    q = _orthonormal_rows(x, degree)
    k = q.shape[0]
    # the premise of the projection fit and of the influence function: under unit weights the normal
    # equations are the identity
    assert np.abs(q @ q.T - np.eye(k)).max() <= 1e-13
    vander = _plain_design(x, degree)
    for col in vander.T[:k]:
        assert np.linalg.norm(q.T @ (q @ col) - col) <= 1e-10 * np.linalg.norm(col)
    assert k == np.linalg.lstsq(vander, np.zeros(x.size), rcond=None)[2]


def _traced_bootstrap_peak(after_solve_mc: bool) -> int:
    """tracemalloc peak of bootstrap_y0 at 4,000 paths, alone or right after solve_mc on the same inputs."""
    model = LevyModel(0.0, 1.0, ((0.6, 0.25), (-0.4, 0.2)))
    grid, g = TimeGrid(1.0, 16), linear_driver(0.2, 0.3, [0.4, -0.6])
    bootstrap_y0(model, grid, g, XI_X, paths=400, seed=1)  # first-call allocations outside the trace
    if after_solve_mc:
        sol = solve_mc(model, grid, g, XI_X, paths=4000, seed=1)
    tracemalloc.start()
    try:
        est = bootstrap_y0(model, grid, g, XI_X, paths=4000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(est.y0)
    if after_solve_mc:
        assert est.y0.hex() == sol.y0.hex()
    return peak


def test_bootstrap_peak_memory_holds_no_per_step_regressors():
    """Per step the pass keeps one (paths, 2 + marks) array of increments; regressors for every step
    at once would add steps * paths * (2 + marks) doubles (2 MiB here) and break the guard."""
    peak = _traced_bootstrap_peak(after_solve_mc=False)
    assert peak <= 1.1 * 7.75 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_bootstrap_reusing_solve_mc_pass_holds_no_per_step_regressors():
    """A bootstrap that takes solve_mc's kept pass runs only the adjoint, under the same guard; the measured
    peak is 0.83 MiB, against 4.38 MiB for a bootstrap that runs its own pass."""
    peak = _traced_bootstrap_peak(after_solve_mc=True)
    assert peak <= 1.1 * 7.75 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_declaring_bootstrap_holds_no_per_row_arrays(monkeypatch):
    """bootstrap_y0 runs one unit-weight pass and its adjoint for every driver, declaring or not, and holds no
    array per resample: a (rows, paths) array of weights or of y adds 0.76 MiB here and breaks the guard. The
    measured peaks are 4.37-4.80 MiB, against 5.51 MiB for the rows of a declaring driver carried as their
    coefficients and 7.26-7.53 MiB for the per-row step. No fit solves normal equations."""
    model = LevyModel(0.0, 1.0, ((0.6, 0.25), (-0.4, 0.2)))
    grid, linear = TimeGrid(1.0, 16), linear_driver(0.2, 0.3, [0.4, -0.6])

    def refuse(*args, **kwargs):
        raise AssertionError("the bootstrap solved normal equations")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for g in (linear, tanh_jump_integral(), _plain_eval(linear), truncate_generator(linear, 1)):
        bootstrap_y0(model, grid, g, XI_X, paths=400, seed=1)  # first-call allocations outside the trace
        tracemalloc.start()
        try:
            est = bootstrap_y0(model, grid, g, XI_X, paths=4000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(est.y0) and np.isfinite(est.se), g.name
        assert peak <= 1.1 * 5.5 * 2**20, f"{g.name}: peak {peak / 2**20:.2f} MiB"


def test_solve_mc_peak_memory_holds_no_gram_products(monkeypatch):
    """solve_mc fits its one unit-weight row by projection, so the pass solves no normal equations and
    allocates no Gram products and no weight row; the k(k+1)/2 * paths Gram buffer and the k-wide regressor
    rows (0.7 MiB here) break the guard."""
    model = LevyModel(0.0, 1.0, ((0.6, 0.25), (-0.4, 0.2)))
    grid, g = TimeGrid(1.0, 16), linear_driver(0.2, 0.3, [0.4, -0.6])

    def refuse(*args, **kwargs):
        raise AssertionError("the unit-weight row solved normal equations")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    solve_mc(model, grid, g, XI_X, paths=400, seed=1)  # first-call allocations outside the trace
    tracemalloc.start()
    try:
        sol = solve_mc(model, grid, g, XI_X, paths=4000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(sol.y0)
    assert peak <= 1.1 * 6.3 * 2**20, f"peak {peak / 2**20:.2f} MiB"
