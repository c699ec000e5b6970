import sys
import threading
import weakref

import numpy as np
import pytest

from jumpbsde import LevyModel, ModelError, TimeGrid, levy_norm, simulate_paths
from jumpbsde import levy
from jumpbsde.levy import PATH_BLOCK, kept_marks_mask
from jumpbsde.tree import build_tree


def test_model_validation():
    with pytest.raises(ModelError):
        LevyModel(sigma=-1.0)
    with pytest.raises(ModelError):
        LevyModel(marks=((0.0, 1.0),))
    with pytest.raises(ModelError):
        LevyModel(marks=((0.5, -1.0),))
    with pytest.raises(ModelError):
        LevyModel(marks=((0.5, 1.0), (0.5, 2.0)))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("args, message", [
    ((0.0, NAN), "sigma must be finite, got nan"),
    ((0.0, INF), "sigma must be finite, got inf"),
    ((INF, 1.0), "drift must be finite, got inf"),
    ((NAN, 1.0), "drift must be finite, got nan"),
    ((0.0, 1.0, ((0.5, NAN),)), "jump intensity of mark 0 must be finite, got nan"),
    ((0.0, 1.0, ((0.5, INF),)), "jump intensity of mark 0 must be finite, got inf"),
    ((0.0, 1.0, ((0.5, 1.0), (NAN, 1.0))), "jump size of mark 1 must be finite, got nan"),
    ((0.0, 1.0, ((-INF, 1.0),)), "jump size of mark 0 must be finite, got -inf"),
])
def test_non_finite_model_parameters_are_named(args, message):
    # NaN fails every comparison, so these were accepted and failed later inside numpy or the tree
    with pytest.raises(ModelError, match=f"^{message}$"):
        LevyModel(*args)


def test_grid_validation():
    with pytest.raises(ModelError):
        TimeGrid(horizon=0.0, steps=4)
    with pytest.raises(ModelError):
        TimeGrid(horizon=1.0, steps=0)
    assert TimeGrid(1.0, 4).dt == 0.25


def test_grid_times_are_made_once_and_read_only():
    grid = TimeGrid(1.5, 6)
    times = grid.times
    assert grid.times is times and not times.flags.writeable
    assert times.tobytes() == np.linspace(0.0, 1.5, 7).tobytes()
    with pytest.raises(ValueError):
        times[0] = 1.0


def test_drift_only_paths_are_deterministic():
    model = LevyModel(drift=1.0, sigma=0.0)
    bundle = simulate_paths(model, TimeGrid(1.0, 7), count=50, seed=3)
    assert np.allclose(bundle.states()[:, -1], 1.0, atol=1e-12)


def test_total_jump_count_mean():
    # one mark x=2, lambda=1 over [0,1]: total count is Poisson with mean 1
    model = LevyModel(0.0, 0.0, ((2.0, 1.0),))
    bundle = simulate_paths(model, TimeGrid(1.0, 4), count=100_000, seed=11)
    total = bundle.dn.sum(axis=(1, 2))
    se = total.std(ddof=1) / np.sqrt(total.size)
    assert abs(total.mean() - 1.0) <= 3 * se


def test_terminal_mean_matches_compensation_rule():
    # small mark 0.5 is compensated away, large mark 3 contributes lambda*x*T
    model = LevyModel(0.5, 1.0, ((0.5, 2.0), (3.0, 0.1)))
    assert model.mean_terminal_state(1.0) == pytest.approx(0.8)
    bundle = simulate_paths(model, TimeGrid(1.0, 2), count=100_000, seed=5)
    x_t = bundle.states()[:, -1]
    se = x_t.std(ddof=1) / np.sqrt(x_t.size)
    assert abs(x_t.mean() - 0.8) <= 4 * se


def test_compensated_increments_have_zero_mean():
    model = LevyModel(0.0, 0.5, ((0.4, 1.5), (-0.7, 0.6)))
    bundle = simulate_paths(model, TimeGrid(1.0, 5), count=100_000, seed=9)
    sums = (bundle.dn - model.intensities * bundle.grid.dt).sum(axis=1)  # (paths, marks)
    for j in range(model.n_marks):
        se = sums[:, j].std(ddof=1) / np.sqrt(sums.shape[0])
        assert abs(sums[:, j].mean()) <= 4 * se


def test_simulation_is_deterministic_and_count_stable():
    model = LevyModel(0.1, 1.0, ((0.5, 0.8),))
    grid = TimeGrid(1.0, 6)
    a = simulate_paths(model, grid, count=40, seed=123)
    simulate_paths(model, grid, count=40, seed=124)  # another key, so b is a second draw
    b = simulate_paths(model, grid, count=40, seed=123)
    assert a is not b
    assert np.array_equal(a.dw, b.dw) and np.array_equal(a.dn, b.dn)
    # path i does not depend on how many paths were requested
    c = simulate_paths(model, grid, count=10, seed=123)
    assert np.array_equal(a.dw[:10], c.dw) and np.array_equal(a.dn[:10], c.dn)


def test_path_prefix_identity_across_block_edges():
    model = LevyModel(0.1, 1.0, ((0.5, 0.8), (-0.3, 0.4)))
    grid = TimeGrid(1.0, 3)
    full = simulate_paths(model, grid, count=2 * PATH_BLOCK + 7, seed=42)
    for count in (1, PATH_BLOCK - 1, PATH_BLOCK, PATH_BLOCK + 1, 2 * PATH_BLOCK + 7):
        part = simulate_paths(model, grid, count=count, seed=42)
        assert part.dw.shape == (count, 3) and part.dn.shape == (count, 3, 2)
        assert np.array_equal(part.dw, full.dw[:count]) and np.array_equal(part.dn, full.dn[:count])
    # block b is the stream with spawn key b: Brownian increments first, then counts
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(42, spawn_key=(1,))))
    block = slice(PATH_BLOCK, 2 * PATH_BLOCK)
    assert np.array_equal(full.dw[block], rng.standard_normal((PATH_BLOCK, 3)) * np.sqrt(grid.dt))
    assert np.array_equal(full.dn[block], rng.poisson(model.intensities * grid.dt, size=(PATH_BLOCK, 3, 2)))


def test_equal_inputs_return_the_same_bundle():
    a = simulate_paths(LevyModel(0.1, 1.0, ((0.5, 0.8),)), TimeGrid(1.0, 6), count=40, seed=3)
    b = simulate_paths(LevyModel(0.1, 1.0, ((0.5, 0.8),)), TimeGrid(1, 6), count=40, seed=3)
    assert b is a
    assert a.states() is a.states() and a.brownian() is a.brownian() and a.jump_counts() is a.jump_counts()


def test_signed_zero_drift_gets_its_own_bundle():
    grid = TimeGrid(1.0, 4)
    pos = simulate_paths(LevyModel(0.0, 0.0), grid, count=50, seed=1)
    neg = simulate_paths(LevyModel(-0.0, 0.0), grid, count=50, seed=1)
    assert neg is not pos
    # equal values, but -0.0 * dt + 0.0 * dW is -0.0 wherever dW < 0
    assert np.array_equal(neg.states(), pos.states())
    assert np.signbit(neg.states()).any() and not np.signbit(pos.states()).any()


def test_bundle_arrays_are_read_only():
    bundle = simulate_paths(LevyModel(0.1, 1.0, ((0.5, 0.8),)), TimeGrid(1.0, 3), count=20, seed=5)
    for arr in (bundle.dw, bundle.dn, bundle.states(), bundle.brownian(), bundle.jump_counts()):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0


def test_cached_paths_are_fresh_cumsums_byte_for_byte():
    model, grid = LevyModel(0.1, 0.7, ((0.5, 0.8), (-1.5, 0.3))), TimeGrid(1.0, 5)
    bundle = simulate_paths(model, grid, count=PATH_BLOCK + 3, seed=8)
    zero = np.zeros((bundle.n_paths, 1))
    inc = model.state_increment(grid.dt, bundle.dw, bundle.dn)
    assert bundle.states().tobytes() == np.concatenate([zero, np.cumsum(inc, axis=1)], axis=1).tobytes()
    assert bundle.brownian().tobytes() == np.concatenate([zero, np.cumsum(bundle.dw, axis=1)], axis=1).tobytes()
    counts = np.concatenate([np.zeros((bundle.n_paths, 1, 2)), np.cumsum(bundle.dn, axis=1)], axis=1)
    assert bundle.jump_counts().tobytes() == counts.tobytes()


def test_a_miss_drops_the_previous_bundle():
    model, grid = LevyModel(0.0, 1.0), TimeGrid(1.0, 3)
    a = simulate_paths(model, grid, count=30, seed=1)
    a.states()
    ref = weakref.ref(a)
    del a
    assert ref() is not None  # still the kept bundle
    simulate_paths(model, grid, count=30, seed=2)
    assert ref() is None


def test_concurrent_draws_keep_one_bundle_and_their_bits():
    model, grid = LevyModel(0.1, 1.0, ((0.5, 0.8),)), TimeGrid(1.0, 3)
    want = {}
    for seed in range(4):
        bundle = simulate_paths(model, grid, count=64, seed=seed)
        want[seed] = bundle.dw.tobytes() + bundle.dn.tobytes()
    wrong = []

    def draw(seed):
        for _ in range(40):
            bundle = simulate_paths(model, grid, count=64, seed=seed)
            if bundle.dw.tobytes() + bundle.dn.tobytes() != want[seed]:
                wrong.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(k % 4,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not wrong
    assert len(levy._last_draw) == 1


@pytest.mark.parametrize("seed", [-1, 1.5, "1"])
def test_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(ModelError, match=f"^'seed' must be a nonnegative integer, got {seed!r}$"):
        simulate_paths(LevyModel(0.0, 1.0), TimeGrid(1.0, 2), count=5, seed=seed)


def test_simulate_rejects_zero_paths_but_allows_large_lambda_dt():
    model = LevyModel(0.0, 0.0, ((1.0, 3.0),))
    grid = TimeGrid(1.0, 2)  # lambda*dt = 1.5
    with pytest.raises(ModelError):
        simulate_paths(model, grid, count=0, seed=0)
    simulate_paths(model, grid, count=5, seed=0)  # Monte-Carlo mode allows it
    with pytest.raises(ModelError):
        build_tree(model, grid)  # tree mode does not


@pytest.mark.parametrize(
    "marks, n, expected_sizes",
    [
        ((((0.05, 1.0)), ((0.5, 1.0))), 4, (0.5,)),
        ((((0.05, 1.0)), ((0.5, 1.0))), 100, (0.05, 0.5)),
        ((((-0.2, 3.0)),), 5, (-0.2,)),  # boundary |x| = 1/n is kept
    ],
)
def test_kept_marks_mask(marks, n, expected_sizes):
    model = LevyModel(0.3, 0.7, marks)
    assert tuple(model.jump_sizes[kept_marks_mask(model, n)]) == expected_sizes


def test_kept_marks_mask_grows_with_level():
    model = LevyModel(0.0, 1.0, ((0.05, 1.0), (0.2, 2.0), (0.9, 0.3), (-1.5, 0.1)))
    for n in (1, 2, 5, 10, 100):
        mask_n = kept_marks_mask(model, n)
        mask_next = kept_marks_mask(model, n + 1)
        assert np.all(mask_n <= mask_next)


def test_levy_norm_examples():
    model = LevyModel(0.0, 0.0, ((1.0, 4.0),))
    assert levy_norm(np.array([0.0]), model) == 0.0
    assert levy_norm(np.array([3.0]), model) == pytest.approx(6.0)
    model2 = LevyModel(0.0, 0.0, ((1.0, 1.0), (2.0, 2.0)))
    assert levy_norm(np.array([1.0, 1.0]), model2) == pytest.approx(np.sqrt(3.0))
    with pytest.raises(ModelError):
        levy_norm(np.array([1.0]), model2)


def test_levy_norm_vectorized_over_rows():
    model = LevyModel(0.0, 0.0, ((1.0, 1.0), (2.0, 2.0)))
    u = np.array([[1.0, 1.0], [0.0, 0.0]])
    out = levy_norm(u, model)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(np.sqrt(3.0)) and out[1] == 0.0
