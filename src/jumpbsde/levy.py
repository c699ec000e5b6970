"""Driving model: drift, Brownian part, and finitely many Poisson jump marks.

The model keeps a finite atomic jump measure (one intensity per mark size).
Marks of size at most 1 enter the state through compensated increments,
larger marks through raw counts.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

# Size threshold separating compensated (small) from uncompensated (large) jumps.
SMALL_JUMP_CUTOFF = 1.0

# Paths are drawn in blocks of this many, one random stream per block.
PATH_BLOCK = 1024


class ModelError(ValueError):
    """Invalid model, grid, driver or terminal parameter, or solve or simulation request."""


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LevyModel:
    """Drift, diffusion coefficient, and jump marks (size, intensity) pairs.

    The jump measure is the atomic measure sum_j lambda_j * delta_{x_j};
    its total mass is finite by construction.
    """

    drift: float = 0.0
    sigma: float = 0.0
    marks: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "marks", tuple((float(x), float(lam)) for x, lam in self.marks))
        # NaN passes every comparison below as false, so non-finite values are refused first
        fields = [("drift", self.drift), ("sigma", self.sigma)]
        for k, (x, lam) in enumerate(self.marks):
            fields += [(f"jump size of mark {k}", x), (f"jump intensity of mark {k}", lam)]
        for field, value in fields:
            if not math.isfinite(value):
                raise ModelError(f"{field} must be finite, got {value!r}")
        if self.sigma < 0:
            raise ModelError("sigma must be nonnegative")
        sizes = [x for x, _ in self.marks]
        if any(x == 0.0 for x in sizes):
            raise ModelError("jump sizes must be nonzero")
        if len(set(sizes)) != len(sizes):
            raise ModelError("jump sizes must be pairwise distinct")
        if any(lam <= 0.0 for _, lam in self.marks):
            raise ModelError("jump intensities must be positive")

    @property
    def n_marks(self) -> int:
        return len(self.marks)

    # The mark arrays are read-only and made once per model: drivers read them on every call.
    @cached_property
    def jump_sizes(self) -> np.ndarray:
        return _read_only([x for x, _ in self.marks])

    @cached_property
    def intensities(self) -> np.ndarray:
        return _read_only([lam for _, lam in self.marks])

    @property
    def small_mask(self) -> np.ndarray:
        """Marks entering through compensated increments (|x| <= 1)."""
        return np.abs(self.jump_sizes) <= SMALL_JUMP_CUTOFF

    def state_increment(self, dt: float, dw, dn):
        """State increment a*dt + sigma*dW + sum_j dN_j x_j, less the small marks' compensator.

        dn carries one count per mark in its last axis; the path simulator and
        the tree's branch alphabet both step the state through this law.
        """
        inc = self.drift * dt + self.sigma * dw
        if self.n_marks:
            sizes, small = self.jump_sizes, self.small_mask
            comp = float((sizes[small] * self.intensities[small]).sum()) * dt
            inc = inc + mark_sum(dn, sizes) - comp
        return inc

    def mean_terminal_state(self, horizon: float) -> float:
        """Exact mean of the state at the horizon: a*T + T * sum over large marks of lambda*x."""
        large = ~self.small_mask
        contrib = float((self.jump_sizes[large] * self.intensities[large]).sum()) if self.marks else 0.0
        return (self.drift + contrib) * horizon


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with N steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise ModelError("horizon must be positive")
        if self.steps < 1:
            raise ModelError("steps must be at least 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @cached_property
    def times(self) -> np.ndarray:
        """The N + 1 grid times, read-only and made once per grid: the solvers read them every step."""
        times = np.linspace(0.0, self.horizon, self.steps + 1)
        times.flags.writeable = False
        return times

    def validate_for_tree(self, model: LevyModel) -> None:
        """Tree branching allows at most one jump per mark per step: lambda*dt < 1."""
        if model.n_marks and float(model.intensities.max()) * self.dt >= 1.0:
            raise ModelError(
                f"lambda*dt must be below 1 for tree use (max lambda={model.intensities.max()}, dt={self.dt})"
            )


def levy_norm(u, model: LevyModel):
    """Jump-measure weighted norm sqrt(sum_j lambda_j * u_j^2).

    `u` carries one entry per mark in its last axis; leading axes are preserved.
    """
    u = np.asarray(u, dtype=float)
    lam = model.intensities
    if u.shape[-1:] != lam.shape:
        raise ModelError(f"jump vector has {u.shape[-1] if u.ndim else 0} entries, model has {model.n_marks} marks")
    return np.sqrt(mark_sum(u * u, lam))


def mark_sum(values, weights) -> np.ndarray:
    """sum_j values[..., j] * weights[..., j], added from mark 0 up, so its bits do not
    depend on the BLAS kernel or the CPU; with no marks, zeros."""
    values, weights = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    if not values.shape[-1]:
        return np.zeros(np.broadcast_shapes(values.shape, weights.shape)[:-1])
    out = values[..., 0] * weights[..., 0]
    term = np.empty_like(out)
    for k in range(1, values.shape[-1]):
        out += np.multiply(values[..., k], weights[..., k], out=term)
    return out


def kept_marks_mask(model: LevyModel, n: int) -> np.ndarray:
    """Boolean mask of marks retained at truncation level n."""
    if n < 1:
        raise ModelError("truncation level must be at least 1")
    if not model.n_marks:
        return np.zeros(0, dtype=bool)
    return np.abs(model.jump_sizes) >= 1.0 / n


def _computed_once(method):
    """A PathBundle method whose array is computed on the first call, kept on the
    bundle and returned read-only from then on."""
    name = "_" + method.__name__

    @wraps(method)
    def cached(self):
        arr = self.__dict__.get(name)
        if arr is None:
            arr = method(self)
            arr.flags.writeable = False
            self.__dict__[name] = arr
        return arr

    return cached


@dataclass(frozen=True)
class PathBundle:
    """Simulated increments on a grid: Brownian increments and per-mark jump counts.

    dw has shape (paths, steps); dn has shape (paths, steps, marks). A bundle is
    read-only and may be shared (see simulate_paths): dw and dn are not
    writeable, and states(), brownian() and jump_counts() are each computed on
    first use and returned as the same read-only array thereafter.
    """

    model: LevyModel
    grid: TimeGrid
    dw: np.ndarray
    dn: np.ndarray

    def __post_init__(self):
        self.dw.flags.writeable = False
        self.dn.flags.writeable = False

    @property
    def n_paths(self) -> int:
        return self.dw.shape[0]

    @_computed_once
    def brownian(self) -> np.ndarray:
        """Brownian path values at grid times, shape (paths, steps+1)."""
        w = np.zeros((self.n_paths, self.grid.steps + 1))
        np.cumsum(self.dw, axis=1, out=w[:, 1:])
        return w

    @_computed_once
    def jump_counts(self) -> np.ndarray:
        """Cumulative jump counts per mark at grid times, shape (paths, steps+1, marks)."""
        c = np.zeros((self.n_paths, self.grid.steps + 1, self.model.n_marks))
        np.cumsum(self.dn, axis=1, out=c[:, 1:, :])
        return c

    @_computed_once
    def states(self) -> np.ndarray:
        """State path values at grid times, shape (paths, steps+1).

        Small marks contribute through compensated increments, large marks
        through raw counts.
        """
        inc = self.model.state_increment(self.grid.dt, self.dw, self.dn)
        x = np.zeros((self.n_paths, self.grid.steps + 1))
        np.cumsum(inc, axis=1, out=x[:, 1:])
        return x


# The last bundle simulate_paths drew, under its key; at most one entry. The
# lock makes the look-up, the drop and the draw one step across threads.
_last_draw: dict = {}
_draw_lock = threading.Lock()


def simulate_paths(model: LevyModel, grid: TimeGrid, count: int, seed: int) -> PathBundle:
    """Simulate i.i.d. Brownian and Poisson increments on the grid.

    Paths are drawn in whole blocks of PATH_BLOCK paths. Each block gets its
    own random stream spawned from the root seed (spawn key = block index)
    and draws all its Brownian increments before its jump counts; the first
    `count` paths are returned, so path i is bit-identical regardless of the
    total path count.

    The last bundle drawn is kept, keyed by the exact bits of every input it
    reads: drift, sigma, each mark, horizon and steps as float.hex, plus
    count and seed. A repeated call returns that same read-only bundle, so
    solve_mc and bootstrap_y0 on one key share one draw and one set of
    cumulative paths; a call with another key drops the kept bundle before
    it draws. Exactly one bundle is retained: its increments and its three
    cumulative arrays, about 66 MB at 100,000 paths x 16 steps with one mark.
    An input that changes the draw, such as a choice of path law, must join
    the key.
    """
    if count < 1:
        raise ModelError("path count must be at least 1")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ModelError(f"'seed' must be a nonnegative integer, got {seed!r}")
    key = (float(model.drift).hex(), float(model.sigma).hex(), tuple((x.hex(), lam.hex()) for x, lam in model.marks),
           float(grid.horizon).hex(), float(grid.steps).hex(), int(count), int(seed))
    with _draw_lock:
        bundle = _last_draw.get(key)
        if bundle is None:
            _last_draw.clear()
            bundle = _last_draw[key] = _draw(model, grid, count, seed)
    return bundle


def _draw(model: LevyModel, grid: TimeGrid, count: int, seed: int) -> PathBundle:
    steps, j = grid.steps, model.n_marks
    lam_dt = model.intensities * grid.dt
    sqrt_dt = np.sqrt(grid.dt)
    dw = np.empty((count, steps))
    dn = np.zeros((count, steps, j))
    n_blocks = -(-count // PATH_BLOCK)
    for b, child in enumerate(np.random.SeedSequence(seed).spawn(n_blocks)):
        rng = np.random.Generator(np.random.PCG64(child))
        lo = b * PATH_BLOCK
        hi = min(lo + PATH_BLOCK, count)
        dw[lo:hi] = rng.standard_normal((PATH_BLOCK, steps))[: hi - lo] * sqrt_dt
        if j:
            dn[lo:hi] = rng.poisson(lam_dt, size=(PATH_BLOCK, steps, j))[: hi - lo]
    return PathBundle(model=model, grid=grid, dw=dw, dn=dn)
