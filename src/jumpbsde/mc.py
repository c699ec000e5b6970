"""Least-squares Monte Carlo backward solver.

The regression state is the current value of the driving process; the basis
is polynomial and its degree drops automatically when the design matrix is
rank deficient on the sampled paths (pure-jump models take few values).
Each step solves the tree's implicit equation y = E[y'] + dt f(t, y, z, u)
with tree.implicit_step: in closed form for a driver affine in y, by
fixed-point iteration otherwise. Z and U come from the regressions of y' dW
and y' dN~ scaled by the variances dt and lambda*dt of the increments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import GeneratorSpec, StepContext
from .levy import PATH_BLOCK, LevyModel, ModelError, PathBundle, TimeGrid, simulate_paths
from .tree import implicit_step


class RegressionError(ModelError):
    """Design problems the solver cannot repair."""


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial regression basis of the given degree in the state."""

    degree: int = 3

    def __post_init__(self):
        if self.degree < 0:
            raise RegressionError("basis degree must be nonnegative")

    @property
    def dimension(self) -> int:
        return self.degree + 1


@dataclass(frozen=True)
class McSolution:
    """Path-indexed solution arrays plus the degrees the regression used."""

    Y: np.ndarray  # (paths, steps+1)
    Z: np.ndarray  # (paths, steps)
    U: np.ndarray  # (paths, steps, marks)
    degrees_used: tuple
    fp_iterations: tuple = ()  # fixed-point iterations per step

    @property
    def y0(self) -> float:
        return float(self.Y[:, 0].mean())


def _design(x: np.ndarray, degree: int) -> np.ndarray:
    """Standardized polynomial columns 1, x~, x~^2, ..; constant-only when x is degenerate."""
    x = np.asarray(x, dtype=float)
    s = x.std()
    if s == 0.0 or degree == 0:
        return np.ones((x.size, 1))
    xt = (x - x.mean()) / s
    phi = np.empty((x.size, degree + 1))
    phi[:, 0] = 1.0
    phi[:, 1] = xt
    for c in range(2, degree + 1):
        np.multiply(phi[:, c - 1], xt, out=phi[:, c])  # the products np.vander takes
    return phi


def _orthonormal_design(x: np.ndarray, degree: int) -> np.ndarray:
    """Orthonormal columns spanning the polynomial design of the highest full-rank degree.

    Columns are nested, so leading columns span the lower degrees. The rank
    test is that of np.linalg.lstsq: singular values above eps * max(m, d)
    times the largest.
    """
    phi = _design(x, degree)
    q, r = np.linalg.qr(phi)
    k = phi.shape[1]
    while k > 1:
        s = np.linalg.svd(r[:k, :k], compute_uv=False)
        if s[-1] > np.finfo(float).eps * max(phi.shape[0], k) * s[0]:
            break
        k -= 1
    return q[:, :k]


# Under unit weights the Gram matrix of the orthonormal design is the identity;
# a resample that loses a support point of the state drives an eigenvalue of
# its Gram matrix to rounding level, far below this threshold.
_GRAM_RANK_TOL = 1e-10


def _weighted_sums(weights: np.ndarray, a: np.ndarray) -> np.ndarray:
    """weights @ a, accumulated over blocks of paths.

    A single matrix product over all paths sums them in one running total
    when weights has one row, and loses digits at large path counts; blocks
    keep the plain solve as accurate as the bootstrap rows.
    """
    return sum(weights[:, s:s + PATH_BLOCK] @ a[s:s + PATH_BLOCK] for s in range(0, a.shape[0], PATH_BLOCK))


def _solve_nested(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve each row's normal equations on its largest full-rank leading block.

    gram is (rows, k, k) and rhs (rows, k, targets). Returns coefficients,
    zero beyond each row's kept columns, and the kept column count per row.
    The smallest eigenvalue of a leading block is at least that of the whole
    matrix (Cauchy interlacing), so a row whose whole Gram matrix passes the
    rank test keeps every column, and only the rows that fail it search
    their leading blocks; when none fails, the stack is solved in one call.
    """
    rows, k0, _ = gram.shape
    bad = np.flatnonzero(~(np.linalg.eigvalsh(gram)[:, 0] > _GRAM_RANK_TOL))
    if not bad.size:
        return np.linalg.solve(gram, rhs), np.full(rows, k0)
    kept = np.full(rows, k0)
    sub, full = gram[bad], np.ones(bad.size, dtype=bool)
    kept[bad] = 0
    for k in range(1, k0):
        full &= np.linalg.eigvalsh(sub[:, :k, :k])[:, 0] > _GRAM_RANK_TOL
        kept[bad] += full
    coef = np.zeros_like(rhs)
    for k in np.unique(kept):
        sel = kept == k
        coef[sel, :k] = np.linalg.solve(gram[sel, :k, :k], rhs[sel, :k])
    return coef, kept


def _backward_pass(bundle: PathBundle, g: GeneratorSpec, xi, basis: RegressionBasis, weights: np.ndarray,
                   keep: bool = False):
    """Implicit-in-y regression recursion, one weighted replicate per row of `weights`.

    Row b fits every conditional expectation by least squares with path
    weights weights[b]: all ones for the plain solve, resample counts for a
    bootstrap replicate. Each step builds one design on all paths; per row
    the Gram matrix and right-hand sides are weighted sums over it, and the
    degree drops where that row's Gram matrix is rank deficient.

    Returns the Y0 of every row, the degree and the fixed-point iterations of
    every row at every step and, when `keep`, the (Y, Z, U) path arrays of row 0.
    """
    model, grid = bundle.model, bundle.grid
    n, j, dt = grid.steps, model.n_marks, grid.dt
    times = grid.times
    lam_dt = model.intensities * dt
    if j and np.any(lam_dt >= 1.0):
        raise RegressionError("solve_mc needs lambda*dt < 1 for the jump-coefficient normalization")

    x_path, w_path, c_path = bundle.states(), bundle.brownian(), bundle.jump_counts()
    rows, m = weights.shape

    def context(i):
        return StepContext(model=model, x=x_path[:, i], w=w_path[:, i], counts=c_path[:, i])

    y = np.empty((rows, m))
    y[:] = xi(context(n))
    degrees = np.zeros((rows, n), dtype=int)
    iterations = np.zeros((rows, n), dtype=int)
    if keep:
        y_keep = np.empty((m, n + 1))
        z_keep = np.zeros((m, n))
        u_keep = np.zeros((m, n, j))
        y_keep[:, n] = y[0]
    # the step's increments 1, dW and dN~_j: the design times each gives the
    # regressors of E[y'], E[y' dW] and E[y' dN~_j], side by side
    incs = np.empty((m, 2 + j))
    incs[:, 0] = 1.0
    wy = np.empty((rows, m))
    fitted = np.empty((m, 2 + j))
    # flat buffers for the step's Gram products and regressor columns, viewed at the step's design width k
    gram_buf = np.empty(m * basis.dimension ** 2)
    cols_buf = np.empty(m * (2 + j) * basis.dimension)
    z = np.empty(m) if model.sigma > 0 else np.zeros(m)
    u = np.empty((m, j))

    for i in range(n - 1, -1, -1):
        q = _orthonormal_design(x_path[:, i], basis.degree)
        k = q.shape[1]
        products = np.einsum("mi,mj->mij", q, q, out=gram_buf[:m * k * k].reshape(m, k, k))
        gram = _weighted_sums(weights, products.reshape(m, k * k)).reshape(rows, k, k)
        incs[:, 1] = bundle.dw[:, i]
        np.subtract(bundle.dn[:, i], lam_dt, out=incs[:, 2:])
        cols = np.einsum("ma,mi->mai", incs, q, out=cols_buf[:m * (2 + j) * k].reshape(m, 2 + j, k))
        rhs = _weighted_sums(np.multiply(weights, y, out=wy), cols.reshape(m, (2 + j) * k)).reshape(rows, 2 + j, k)
        coef, kept = _solve_nested(gram, rhs.transpose(0, 2, 1))
        degrees[:, i] = kept - 1
        ctx = context(i)
        t = float(times[i])
        for b in range(rows):
            np.matmul(q, coef[b], out=fitted)
            if model.sigma > 0:
                np.divide(fitted[:, 1], dt, out=z)
            np.divide(fitted[:, 2:], lam_dt, out=u)
            _, iterations[b, i] = implicit_step(g, ctx, t, dt, fitted[:, 0], z, u, i, out=y[b])
            if keep and b == 0:
                y_keep[:, i], z_keep[:, i], u_keep[:, i, :] = y[0], z, u

    y0 = np.multiply(weights, y, out=wy).sum(axis=1) / m
    return y0, degrees, iterations, ((y_keep, z_keep, u_keep) if keep else None)


def _check_paths(paths: int, basis: RegressionBasis) -> None:
    if paths < 10 * basis.dimension:
        raise RegressionError(f"need at least {10 * basis.dimension} paths for a degree-{basis.degree} basis")


def solve_mc(
    model: LevyModel,
    grid: TimeGrid,
    g: GeneratorSpec,
    xi,
    paths: int,
    basis: RegressionBasis = RegressionBasis(),
    seed: int = 0,
) -> McSolution:
    """Simulate paths and run the regression backward recursion.

    The paths come from simulate_paths, so a bootstrap_y0 on the same model,
    grid, paths and seed reuses this draw.
    """
    _check_paths(paths, basis)
    bundle = simulate_paths(model, grid, paths, seed)
    _, degrees, iterations, (y, z, u) = _backward_pass(bundle, g, xi, basis, np.ones((1, paths)), keep=True)
    return McSolution(Y=y, Z=z, U=u, degrees_used=tuple(int(d) for d in degrees[0]),
                      fp_iterations=tuple(int(k) for k in iterations[0]))


@dataclass(frozen=True)
class BootstrapEstimate:
    y0: float
    se: float
    samples: np.ndarray
    fp_iterations: tuple = ()  # per step, the most fixed-point iterations of any resample


def bootstrap_y0(
    model: LevyModel,
    grid: TimeGrid,
    g: GeneratorSpec,
    xi,
    paths: int,
    basis: RegressionBasis = RegressionBasis(),
    seed: int = 0,
    n_boot: int = 24,
) -> BootstrapEstimate:
    """Bootstrap the initial value over path resamples.

    Each resample becomes a row of multinomial path weights, and all rows
    run through one weighted backward pass beside the unweighted base row.
    The standard error needs n_boot >= 2 resamples.
    """
    if n_boot < 2:
        raise RegressionError(f"n_boot must be at least 2 for a bootstrap standard error, got {n_boot}")
    _check_paths(paths, basis)
    bundle = simulate_paths(model, grid, paths, seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(987,))))
    weights = np.empty((n_boot + 1, paths))
    weights[0] = 1.0
    for b in range(1, n_boot + 1):
        weights[b] = np.bincount(rng.integers(0, paths, size=paths), minlength=paths)
    y0, _, iterations, _ = _backward_pass(bundle, g, xi, basis, weights)
    samples = y0[1:]
    return BootstrapEstimate(y0=float(y0[0]), se=float(samples.std(ddof=1)), samples=samples,
                             fp_iterations=tuple(int(k) for k in iterations[1:].max(axis=0, initial=0)))
