"""Least-squares Monte Carlo backward solver.

The regression state is the current value of the driving process; the basis
is polynomial and its degree drops automatically when the design matrix is
rank deficient on the sampled paths (pure-jump models take few values). The
state is one variable, so the orthonormal basis of its polynomials is the
family of discrete orthogonal polynomials of the paths' empirical measure;
each step builds it by a recurrence, as rows (basis function, path), with
no factorisation and no BLAS.
Each step solves the tree's implicit equation y = E[y'] + dt f(t, y, z, u)
with tree.implicit_step: in closed form for a driver affine in y, by
fixed-point iteration otherwise. Z and U come from the regressions of y' dW
and y' dN~ scaled by the variances dt and lambda*dt of the increments.

The design is orthonormal under the paths' empirical measure, so the
normal equations of solve_mc's unit-weight row are the identity and its
regression coefficients are the projections q @ (y' increments), with no
Gram matrix and no solve. The weighted rows of the bootstrap form the
distinct products of the symmetric Gram matrix only, and solve it.

A driver that declares constant coefficients, f = a y + b z + sum_j c_j
lambda_j u_j (GeneratorSpec.linear), needs no Z or U on the rows whose Z and
U are not returned: with z = fitted_1 / dt and u_j = fitted_(2+j) / (lambda_j
dt), E[y'] + dt (b z + sum_j c_j lambda_j u_j) is the fitted values times (1,
b, c_1, .., c_J), so such rows are solved together, one product per step from
their regression coefficients. The row whose Z and U solve_mc returns keeps
the per-row step, and so keeps its bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .generators import GeneratorSpec, StepContext
from .levy import PATH_BLOCK, LevyModel, ModelError, PathBundle, TimeGrid, is_integer, simulate_paths
from .tree import affine_solution, implicit_step


class RegressionError(ModelError):
    """Design problems the solver cannot repair."""


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial regression basis of the given degree in the state."""

    degree: int = 3

    def __post_init__(self):
        if not is_integer(self.degree):
            raise RegressionError(f"'degree' must be an integer, got {self.degree!r}")
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


def _orthonormal_rows(x: np.ndarray, degree: int, out: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the polynomials in the state up to the highest full-rank degree.

    Returns q, a (k, m) view of the flat buffer `out`, k <= degree + 1; out
    holds (degree + 2) * m values, the last m the standardized state x~ =
    (x - mean) / std. Row 0 is the constant 1/sqrt(m); row c is x~ times row
    c-1, orthogonalised against rows 0..c-1 twice by classical Gram-Schmidt,
    then normalised: the discrete orthogonal polynomials of the paths'
    empirical measure (the Stieltjes procedure). The rows are nested, so
    leading rows span the lower degrees. x~ times a unit row has norm at most
    max|x~|, and the first row whose norm after orthogonalisation is at most
    eps * max(m, degree + 1) * max|x~| ends the basis: the analogue of
    np.linalg.lstsq's rank rule, singular values above eps * max(m, d) times
    the largest. Degree 0 or a degenerate state (std 0) gives the constant
    row alone. Only ufuncs and np.einsum run here, so the rows do not depend
    on the BLAS kernel.
    """
    m = x.size
    q = out[:(degree + 1) * m].reshape(degree + 1, m)
    q[0] = 1.0 / np.sqrt(m)
    if degree == 0:
        return q[:1]
    xt = np.subtract(x, x.mean(), out=out[(degree + 1) * m:(degree + 2) * m])
    s = np.sqrt(np.einsum("m,m->", xt, xt) / m)
    if s == 0.0:
        return q[:1]
    xt /= s
    tol = np.finfo(float).eps * max(m, degree + 1) * np.abs(xt).max()
    for c in range(1, degree + 1):
        row = np.multiply(xt, q[c - 1], out=q[c])
        for _ in range(2):
            row -= np.einsum("k,km->m", np.einsum("km,m->k", q[:c], row), q[:c])
        norm = np.sqrt(np.einsum("m,m->", row, row))
        if norm <= tol:
            return q[:c]
        row /= norm
    return q


# Under unit weights the Gram matrix of the orthonormal design is the identity;
# a resample that loses a support point of the state drives an eigenvalue of
# its Gram matrix to rounding level, far below this threshold.
_GRAM_RANK_TOL = 1e-10


def _weighted_sums(weights: np.ndarray, a: np.ndarray) -> np.ndarray:
    """weights @ a.T, path axis last in both, accumulated over blocks of paths.

    A single matrix product over all paths sums them in one running total
    when weights has one row, and loses digits at large path counts; blocks
    keep the plain solve as accurate as the bootstrap rows.
    """
    return sum(weights[:, s:s + PATH_BLOCK] @ a[:, s:s + PATH_BLOCK].T for s in range(0, a.shape[1], PATH_BLOCK))


@functools.cache
def _symmetric_index(k: int) -> np.ndarray:
    """Flat (k * k) index into the k(k+1)/2 products q[a] * q[a:], a < k, taken row by row: entry (a, b)
    reads the product of rows min(a, b) and max(a, b)."""
    tri = np.zeros((k, k), dtype=np.intp)
    tri[np.triu_indices(k)] = np.arange(k * (k + 1) // 2)
    index = np.maximum(tri, tri.T).ravel()
    index.flags.writeable = False
    return index


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


def _backward_pass(bundle: PathBundle, g: GeneratorSpec, xi, basis: RegressionBasis, weights: np.ndarray | None,
                   keep: bool = False):
    """Implicit-in-y regression recursion, one weighted replicate per row of `weights`.

    Row b fits every conditional expectation by least squares with path
    weights weights[b], resample counts for a bootstrap replicate; weights
    None is one row with every weight 1, the plain solve. Each step builds
    one design q on all paths, as rows (k, paths), orthonormal under the
    paths' empirical measure. Under unit weights the normal equations are
    then the identity, and the coefficients are the projections q @ (y *
    increments)ᵀ of y times the rows of increments 1, dW and dN~_j, with
    the full basis kept. Per weighted row, the Gram matrix is a weighted sum
    over the k(k+1)/2 distinct products of q's rows, the right-hand sides
    over the products of q's rows with the increments, path axis last, and
    the degree drops where that row's Gram matrix is rank deficient.

    For a driver that declares linear coefficients (a, b, c), every row but a
    kept row 0 is solved together per step as y = (coef @ v) @ q / (1 - dt
    a), v = (1, b or 0 when sigma = 0, c_1, .., c_J), in one iteration; the
    other rows take implicit_step one row at a time, their fitted E[y'], z
    and u read from coef[b].T @ q.

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
    m = bundle.dw.shape[0]
    rows = 1 if weights is None else weights.shape[0]

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
    # the step's increments 1, dW and dN~_j as rows: the design times each gives
    # the regressors of E[y'], E[y' dW] and E[y' dN~_j]
    incs = np.empty((2 + j, m))
    incs[0] = 1.0
    fitted = np.empty((2 + j, m))
    # flat buffers for the step's design rows, Gram products and regressor rows, viewed at the step's design
    # width k; the unit row needs no Gram products, and its regressor rows are y times the increments
    design_buf = np.empty(m * (basis.dimension + 1))
    cols_buf = np.empty(m * (2 + j) * (1 if weights is None else basis.dimension))
    if weights is not None:
        gram_buf = np.empty(m * basis.dimension * (basis.dimension + 1) // 2)
        wy = np.empty((rows, m))
    z = np.empty(m) if model.sigma > 0 else np.zeros(m)
    u = np.empty((m, j))
    # rows [0, per_row) take the per-row step; the rest are solved together from the declared coefficients
    lin = g.linear
    per_row = rows if lin is None else int(keep)
    if per_row < rows:
        v = np.concatenate(([1.0, lin.b if model.sigma > 0 else 0.0], lin.jump_coefficients(model)))

    for i in range(n - 1, -1, -1):
        q = _orthonormal_rows(x_path[:, i], basis.degree, design_buf)
        k = q.shape[0]
        incs[1] = bundle.dw[:, i]
        np.subtract(bundle.dn[:, i].T, lam_dt[:, None], out=incs[2:])
        if weights is None:
            coef = _weighted_sums(q, np.multiply(incs, y[0], out=cols_buf.reshape(2 + j, m)))[None]
            degrees[0, i] = k - 1
        else:
            products = gram_buf[:k * (k + 1) // 2 * m].reshape(k * (k + 1) // 2, m)
            start = 0
            for a in range(k):
                np.multiply(q[a], q[a:], out=products[start:start + k - a])
                start += k - a
            gram = np.take(_weighted_sums(weights, products), _symmetric_index(k), axis=1).reshape(rows, k, k)
            cols = np.multiply(incs[:, None, :], q[None, :, :], out=cols_buf[:(2 + j) * k * m].reshape(2 + j, k, m))
            rhs = _weighted_sums(np.multiply(weights, y, out=wy), cols.reshape((2 + j) * k, m))
            coef, kept = _solve_nested(gram, rhs.reshape(rows, 2 + j, k).transpose(0, 2, 1))
            degrees[:, i] = kept - 1
        ctx = context(i)
        t = float(times[i])
        if per_row < rows:
            affine_solution(np.matmul(coef[per_row:] @ v, q, out=y[per_row:]), dt, lin.a, i)
            iterations[per_row:, i] = 1
        for b in range(per_row):
            np.matmul(coef[b].T, q, out=fitted)
            if model.sigma > 0:
                np.divide(fitted[1], dt, out=z)
            np.divide(fitted[2:].T, lam_dt, out=u)
            _, iterations[b, i] = implicit_step(g, ctx, t, dt, fitted[0], z, u, i, out=y[b])
            if keep and b == 0:
                y_keep[:, i], z_keep[:, i], u_keep[:, i, :] = y[0], z, u

    y0 = (y if weights is None else np.multiply(weights, y, out=wy)).sum(axis=1) / m
    return y0, degrees, iterations, ((y_keep, z_keep, u_keep) if keep else None)


def _check_paths(paths: int, basis: RegressionBasis) -> None:
    if not is_integer(paths):
        raise RegressionError(f"'paths' must be an integer, got {paths!r}")
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
    _, degrees, iterations, (y, z, u) = _backward_pass(bundle, g, xi, basis, None, keep=True)
    return McSolution(Y=y, Z=z, U=u, degrees_used=tuple(int(d) for d in degrees[0]),
                      fp_iterations=tuple(int(k) for k in iterations[0]))


@dataclass(frozen=True)
class BootstrapEstimate:
    y0: float
    se: float
    samples: np.ndarray
    fp_iterations: tuple = ()  # per step, the most fixed-point iterations of any resample
    degree_drops: tuple = ()  # per step, how many resamples kept a lower basis degree than the base row


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
    if not is_integer(n_boot):
        raise RegressionError(f"'n_boot' must be an integer, got {n_boot!r}")
    if n_boot < 2:
        raise RegressionError(f"n_boot must be at least 2 for a bootstrap standard error, got {n_boot}")
    _check_paths(paths, basis)
    bundle = simulate_paths(model, grid, paths, seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(987,))))
    weights = np.empty((n_boot + 1, paths))
    weights[0] = 1.0
    for b in range(1, n_boot + 1):
        weights[b] = np.bincount(rng.integers(0, paths, size=paths), minlength=paths)
    y0, degrees, iterations, _ = _backward_pass(bundle, g, xi, basis, weights)
    samples = y0[1:]
    return BootstrapEstimate(y0=float(y0[0]), se=float(samples.std(ddof=1)), samples=samples,
                             fp_iterations=tuple(int(k) for k in iterations[1:].max(axis=0, initial=0)),
                             degree_drops=tuple(int(d) for d in (degrees[1:] < degrees[0]).sum(axis=0)))
