"""Least-squares Monte Carlo backward solver.

The regression state is the current value of the driving process; the basis
is polynomial and its degree drops automatically when the design matrix is
rank deficient on the sampled paths (pure-jump models take few values). The
state is one variable, so the orthonormal basis of its polynomials is the
family of discrete orthogonal polynomials of the paths' empirical measure;
each step builds it by a recurrence, as rows (basis function, path), with
no factorisation and no BLAS. The fits and the adjoint are np.einsum
contractions too, so no LSMC result depends on the BLAS kernel.
Each step solves the tree's implicit equation y = E[y'] + dt f(t, y, z, u)
with tree.implicit_step: in closed form for a driver affine in y, by
fixed-point iteration otherwise. Z and U come from the regressions of y' dW
and y' dN~ scaled by the variances dt and lambda*dt of the increments.

The design is orthonormal under the paths' empirical measure, so the
normal equations of every fit are the identity and its regression
coefficients are the projections q @ (y' increments), with no Gram matrix
and no solve.

bootstrap_y0 bootstraps to first order. Y0 is a function of the path
weights (each fit a weighted least squares), and the replicate of a
resample is Y0 plus the sum over the paths of its weight change times the
influence function IF_p = dY0/dw_p at unit weights (the infinitesimal
jackknife). IF comes from one forward adjoint pass over the coefficients
of the unit-weight pass: a mass over the paths, the path form of the
linear BSDE's one-step density, carried through each step's linearised
implicit step and projection. Under multinomial resampling the variance of
that replicate is exactly sum_p (IF_p - mean IF)^2, so the standard error is
computed in closed form, with no resample drawn.

The unit-weight pass runs once per draw: solve_mc keeps its Y0 and
coefficients on the PathBundle it solved, and bootstrap_y0 on the same
bundle, driver, terminal and basis runs only the adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import GeneratorSpec, StepContext
from .levy import PATH_BLOCK, LevyModel, ModelError, PathBundle, TimeGrid, is_integer, simulate_paths
from .tree import implicit_step


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


def _orthonormal_rows(x: np.ndarray, degree: int) -> np.ndarray:
    """Orthonormal rows spanning the polynomials in the state up to the highest full-rank degree.

    Returns q, a fresh (k, m) array, k <= degree + 1. Row 0 is the constant
    1/sqrt(m); row c is the standardized state x~ = (x - mean) / std times row
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
    q = np.empty((degree + 1, m))
    q[0] = 1.0 / np.sqrt(m)
    if degree == 0:
        return q[:1]
    xt = x - x.mean()
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


# Step of the central differences that give the tangents of a driver that declares no linear coefficients.
_TANGENT_STEP = 1e-6


def _weighted_sums(weights: np.ndarray, a: np.ndarray) -> np.ndarray:
    """weights @ a.T, path axis last in both, accumulated over blocks of PATH_BLOCK paths.

    The pass calls it with the design q as weights: the projections of its
    regressor rows. A single sum over all paths keeps each entry in one
    running total and loses digits at large path counts. Each block is an
    np.einsum, not a matrix product, so the sums do not depend on the BLAS
    kernel. np.einsum sums in an order that follows the memory layout, so
    both inputs are taken C-ordered: the bits do not depend on the layout.
    """
    weights, a = np.ascontiguousarray(weights), np.ascontiguousarray(a)
    return sum(np.einsum("km,rm->kr", weights[:, s:s + PATH_BLOCK], a[:, s:s + PATH_BLOCK])
               for s in range(0, a.shape[1], PATH_BLOCK))


def _jump_variances(model: LevyModel, dt: float) -> np.ndarray:
    """lambda_j * dt per mark, the variances that normalize the jump coefficients; each must be below 1."""
    lam_dt = model.intensities * dt
    if model.n_marks and np.any(lam_dt >= 1.0):
        raise RegressionError("solve_mc needs lambda*dt < 1 for the jump-coefficient normalization")
    return lam_dt


def _context(bundle: PathBundle, i: int) -> StepContext:
    return StepContext(model=bundle.model, x=bundle.states()[:, i], w=bundle.brownian()[:, i],
                       counts=bundle.jump_counts()[:, i])


def _increments(bundle: PathBundle, i: int, lam_dt: np.ndarray) -> np.ndarray:
    """Step i's increments 1, dW and dN~_j as the rows of a fresh C-ordered (2 + J, paths) array: the fits'
    sums run along the rows, and their bits depend on the layout."""
    incs = np.empty((2 + lam_dt.size, bundle.dw.shape[0]))
    incs[0] = 1.0
    incs[1] = bundle.dw[:, i]
    np.subtract(bundle.dn[:, i].T, lam_dt[:, None], out=incs[2:])
    return incs


def _fitted_step(g: GeneratorSpec, ctx: StepContext, t: float, dt: float, i: int, q: np.ndarray, coef: np.ndarray,
                 lam_dt: np.ndarray):
    """Solve step i from its fit: fitted = coefᵀ q holds E[y'], E[y' dW] and E[y' dN~_j], read as
    z = fitted[1] / dt (0 when sigma = 0) and u_j = fitted[2 + j] / (lambda_j dt); implicit_step then
    gives y. Returns (fitted, y, z, u, iterations), each array fresh."""
    fitted = np.einsum("kr,km->rm", coef, q)
    z = fitted[1] / dt if ctx.model.sigma > 0 else np.zeros(q.shape[1])
    u = np.divide(fitted[2:].T, lam_dt, out=np.empty((q.shape[1], lam_dt.size)))  # C-ordered, as the tree's U
    y, iterations = implicit_step(g, ctx, t, dt, fitted[0], z, u, i)
    return fitted, y, z, u, iterations


def _backward_pass(bundle: PathBundle, g: GeneratorSpec, xi, basis: RegressionBasis, keep: bool = False):
    """Implicit-in-y regression recursion with every path weight 1.

    Each step builds one design q on all paths, as rows (k, paths),
    orthonormal under the paths' empirical measure. The normal equations are
    then the identity, and the (k, 2 + J) coefficients are the projections
    q @ (y * increments)ᵀ of y times the rows of increments 1, dW and dN~_j,
    with the full basis kept; _fitted_step solves the step from them.

    Returns Y0, the coefficients, the degree and the fixed-point iterations
    of every step and, when `keep`, the (Y, Z, U) path arrays.
    """
    model, grid = bundle.model, bundle.grid
    n, j, dt = grid.steps, model.n_marks, grid.dt
    lam_dt = _jump_variances(model, dt)
    m = bundle.dw.shape[0]
    y = np.full(m, xi(_context(bundle, n)), dtype=float)
    coefs, degrees, iterations = [None] * n, np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    if keep:  # step-major, so each step writes whole rows; returned transposed, path axis first
        y_keep, z_keep, u_keep = np.empty((n + 1, m)), np.zeros((n, m)), np.zeros((n, m, j))
        y_keep[n] = y
    for i in range(n - 1, -1, -1):
        q = _orthonormal_rows(bundle.states()[:, i], basis.degree)
        degrees[i] = q.shape[0] - 1
        coefs[i] = _weighted_sums(q, _increments(bundle, i, lam_dt) * y)
        _, y, z, u, iterations[i] = _fitted_step(g, _context(bundle, i), float(grid.times[i]), dt, i, q, coefs[i],
                                                 lam_dt)
        if keep:
            y_keep[i], z_keep[i], u_keep[i] = y, z, u
    kept = (y_keep.T, z_keep.T, u_keep.transpose(1, 0, 2)) if keep else None
    return float(y.mean()), coefs, degrees, iterations, kept


def _tangents(g: GeneratorSpec, ctx: StepContext, t: float, dt: float, y: np.ndarray, z: np.ndarray,
              u: np.ndarray) -> np.ndarray:
    """The derivative of the implicit step's y in its fitted rows: (1, f_z, f_(u_j) / lambda_j) / (1 - dt f_y).

    A driver that declares linear coefficients gives the one row (1, b, c_j)
    / (1 - a dt), shape (2 + J, 1). Any other driver gives a row per path at
    the solved (y, z, u): f_y, f_z and f_(u_j) are central differences of the
    eval, each of step _TANGENT_STEP. f_z is 0 when sigma = 0, where z is 0 on
    every path.
    """
    model = ctx.model
    lin = g.linear
    if lin is not None:
        row = np.concatenate(([1.0, lin.b if model.sigma > 0 else 0.0], lin.jump_coefficients(model)))
        return (row / (1.0 - dt * lin.a))[:, None]

    def central(moved):
        """(f(moved(h)) - f(moved(-h))) / 2h, moved(s) being (y, z, u) with one of them moved by s."""
        h = _TANGENT_STEP
        return (np.asarray(g.eval(ctx, t, *moved(h)), dtype=float) - g.eval(ctx, t, *moved(-h))) / (2.0 * h)

    tangents = np.zeros((2 + model.n_marks, y.size))
    tangents[0] = 1.0
    if model.sigma > 0:
        tangents[1] = central(lambda s: (y, z + s, u))
    unit = np.eye(model.n_marks)
    for mark, lam in enumerate(model.intensities):
        tangents[2 + mark] = central(lambda s: (y, z, u + s * unit[mark])) / lam
    tangents /= 1.0 - dt * central(lambda s: (y + s, z, u))
    return tangents


def _influence(bundle: PathBundle, g: GeneratorSpec, xi, basis: RegressionBasis, coefs: list) -> np.ndarray:
    """IF_p, the derivative of Y0 in path p's weight at unit weights, by a forward adjoint of _backward_pass.

    Under weights w a step's coefficients solve its weighted normal
    equations; at w = 1 the design q is orthonormal, so the derivative of
    the fitted rows F = coefᵀ q in w_p is q_pᵀ q times the residual (y'
    increments - F) at p, plus the projection of the change in y'. A mass mu
    over the paths, 1/m at step 0 (Y0 is the mean of y_0), goes through each
    step's tangent rows a (_tangents) and the projection: B = (q (mu a)ᵀ)ᵀ q
    weighs the residuals, and the next step's mass is sum_r B_r increments_r.
    So IF = sum_i mu_i y_i - sum_i sum_r B_(i,r) F_(i,r), summed as each
    step is rebuilt from its coefficients, one design at a time.
    """
    grid = bundle.grid
    n, dt = grid.steps, grid.dt
    lam_dt = _jump_variances(bundle.model, dt)
    m = bundle.dw.shape[0]
    mu = np.full(m, 1.0 / m)
    influence = np.zeros(m)
    for i in range(n):
        q = _orthonormal_rows(bundle.states()[:, i], basis.degree)
        ctx, t = _context(bundle, i), float(grid.times[i])
        fitted, y, z, u, _ = _fitted_step(g, ctx, t, dt, i, q, coefs[i], lam_dt)
        influence += mu * y
        b = np.einsum("kr,km->rm", np.einsum("km,rm->kr", q, mu * _tangents(g, ctx, t, dt, y, z, u)), q)
        influence -= np.einsum("rm,rm->m", b, fitted)
        mu = np.einsum("rm,rm->m", b, _increments(bundle, i, lam_dt))
    influence += mu * xi(_context(bundle, n))
    return influence


def _check_paths(paths: int, basis: RegressionBasis) -> None:
    if not is_integer(paths):
        raise RegressionError(f"'paths' must be an integer, got {paths!r}")
    if paths < 10 * basis.dimension:
        raise RegressionError(f"need at least {10 * basis.dimension} paths for a degree-{basis.degree} basis")


# The bundle attribute under which solve_mc keeps its last pass: (g, xi, basis, Y0, coefficients). It lives
# on the bundle, so it is dropped with the draw.
_UNIT_PASS = "_unit_pass"


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
    grid, paths and seed reuses this draw. The pass's Y0 and per-step
    coefficients are kept on the bundle, with g, xi and basis, once the pass
    has succeeded; a bootstrap_y0 on that bundle with the same g and xi
    objects and an equal basis reuses them in place of its own pass.
    """
    _check_paths(paths, basis)
    bundle = simulate_paths(model, grid, paths, seed)
    y0, coefs, degrees, iterations, (y, z, u) = _backward_pass(bundle, g, xi, basis, keep=True)
    bundle.__dict__[_UNIT_PASS] = (g, xi, basis, y0, tuple(coefs))
    return McSolution(Y=y, Z=z, U=u, degrees_used=tuple(int(d) for d in degrees),
                      fp_iterations=tuple(int(k) for k in iterations))


@dataclass(frozen=True)
class BootstrapEstimate:
    y0: float
    se: float


def bootstrap_y0(
    model: LevyModel,
    grid: TimeGrid,
    g: GeneratorSpec,
    xi,
    paths: int,
    basis: RegressionBasis = RegressionBasis(),
    seed: int = 0,
    n_boot=None,
) -> BootstrapEstimate:
    """Y0 and its bootstrap standard error over path resampling, to first order in the resample weights.

    The backward pass is solve_mc's, so y0 is solve_mc's Y0 on the same
    inputs, and _influence gives IF_p = dY0/dw_p at unit weights. When
    solve_mc last solved this draw with the same g and xi (the same objects,
    matched by identity) and an equal basis, its kept Y0 and coefficients are
    used and only _influence runs; otherwise the pass runs here, with the
    same bits.

    A resample draws the paths with replacement, w_p times path p, and its
    replicate is y0 + sum_p (w_p - 1) IF_p: the infinitesimal jackknife
    (Efron 1982), with no refit. The multinomial weights have covariance
    I - 11ᵀ/m, so the replicates' standard deviation under the resampling
    law is exactly se = sqrt(sum_p (IF_p - mean IF)^2); it is computed so,
    with no draw, and only ufuncs and np.einsum, no BLAS. n_boot, a resample count, is
    accepted and ignored, for callers that still pass one.
    """
    _check_paths(paths, basis)
    bundle = simulate_paths(model, grid, paths, seed)
    kept = bundle.__dict__.get(_UNIT_PASS)
    if kept is not None and kept[0] is g and kept[1] is xi and kept[2] == basis:
        y0, coefs = kept[3], kept[4]
    else:
        y0, coefs, _, _, _ = _backward_pass(bundle, g, xi, basis)
    centred = _influence(bundle, g, xi, basis, coefs)
    centred -= centred.mean()
    return BootstrapEstimate(y0=y0, se=float(np.sqrt(np.einsum("p,p->", centred, centred))))
