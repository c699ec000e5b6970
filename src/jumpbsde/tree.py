"""Exact finite scenario tree: conditional expectations, backward solver,
and the projection onto the sub-filtration generated by the coarse jumps.

Per step the branch alphabet is the product of a Brownian sign (when sigma
is positive) with one jump/no-jump bit per mark. Branch b at any node has
the same increment and probability, so level i holds exactly B^i nodes laid
out so that the children of node k are k*B + b. All conditional expectations
are probability-weighted sums over children, with no regression anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .generators import GeneratorSpec, StepContext
from .levy import LevyModel, ModelError, TimeGrid, kept_marks_mask

DEFAULT_NODE_CAP = 2_000_000
DEFAULT_FP_TOL = 1e-12
DEFAULT_FP_MAX_ITER = 200


class TreeSizeError(ModelError):
    """The requested tree exceeds the node cap."""


class FixedPointError(RuntimeError):
    """The implicit one-step equation did not converge; dt is too large for
    the driver's y-sensitivity."""


@dataclass(frozen=True)
class ScenarioTree:
    """Enumerated product tree with per-level state arrays.

    dw_branch, dn_branch and branch_prob describe one step's alphabet;
    states/wpaths/counts/node_prob hold per-node values for levels 0..N.
    The children of node k are k*B + b, so a level-i node index has i
    base-B digits, the first step most significant. In branch b, mark j is
    bit j and the Brownian sign (when sigma > 0) is the top bit, so a level
    reshapes to one binary axis per step and bit; project_coarse relies on it.
    """

    model: LevyModel
    grid: TimeGrid
    branching: int
    dw_branch: np.ndarray
    dn_branch: np.ndarray
    branch_prob: np.ndarray
    states: tuple
    wpaths: tuple
    counts: tuple
    node_prob: tuple

    @property
    def n_steps(self) -> int:
        return self.grid.steps

    def level_size(self, level: int) -> int:
        return self.branching**level

    def context(self, level: int) -> StepContext:
        return StepContext(
            model=self.model, x=self.states[level], w=self.wpaths[level], counts=self.counts[level]
        )

    def dn_tilde_branch(self) -> np.ndarray:
        """Compensated per-branch jump increments, shape (B, J)."""
        return self.dn_branch - self.model.intensities * self.grid.dt

    def infer_level(self, values) -> int:
        size = int(np.asarray(values).shape[0])
        if self.branching == 1:
            if size != 1:
                raise ModelError("values do not match any tree level")
            return 0
        level = int(round(np.log(size) / np.log(self.branching)))
        if self.branching**level != size or level > self.n_steps:
            raise ModelError(f"array of length {size} does not match any tree level")
        return level

    def expectation(self, values, level: int | None = None) -> float:
        """Unconditional expectation of per-node values at one level."""
        v = np.asarray(values, dtype=float)
        lvl = self.infer_level(v) if level is None else level
        return float(v @ self.node_prob[lvl])


def build_tree(model: LevyModel, grid: TimeGrid) -> ScenarioTree:
    """Enumerate the product tree; rejects lambda*dt >= 1 and trees above DEFAULT_NODE_CAP nodes."""
    grid.validate_for_tree(model)
    j = model.n_marks
    has_w = model.sigma > 0.0
    branching = (2 if has_w else 1) * 2**j
    total = sum(branching**i for i in range(grid.steps + 1))
    if total > DEFAULT_NODE_CAP:
        raise TreeSizeError(
            f"tree needs {total} nodes (branching {branching}, {grid.steps} steps), cap is {DEFAULT_NODE_CAP}"
        )

    dt = grid.dt
    p_jump = model.intensities * dt

    b_idx = np.arange(branching)
    # Bit layout: mark j occupies bit j; the Brownian sign, if present, is the top bit.
    dn_branch = ((b_idx[:, None] >> np.arange(j)[None, :]) & 1).astype(float) if j else np.zeros((branching, 0))
    if has_w:
        sign_bit = (b_idx >> j) & 1
        dw_branch = np.where(sign_bit == 0, np.sqrt(dt), -np.sqrt(dt))
        prob = np.full(branching, 0.5)
    else:
        dw_branch = np.zeros(branching)
        prob = np.ones(branching)
    for k in range(j):
        bit = dn_branch[:, k]
        prob = prob * np.where(bit == 1.0, p_jump[k], 1.0 - p_jump[k])

    inc_x = model.state_increment(dt, dw_branch, dn_branch)

    states = [np.zeros(1)]
    wpaths = [np.zeros(1)]
    counts = [np.zeros((1, j))]
    node_prob = [np.ones(1)]
    for _ in range(grid.steps):
        states.append(np.add.outer(states[-1], inc_x).ravel())
        wpaths.append(np.add.outer(wpaths[-1], dw_branch).ravel())
        counts.append(
            (counts[-1][:, None, :] + dn_branch[None, :, :]).reshape(-1, j)
            if j
            else np.zeros((states[-1].size, 0))
        )
        node_prob.append(np.multiply.outer(node_prob[-1], prob).ravel())

    return ScenarioTree(
        model=model,
        grid=grid,
        branching=branching,
        dw_branch=dw_branch,
        dn_branch=dn_branch,
        branch_prob=prob,
        states=tuple(states),
        wpaths=tuple(wpaths),
        counts=tuple(counts),
        node_prob=tuple(node_prob),
    )


def conditional_expectation(tree: ScenarioTree, values) -> np.ndarray:
    """Exact one-level conditional expectation: values at level i+1 -> level i."""
    v = np.asarray(values, dtype=float)
    if tree.branching == 1:
        return v.copy()
    level = tree.infer_level(v)
    if level == 0:
        raise ModelError("values sit at the root; there is no coarser level")
    return v.reshape(-1, tree.branching) @ tree.branch_prob


@dataclass(frozen=True)
class TreeSolution:
    """Backward solution on a tree: Y per level 0..N, Z and U per level 0..N-1."""

    tree: ScenarioTree
    Y: tuple
    Z: tuple
    U: tuple
    fp_iterations: tuple

    @property
    def y0(self) -> float:
        return float(self.Y[0][0])

    def expected_sup_y_squared(self) -> float:
        """E of the pathwise running maximum of |Y| squared."""
        run = np.abs(self.Y[0])
        for lvl in range(1, len(self.Y)):
            run = np.maximum(np.repeat(run, self.tree.branching), np.abs(self.Y[lvl]))
        return float((run * run) @ self.tree.node_prob[len(self.Y) - 1])

    def sup_expected_y_squared(self) -> float:
        """Maximum over grid times of E|Y|^2."""
        return max(self.tree.expectation(y * y, lvl) for lvl, y in enumerate(self.Y))

    def zu_integrals(self) -> tuple[float, float]:
        """Time-integrated second moments: (E int |Z|^2 ds, E int ||U||^2 ds)."""
        dt = self.tree.grid.dt
        lam = self.tree.model.intensities
        z_tot = sum(self.tree.expectation(z * z, i) for i, z in enumerate(self.Z)) * dt
        u_tot = sum(self.tree.expectation((u * u) @ lam, i) for i, u in enumerate(self.U)) * dt
        return float(z_tot), float(u_tot)


def _representation_weights(tree: ScenarioTree):
    """Per-branch weights extracting Z and U from next-level values.

    Z = E[Y_next dW] / dt and U_j = E[Y_next dN~_j] / (lambda_j dt (1 - lambda_j dt)),
    the exact second-moment normalizations of the one-step increments.
    """
    dt = tree.grid.dt
    p = tree.branch_prob
    w_z = p * tree.dw_branch / dt if tree.model.sigma > 0 else None
    j = tree.model.n_marks
    if j:
        p_jump = tree.model.intensities * dt
        denom = p_jump * (1.0 - p_jump)
        w_u = p[:, None] * tree.dn_tilde_branch() / denom[None, :]
    else:
        w_u = None
    return w_z, w_u


def implicit_step(g: GeneratorSpec, ctx: StepContext, t: float, dt: float, ey, z, u, step: int,
                  project=None, tol: float = DEFAULT_FP_TOL, max_iter: int = DEFAULT_FP_MAX_ITER):
    """Solve y = ey + dt f(t, y, z, u) at one step by fixed-point iteration from y = ey.

    `project`, when given, maps every driver evaluation before it enters the
    update. Returns (y, iterations); a diverging or slow iteration raises
    FixedPointError with the step, the last delta and the contraction dt * max K1.
    """
    y = ey
    for it in range(1, max_iter + 1):
        f_val = np.asarray(g.eval(ctx, t, y, z, u), dtype=float)
        y_new = ey + dt * (f_val if project is None else project(f_val))
        delta = float(np.max(np.abs(y_new - y))) if y.size else 0.0
        y = y_new
        if delta <= tol:
            return y, it
    contraction = dt * float(np.max(g.K1(ctx, t), initial=0.0))
    raise FixedPointError(
        f"implicit step did not converge at step {step} within {max_iter} iterations: "
        f"last delta {delta:.3g}, estimated contraction dt*K1 = {contraction:.3g}"
    )


def _sweep(tree: ScenarioTree, g: GeneratorSpec, xi, n: int | None, tol: float, max_iter: int) -> TreeSolution:
    """Implicit backward sweep; with a truncation level n, the level-n coarse problem.

    With n, the terminal values and every driver evaluation are projected onto
    the coarse sub-filtration and U is zeroed on the removed marks.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    steps, b, dt = tree.n_steps, tree.branching, tree.grid.dt
    j = tree.model.n_marks
    times = tree.grid.times
    w_z, w_u = _representation_weights(tree)

    y_levels = [None] * (steps + 1)
    z_levels = [None] * steps
    u_levels = [None] * steps
    iters = [0] * steps
    y_levels[steps] = np.asarray(xi(tree.context(steps)), dtype=float)
    if n is not None:
        removed = ~kept_marks_mask(tree.model, n)
        y_levels[steps] = project_coarse(tree, y_levels[steps], n, level=steps)

    for i in range(steps - 1, -1, -1):
        nxt = y_levels[i + 1].reshape(-1, b)
        ey = nxt @ tree.branch_prob
        z = nxt @ w_z if w_z is not None else np.zeros(ey.shape)
        u = nxt @ w_u if w_u is not None else np.zeros((ey.shape[0], j))
        project = None
        if n is not None:
            u[:, removed] = 0.0
            project = partial(project_coarse, tree, n=n, level=i)
        y, iters[i] = implicit_step(g, tree.context(i), float(times[i]), dt, ey, z, u, i, project, tol, max_iter)
        y_levels[i], z_levels[i], u_levels[i] = y, z, u

    return TreeSolution(tree=tree, Y=tuple(y_levels), Z=tuple(z_levels), U=tuple(u_levels), fp_iterations=tuple(iters))


def solve_backward(
    tree: ScenarioTree,
    g: GeneratorSpec,
    xi,
    tol: float = DEFAULT_FP_TOL,
    max_iter: int = DEFAULT_FP_MAX_ITER,
) -> TreeSolution:
    """Implicit backward sweep: at each node solve Y = E[Y_next] + dt f(t, Y, Z, U).

    Z and U come from exact correlations with the step increments; the
    implicit y-equation is solved by fixed-point iteration to `tol`.
    The driver is evaluated at the left endpoint with the pre-jump state.
    """
    return _sweep(tree, g, xi, None, tol, max_iter)


# ---------------------------------------------------------------------------
# Projection onto the sub-filtration of coarse jumps
# ---------------------------------------------------------------------------


def project_coarse(tree: ScenarioTree, values, n: int, level: int | None = None) -> np.ndarray:
    """Exact conditional expectation given the Brownian signs and the jumps
    of marks with |x| >= 1/n, applied to per-node values at one level.

    One transpose of the level's bit tensor (see ScenarioTree) moves the
    removed-mark bits of every step to the end; each row is then averaged
    under their product law, centered at the pattern with no removed jumps,
    so measurable values pass through bitwise and the projection is idempotent.
    """
    v = np.asarray(values, dtype=float)
    lvl = tree.infer_level(v) if level is None else int(level)
    removed = ~kept_marks_mask(tree.model, n)
    if not removed.any() or lvl == 0:
        return v.copy()

    nb = tree.branching.bit_length() - 1
    # Step s holds axes s*nb .. s*nb + nb - 1, most significant bit first: bit k is axis s*nb + nb - 1 - k.
    gone = [s * nb + nb - 1 - k for s in range(lvl) for k in np.flatnonzero(removed)]
    perm = [a for a in range(nb * lvl) if a not in gone] + gone
    laws = [[1.0 - p, p] for p in tree.model.intensities[removed] * tree.grid.dt]
    w = reduce(np.multiply.outer, laws * lvl, 1.0).ravel()  # ordered as the removed axes of perm
    t = v.reshape((2,) * (nb * lvl)).transpose(perm)
    rows = t.reshape(-1, w.size)
    mean = rows[:, 0] + (rows - rows[:, :1]) @ w
    return np.broadcast_to(mean[:, None], rows.shape).reshape(t.shape).transpose(np.argsort(perm)).reshape(-1)


def solve_truncated(
    tree: ScenarioTree,
    g: GeneratorSpec,
    xi,
    n: int,
    tol: float = DEFAULT_FP_TOL,
    max_iter: int = DEFAULT_FP_MAX_ITER,
) -> TreeSolution:
    """Backward solve for the level-n coarse problem on the full tree.

    Terminal values and every driver evaluation are projected onto the
    coarse sub-filtration, and U is zeroed on removed marks, so the returned
    solution is constant across removed-mark coordinates. With no removed
    marks this reproduces solve_backward bit for bit.
    """
    return _sweep(tree, g, xi, n, tol, max_iter)
