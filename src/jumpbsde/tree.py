"""Exact finite scenario tree: conditional expectations, backward solver,
and the projection onto the sub-filtration generated by the coarse jumps.

Per step the branch alphabet is the product of a Brownian sign (when sigma
is positive) with one jump/no-jump bit per mark. Branch b at any node has
the same increment and probability, so level i holds exactly B^i nodes laid
out so that the children of node k are k*B + b. All conditional expectations
are probability-weighted sums over children, with no regression anywhere.

A node's state, Brownian value and jump counts depend only on how many
times each of its nb branch bits (Brownian sign, one per mark) was set
along its path, and so does every value the solvers compute from them.
The solvers therefore sweep the recombining count lattice, whose level i
has (i+1)^nb points, and the product tree keeps one lattice index per
node: its per-node arrays are gathers from the lattice, made on first
access.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .generators import GeneratorSpec, StepContext
from .levy import LevyModel, ModelError, TimeGrid, kept_marks_mask

DEFAULT_NODE_CAP = 2_000_000
DEFAULT_FP_TOL = 1e-12
DEFAULT_FP_MAX_ITER = 200


class TreeSizeError(ModelError):
    """The requested tree exceeds the node cap."""


class FixedPointError(ModelError):
    """The implicit one-step equation has no unique solution or did not
    converge; dt is too large for the driver's y-sensitivity."""


@dataclass(frozen=True)
class CountLattice:
    """Per-level values on the recombining lattice of branch-bit counts.

    A level-i point is the vector of counts of each branch bit over i steps,
    most significant bit first: down signs (when sigma > 0), then the jumps
    of marks J-1 .. 0. Points are numbered in C order of the (i+1,)*nb box.
    x, w and counts are the state, Brownian value and per-mark jump counts;
    mass is the point's probability, a product of binomial laws, and
    path_prob the probability of each single path that reaches it.
    kids[i][p, b] is the level-(i+1) point that branch b leads to from p:
    the point plus the branch's bits; rows past the level's points pad it.
    Branch b leads from the root to level-1 point b, so level 1 holds the
    one-step alphabet.
    """

    model: LevyModel
    x: tuple
    w: tuple
    counts: tuple
    mass: tuple
    path_prob: tuple
    kids: tuple

    def context(self, level: int) -> StepContext:
        return StepContext(model=self.model, x=self.x[level], w=self.w[level], counts=self.counts[level])

    def expectation(self, values, level: int) -> float:
        """Unconditional expectation of per-point values at one level."""
        return float(self.mass[level] @ values)

    def to_kids(self, level: int, ufunc, fill: float, values) -> np.ndarray:
        """Reduce per-branch values (a row per level point) by ufunc onto the next level's points they lead to;
        points no row reaches keep `fill`."""
        out = np.full(self.x[level + 1].size, fill)
        ufunc.at(out, self.kids[level][: len(values)], values)
        return out


def _count_law(level: int, q: float):
    """For k = 0..level successes in `level` Bernoulli(q) trials: the probability
    of one sequence with k successes, and the binomial mass of k."""
    k = np.arange(level + 1)
    path = q**k * (1.0 - q) ** (level - k)
    return path, path * np.array([math.comb(level, int(c)) for c in k], dtype=float)


def _build_lattice(model: LevyModel, grid: TimeGrid, nb: int) -> CountLattice:
    j = model.n_marks
    has_w = nb > j
    times, sqrt_dt = grid.times, np.sqrt(grid.dt)
    # (axis, law) per bit in the order the laws multiply: the Brownian sign, then marks 0, 1, ...
    laws = ([(0, 0.5)] if has_w else []) + [(nb - 1 - k, q) for k, q in enumerate(model.intensities * grid.dt)]
    bits = np.indices((2,) * nb).reshape(nb, 2**nb).T  # branch b's bits, the level-1 point it leads to
    x, w, counts, mass, path_prob, kids = [], [], [], [], [], []
    for i in range(grid.steps + 1):
        size = (i + 1) ** nb
        coords = np.indices((i + 1,) * nb).reshape(nb, size).T
        path, point = np.ones(size), np.ones(size)
        for a, qa in laws:
            path_a, point_a = _count_law(i, qa)
            path, point = path * path_a[coords[:, a]], point * point_a[coords[:, a]]
        counts.append(coords[:, ::-1][:, :j].astype(float))
        w.append((i - 2 * coords[:, 0]) * sqrt_dt if has_w else np.zeros(size))
        x.append(model.state_increment(float(times[i]), w[-1], counts[-1]))
        mass.append(point)
        path_prob.append(path)
        if i < grid.steps:
            strides = (i + 2) ** np.arange(nb - 1, -1, -1)
            # Rows of point 0 pad a level of more than one point to a multiple of four: BLAS
            # matrix products sum a row left over from blocks of four in another order, and
            # the sweep needs equal rows to give equal values wherever they sit.
            pad = -size % 4 if size > 1 else 0
            kid = np.zeros((size + pad, 2**nb), dtype=np.int32)
            kid[:size] = (coords @ strides)[:, None] + bits @ strides
            kids.append(kid)
    return CountLattice(model, tuple(x), tuple(w), tuple(counts), tuple(mass), tuple(path_prob), tuple(kids))


class ProductIndex(Sequence):
    """The lattice point of every product node, one int32 array per level,
    enumerated on first access to a level together with the levels before it.

    A child's point is its parent's point plus the branch bits: kids[:, 0]
    re-numbers the parent's point on the next level, and kids[0] holds the
    branch offsets.
    """

    def __init__(self, kids: tuple):
        self.kids = kids
        self._levels = [np.zeros(1, dtype=np.int32)]

    def __len__(self) -> int:
        return len(self.kids) + 1

    def __getitem__(self, key: int) -> np.ndarray:
        i = range(len(self))[key]
        while len(self._levels) <= i:
            kids = self.kids[len(self._levels) - 1]
            self._levels.append(np.add.outer(kids[:, 0][self._levels[-1]], kids[0]).ravel())
        return self._levels[i]


class LevelArrays(Sequence):
    """Per-level arrays over the product tree's nodes, gathered on first access
    from per-point values on the count lattice.

    lattice[i] holds one value (or row) per lattice point at level i, and
    index[i] the lattice point of every level-i node. Slices and sums with
    other sequences give tuples.
    """

    def __init__(self, index: ProductIndex, lattice):
        self.index = index
        self.lattice = tuple(lattice)
        self._gathered = {}

    def __len__(self) -> int:
        return len(self.lattice)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(self[i] for i in range(len(self))[key])
        i = range(len(self))[key]
        if i not in self._gathered:
            v = self.lattice[i]
            self._gathered[i] = v[self.index[i]] if v.ndim == 1 else np.take(v, self.index[i], axis=0)
        return self._gathered[i]

    def __add__(self, other) -> tuple:
        return tuple(self) + tuple(other)

    def __radd__(self, other) -> tuple:
        return tuple(other) + tuple(self)


@dataclass(frozen=True)
class ScenarioTree:
    """Enumerated product tree over the count lattice, a view of it.

    dw_branch, dn_branch and branch_prob describe one step's alphabet, read
    off the level-1 lattice points; states/wpaths/counts/node_prob hold
    per-node values for levels 0..N.
    The children of node k are k*B + b, so a level-i node index has i
    base-B digits, the first step most significant. In branch b, mark j is
    bit j and the Brownian sign (when sigma > 0) is the top bit, so a level
    reshapes to one binary axis per step and bit; project_coarse relies on it.
    index[i] holds each level-i node's lattice point, through which the
    per-node arrays are gathered from the lattice on first access; it is
    enumerated only when a level is first gathered.
    """

    model: LevyModel
    grid: TimeGrid
    branching: int
    dw_branch: np.ndarray
    dn_branch: np.ndarray
    branch_prob: np.ndarray
    lattice: CountLattice
    index: ProductIndex
    states: LevelArrays
    wpaths: LevelArrays
    counts: LevelArrays
    node_prob: LevelArrays

    @property
    def n_steps(self) -> int:
        return self.grid.steps

    def level_size(self, level: int) -> int:
        return self.branching**level

    def node_counts(self) -> dict:
        """Nodes of the product tree and points of the lattice, summed over levels."""
        return {"product": sum(map(self.level_size, range(self.n_steps + 1))),
                "lattice": sum(x.size for x in self.lattice.x)}

    def context(self, level: int) -> StepContext:
        return StepContext(
            model=self.model, x=self.states[level], w=self.wpaths[level], counts=self.counts[level]
        )

    def dn_tilde_branch(self) -> np.ndarray:
        """Compensated per-branch jump increments, shape (B, J)."""
        return self.dn_branch - self.model.intensities * self.grid.dt

    def expectation(self, values, level: int) -> float:
        """Unconditional expectation of per-node values at one level."""
        return float(np.asarray(values, dtype=float) @ self.node_prob[level])


def build_tree(model: LevyModel, grid: TimeGrid) -> ScenarioTree:
    """The product tree over its count lattice; rejects lambda*dt >= 1 and trees above DEFAULT_NODE_CAP nodes.

    The product index is enumerated level by level when a per-node array is first read.
    """
    grid.validate_for_tree(model)
    j = model.n_marks
    has_w = model.sigma > 0.0
    branching = (2 if has_w else 1) * 2**j
    total = sum(branching**i for i in range(grid.steps + 1))
    if total > DEFAULT_NODE_CAP:
        raise TreeSizeError(
            f"tree needs {total} nodes (branching {branching}, {grid.steps} steps), cap is {DEFAULT_NODE_CAP}"
        )
    lattice = _build_lattice(model, grid, int(has_w) + j)
    first = lattice.kids[0][0]  # the level-1 point of each branch
    index = ProductIndex(lattice.kids)
    return ScenarioTree(
        model=model,
        grid=grid,
        branching=branching,
        dw_branch=lattice.w[1][first],
        dn_branch=lattice.counts[1][first],
        branch_prob=lattice.path_prob[1][first],
        lattice=lattice,
        index=index,
        states=LevelArrays(index, lattice.x),
        wpaths=LevelArrays(index, lattice.w),
        counts=LevelArrays(index, lattice.counts),
        node_prob=LevelArrays(index, lattice.path_prob),
    )


def conditional_expectation(tree: ScenarioTree, values) -> np.ndarray:
    """Exact one-level conditional expectation: values at level i+1 -> level i, for i in 0..N-1."""
    v = np.asarray(values, dtype=float)
    if tree.branching == 1:
        return v.copy()
    if v.shape[0] not in map(tree.level_size, range(1, tree.n_steps + 1)):
        raise ModelError(f"{v.shape[0]} values fit no tree level 1..{tree.n_steps}, so no level below the root")
    return v.reshape(-1, tree.branching) @ tree.branch_prob


@dataclass(frozen=True)
class TreeSolution:
    """Backward solution on a tree: Y per level 0..N, Z and U per level 0..N-1.

    The sweep leaves its values on the count lattice (Y.lattice and so on);
    Y, Z and U gather them to the product nodes level by level on access.
    """

    tree: ScenarioTree
    Y: LevelArrays
    Z: LevelArrays
    U: LevelArrays
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
        mean = self.tree.lattice.expectation
        return max(mean(y * y, lvl) for lvl, y in enumerate(self.Y.lattice))

    def square_integrals(self, other: TreeSolution | None = None) -> tuple[float, float, float]:
        """(E int |Y|^2 ds, E int |Z|^2 ds, E int ||U||^2 ds) on the grid, of this solution or of its gap
        to `other` on a tree of the same shape, summed on the count lattice. The Y integral runs over the
        N left endpoints, so a constant offset c contributes exactly c^2 * T."""
        shape = (self.tree.branching, self.tree.n_steps)
        if other is not None and (other.tree.branching, other.tree.n_steps) != shape:
            raise ModelError("tree solutions live on different trees")

        def levels(name):
            mine = getattr(self, name).lattice
            return mine if other is None else [a - b for a, b in zip(mine, getattr(other, name).lattice)]

        dt, lam, mean = self.tree.grid.dt, self.tree.model.intensities, self.tree.lattice.expectation
        return (float(sum(mean(y * y, i) for i, y in enumerate(levels("Y")[:-1])) * dt),
                float(sum(mean(z * z, i) for i, z in enumerate(levels("Z"))) * dt),
                float(sum(mean((u * u) @ lam, i) for i, u in enumerate(levels("U"))) * dt))

    def zu_integrals(self) -> tuple[float, float]:
        """Time-integrated second moments: (E int |Z|^2 ds, E int ||U||^2 ds)."""
        return self.square_integrals()[1:]


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
                  project=None, tol: float = DEFAULT_FP_TOL):
    """Solve y = ey + dt f(t, y, z, u) at one step; returns (y, iterations).

    A driver that declares itself affine in y (GeneratorSpec.affine gives
    its slope and offset) is solved in closed form, y = (ey + dt offset) /
    (1 - dt slope), in one iteration; with `project`, only when the slope is
    a scalar, and then with project(offset), since the projection of
    slope y + offset is slope y + project(offset) for y measurable. Where
    1 - dt slope <= 0 the step has no unique solution, and FixedPointError
    names the step and the smallest 1 - dt slope; a solution that is not
    finite (from a NaN or infinite ey or offset) raises FixedPointError
    naming the step, where the fixed point would not converge.

    Any other driver (and a per-point slope under `project`) is bound to
    (ctx, t, z, u) once (GeneratorSpec.bind) and iterated from y = ey, each
    iteration evaluating it in y alone and accumulating ey + dt f into the
    fresh array it returns. `project`, when given, maps every driver
    evaluation to a fresh array before it enters the update. An iteration
    that has not converged after DEFAULT_FP_MAX_ITER updates raises
    FixedPointError with the step, the last delta and the contraction dt *
    max K1. A tol that is not positive raises ModelError.
    """
    if not tol > 0:
        raise ModelError(f"fixed-point tolerance must be positive, got {tol!r}")
    line = g.affine(ctx, t, z, u)
    if line is not None and (project is None or np.ndim(line[0]) == 0):
        slope, offset = line
        if np.ndim(slope) == 0:
            denom = low = 1.0 - dt * float(slope)
        else:
            denom = 1.0 - dt * np.asarray(slope, dtype=float)
            low = float(np.min(denom, initial=np.inf))
        if not low > 0:
            raise FixedPointError(f"implicit step has no unique solution at step {step}: "
                                  f"1 - dt*slope = {low:.3g} <= 0")
        ey = np.asarray(ey, dtype=float)
        if project is not None:
            offset = project(np.broadcast_to(offset, ey.shape))
        y = ey + dt * offset
        y /= denom
        if not np.isfinite(y).all():
            raise FixedPointError(f"implicit step has a non-finite solution at step {step}")
        return y, 1
    ey = np.ascontiguousarray(ey, dtype=float)
    fy = g.bind(ctx, t, z, u)
    gap = np.empty(ey.shape)
    y = ey
    for it in range(1, DEFAULT_FP_MAX_ITER + 1):
        y_new = fy(y) if project is None else project(fy(y))
        y_new *= dt
        y_new += ey
        delta = float(np.abs(np.subtract(y_new, y, out=gap), out=gap).max()) if gap.size else 0.0
        y = y_new
        if delta <= tol:
            return y, it
    contraction = dt * float(np.max(g.K1(ctx, t), initial=0.0))
    raise FixedPointError(
        f"implicit step did not converge at step {step} within {DEFAULT_FP_MAX_ITER} iterations: "
        f"last delta {delta:.3g}, estimated contraction dt*K1 = {contraction:.3g}"
    )


def _sweep(tree: ScenarioTree, g: GeneratorSpec, xi, n: int | None, tol: float) -> TreeSolution:
    """Implicit backward sweep on the count lattice; with a truncation level n, the level-n coarse problem.

    With n, the terminal values and every driver evaluation are averaged over
    the removed marks' counts and U is zeroed on the removed marks.
    """
    lat = tree.lattice
    steps, dt = tree.n_steps, tree.grid.dt
    j = tree.model.n_marks
    times = tree.grid.times
    w_z, w_u = _representation_weights(tree)
    removed = ~kept_marks_mask(tree.model, n) if n is not None else np.zeros(j, dtype=bool)
    coarse = bool(removed.any())

    y_levels = [None] * (steps + 1)
    z_levels = [None] * steps
    u_levels = [None] * steps
    iters = [0] * steps
    y_levels[steps] = np.asarray(xi(lat.context(steps)), dtype=float)
    if coarse:
        y_levels[steps] = _removed_count_average(tree, removed, steps)(y_levels[steps])

    for i in range(steps - 1, -1, -1):
        size = lat.x[i].size
        nxt = y_levels[i + 1][lat.kids[i]]
        ey = (nxt @ tree.branch_prob)[:size]
        z = (nxt @ w_z)[:size] if w_z is not None else np.zeros(size)
        u = (nxt @ w_u)[:size] if w_u is not None else np.zeros((size, j))
        project = None
        if coarse:
            u[:, removed] = 0.0
            project = _removed_count_average(tree, removed, i)
        y, iters[i] = implicit_step(g, lat.context(i), float(times[i]), dt, ey, z, u, i, project, tol)
        y_levels[i], z_levels[i], u_levels[i] = y, z, u

    return TreeSolution(tree=tree, Y=LevelArrays(tree.index, y_levels), Z=LevelArrays(tree.index, z_levels),
                        U=LevelArrays(tree.index, u_levels), fp_iterations=tuple(iters))


def solve_backward(tree: ScenarioTree, g: GeneratorSpec, xi, tol: float = DEFAULT_FP_TOL) -> TreeSolution:
    """Implicit backward sweep: at each node solve Y = E[Y_next] + dt f(t, Y, Z, U).

    Z and U come from exact correlations with the step increments; the
    implicit y-equation is solved by fixed-point iteration to `tol`.
    The driver is evaluated at the left endpoint with the pre-jump state.
    """
    return _sweep(tree, g, xi, None, tol)


# ---------------------------------------------------------------------------
# Projection onto the sub-filtration of coarse jumps
# ---------------------------------------------------------------------------


def _centered_average(values, shape: tuple, gone: list, w: np.ndarray) -> np.ndarray:
    """Average values of the given shape over the `gone` axes under the weights w
    (their joint law, C order over gone), and broadcast the mean back.

    The average is centred at index 0 of every gone axis, so values constant
    along those axes pass through bitwise and the average is idempotent. The
    result is a fresh array.
    """
    perm = [a for a in range(len(shape)) if a not in gone] + list(gone)
    t = np.asarray(values, dtype=float).reshape(shape).transpose(perm)
    rows = t.reshape(-1, w.size)
    mean = rows[:, 0] + (rows - rows[:, :1]) @ w
    return np.repeat(mean[:, None], w.size, axis=1).reshape(t.shape).transpose(np.argsort(perm)).reshape(-1)


def project_coarse(tree: ScenarioTree, values, n: int, level: int) -> np.ndarray:
    """Exact conditional expectation given the Brownian signs and the jumps
    of marks with |x| >= 1/n, applied to per-node values at one level.

    The level's values form a tensor of branch bits (see ScenarioTree). Each
    removed-mark bit axis is averaged out in turn, outermost first, as
    v0 + (v1 - v0) * lambda dt on a view that halves it; the means are then
    repeated back over the same axes, innermost first. Every average is
    centred at bit 0, so measurable values pass through bitwise and the
    projection is idempotent. A level that does not match the values'
    length raises ModelError.
    """
    v = np.asarray(values, dtype=float)
    lvl = int(level)
    if not 0 <= lvl <= tree.n_steps or v.size != tree.level_size(lvl):
        raise ModelError(f"level {lvl} does not fit {v.size} values: a tree of {tree.n_steps} steps "
                         f"has {tree.branching}**level nodes at levels 0..{tree.n_steps}")
    removed = ~kept_marks_mask(tree.model, n)
    if not removed.any() or lvl == 0:
        return v.copy()

    nb = tree.branching.bit_length() - 1
    p_jump = tree.model.intensities * tree.grid.dt
    # Mark k's bit at step s has nb*(lvl-1-s) + k axes after it (see ScenarioTree). Halving the axes
    # outermost first leaves those axes whole, so the trailing size of each is 2**after.
    after = [nb * (lvl - 1 - s) + k for s in range(lvl) for k in np.flatnonzero(removed)[::-1]]
    t = v
    for a in after:
        pair = t.reshape(-1, 2, 1 << a)
        t = np.subtract(pair[:, 1], pair[:, 0])
        t *= p_jump[a % nb]
        t += pair[:, 0]
    for a in reversed(after):
        t = np.repeat(t.reshape(-1, 1, 1 << a), 2, axis=1)
    return t.reshape(-1)


def _removed_count_average(tree: ScenarioTree, removed: np.ndarray, level: int):
    """project_coarse on lattice values at one level: the average over the
    removed marks' counts under their Binomial(level, lambda dt) laws."""
    nb = tree.branching.bit_length() - 1
    gone = [nb - 1 - k for k in np.flatnonzero(removed)]  # mark k is bit k, on axis nb - 1 - k
    laws = [_count_law(level, p)[1] for p in tree.model.intensities[removed] * tree.grid.dt]
    w = reduce(np.multiply.outer, laws, 1.0).ravel()
    return lambda values: _centered_average(values, (level + 1,) * nb, gone, w)


def solve_truncated(tree: ScenarioTree, g: GeneratorSpec, xi, n: int, tol: float = DEFAULT_FP_TOL) -> TreeSolution:
    """Backward solve for the level-n coarse problem on the full tree.

    Terminal values and every driver evaluation are projected onto the
    coarse sub-filtration (on the lattice: averaged over the removed marks'
    counts), and U is zeroed on removed marks, so the returned solution is
    constant across removed-mark coordinates. With no removed marks this
    reproduces solve_backward bit for bit.
    """
    return _sweep(tree, g, xi, n, tol)
