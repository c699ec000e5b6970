"""Exact finite scenario tree: conditional expectations, backward solver,
and the projection onto the sub-filtration generated by the coarse jumps.

Per step the branch alphabet is the product of a Brownian sign (when sigma
is positive) with one jump/no-jump bit per mark, so level i of the product
tree holds B^i nodes, the children of node k being k*B + b. Every value the
solvers compute depends on a node only through how often each of its nb
bits was set, so they sweep the recombining count lattice, whose level i is
a box of (i+1)^nb points. A step's bits are independent, so its operators
work on the box one axis at a time, in sums of fixed order with no BLAS.
The product tree keeps one lattice index per node and gathers its per-node
arrays on first access.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .generators import Affine, GeneratorSpec, StepContext
from .levy import LevyModel, ModelError, TimeGrid, kept_marks_mask, mark_sum

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
    most significant bit first: down signs (when sigma > 0), then the jumps of
    marks J-1 .. 0. Points are numbered in C order of the (i+1,)*nb box, one
    axis per bit; a step adds its bits to the point, and bit_prob[a] is the
    chance that it sets axis a's bit. x, w and counts are the state, Brownian
    value and per-mark jump counts; mass is the point's probability, a product
    of binomial laws, and path_prob that of each single path reaching it.
    """

    model: LevyModel
    x: tuple
    w: tuple
    counts: tuple
    mass: tuple
    path_prob: tuple
    bit_prob: np.ndarray

    def context(self, level: int) -> StepContext:
        return StepContext(model=self.model, x=self.x[level], w=self.w[level], counts=self.counts[level])

    def expectation(self, values, level: int) -> float:
        """Unconditional expectation of per-point values at one level."""
        return float(np.sum(self.mass[level] * values))

    def one_step(self, level: int, values, dt: float):
        """(E[y'], Z, U) at every level point from the next level's values y'.

        Along each axis a step reaches lo (bit unset) or hi (bit set). E averages the axes in order,
        lo + q (hi - lo). Z is (lo - hi) 0.5 / sqrt(dt) along the Brownian axis and U_j is hi - lo
        along mark j's axis, each averaged along the other axes from E's partial averages on.
        """
        q, j, nb = self.bit_prob, self.model.n_marks, len(self.bit_prob)
        ey = np.asarray(values, dtype=float).reshape((level + 2,) * nb)
        z, u = np.zeros((level + 1,) * nb), np.empty((level + 1,) * nb + (j,))
        for a in range(nb):
            part = ey
            for b in range(a + 1, nb):
                part = _average(part, b, q[b])
            lo, hi = _pair(part, a)
            diff = np.subtract(hi, lo, out=u[..., nb - 1 - a] if a >= nb - j else None)
            if a < nb - j:  # the Brownian axis: (hi - lo) * -c is (lo - hi) * c bit for bit
                np.multiply(diff, -0.5 / math.sqrt(dt), out=z)
            ey = _average(ey, a, q[a])
        return ey.reshape(-1), z.reshape(-1), u.reshape(z.size, j)

    def forward(self, level: int, values, law: bool = True) -> np.ndarray:
        """Per next-level point, over the level's points that lead to it: the sum of their values times
        the step's probability, or with law=False the largest value."""
        v = np.asarray(values, dtype=float).reshape((level + 1,) * len(self.bit_prob))
        combine = np.add if law else np.maximum
        for a, q in enumerate(self.bit_prob):
            out = np.full(v.shape[:a] + (level + 2,) + v.shape[a + 1:], 0.0 if law else -np.inf)
            lo, hi = _pair(out, a)
            combine(lo, v * (1.0 - q) if law else v, out=lo)
            combine(hi, v * q if law else v, out=hi)
            v = out
        return v.reshape(-1)


def _pair(v: np.ndarray, axis: int):
    """The views of v at k and at k + 1 along axis, for every k but the last."""
    head = (slice(None),) * axis
    return v[head + (slice(None, -1),)], v[head + (slice(1, None),)]


def _average(v: np.ndarray, axis: int, q: float) -> np.ndarray:
    """The two-point average lo + q (hi - lo) along axis (see _pair), in a fresh array."""
    lo, hi = _pair(v, axis)
    return lo + q * (hi - lo)


def _count_law(level: int, q: float):
    """For k = 0..level successes in `level` Bernoulli(q) trials: the probability of one sequence
    with k successes, and the binomial mass of k. Powers are repeated products, the same on any CPU."""
    up, down = np.full(level + 1, q), np.full(level + 1, 1.0 - q)
    up[0] = down[0] = 1.0
    path = np.multiply.accumulate(up, out=up) * np.multiply.accumulate(down, out=down)[::-1]
    return path, path * np.array([math.comb(level, c) for c in range(level + 1)], dtype=float)


def _build_lattice(model: LevyModel, grid: TimeGrid, nb: int) -> CountLattice:
    j, has_w = model.n_marks, nb > model.n_marks
    times, sqrt_dt = grid.times, np.sqrt(grid.dt)
    # (axis, law) per bit in the order the laws multiply: the Brownian sign, then marks 0, 1, ...
    laws = ([(0, 0.5)] if has_w else []) + [(nb - 1 - k, q) for k, q in enumerate(model.intensities * grid.dt)]
    bit_prob = np.r_[[0.5] * has_w, model.intensities[::-1] * grid.dt]
    x, w, counts, mass, path_prob = [], [], [], [], []
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
    return CountLattice(model, tuple(x), tuple(w), tuple(counts), tuple(mass), tuple(path_prob), bit_prob)


def _child_rows(table: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Per-node values of a level from its parents' lattice points: row p of table holds
    the values of point p's B children, so node k*B + b is entry b of parent k's row."""
    return np.take(table, parents, axis=0).reshape((parents.size * table.shape[1],) + table.shape[2:])


class ProductIndex(Sequence):
    """The lattice point of every product node, one int32 array per level,
    enumerated on first access to a level together with the levels before it:
    level i+1 is the rows of children(i) at level i's points, where
    children(i)[p, b] is p plus branch b's bits, made from the box when asked.
    """

    def __init__(self, nb: int, steps: int):
        self.nb, self.steps = nb, steps
        self._levels = [np.zeros(1, dtype=np.int32)]

    def __len__(self) -> int:
        return self.steps + 1

    def __getitem__(self, key: int) -> np.ndarray:
        i = range(len(self))[key]
        while len(self._levels) <= i:
            self._levels.append(_child_rows(self.children(len(self._levels) - 1), self._levels[-1]))
        return self._levels[i]

    def children(self, level: int) -> np.ndarray:
        box = np.arange((level + 2) ** self.nb, dtype=np.int32).reshape((level + 2,) * self.nb)
        # box numbers are linear in the coordinates: point c plus bits sits at box[c] + box[bits]
        return np.add.outer(box[(slice(-1),) * self.nb].ravel(), box[(slice(2),) * self.nb].ravel())


class LevelArrays(Sequence):
    """Per-level arrays over the product tree's nodes, gathered on first access
    from per-point values on the count lattice.

    lattice[i] holds one value (or row) per lattice point at level i. A level
    below the root is gathered as the rows of its parents' points in
    lattice[i][index.children(i-1)], so a read enumerates index only up to the
    parents' level. Slices give tuples.
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
            self._gathered[i] = (np.take(v, self.index[0], axis=0) if i == 0 else
                                 _child_rows(np.take(v, self.index.children(i - 1), axis=0), self.index[i - 1]))
        return self._gathered[i]


@dataclass(frozen=True)
class ScenarioTree:
    """Enumerated product tree over the count lattice, a view of it.

    dw_branch, dn_branch and branch_prob, one step's alphabet, are the level-1
    lattice points; states/wpaths/counts/node_prob hold per-node values for
    levels 0..N, and index[i] each level-i node's lattice point, made only as
    far as a read needs (see LevelArrays). A level-i node index has i base-B
    digits, the first step most significant. In branch b, mark j is bit j and
    the Brownian sign (when sigma > 0) the top bit, so a level reshapes to one
    binary axis per step and bit; project_coarse relies on it.
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
        return StepContext(model=self.model, x=self.states[level], w=self.wpaths[level], counts=self.counts[level])

    def dn_tilde_branch(self) -> np.ndarray:
        """Compensated per-branch jump increments, shape (B, J)."""
        return self.dn_branch - self.model.intensities * self.grid.dt

    def expectation(self, values, level: int) -> float:
        """Unconditional expectation of per-node values at one level."""
        return float(np.sum(np.asarray(values, dtype=float) * self.node_prob[level]))


def build_tree(model: LevyModel, grid: TimeGrid) -> ScenarioTree:
    """The product tree over its count lattice; rejects lambda*dt >= 1 and trees above DEFAULT_NODE_CAP nodes.

    The product index is enumerated level by level when a per-node array or the index is first read.
    """
    grid.validate_for_tree(model)
    nb = int(model.sigma > 0.0) + model.n_marks
    branching = 2**nb
    total = sum(branching**i for i in range(grid.steps + 1))
    if total > DEFAULT_NODE_CAP:
        raise TreeSizeError(f"tree needs {total} nodes (branching {branching}, {grid.steps} steps), "
                            f"cap is {DEFAULT_NODE_CAP}")
    lattice = _build_lattice(model, grid, nb)
    index = ProductIndex(nb, grid.steps)
    return ScenarioTree(  # branch b leads to level-1 point b
        model=model,
        grid=grid,
        branching=branching,
        dw_branch=lattice.w[1],
        dn_branch=lattice.counts[1],
        branch_prob=lattice.path_prob[1],
        lattice=lattice,
        index=index,
        states=LevelArrays(index, lattice.x),
        wpaths=LevelArrays(index, lattice.w),
        counts=LevelArrays(index, lattice.counts),
        node_prob=LevelArrays(index, lattice.path_prob),
    )


def conditional_expectation(tree: ScenarioTree, values) -> np.ndarray:
    """Exact one-level conditional expectation: values at level i+1 -> level i, for i in 0..N-1.

    A node's children form a (2,)*nb box averaged one axis at a time as in
    CountLattice.one_step, so the two agree bitwise and constants pass through.
    """
    v = np.asarray(values, dtype=float)
    if tree.branching == 1:
        return v.copy()
    if v.shape[0] not in map(tree.level_size, range(1, tree.n_steps + 1)):
        raise ModelError(f"{v.shape[0]} values fit no tree level 1..{tree.n_steps}, so no level below the root")
    v = v.reshape((-1,) + (2,) * len(tree.lattice.bit_prob))
    for a, q in enumerate(tree.lattice.bit_prob, start=1):
        v = _average(v, a, q)
    return v.reshape(-1)


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
        run *= run
        return float(np.sum(run * self.tree.node_prob[-1]))

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
                float(sum(mean(mark_sum(u * u, lam), i) for i, u in enumerate(levels("U"))) * dt))

    def zu_integrals(self) -> tuple[float, float]:
        """Time-integrated second moments: (E int |Z|^2 ds, E int ||U||^2 ds)."""
        return self.square_integrals()[1:]


@dataclass(frozen=True)
class L2Distance:
    """Squared distances E int |dY|^2 ds, E int |dZ|^2 ds, E int ||dU||^2 ds."""

    dY: float
    dZ: float
    dU: float

    def total(self) -> float:
        return self.dY + self.dZ + self.dU


def l2_distance(sol_a, sol_b) -> L2Distance:
    """Distance between two solutions on the same tree, summed on their count lattice
    (TreeSolution.square_integrals); any other pair raises ModelError.

    The Y integral runs over the N left endpoints, so a constant offset c
    contributes exactly c^2 * T.
    """
    if isinstance(sol_a, TreeSolution) and isinstance(sol_b, TreeSolution):
        return L2Distance(*sol_a.square_integrals(sol_b))
    raise ModelError("l2_distance needs two tree solutions")


def affine_solution(y: np.ndarray, dt: float, slope, step: int) -> np.ndarray:
    """Divide y = ey + dt offset in place by 1 - dt slope and return it: the closed-form step.

    slope is a scalar or one value per point. Where 1 - dt slope <= 0 the
    step has no unique solution, and FixedPointError names the step and the
    smallest 1 - dt slope; a solution that is not finite (from a NaN or
    infinite ey or offset) raises FixedPointError naming the step.
    """
    if np.ndim(slope) == 0:
        denom = low = 1.0 - dt * float(slope)
    else:
        denom = 1.0 - dt * np.asarray(slope, dtype=float)
        low = float(np.min(denom, initial=np.inf))
    if not low > 0:
        raise FixedPointError(f"implicit step has no unique solution at step {step}: "
                              f"1 - dt*slope = {low:.3g} <= 0")
    y /= denom
    if not np.isfinite(y).all():
        raise FixedPointError(f"implicit step has a non-finite solution at step {step}")
    return y


def implicit_step(g: GeneratorSpec, ctx: StepContext, t: float, dt: float, ey, z, u, step: int,
                  project=None, tol: float = DEFAULT_FP_TOL, out: np.ndarray | None = None):
    """Solve y = ey + dt f(t, y, z, u) at one step; returns (y, iterations).

    y is `out` when given (an array of the solution's shape that aliases
    none of the inputs), a fresh array otherwise; the values are the same.
    An Affine eval is solved in closed form, y = (ey + dt offset) / (1 - dt
    slope), in one iteration, with affine_solution's errors. With `project`,
    offset and a per-point slope are projected first: for y measurable, the
    projection of slope y + offset is project(slope) y + project(offset).

    A plain eval is iterated from y = ey, each update copying f (projected
    when `project` is given) into a fresh array that accumulates ey + dt f.
    A delta that is not finite raises FixedPointError naming the step at
    once; an iteration that has not converged after DEFAULT_FP_MAX_ITER
    updates raises FixedPointError with the step, the last delta and the
    contraction dt * max K1. A tol that is not positive raises ModelError.
    """
    if not tol > 0:
        raise ModelError(f"fixed-point tolerance must be positive, got {tol!r}")
    ev = g.eval
    if isinstance(ev, Affine):
        slope, offset = ev.bind(ctx, t, z, u)
        ey = np.asarray(ey, dtype=float)
        if project is not None:
            offset = project(np.broadcast_to(offset, ey.shape))
            if np.ndim(slope):
                slope = project(np.broadcast_to(slope, ey.shape))
        y = np.multiply(offset, dt, out=out)  # then + ey: IEEE + and * commute, so this is ey + dt * offset
        y += ey  # a scalar offset gives a new array here, of ey's shape
        return affine_solution(y, dt, slope, step), 1
    ey = np.ascontiguousarray(ey, dtype=float)
    gap = np.empty(ey.shape)
    y = ey
    for it in range(1, DEFAULT_FP_MAX_ITER + 1):
        y_new = np.array(np.broadcast_to(ev(ctx, t, y, z, u), y.shape), dtype=float)
        if project is not None:
            y_new = project(y_new)
        y_new *= dt
        y_new += ey
        delta = float(np.abs(np.subtract(y_new, y, out=gap), out=gap).max()) if gap.size else 0.0
        if not math.isfinite(delta):
            raise FixedPointError(f"implicit step has a non-finite solution at step {step}")
        y = y_new
        if delta <= tol:
            if out is not None:
                out[...] = y
                y = out
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
    lat, steps, dt, times = tree.lattice, tree.n_steps, tree.grid.dt, tree.grid.times
    removed = ~kept_marks_mask(tree.model, n) if n is not None else np.zeros(tree.model.n_marks, dtype=bool)
    coarse = bool(removed.any())

    y_levels, z_levels, u_levels, iters = [None] * (steps + 1), [None] * steps, [None] * steps, [0] * steps
    y_levels[steps] = np.asarray(xi(lat.context(steps)), dtype=float)
    if coarse:
        y_levels[steps] = _removed_count_average(tree, removed, steps)(y_levels[steps])

    for i in range(steps - 1, -1, -1):
        ey, z, u = lat.one_step(i, y_levels[i + 1], dt)
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


def project_coarse(tree: ScenarioTree, values, n: int, level: int) -> np.ndarray:
    """Exact conditional expectation given the Brownian signs and the jumps
    of marks with |x| >= 1/n, applied to per-node values at one level.

    The level's values form a tensor of branch bits (see ScenarioTree). Each
    removed-mark bit axis is averaged out in turn, outermost first, as
    v0 + (v1 - v0) * lambda dt on a view that halves it, written into the
    half of the result its source does not occupy. The means then reach the
    nodes by one row take: node k*B + b reads, in the row of parent k's kept
    bits, the entry of branch b's kept bits. Every average is centred at
    bit 0, so measurable values pass through bitwise and the projection is
    idempotent. The result is the only level-sized allocation. A level that
    does not match the values' length raises ModelError.
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
    out = np.empty(v.size)
    halves = out.reshape(2, -1)
    t = v
    for h, a in enumerate(after):  # halving h reads the half halving h-1 wrote and writes the other
        pair = t.reshape(-1, 2, 1 << a)
        t = np.subtract(pair[:, 1], pair[:, 0], out=halves[h % 2, : t.size // 2].reshape(-1, 1 << a))
        t *= p_jump[a % nb]
        t += pair[:, 0]
    # The means are in C order over the kept bits, step by step; each step's kept bits keep their order.
    kept = np.flatnonzero(np.r_[~removed, np.ones(nb - removed.size, dtype=bool)])
    branch = np.arange(tree.branching)
    col = np.sum(((branch[:, None] >> kept) & 1) << np.arange(kept.size), axis=1)
    rows = np.zeros(1, dtype=np.intp)
    for _ in range(lvl - 1):
        rows = np.add.outer(rows << kept.size, col).ravel()
    # The column take moves the means to a small array of their own, so the row take may fill the whole
    # result; its indices are all in range, and mode="clip" lets it write there without a buffer.
    np.take(np.take(t.reshape(-1, 1 << kept.size), col, axis=1), rows, axis=0,
            out=out.reshape(-1, tree.branching), mode="clip")
    return out


def _removed_count_average(tree: ScenarioTree, removed: np.ndarray, level: int):
    """project_coarse on lattice values at one level: the average over the removed marks'
    counts under their Binomial(level, lambda dt) laws, one axis at a time as
    v0 + sum_k (vk - v0) mass(k), into a fresh array. Centred at count 0, it
    passes values constant along the removed axes through bitwise."""
    q = tree.lattice.bit_prob
    shape = (level + 1,) * len(q)
    # mark k is bit k, on axis a = nb - 1 - k, with k axes after it
    laws = [(a, _count_law(level, q[a])[1].reshape((-1,) + (1,) * (len(q) - 1 - a)))
            for a in len(q) - 1 - np.flatnonzero(removed)]

    def average(values):
        v = np.asarray(values, dtype=float).reshape(shape)
        for a, mass in laws:
            v0 = v[(slice(None),) * a + (slice(1),)]
            v = v0 + np.sum((v - v0) * mass, axis=a, keepdims=True)
        return np.broadcast_to(v, shape).flatten()

    return average


def solve_truncated(tree: ScenarioTree, g: GeneratorSpec, xi, n: int, tol: float = DEFAULT_FP_TOL) -> TreeSolution:
    """Backward solve for the level-n coarse problem on the full tree.

    Terminal values and every driver evaluation are projected onto the
    coarse sub-filtration (on the lattice: averaged over the removed marks'
    counts), and U is zeroed on removed marks, so the returned solution is
    constant across removed-mark coordinates. With no removed marks this
    reproduces solve_backward bit for bit.
    """
    return _sweep(tree, g, xi, n, tol)
