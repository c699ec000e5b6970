"""Drivers f(context, t, y, z, u) with declared growth/monotonicity coefficients.

A driver evaluates vectorized: y, z are arrays with one entry per node or
path, u has one extra trailing axis with one entry per jump mark, and the
context supplies the model plus the state path information at time t. The
time t is a scalar when a solver calls (one time per level or step) or an
array with one time per point when a condition check calls; drivers and
their coefficients accept both. Condition checks are sampling based and
report witnesses instead of raising: each draws all its points first, then
evaluates the driver once on all of them. A driver has one of two forms: the
catalog writes each driver once, as its slope and offset in y (Affine), from
which the solvers solve the implicit step in closed form, in the truncated
sweep too; any other driver is a plain eval, which the solvers' fixed point
iterates in y. An Affine driver that is linear in (y, z, u) with constant
coefficients also declares them (LinearCoefficients); driver_slopes reads the
declaration as exact slopes for the branch-weight check and the LSMC tangent
rows, where it differences any other driver.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .levy import LevyModel, ModelError, TimeGrid, levy_norm, mark_sum

# Numerical slack for all inequality checks (floating-point associativity).
CHECK_SLACK = 1e-12
# Step of driver_slopes' central differences in branch_weight_margin: a power of two, so a driver affine
# in (z, u) that declares no coefficients gives them up to the rounding of its own values times 2**3.
_DIFF_STEP = 2.0**-4


@dataclass(frozen=True)
class StepContext:
    """State information visible to a driver at one time point.

    x holds the state value per node/path; w and counts (Brownian value and
    per-mark jump counts) are populated by the solvers and may be None in
    sampling contexts.
    """

    model: LevyModel
    x: np.ndarray
    w: np.ndarray | None = None
    counts: np.ndarray | None = None


@dataclass(frozen=True)
class RhoFunction:
    """Modulus for the monotonicity condition: nondecreasing, concave, zero at zero.

    value is the array form, vectorized like a driver. scalar, when given, is
    the same function on one Python float, equal to float(value(x)) bit for
    bit (nan where value gives nan); the bound evaluators call it in their
    quadrature and Newton loops, where a numpy call per point costs far more
    than the arithmetic. kinks lists the points where the modulus is not
    smooth; a quadrature of 1/rho is split there.
    """

    value: Callable
    description: str = ""
    scalar: Callable[[float], float] | None = None
    kinks: tuple[float, ...] = ()

    def __call__(self, x):
        return self.value(x)


_INV_E = 1.0 / math.e


def _xlogx_scalar(x: float) -> float:
    m = min(x, _INV_E)
    if m > 0.0:
        return -math.expm1(m * math.log(m))  # 1 - m**m rounds to 0 below m = 8.7e-19
    return 0.0 if m == 0.0 else math.nan


# The float form on each element: numpy's expm1 and log are not libm's on every
# CPU (SIMD kernels), so computing the array form apart would break bit equality.
_xlogx = np.vectorize(_xlogx_scalar, otypes=[float])


def _sqrt_scalar(x: float) -> float:
    return math.sqrt(x) if x >= 0.0 else math.nan  # nan stays nan; -0.0 gives -0.0 as in numpy


# The modulus catalog. 'sqrt' fails both the divergent-integral requirement
# and the small-x rate condition; it is shipped for bound experiments only.
RHO_CATALOG = {
    "identity": RhoFunction(lambda x: np.asarray(x, dtype=float) + 0.0, "identity modulus",
                            scalar=lambda x: x + 0.0),
    "sqrt": RhoFunction(
        lambda x: np.sqrt(np.asarray(x, dtype=float)),
        "square root; for bound experiments only (integrable near zero, small-x rate 1)",
        scalar=_sqrt_scalar,
    ),
    "xlogx": RhoFunction(
        _xlogx,
        "behaves like -x log x near zero, constant above 1/e; concave with divergent integral",
        scalar=_xlogx_scalar,
        kinks=(_INV_E,),
    ),
}


def _zero_coeff(ctx, t):
    return np.zeros_like(np.asarray(ctx.x, dtype=float))


def constant_coeff(c: float) -> Callable:
    def coeff(ctx, t):
        return np.full_like(np.asarray(ctx.x, dtype=float), float(c))

    return coeff


@dataclass(frozen=True)
class LinearCoefficients:
    """Constant coefficients of a driver linear in (y, z, u): f = a y + b z + sum_j c_j lambda_j u_j.

    c holds one coefficient for every mark or one per mark.
    """

    a: float
    b: float = 0.0
    c: tuple[float, ...] = (0.0,)

    def jump_coefficients(self, model: LevyModel) -> np.ndarray:
        """c_j for each of the model's marks."""
        if len(self.c) == 1:
            return np.full(model.n_marks, self.c[0])
        if len(self.c) != model.n_marks:
            raise ModelError(f"driver has {len(self.c)} jump coefficients, model has {model.n_marks} marks")
        return np.array(self.c)


class Affine:
    """A driver affine in y, written once as its slope and offset.

    bind(ctx, t, z, u) does every y-independent part of the driver and
    returns (slope, offset) with f = slope * y + offset: slope is a scalar or
    one value per point, offset a scalar or one value per point, and neither
    may be changed afterwards. Called as an eval, it computes slope * y +
    offset; the solvers solve the implicit step from bind in closed form.
    linear, when given, declares that bind is f = a y + b z + sum_j c_j
    lambda_j u_j with those constant coefficients; bind keeps its own
    arithmetic, and only driver_slopes reads the declaration.
    """

    __slots__ = ("bind", "linear")

    def __init__(self, bind: Callable, linear: LinearCoefficients | None = None):
        self.bind = bind
        self.linear = linear

    def __call__(self, ctx, t, y, z, u):
        slope, offset = self.bind(ctx, t, z, u)
        return slope * np.asarray(y, dtype=float) + offset


@dataclass(frozen=True)
class GeneratorSpec:
    """A driver together with its declared condition coefficients.

    eval(ctx, t, y, z, u) must be pure and vectorized over nodes/paths; an
    Affine eval also gives the solvers its slope and offset in y.
    F, K1, K2 bound the growth |f| <= F + K1|y| + K2(|z| + ||u||); alpha,
    beta, rho enter the one-sided monotonicity condition. eval and the
    coefficients F, K1, K2, beta, alpha take t as a scalar (solvers) or as
    an array with one time per point (condition checks).
    """

    name: str
    eval: Callable
    F: Callable = _zero_coeff
    K1: Callable = _zero_coeff
    K2: Callable = _zero_coeff
    beta: Callable = _zero_coeff
    alpha: Callable = lambda t: 0.0
    rho: RhoFunction = RHO_CATALOG["identity"]

    @property
    def linear(self) -> LinearCoefficients | None:
        """The coefficients the eval declares when it is linear in (y, z, u), None otherwise."""
        return self.eval.linear if isinstance(self.eval, Affine) else None

    def growth_bound(self, ctx, t, y, z, u):
        """Declared bound F + K1|y| + K2(|z| + ||u||) at a point."""
        return (
            self.F(ctx, t)
            + self.K1(ctx, t) * np.abs(y)
            + self.K2(ctx, t) * (np.abs(z) + levy_norm(u, ctx.model))
        )


def clamp(z, n: int):
    """Coordinate cutoff to [-n, n]; identity inside."""
    return np.minimum(np.maximum(-float(n), z), float(n))


def project_ball(u, n: int, model: LevyModel):
    """Radial projection of u onto the ball of jump-norm radius n."""
    u = np.asarray(u, dtype=float)
    norm = levy_norm(u, model)
    scale = np.where(norm > n, np.divide(float(n), norm, out=np.ones_like(norm), where=norm > 0), 1.0)
    return u * scale[..., None] if u.ndim else u * scale


def truncate_generator(g: GeneratorSpec, n: int) -> GeneratorSpec:
    """Level-n truncation: cut off z and u, then cap |f| at the capped growth bound.

    The returned driver keeps the sign of the cut-off evaluation, carries the
    same rho, alpha, beta, and the coefficients F, K1, K2 capped at n.
    """
    if n < 1:
        raise ValueError("truncation level must be at least 1")
    nf = float(n)

    def capped(coeff):
        return lambda ctx, t: np.minimum(coeff(ctx, t), nf)

    spec = replace(g, name=f"{g.name}^({n})", F=capped(g.F), K1=capped(g.K1), K2=capped(g.K2))

    def eval_n(ctx, t, y, z, u):
        cz = clamp(z, n)
        cu = project_ball(u, n, ctx.model)
        fhat = g.eval(ctx, t, y, cz, cu)
        cap = spec.growth_bound(ctx, t, y, cz, cu)
        return np.where(np.abs(fhat) > cap, np.sign(fhat) * cap, fhat)

    return replace(spec, eval=eval_n)


def shift_generator(g: GeneratorSpec, delta: float) -> GeneratorSpec:
    """Driver g + delta; the growth level F absorbs |delta|, everything else is unchanged.

    The shift of an Affine driver is Affine, with delta added to its offset,
    and declares no linear coefficients.
    """
    d = float(delta)

    def bind_affine(ctx, t, z, u):
        slope, offset = g.eval.bind(ctx, t, z, u)
        return slope, offset + d

    def eval_shifted(ctx, t, y, z, u):
        return np.asarray(g.eval(ctx, t, y, z, u), dtype=float) + d

    def f_shifted(ctx, t):
        return g.F(ctx, t) + abs(d)

    shifted = Affine(bind_affine) if isinstance(g.eval, Affine) else eval_shifted
    return replace(g, name=f"{g.name}{d:+g}", eval=shifted, F=f_shifted)


# ---------------------------------------------------------------------------
# Sampling-based condition checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerConfig:
    """Box sizes and counts for the condition samplers."""

    count: int = 300
    y_bound: float = 4.0
    z_bound: float = 4.0
    u_scale: float = 2.0
    x_bound: float = 3.0
    horizon: float = 1.0
    seed: int = 7


@dataclass
class Violation:
    point: dict
    lhs: float
    rhs: float

    def to_dict(self) -> dict:
        return {"point": self.point, "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class CheckReport:
    check: str
    generator: str
    passed: bool
    n_points: int
    violations: list[Violation]
    seconds: float = 0.0  # time the check took


def _sample_times(cfg: SamplerConfig, rng) -> np.ndarray:
    T = cfg.horizon
    drawn = rng.uniform(0.0, T, size=cfg.count) + 1e-9
    corners = np.array([T, 0.5 * T, 1e-6 * T])
    return np.concatenate([corners, np.minimum(drawn, T)])


def _sampled_check(check: str, label: str, model: LevyModel, cfg: SamplerConfig, seed_offset: int, side,
                   extra: str | None = None) -> CheckReport:
    """The sampler shared by the condition checks: one draw per array, then one evaluation.

    After the times, x (T, m), y and z (A, T, m), u (A, T, m, J) and, for
    extra="bump", a jump increment (T, m, J) are each drawn by one RNG call,
    with A = 2 argument sets for extra="args" (monotonicity) and 1 otherwise;
    the corner rows are then set on every time at once. side(ctx, t, y, z,
    u, *extras) sees all points in one call, t per point, and returns (lhs,
    rhs, fields): point k violates the condition when lhs[k] > rhs[k] +
    CHECK_SLACK, and its witness is t[k] and each named field's entry k. The
    first three violations per time are kept.
    """
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed + seed_offset)))
    j = model.n_marks
    m = max(8, j + 2)
    times = _sample_times(cfg, rng)
    n_args = 2 if extra == "args" else 1
    x = rng.uniform(-cfg.x_bound, cfg.x_bound, size=(times.size, m))
    y = rng.uniform(-cfg.y_bound, cfg.y_bound, size=(n_args, times.size, m))
    z = rng.uniform(-cfg.z_bound, cfg.z_bound, size=(n_args, times.size, m))
    u = cfg.u_scale * rng.standard_normal(size=(n_args, times.size, m, j))
    x[:, 0] = 0.0
    y[..., :4] = (0.0, 1.0, -1.0, cfg.y_bound)
    z[..., :4] = (0.0, 1.0, -1.0, -cfg.z_bound)
    u[..., 0, :] = 0.0
    u[..., 1:1 + j, :] = np.where(np.eye(j, dtype=bool), cfg.u_scale, 0.0)  # single-coordinate spikes
    n = times.size * m
    args = [arr for a in range(n_args) for arr in (y[a].reshape(n), z[a].reshape(n), u[a].reshape(n, j))]
    if extra == "bump":
        bump = np.abs(rng.standard_normal(size=(times.size, m, j)))
        bump[:, 0] = 1.0  # strict increase in every coordinate
        args.append(bump.reshape(n, j))
    t = np.repeat(times, m)
    lhs, rhs, fields = side(StepContext(model=model, x=x.reshape(n)), t, *args)
    violated = (lhs > rhs + CHECK_SLACK).reshape(times.size, m)
    first = violated & (np.cumsum(violated, axis=1) <= 3)
    violations = [Violation(point={"t": float(t[k]), **{name: a[k].tolist() for name, a in fields.items()}},
                            lhs=float(lhs[k]), rhs=float(rhs[k])) for k in np.flatnonzero(first)]
    return CheckReport(check, label, not violations, n, violations, seconds=time.perf_counter() - start)


def check_growth(g: GeneratorSpec, model: LevyModel, cfg: SamplerConfig = SamplerConfig()) -> CheckReport:
    """Sample points and test |f| <= F + K1|y| + K2(|z| + ||u||) up to slack."""

    def side(ctx, t, y, z, u):
        val = np.abs(np.asarray(g.eval(ctx, t, y, z, u), dtype=float))
        bound = np.asarray(g.growth_bound(ctx, t, y, z, u), dtype=float)
        return val, bound, {"x": ctx.x, "y": y, "z": z, "u": u}

    return _sampled_check("growth", g.name, model, cfg, 0, side)


def check_monotonicity(g: GeneratorSpec, model: LevyModel, cfg: SamplerConfig = SamplerConfig()) -> CheckReport:
    """Sample argument pairs at a common (context, t) and test the one-sided condition."""

    def side(ctx, t, y, z, u, y2, z2, u2):
        dy = y - y2
        lhs = dy * (np.asarray(g.eval(ctx, t, y, z, u)) - np.asarray(g.eval(ctx, t, y2, z2, u2)))
        rhs = np.asarray(g.alpha(t)) * np.asarray(g.rho(dy * dy)) + np.asarray(g.beta(ctx, t)) * np.abs(dy) * (
            np.abs(z - z2) + levy_norm(u - u2, model)
        )
        return lhs, rhs, {"y": y, "y2": y2, "z": z, "z2": z2}

    return _sampled_check("monotonicity", g.name, model, cfg, 1, side, extra="args")


def check_jump_ordering(g: GeneratorSpec, model: LevyModel, cfg: SamplerConfig = SamplerConfig()) -> CheckReport:
    """Ordered jump arguments u <= u': test f(..,u) - f(..,u') <= sum_j lambda_j (u'_j - u_j)."""

    def side(ctx, t, y, z, u, bump):
        u_hi = u + bump
        lhs = np.asarray(g.eval(ctx, t, y, z, u)) - np.asarray(g.eval(ctx, t, y, z, u_hi))
        rhs = mark_sum(u_hi - u, model.intensities)
        return lhs, rhs, {"y": y, "z": z, "u": u, "u_hi": u_hi}

    return _sampled_check("jump_ordering", g.name, model, cfg, 2, side, extra="bump")


def driver_slopes(g: GeneratorSpec, ctx: StepContext, t, y, z, u, h: float):
    """The driver's linearisation at (y, z, u): (f_y, f_z, s) with s_j = f_(u_j) / lambda_j, marks on s's last axis.

    A driver that declares linear coefficients gives (a, b, c_j) exactly.
    Any other driver gives central differences of its eval, with y, z or
    one u_j moved by +-h, per point. f_z is 0 when sigma = 0, where the
    step has no Brownian increment to weigh.
    """
    model, lin = ctx.model, g.linear
    if lin is not None:
        return lin.a, lin.b if model.sigma > 0 else 0.0, lin.jump_coefficients(model)
    unit = np.eye(model.n_marks)

    def difference(k: int) -> np.ndarray:
        """The central difference of the eval with y (k = -2), z (k = -1) or u_k moved by +-h."""
        hi, lo = ((y + s, z, u) if k == -2 else (y, z + s, u) if k == -1 else (y, z, u + s * unit[k]) for s in (h, -h))
        return (np.asarray(g.eval(ctx, t, *hi), dtype=float) - g.eval(ctx, t, *lo)) / (2.0 * h)

    f_z = difference(-1) if model.sigma > 0 else 0.0
    s = np.array([difference(k) for k in range(model.n_marks)]).T / model.intensities
    return difference(-2), f_z, s


def branch_weight_margin(g: GeneratorSpec, ctx: StepContext, t, dt: float, y, z, u) -> np.ndarray:
    """Per point, the smallest weight over its probability that the tree's implicit step puts on a branch.

    Linearising y = E[y'] + dt f(t, y, z, u) in z = E[y' dW] / dt and
    u_j = E[y' dN~_j] / (p_j (1 - p_j)), p_j = lambda_j dt, weights branch b
    by p_b (1 + f_z dW_b + sum_j dt f_(u_j) dN~_(j,b) / (p_j (1 - p_j))). Per
    bit, the Brownian sign (sigma > 0) adds -|f_z| sqrt(dt) at worst, and mark
    j the smaller of s_j (a jump) and -s_j p_j / (1 - p_j) (none), with
    s_j = f_(u_j) / lambda_j, the slope of f in lambda_j u_j. f_z and s_j are
    driver_slopes of step _DIFF_STEP at (y, z, u), so for linear_driver(a, b, c)
    the margin is exactly 1 - |b| sqrt(dt) + sum_j min(c_j, -c_j p_j / (1 - p_j)).
    """
    _, f_z, s = driver_slopes(g, ctx, t, y, z, u, _DIFF_STEP)
    p = ctx.model.intensities * dt
    return np.ones(np.shape(y)) - np.abs(f_z) * math.sqrt(dt) + np.minimum(s, -s * p / (1.0 - p)).sum(axis=-1)


def check_branch_weights(g: GeneratorSpec, model: LevyModel, grid: TimeGrid,
                         cfg: SamplerConfig = SamplerConfig()) -> CheckReport:
    """Sample points and test that the tree's implicit step weights every branch nonnegatively
    (branch_weight_margin >= 0 up to slack), with the driver at the left end of the grid step that
    holds each sampled time. The discrete comparison needs it: the step then maps ordered next
    values and ordered drivers to ordered values."""

    def side(ctx, t, y, z, u):
        t_step = grid.times[np.minimum((t / grid.dt).astype(int), grid.steps - 1)]
        margin = branch_weight_margin(g, ctx, t_step, grid.dt, y, z, u)
        return np.zeros(margin.shape), margin, {"t_step": t_step, "x": ctx.x, "y": y, "z": z, "u": u}

    return _sampled_check("branch_weights", g.name, model, cfg, 4, side)


def check_ordering(
    g_low: GeneratorSpec, g_high: GeneratorSpec, model: LevyModel, cfg: SamplerConfig = SamplerConfig()
) -> CheckReport:
    """Sample points and test g_low <= g_high up to slack (a comparison hypothesis)."""

    def side(ctx, t, y, z, u):
        lo = np.asarray(g_low.eval(ctx, t, y, z, u), dtype=float)
        hi = np.asarray(g_high.eval(ctx, t, y, z, u), dtype=float)
        return lo, hi, {"y": y, "z": z, "u": u}

    return _sampled_check("ordering", f"{g_low.name} <= {g_high.name}", model, cfg, 3, side)


# ---------------------------------------------------------------------------
# Builtin catalog
# ---------------------------------------------------------------------------


def linear_driver(a: float = 0.5, b: float = 0.5, c=0.5) -> GeneratorSpec:
    """f = a*y + b*z + sum_j c_j lambda_j u_j.

    The ordered-jump condition holds exactly when every c_j >= -1. c may be a
    scalar (broadcast over marks) or a per-mark tuple.
    """
    af, bf = float(a), float(b)
    lin = LinearCoefficients(af, bf, tuple(np.atleast_1d(np.asarray(c, dtype=float)).tolist()))

    @lru_cache(maxsize=8)
    def jump_weights(model: LevyModel) -> np.ndarray:
        """c_j * lambda_j, made once per model and read-only."""
        cl = lin.jump_coefficients(model) * model.intensities
        cl.flags.writeable = False
        return cl

    def bind_lin(ctx, t, z, u):
        return af, bf * np.asarray(z, dtype=float) + mark_sum(u, jump_weights(ctx.model))

    def bind_y(ctx, t, z, u):  # b = c = 0: f = a y, and no per-point offset need be built
        return af, 0.0

    def k2(ctx, t):
        cs = lin.jump_coefficients(ctx.model)
        # Cauchy-Schwarz in the weighted norm: |sum c lam u| <= sqrt(sum c^2 lam) ||u||
        level = max(abs(bf), float(np.sqrt(mark_sum(cs * cs, ctx.model.intensities))))
        return np.full_like(np.asarray(ctx.x, dtype=float), level)

    cname = ",".join(f"{v:g}" for v in lin.c)
    return GeneratorSpec(
        name=f"linear(a={af:g},b={bf:g},c=[{cname}])",
        eval=Affine(bind_lin if bf or any(lin.c) else bind_y, lin),
        K1=constant_coeff(abs(af)),
        K2=k2,
        beta=k2,
        alpha=lambda t: max(af, 0.0),
    )


def zero_generator() -> GeneratorSpec:
    return replace(linear_driver(0.0, 0.0, 0.0), name="zero")


def linear_y(k: float = 1.0) -> GeneratorSpec:
    """f = k*y; monotone with identity modulus and slope coefficient max(k, 0)."""
    return replace(linear_driver(k, 0.0, 0.0), name=f"linear_y(k={float(k):g})")


def tanh_jump_integral() -> GeneratorSpec:
    """f(t, u) = tanh of the kappa-weighted jump integral, kappa(t,x) = t^(-1/4) min(|x|, 1).

    The time singularity at t = 0 is integrable; this version evaluates to 0
    at t = 0 (a null set for the time integral), which keeps the declared
    coefficient K2(t) = t^(-1/4) ||kappa(t, .)|| finite on the grid.
    """

    def kappa_weights(model: LevyModel, t) -> np.ndarray:
        """kappa(t, x_j): shape (J,) for a scalar t, (N, J) for per-point t; 0 where t <= 0."""
        t = np.asarray(t, dtype=float)
        # [()] turns a 0-d t into a numpy scalar, whose power is libm pow as for a float;
        # t <= 0 becomes inf, and inf ** -0.25 = 0
        decay = np.where(t > 0.0, t, np.inf)[()] ** -0.25
        return np.multiply.outer(decay, np.minimum(np.abs(model.jump_sizes), 1.0))

    def bind_tanh_jump(ctx, t, z, u):
        integral = mark_sum(u, kappa_weights(ctx.model, t) * ctx.model.intensities)
        return 0.0, np.where(np.asarray(t) > 0.0, np.tanh(integral), 0.0)  # +0, not tanh(-0), at t <= 0

    def k2(ctx, t):
        kap = kappa_weights(ctx.model, t)
        return np.zeros_like(np.asarray(ctx.x, dtype=float)) + np.sqrt(mark_sum(kap * kap, ctx.model.intensities))

    return GeneratorSpec(name="tanh_jump_integral", eval=Affine(bind_tanh_jump), K2=k2, beta=k2)


def jump_ordering_violator() -> GeneratorSpec:
    """f = -2 * sum_j lambda_j u_j: linear growth holds but the ordered-jump condition fails."""
    g = linear_driver(0.0, 0.0, -2.0)
    return replace(g, name="jump_ordering_violator")


# The driver catalog: configs name a factory here and pass its parameters.
GENERATOR_FACTORIES = {
    "zero": zero_generator,
    "linear_y": linear_y,
    "linear_driver": linear_driver,
    "tanh_jump_integral": tanh_jump_integral,
    "jump_ordering_violator": jump_ordering_violator,
}


def builtin_generators() -> dict[str, GeneratorSpec]:
    """Every catalog driver, by name, at its default parameters."""
    return {name: factory() for name, factory in GENERATOR_FACTORIES.items()}
