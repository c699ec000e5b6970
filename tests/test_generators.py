import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumpbsde import (
    GeneratorSpec,
    LevyModel,
    SamplerConfig,
    StepContext,
    jump_ordering_violator,
    builtin_generators,
    check_jump_ordering,
    check_growth,
    check_monotonicity,
    check_ordering,
    clamp,
    constant_coeff,
    tanh_jump_integral,
    levy_norm,
    linear_driver,
    linear_y,
    project_ball,
    shift_generator,
    truncate_generator,
    zero_generator,
)
from jumpbsde.bounds import rho_catalog
from jumpbsde.generators import CHECK_SLACK, Affine, CheckReport, Violation
from jumpbsde.tree import implicit_step

MODEL = LevyModel(0.1, 1.0, ((0.5, 0.8), (-0.3, 0.4)))
FAST = SamplerConfig(count=60, seed=3)


def ctx_for(model, m=1, x=0.0):
    return StepContext(model=model, x=np.full(m, float(x)))


def test_clamp_examples():
    assert clamp(5.0, 2) == 2.0
    assert clamp(-3.0, 2) == -2.0
    assert clamp(1.5, 2) == 1.5
    assert np.array_equal(clamp(np.array([-9.0, 0.3, 9.0]), 1), np.array([-1.0, 0.3, 1.0]))


def test_project_ball_examples():
    one_mark = LevyModel(0.0, 0.0, ((1.0, 1.0),))
    out = project_ball(np.array([3.0]), 2, one_mark)
    assert out[0] == pytest.approx(2.0)
    assert levy_norm(out, one_mark) == pytest.approx(2.0)
    # norm 4 with n = 2: every entry halves
    two = LevyModel(0.0, 0.0, ((1.0, 4.0), (2.0, 4.0)))
    u = np.array([np.sqrt(2.0), np.sqrt(2.0)])
    assert levy_norm(u, two) == pytest.approx(4.0)
    assert np.allclose(project_ball(u, 2, two), u / 2.0)
    # inside the ball: unchanged
    small = np.array([0.1, 0.1])
    assert np.array_equal(project_ball(small, 2, two), small)


def test_project_ball_idempotent_and_contractive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.standard_normal(2) * rng.uniform(0.1, 20.0)
        n = int(rng.integers(1, 6))
        p = project_ball(u, n, MODEL)
        assert levy_norm(p, MODEL) <= min(levy_norm(u, MODEL), n) + 1e-12
        assert np.allclose(project_ball(p, n, MODEL), p, atol=1e-15)


def test_truncate_generator_caps_strong_y_growth():
    # f = 10y with declared slope 10, level 3: at y=1 the cap is (10^3)=3
    g = GeneratorSpec(
        name="ten_y",
        eval=lambda ctx, t, y, z, u: 10.0 * np.asarray(y, dtype=float),
        K1=constant_coeff(10.0),
    )
    g3 = truncate_generator(g, 3)
    ctx = ctx_for(MODEL)
    val = g3.eval(ctx, 0.5, np.array([1.0]), np.array([0.0]), np.zeros((1, 2)))
    assert val[0] == pytest.approx(3.0)
    # negative side keeps the sign
    val_neg = g3.eval(ctx, 0.5, np.array([-1.0]), np.array([0.0]), np.zeros((1, 2)))
    assert val_neg[0] == pytest.approx(-3.0)


def test_truncate_generator_z_cutoff():
    # f = z with coefficient 1, level 2 at z=5: the cutoff gives 2 on both routes
    g = GeneratorSpec(
        name="z_id",
        eval=lambda ctx, t, y, z, u: np.asarray(z, dtype=float) + 0.0,
        K2=constant_coeff(1.0),
    )
    g2 = truncate_generator(g, 2)
    val = g2.eval(ctx_for(MODEL), 0.5, np.array([0.0]), np.array([5.0]), np.zeros((1, 2)))
    assert val[0] == pytest.approx(2.0)


def sample_points(model, m, seed):
    rng = np.random.default_rng(seed)
    ctx = StepContext(model=model, x=rng.uniform(-2, 2, m))
    t = rng.uniform(1e-3, 1.0)
    y = rng.uniform(-6, 6, m)
    z = rng.uniform(-6, 6, m)
    u = rng.standard_normal((m, model.n_marks)) * 3.0
    return ctx, t, y, z, u


@pytest.mark.parametrize("name", ["zero", "linear_y", "linear_driver", "tanh_jump_integral", "jump_ordering_violator"])
def test_truncated_generator_respects_cap_and_matches_inside_cutoffs(name):
    g = builtin_generators()[name]
    n = 2
    gn = truncate_generator(g, n)
    ctx, t, y, z, u = sample_points(MODEL, 400, seed=sum(name.encode()))
    cz = clamp(z, n)
    cu = project_ball(u, n, MODEL)
    cap = (
        np.minimum(g.F(ctx, t), n)
        + np.minimum(g.K1(ctx, t), n) * np.abs(y)
        + np.minimum(g.K2(ctx, t), n) * (np.abs(cz) + levy_norm(cu, MODEL))
    )
    val = np.asarray(gn.eval(ctx, t, y, z, u))
    assert np.all(np.abs(val) <= cap + 1e-12)
    # well inside every cutoff the truncation is invisible
    big_n = 1000
    g_big = truncate_generator(g, big_n)
    small_u = u / 10.0
    inside = np.asarray(g_big.eval(ctx, t, y, z / 10.0, small_u))
    raw = np.asarray(g.eval(ctx, t, y, z / 10.0, small_u))
    assert np.allclose(inside, raw, atol=1e-14)


def test_truncated_coefficients_are_capped():
    g = GeneratorSpec(name="big", eval=lambda ctx, t, y, z, u: 0.0 * y, F=constant_coeff(7.0), K1=constant_coeff(9.0))
    g4 = truncate_generator(g, 4)
    ctx = ctx_for(MODEL, 3)
    assert np.all(g4.F(ctx, 0.1) == 4.0)
    assert np.all(g4.K1(ctx, 0.1) == 4.0)
    assert g4.rho is g.rho and g4.alpha is g.alpha


def test_check_growth_pass_and_fail():
    assert check_growth(zero_generator(), MODEL, FAST).passed
    bad = GeneratorSpec(
        name="two_y_underdeclared",
        eval=lambda ctx, t, y, z, u: 2.0 * np.asarray(y, dtype=float),
        K1=constant_coeff(1.0),
    )
    report = check_growth(bad, MODEL, FAST)
    assert not report.passed
    assert report.violations  # carries a witness point
    w = report.violations[0]
    assert w.lhs > w.rhs


def test_check_growth_tanh_jump_integral():
    report = check_growth(tanh_jump_integral(), MODEL, FAST)
    assert report.passed, report.violations


def test_check_monotonicity_cases():
    cubic = GeneratorSpec(name="minus_y_cubed", eval=lambda ctx, t, y, z, u: -np.asarray(y, dtype=float) ** 3)
    assert check_monotonicity(cubic, MODEL, FAST).passed
    drift_up = GeneratorSpec(name="y_no_alpha", eval=lambda ctx, t, y, z, u: np.asarray(y, dtype=float) + 0.0)
    assert not check_monotonicity(drift_up, MODEL, FAST).passed
    z_lin = GeneratorSpec(
        name="z_lin", eval=lambda ctx, t, y, z, u: np.asarray(z, dtype=float) + 0.0, beta=constant_coeff(1.0)
    )
    assert check_monotonicity(z_lin, MODEL, FAST).passed


def test_check_jump_ordering_cases():
    boundary = linear_driver(0.0, 0.0, -1.0)
    assert check_jump_ordering(boundary, MODEL, FAST).passed
    violator = jump_ordering_violator()
    report = check_jump_ordering(violator, MODEL, FAST)
    assert not report.passed and report.violations
    independent = linear_y(0.7)
    assert check_jump_ordering(independent, MODEL, FAST).passed


def test_linear_driver_gamma_threshold():
    assert check_jump_ordering(linear_driver(0.0, 0.0, (-1.0, 0.5)), MODEL, FAST).passed
    assert not check_jump_ordering(linear_driver(0.0, 0.0, (-1.2, 0.5)), MODEL, FAST).passed


def test_catalog_contents_and_zero_eval():
    catalog = builtin_generators()
    assert {"zero", "linear_y", "linear_driver", "tanh_jump_integral", "jump_ordering_violator"} <= set(catalog)
    ctx, t, y, z, u = sample_points(MODEL, 16, seed=4)
    assert np.all(catalog["zero"].eval(ctx, t, y, z, u) == 0.0)
    two = catalog["linear_y"].eval(ctx, t, np.full(16, 2.0), z, u)
    assert np.allclose(two, 2.0)


def test_tanh_jump_integral_zero_time_convention():
    g = tanh_jump_integral()
    ctx = ctx_for(MODEL, 4)
    u = np.ones((4, 2))
    assert np.all(g.eval(ctx, 0.0, np.zeros(4), np.zeros(4), u) == 0.0)
    assert np.all(np.asarray(g.K2(ctx, 0.0)) == 0.0)
    assert np.all(np.isfinite(g.eval(ctx, 1e-8, np.zeros(4), np.zeros(4), u)))


def test_shift_generator_orders_and_grows():
    g = linear_driver(0.2, 0.1, -0.5)
    gp = shift_generator(g, 1.0)
    assert check_ordering(g, gp, MODEL, FAST).passed
    assert not check_ordering(gp, g, MODEL, FAST).passed
    ctx, t, y, z, u = sample_points(MODEL, 8, seed=9)
    assert np.allclose(gp.eval(ctx, t, y, z, u), np.asarray(g.eval(ctx, t, y, z, u)) + 1.0)
    assert np.allclose(np.asarray(gp.F(ctx, t)), np.asarray(g.F(ctx, t)) + 1.0)


def test_pointwise_convergence_of_truncation_levels():
    # once every cutoff clears the point, the truncated evaluation equals f
    g = linear_driver(0.5, 0.5, 0.5)
    ctx, t, y, z, u = sample_points(MODEL, 32, seed=21)
    raw = np.asarray(g.eval(ctx, t, y, z, u))
    for n in (1, 2, 8, 64):
        gn = truncate_generator(g, n)
        val = np.asarray(gn.eval(ctx, t, y, z, u))
        level = max(
            np.abs(z).max(), levy_norm(u, MODEL).max(), float(np.max(g.K1(ctx, t))), float(np.max(g.K2(ctx, t)))
        )
        if n >= level:
            assert np.allclose(val, raw, atol=1e-13)


def modulus_shape_gaps(rho) -> tuple[float, float, float]:
    """(|rho(0)|, largest drop, largest midpoint-concavity gap) of rho on a grid over [0, 10]."""
    xs = np.concatenate([[0.0], np.logspace(-8, 1, 40)])
    vals = np.asarray([float(rho(x)) for x in xs])
    mids = np.asarray([float(rho(0.5 * (a + b))) for a, b in zip(xs[:-1], xs[1:])])
    return abs(vals[0]), float(-np.diff(vals).min()), float((0.5 * (vals[:-1] + vals[1:]) - mids).max())


def test_catalog_moduli_have_modulus_shape():
    for name, rho in rho_catalog().items():
        assert max(modulus_shape_gaps(rho)) <= CHECK_SLACK, name  # zero at zero, nondecreasing, concave
    assert modulus_shape_gaps(lambda x: np.asarray(x, dtype=float) ** 2)[2] > CHECK_SLACK  # convex: flagged


_INV_E = 1.0 / math.e
RHO_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, _INV_E, math.nextafter(_INV_E, 0.0),
             math.nextafter(_INV_E, 1.0), 0.5, 1.0, 1e300, math.inf, -math.inf, math.nan, -0.5, -1.0, -2.0, -1e300]


def _rho_edge_examples(test):
    for name in sorted(rho_catalog()):
        for x in RHO_EDGES:
            test = example(name=name, x=x)(test)
    return test


@settings(derandomize=True, max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(rho_catalog())), x=st.floats())
@_rho_edge_examples
def test_scalar_form_matches_array_form_bitwise(name, x):
    """Every catalog modulus's float form equals float(rho(array)) bit for bit; nan matches nan."""
    rho = rho_catalog()[name]
    with np.errstate(all="ignore"):
        want = float(rho(np.asarray(x)))
    got = rho.scalar(x)
    assert type(got) is float, (name, x, got)
    if math.isnan(want):
        assert math.isnan(got), (name, x, got)
    else:
        assert struct.pack("<d", got) == struct.pack("<d", want), (name, x, got, want)


# ---------------------------------------------------------------------------
# The batched sampler against a per-time reference
# ---------------------------------------------------------------------------


def ref_sampled_check(check, label, model, cfg, seed_offset, side, extra=None):
    """Reference sampler: the same whole-array draws, then per sampled time its own corners, spikes and bump
    and one side call with a scalar t."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed + seed_offset)))
    j = model.n_marks
    m = max(8, j + 2)
    T = cfg.horizon
    drawn = rng.uniform(0.0, T, size=cfg.count) + 1e-9
    times = np.concatenate([[T, 0.5 * T, 1e-6 * T], np.minimum(drawn, T)])
    n_args = 2 if extra == "args" else 1
    xs = rng.uniform(-cfg.x_bound, cfg.x_bound, size=(times.size, m))
    ys = rng.uniform(-cfg.y_bound, cfg.y_bound, size=(n_args, times.size, m))
    zs = rng.uniform(-cfg.z_bound, cfg.z_bound, size=(n_args, times.size, m))
    us = rng.standard_normal(size=(n_args, times.size, m, j))
    bumps = rng.standard_normal(size=(times.size, m, j)) if extra == "bump" else None
    violations, n_points = [], 0
    for i, t in enumerate(times):
        x = xs[i].copy()
        x[0] = 0.0
        ctx = StepContext(model=model, x=x)
        args = [arr for a in range(n_args) for arr in ref_corner_args(cfg, ys[a, i], zs[a, i], us[a, i])]
        if bumps is not None:
            bump = np.abs(bumps[i])
            bump[0] = 1.0
            args.append(bump)
        lhs, rhs, point = side(ctx, float(t), *args)
        n_points += m
        for k in np.flatnonzero(lhs > rhs + CHECK_SLACK)[:3]:
            violations.append(Violation(point=point(k), lhs=float(lhs[k]), rhs=float(rhs[k])))
    return CheckReport(check, label, not violations, n_points, violations)


def ref_corner_args(cfg, y, z, u):
    """One time's (y, z, u): fresh copies with the corner rows and the single-coordinate u spikes set."""
    y, z, u = y.copy(), z.copy(), u * cfg.u_scale
    y[:4] = [0.0, 1.0, -1.0, cfg.y_bound]
    z[:4] = [0.0, 1.0, -1.0, -cfg.z_bound]
    u[0] = 0.0
    for k in range(u.shape[1]):
        u[1 + k] = 0.0
        u[1 + k, k] = cfg.u_scale
    return y, z, u


def ref_growth(g, model, cfg):
    def side(ctx, t, y, z, u):
        val = np.abs(np.asarray(g.eval(ctx, t, y, z, u), dtype=float))
        bound = np.asarray(g.growth_bound(ctx, t, y, z, u), dtype=float)
        return val, bound, lambda k: {"t": t, "x": float(ctx.x[k]), "y": float(y[k]), "z": float(z[k]), "u": u[k].tolist()}

    return ref_sampled_check("growth", g.name, model, cfg, 0, side)


def ref_monotonicity(g, model, cfg):
    def side(ctx, t, y, z, u, y2, z2, u2):
        dy = y - y2
        lhs = dy * (np.asarray(g.eval(ctx, t, y, z, u)) - np.asarray(g.eval(ctx, t, y2, z2, u2)))
        rhs = float(g.alpha(t)) * np.asarray(g.rho(dy * dy)) + np.asarray(g.beta(ctx, t)) * np.abs(dy) * (
            np.abs(z - z2) + levy_norm(u - u2, model)
        )
        return lhs, rhs, lambda k: {"t": t, "y": float(y[k]), "y2": float(y2[k]), "z": float(z[k]), "z2": float(z2[k])}

    return ref_sampled_check("monotonicity", g.name, model, cfg, 1, side, extra="args")


def sum_in_mark_order(u, w):
    """sum_j u[:, j] * w[j], added from mark 0 up."""
    out = u[:, 0] * w[0] if w.size else np.zeros(u.shape[0])
    for k in range(1, w.size):
        out = out + u[:, k] * w[k]
    return out


def ref_jump_ordering(g, model, cfg):
    def side(ctx, t, y, z, u, bump):
        u_hi = u + bump
        lhs = np.asarray(g.eval(ctx, t, y, z, u)) - np.asarray(g.eval(ctx, t, y, z, u_hi))
        rhs = sum_in_mark_order(u_hi - u, model.intensities)
        return lhs, rhs, lambda k: {"t": t, "y": float(y[k]), "z": float(z[k]), "u": u[k].tolist(), "u_hi": u_hi[k].tolist()}

    return ref_sampled_check("jump_ordering", g.name, model, cfg, 2, side, extra="bump")


def ref_ordering(g_low, g_high, model, cfg):
    def side(ctx, t, y, z, u):
        lo = np.asarray(g_low.eval(ctx, t, y, z, u), dtype=float)
        hi = np.asarray(g_high.eval(ctx, t, y, z, u), dtype=float)
        return lo, hi, lambda k: {"t": t, "y": float(y[k]), "z": float(z[k]), "u": u[k].tolist()}

    return ref_sampled_check("ordering", f"{g_low.name} <= {g_high.name}", model, cfg, 3, side)


# Drivers for the sampler comparison; the flag says whether the driver reads t.
SAMPLER_DRIVERS = {
    **{name: (g, name == "tanh_jump_integral") for name, g in builtin_generators().items()},
    "truncated_linear": (truncate_generator(linear_driver(0.5, 0.5, 0.5), 2), False),
    "truncated_tanh": (truncate_generator(tanh_jump_integral(), 1), True),
    "shifted_linear_y": (shift_generator(linear_y(0.8), 0.5), False),
    "growth_underdeclared": (GeneratorSpec(name="two_y", eval=lambda ctx, t, y, z, u: 2.0 * np.asarray(y, dtype=float),
                                           K1=constant_coeff(1.0)), False),
    "monotonicity_violator": (GeneratorSpec(name="y_no_alpha", eval=lambda ctx, t, y, z, u: np.asarray(y, dtype=float)
                                            + 0.0, K1=constant_coeff(1.0)), False),
}


@st.composite
def sampler_problems(draw):
    bound = st.floats(0.1, 10.0)
    cfg = SamplerConfig(count=draw(st.integers(1, 40)), y_bound=draw(bound), z_bound=draw(bound),
                        u_scale=draw(bound), x_bound=draw(bound), horizon=draw(st.floats(0.1, 5.0)),
                        seed=draw(st.integers(0, 2**16)))
    n_marks = draw(st.integers(0, 3))
    sizes = draw(st.lists(st.sampled_from([0.5, -0.3, 1.5, -1.5, 0.05]), min_size=n_marks, max_size=n_marks,
                          unique=True))
    marks = tuple((x, draw(st.floats(0.1, 1.0))) for x in sizes)
    return cfg, LevyModel(draw(st.floats(-0.5, 0.5)), draw(st.sampled_from([0.0, 1.0])), marks)


def assert_reports_match(got, want, reads_t):
    assert (got.check, got.generator, got.passed, got.n_points) == (want.check, want.generator, want.passed,
                                                                    want.n_points)
    assert [v.point for v in got.violations] == [v.point for v in want.violations]
    sides = [(a, b) for v, w in zip(got.violations, want.violations) for a, b in ((v.lhs, w.lhs), (v.rhs, w.rhs))]
    if reads_t:  # per-point t ** -0.25 and the per-point jump integral round differently from the scalar path
        for a, b in sides:
            assert abs(a - b) <= 1e-15 * max(abs(a), abs(b), 1.0), (a, b)
    else:
        assert all(a == b for a, b in sides)


@pytest.mark.parametrize("name", list(SAMPLER_DRIVERS))
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(sampler_problems())
@example((SamplerConfig(count=5, seed=1), LevyModel(0.0, 0.0, ((1.5, 0.5), (-0.3, 0.4), (0.05, 1.0)))))
def test_batched_sampler_matches_per_time_reference(name, problem):
    cfg, model = problem
    g, reads_t = SAMPLER_DRIVERS[name]
    up = shift_generator(g, 0.25)
    pairs = [
        (check_growth(g, model, cfg), ref_growth(g, model, cfg)),
        (check_monotonicity(g, model, cfg), ref_monotonicity(g, model, cfg)),
        (check_jump_ordering(g, model, cfg), ref_jump_ordering(g, model, cfg)),
        (check_ordering(g, up, model, cfg), ref_ordering(g, up, model, cfg)),
        (check_ordering(up, g, model, cfg), ref_ordering(up, g, model, cfg)),
    ]
    for got, want in pairs:
        assert_reports_match(got, want, reads_t)
    assert not pairs[4][0].passed  # the reversed pair fails at every sampled point


def test_linear_driver_keeps_its_formula_bitwise():
    # the jump term adds c_j lambda_j u_j from mark 0 up, so its bits do not depend on the BLAS kernel
    rng = np.random.default_rng(11)
    for marks in ((), ((0.5, 0.8),), ((0.5, 0.8), (-0.3, 0.4)), ((0.5, 0.8), (-0.3, 0.4), (0.2, 1.7))):
        model = LevyModel(0.1, 1.0, marks)
        c = rng.uniform(-1.0, 1.0, len(marks))
        g = linear_driver(0.3, -0.4, tuple(c) if marks else 0.5)
        m = 4001
        y, z = rng.standard_normal(m) * 1e3, rng.standard_normal(m) * 1e-3
        u = rng.standard_normal((m, len(marks))) * 10.0 ** rng.uniform(-4, 4, (m, len(marks)))
        want = 0.3 * y + (-0.4 * z + sum_in_mark_order(u, (c if marks else np.zeros(0)) * model.intensities))
        assert g.eval(ctx_for(model, m), 0.5, y, z, u).tobytes() == want.tobytes(), len(marks)


def test_replaced_eval_never_keeps_the_curried_form():
    # the wrappers of a replaced eval evaluate and solve with it, never with the Affine form it replaced
    g = linear_driver(0.3, 0.4, -0.5)
    doubled = replace(g, eval=lambda ctx, t, y, z, u: 2.0 * g.eval(ctx, t, y, z, u))
    ctx, t, y, z, u = sample_points(MODEL, 50, seed=9)
    n = 3

    def capped(ctx, t, y, z, u):
        cz, cu = clamp(z, n), project_ball(u, n, MODEL)
        inner = 2.0 * g.eval(ctx, t, y, cz, cu)
        cap = np.minimum(g.F(ctx, t), n) + np.minimum(g.K1(ctx, t), n) * np.abs(y) + np.minimum(g.K2(ctx, t), n) * (
            np.abs(cz) + levy_norm(cu, MODEL))
        return np.where(np.abs(inner) > cap, np.sign(inner) * cap, inner)

    shifted = shift_generator(doubled, 0.25)
    written = [(doubled, lambda ctx, t, y, z, u: 2.0 * g.eval(ctx, t, y, z, u)), (shifted, lambda ctx, t, y, z, u: 2.0 * g.eval(ctx, t, y, z, u) + 0.25),
               (truncate_generator(doubled, n), capped)]
    for spec, f in written:
        assert not isinstance(spec.eval, Affine), spec.name
        assert np.asarray(spec.eval(ctx, t, y, z, u)).tobytes() == f(ctx, t, y, z, u).tobytes(), spec.name
        got, want = (implicit_step(h, ctx, t, 0.1, y, z, u, 0) for h in (spec, GeneratorSpec(name=spec.name, eval=f)))
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1] >= 2, spec.name
    restored = replace(shifted, eval=g.eval)
    assert restored.eval(ctx, t, y, z, u).tobytes() == g.eval(ctx, t, y, z, u).tobytes()
    got, want = (implicit_step(h, ctx, t, 0.1, y, z, u, 0) for h in (restored, g))
    assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1] == 1
