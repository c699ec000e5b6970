import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from jumpbsde import (
    PiecewiseConstantRate,
    apriori_bound,
    bihari_bound,
    bihari_transform,
    stability_bound,
)
from jumpbsde import bounds
from jumpbsde.bounds import BoundInputError, rho_catalog
from jumpbsde.generators import RhoFunction


def backward_ode_value(c, rate, rho, t, T):
    """Independent oracle: integrate y' = -K(t) rho(y) backward from y(T) = c."""

    def rhs(s, y):
        return -rate(s) * float(rho(max(y[0], 0.0)))

    out = solve_ivp(rhs, (T, t), [c], rtol=1e-10, atol=1e-13, dense_output=False, max_step=(T - t) / 50)
    return float(out.y[0, -1])


def test_identity_rho_reproduces_exponential_bound():
    rng = np.random.default_rng(12)
    for _ in range(100):
        c = float(rng.uniform(0.05, 5.0))
        k0 = float(rng.uniform(0.0, 3.0))
        t = float(rng.uniform(0.0, 0.9))
        T = t + float(rng.uniform(0.05, 2.0))
        res = bihari_bound(c, PiecewiseConstantRate([t, T], [k0]), "identity", t, T)
        exact = c * math.exp(k0 * (T - t))
        assert res.status == "ok"
        assert abs(res.bound - exact) / exact <= 1e-8


def test_zero_rate_returns_c():
    res = bihari_bound(2.5, PiecewiseConstantRate([0.0, 1.0], [0.0]), "identity", 0.0, 1.0)
    assert res.bound == pytest.approx(2.5, rel=1e-12)
    assert res.integral_K == 0.0


def test_sqrt_rho_analytic_inversion():
    # G(x) = 2(sqrt(x) - 1): target 2 from c=1 gives bound (1 + 1)^2 = 4
    res = bihari_bound(1.0, PiecewiseConstantRate([0.0, 1.0], [2.0]), "sqrt", 0.0, 1.0)
    assert res.bound == pytest.approx(4.0, rel=1e-9)
    assert res.G_of_c == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("rho_name", ["identity", "sqrt", "xlogx"])
def test_bound_matches_backward_ode_oracle(rho_name):
    rho = rho_catalog()[rho_name]
    for c, k0, t, T in [(1.0, 2.0, 0.0, 1.0), (0.3, 1.5, 0.2, 1.4), (2.0, 0.7, 0.0, 2.0)]:
        res = bihari_bound(c, PiecewiseConstantRate([t, T], [k0]), rho, t, T)
        oracle = backward_ode_value(c, lambda s: k0, rho, t, T)
        assert res.status == "ok"
        assert abs(res.bound - oracle) / oracle <= 1e-6


def test_transform_satisfies_defining_identity():
    res = bihari_bound(0.8, PiecewiseConstantRate([0.0, 1.0], [1.3]), "xlogx", 0.0, 1.0)
    rho = rho_catalog()["xlogx"]
    assert bihari_transform(res.bound, rho) == pytest.approx(res.G_of_c + res.integral_K, abs=1e-8)


@pytest.mark.parametrize("rho, x, exact", [
    (rho_catalog()["sqrt"], 1e12, 1999998.0),
    (RhoFunction(lambda x: np.asarray(x, dtype=float) ** 2, "square"), 4.29e9, 1.0 - 1.0 / 4.29e9),
])
def test_transform_far_from_one(rho, x, exact):
    # a single quadrature from 1 to x gave 2000000.000000015 and -2.3e-10 here
    assert bihari_transform(x, rho) == pytest.approx(exact, rel=1e-9)


TRANSFORM_CLOSED_FORMS = [
    *(("identity", x, math.log(x)) for x in (1e-300, 1e-12, 1e12, 1e300)),
    *(("sqrt", x, 2.0 * (math.sqrt(x) - 1.0)) for x in (1e-300, 1e-12, 1e12, 1e300)),
    *(("xlogx", x, (x - 1.0) / -math.expm1(-1.0 / math.e)) for x in (1e12, 1e300)),  # rho is constant above 1/e
]


@pytest.mark.parametrize("rho, x, exact", TRANSFORM_CLOSED_FORMS)
def test_catalog_transform_matches_its_closed_form_over_many_decades(rho, x, exact):
    # one adaptive quadrature in log r from 1 to x, with no pieces of a factor TRANSFORM_PIECE_RATIO,
    # gave G(1e300) 7.0e-4 high for xlogx: QUAD_LIMIT caps the halvings of one call
    assert bihari_transform(x, rho_catalog()[rho]) == pytest.approx(exact, rel=1e-13)


def test_out_of_domain_for_bounded_transform():
    # rho(r) = r^2 makes G bounded above by 1 from c = 1
    square = RhoFunction(lambda x: np.asarray(x, dtype=float) ** 2, "square")
    res = bihari_bound(1.0, PiecewiseConstantRate([0.0, 1.0], [2.0]), square, 0.0, 1.0)
    assert res.status == "out-of-domain"
    assert res.bound is None
    assert res.integral_K == pytest.approx(2.0)


def test_bihari_input_validation():
    with pytest.raises(BoundInputError):
        bihari_bound(0.0, PiecewiseConstantRate([0, 1], [1.0]), "identity", 0.0, 1.0)
    with pytest.raises(BoundInputError):
        bihari_bound(1.0, lambda s: -1.0, "identity", 0.0, 1.0)
    with pytest.raises(BoundInputError):
        PiecewiseConstantRate([0.0, 1.0], [-0.5])


def test_piecewise_rate_exact_integral():
    rate = PiecewiseConstantRate([0.0, 0.5, 1.0], [2.0, 1.0])
    assert rate.integral(0.0, 1.0) == pytest.approx(1.5)
    assert rate.integral(0.25, 0.75) == pytest.approx(0.5 + 0.25)
    assert rate(0.25) == 2.0 and rate(0.75) == 1.0


def test_apriori_explicit_constants_at_zero_budget():
    res = apriori_bound(0.0, 1.0, 0.0)
    assert res.c1 == pytest.approx(5.0)
    assert res.sup_Y_bound == pytest.approx(250.0)  # 2 c1 + 48 c1
    assert res.ZU_bound == pytest.approx(1.0 / 12.0 + 4.0)
    res_if = apriori_bound(0.0, 0.0, 1.0)
    assert res_if.sup_Y_bound == pytest.approx(2 * 5.0 + 240.0**2)  # 57610
    assert res_if.ZU_bound == pytest.approx(1.0 / 12.0 + 192.0 * 5.0)


def test_apriori_zero_data_and_monotonicity():
    res = apriori_bound(0.7, 0.0, 0.0)
    assert res.sup_Y_bound == 0.0 and res.ZU_bound == 0.0
    grid = [0.0, 0.3, 1.0]
    for name in ("sup_Y_bound", "ZU_bound"):
        vals_ck = [getattr(apriori_bound(ck, 1.0, 1.0), name) for ck in grid]
        vals_xi = [getattr(apriori_bound(0.5, x, 1.0), name) for x in grid]
        vals_if = [getattr(apriori_bound(0.5, 1.0, x), name) for x in grid]
        for seq in (vals_ck, vals_xi, vals_if):
            assert seq == sorted(seq)


def test_apriori_min_c1_dominates_factors():
    res = apriori_bound(0.8, 1.0, 1.0)
    envelope = math.exp(res.min_C1 * (1.0 + 0.8) ** 2)
    total = apriori_bound(0.8, 1.0, 0.0).sup_Y_bound  # largest single factor is >= this
    assert envelope >= total * (1 - 1e-12)


def test_apriori_rejects_negative_inputs():
    with pytest.raises(BoundInputError):
        apriori_bound(-0.1, 1.0, 1.0)
    with pytest.raises(BoundInputError):
        apriori_bound(0.1, -1.0, 1.0)


def test_stability_identity_rho_closed_form():
    for a, b, delta in [(0.5, 0.49, 1e-3), (1.2, 0.1, 0.05), (0.0, 0.0, 1.0)]:
        e4b = math.exp(4.0 * b)
        h = e4b * delta * math.exp(2.0 * e4b * a)
        expected = 2.0 * e4b * delta + (2.0 * e4b * a + 1.0) * 2.0 * h
        got = stability_bound(a, b, delta, "identity")
        assert abs(got - expected) / expected <= 1e-8


def test_stability_zero_gap_and_monotonicity():
    assert stability_bound(0.5, 0.3, 0.0, "identity") == 0.0
    vals = [stability_bound(0.5, 0.3, d, "xlogx") for d in (1e-4, 1e-3, 1e-2, 1e-1)]
    assert vals == sorted(vals)
    with pytest.raises(BoundInputError):
        stability_bound(-0.1, 0.0, 1.0, "identity")


def test_rate_window_outside_table_is_rejected():
    rate = PiecewiseConstantRate([0.0, 1.0], [2.0])
    assert rate(1.5) == 2.0  # the table extends its end values when evaluated
    with pytest.raises(BoundInputError, match=r"window \[0.0, 2.0\] leaves the table span \[0.0, 1.0\]"):
        bihari_bound(1.0, rate, "identity", 0.0, 2.0)
    with pytest.raises(BoundInputError, match="leaves the table span"):
        bihari_bound(1.0, PiecewiseConstantRate([0.5, 1.0], [2.0]), "identity", 0.25, 1.0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    rho_name=st.sampled_from(sorted(rho_catalog())),
    c=st.floats(0.05, 5.0),
    shape=st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4),
    integral=st.floats(0.0, 3.0),
    dc=st.floats(0.0, 1.0),
    dk=st.floats(0.0, 1.0),
)
def test_inversion_properties(rho_name, c, shape, integral, dc, dk):
    """G(bound) - G(c) = int K, the bound grows with c and with int K, and the
    identity modulus gives c exp(int K), for piecewise rates on [0, 1]."""
    rho = rho_catalog()[rho_name]
    times = np.linspace(0.0, 1.0, len(shape) + 1)
    values = np.asarray(shape) * integral / np.mean(shape)
    res = bihari_bound(c, PiecewiseConstantRate(times, values), rho, 0.0, 1.0)
    assert res.status == "ok"
    assert res.integral_K == pytest.approx(integral, rel=1e-12, abs=1e-12)
    lhs = bihari_transform(res.bound, rho) - bihari_transform(c, rho)
    assert abs(lhs - res.integral_K) <= 1e-8 * max(1.0, res.integral_K)
    larger_c = bihari_bound(c + dc, PiecewiseConstantRate(times, values), rho, 0.0, 1.0)
    larger_k = bihari_bound(c, PiecewiseConstantRate(times, values + dk), rho, 0.0, 1.0)
    assert larger_c.bound >= res.bound * (1.0 - 1e-12)
    assert larger_k.bound >= res.bound * (1.0 - 1e-12)
    if rho_name == "identity":
        exact = c * math.exp(res.integral_K)
        assert abs(res.bound - exact) <= 1e-8 * exact


def test_stability_sqrt_rho_closed_form():
    # G(x) = 2(sqrt(x) - 1), so H = (sqrt(e^{4b} delta) + e^{4b} a)^2
    for a, b, delta in [(0.5, 0.49, 1e-3), (1.2, 0.1, 0.05), (0.0, 0.0, 1.0), (0.3, 0.2, 4.0)]:
        e4b = math.exp(4.0 * b)
        h = (math.sqrt(e4b * delta) + e4b * a) ** 2
        expected = 2.0 * e4b * delta + (2.0 * e4b * a + 1.0) * (h + math.sqrt(h))
        got = stability_bound(a, b, delta, "sqrt")
        assert abs(got - expected) / expected <= 1e-8


def test_nonsmooth_concave_rho_matches_backward_ode_oracle():
    # kinks at r = 0.8 and r = 2, both crossed by the bounds below
    kinked = RhoFunction(
        lambda x: np.minimum.reduce([np.asarray(x, dtype=float), 0.4 + 0.5 * np.asarray(x), 1.2 + 0.1 * np.asarray(x)]),
        "piecewise-linear, concave",
    )
    for c, times, values in [(0.3, [0.0, 1.0], [2.0]), (0.5, [0.0, 0.4, 1.5], [3.0, 1.0]), (1.9, [0.0, 2.0], [0.2])]:
        rate = PiecewiseConstantRate(times, values)
        res = bihari_bound(c, rate, kinked, times[0], times[-1])
        oracle = backward_ode_value(c, rate, kinked, times[0], times[-1])
        assert res.status == "ok"
        assert abs(res.bound - oracle) / oracle <= 1e-6


def test_quadratures_per_bound_are_few(monkeypatch):
    """Newton steps need a handful of 1/rho quadratures; a bracket-and-bisect
    search (about 50 per bound) would show here."""
    calls = []
    real_rule = bounds.gauss_kronrod

    def counting_rule(*args):
        calls.append(1)
        return real_rule(*args)

    monkeypatch.setattr(bounds, "gauss_kronrod", counting_rule)
    for rho in sorted(rho_catalog()):
        for c in (0.05, 0.3, 1.0, 2.5, 5.0):
            for k0 in (0.0, 0.5, 1.5, 3.0):
                calls.clear()
                res = bihari_bound(c, PiecewiseConstantRate([0.0, 1.0], [k0]), rho, 0.0, 1.0)
                assert res.status == "ok"
                assert res.quadratures == len(calls) <= 12, (rho, c, k0)


def test_overshoot_of_decreasing_rho_steps_back():
    # rho(r) = 1/r decreases, so G(x) = (x^2 - 1)/2 is convex and the first
    # Newton step from c = 1 lands at 2.5, above the root 2 of G(x) = 1.5;
    # signed steps come back down (2.05, 2.0006, ...)
    falling = RhoFunction(lambda x: 1.0 / np.asarray(x, dtype=float), "decreasing")
    res = bihari_bound(1.0, PiecewiseConstantRate([0.0, 1.0], [1.5]), falling, 0.0, 1.0)
    assert res.status == "ok"
    assert res.bound == pytest.approx(2.0, rel=1e-12)


def test_xlogx_transform_identity_across_the_kink():
    # the quadrature of G(bound) over [bound, 1] crosses the kink of xlogx at
    # 1/e; as one piece it missed G(bound) - G(c) = int K by 8.2e-8
    c = 0.11059704856352746
    rate = PiecewiseConstantRate([0.0, 0.38101744075754795, 0.9340751637507851, 2.0],
                                 [3.169323951154135, 1.0267349458276696, 1.9854046380964037])
    res = bihari_bound(c, rate, "xlogx", 1.810656019681632, 1.9653221507910728)
    assert res.status == "ok" and res.integral_K == 0.3070748540611103
    assert res.bound == pytest.approx(0.1855415577742168, rel=1e-12)
    rho = rho_catalog()["xlogx"]
    lhs = bihari_transform(res.bound, rho) - bihari_transform(c, rho)
    assert abs(lhs - res.integral_K) <= 1e-12


def test_catalog_moduli_stay_on_their_scalar_form(monkeypatch):
    """The bounds evaluate the catalog moduli on floats; an array call inside
    their loops would mean a silent fall back to the slow path."""
    from jumpbsde import generators

    calls = []

    def counting(value):
        def wrapped(x):
            calls.append(x)
            return value(x)
        return wrapped

    for name, rho in rho_catalog().items():
        monkeypatch.setitem(generators.RHO_CATALOG, name, replace(rho, value=counting(rho.value)))
    for name, rho in rho_catalog().items():
        assert rho.scalar is not None
        res = bihari_bound(0.1, PiecewiseConstantRate([0.0, 1.0], [1.5]), name, 0.0, 1.0)
        assert res.status == "ok" and res.newton_steps >= 1
        assert bihari_transform(res.bound, rho) != 0.0
        assert stability_bound(0.5, 0.3, 1e-3, name) > 0.0
    assert calls == []
    rho_catalog()["sqrt"](4.0)
    assert calls == [4.0]  # the wrapper counts array calls



# rho(r) = r^2 bounds G above by 1 from c = 1, so the target int K = 50 is out
# of reach: the Newton steps toward it span wide ranges of a fast-decaying 1/rho
SQUARE_OUT_OF_REACH = """
import numpy as np
from jumpbsde import PiecewiseConstantRate, RhoFunction, bihari_bound
square = RhoFunction(lambda x: np.asarray(x, dtype=float) ** 2, "square")
print(bihari_bound(1.0, PiecewiseConstantRate([0.0, 1.0], [50.0]), square, 0.0, 1.0).status)
"""


def test_out_of_reach_bound_warns_nothing():
    """With every warning an error, the out-of-reach bound still reports out-of-domain."""
    env = {**os.environ, "PYTHONPATH": str(Path(bounds.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", SQUARE_OUT_OF_REACH], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "out-of-domain\n"


def test_gauss_kronrod_constants_are_qk15():
    """The stored abscissae and weights: K15 is exact to degree 22, G7 to degree 13
    and equals numpy's 7-point Gauss-Legendre rule."""
    x = np.array([-p[0] for p in bounds._PAIRS] + [0.0] + [p[0] for p in bounds._PAIRS[::-1]])
    w_k = np.array([p[1] for p in bounds._PAIRS] + [bounds._CENTRE_WEIGHTS[0]] + [p[1] for p in bounds._PAIRS[::-1]])
    w_g = np.array([p[2] for p in bounds._PAIRS] + [bounds._CENTRE_WEIGHTS[1]] + [p[2] for p in bounds._PAIRS[::-1]])
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(float(w_k @ x**k) - exact) <= 1e-15, k
        if k <= 13:
            assert abs(float(w_g @ x**k) - exact) <= 1e-15, k
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.allclose(np.sort(x[w_g > 0]), nodes, rtol=0, atol=1e-15)
    assert np.allclose(w_g[w_g > 0], weights[np.argsort(nodes)], rtol=0, atol=1e-15)


def test_gauss_kronrod_is_signed_adaptive_and_capped():
    assert abs(bounds.gauss_kronrod(math.sqrt, 0.0, 1.0) - 2.0 / 3.0) <= bounds.QUAD_ABS_TOL
    assert bounds.gauss_kronrod(math.sqrt, 1.0, 0.0) == pytest.approx(-bounds.gauss_kronrod(math.sqrt, 0.0, 1.0),
                                                                       rel=1e-15)  # summed from 1 down
    assert bounds.gauss_kronrod(math.exp, -3.0, 2.0) == pytest.approx(math.exp(2.0) - math.exp(-3.0), rel=1e-14)
    # 1/x is not integrable at 0: after QUAD_LIMIT halvings the rule returns the estimate it reached
    calls = []

    def inv(x):
        calls.append(x)
        return 1.0 / x

    assert math.isfinite(bounds.gauss_kronrod(inv, 0.0, 1.0))
    assert len(calls) == 15 * (2 * bounds.QUAD_LIMIT + 1)


# Roots x of G(x) - G(c) = 1 for xlogx, G' = 1 / (1 - r^r) below 1/e: mpmath at
# 40 digits (quadrature in log r, `findroot`), agreeing with a 50-digit solve
XLOGX_ROOTS = {
    1e-10: "0.000209324699677211317702253", 1e-11: "0.00008977274175722890855172724",
    1e-12: "0.00003849122575437104068109414", 1e-13: "0.00001650166646912681095536449",
    1e-14: "0.000007074074131102052272784351", 1e-15: "0.000003032494455219935897075477",
    1e-16: "0.0000012999454116999097102182", 1e-17: "0.0000005572470237368956469646911",
    1e-18: "0.0000002388742123354746458326174", 1e-19: "0.0000001023977136771781966661185",
    1e-20: "4.389459184607486808929618e-8", 1e-21: "1.881618882715890740083812e-8",
    1e-22: "8.065889380498916281477943e-9", 1e-23: "3.45758478488715120667423e-9",
    1e-24: "1.482154255711268784962641e-9",
}


# Roots of G(x) - G(c) = int K, keyed (c, int K), the same way. rho(x) / x ~ log(1/x) is in the hundreds
# there, so the carried residual reaches rounding while the Newton step is still above 1e-14 x: these ran
# out of steps and came out out-of-domain until the inversion also stopped on a residual of a few ulps.
XLOGX_DEEP_ROOTS = {
    (1e-200, 0.1): "1.0777459333473187e-181",
    (1e-300, 0.1): "3.5381365439476991e-272",
    (1e-300, 0.3): "5.6824260876268950e-223",
}


@pytest.mark.parametrize("c, integral, root", [
    *(pytest.param(c, 1.0, root, id=str(c)) for c, root in sorted(XLOGX_ROOTS.items(), reverse=True)),
    *(pytest.param(c, k, root, id=f"{c}-K{k}") for (c, k), root in XLOGX_DEEP_ROOTS.items()),
])
def test_xlogx_bound_near_zero_matches_mpmath(c, integral, root):
    # 1 - m**m rounded to 0 below m = 8.7e-19: c = 1e-18 raised ZeroDivisionError, 2e-18 lay 1.4% low
    res = bihari_bound(c, PiecewiseConstantRate([0.0, 1.0], [integral]), "xlogx", 0.0, 1.0)
    want = float(root)
    assert res.status == "ok"
    assert abs(res.bound - want) <= 1e-13 * want


@pytest.mark.parametrize("rho", sorted(rho_catalog()))
def test_catalog_bounds_at_extreme_c_are_ok_or_out_of_domain(rho):
    """Down to the smallest subnormal c and up to the bracket cap, a catalog
    modulus gives a bound or out-of-domain, never an exception."""
    for c in (5e-324, 1e-300, 1e-30, 1e300):
        for k0 in (0.0, 1.0, 50.0):
            res = bihari_bound(c, PiecewiseConstantRate([0.0, 1.0], [k0]), rho, 0.0, 1.0)
            assert res.status == "out-of-domain" or c <= res.bound <= bounds.BRACKET_CAP, (rho, c, k0)


# vanishes on (0, 0.5]: G(c) below 0.5, and Newton steps from there, have no 1/rho
VANISHING = RhoFunction(lambda x: np.maximum(np.asarray(x, dtype=float) - 0.5, 0.0), "vanishing below 1/2")


@pytest.mark.parametrize("c", [0.2, 0.5])
def test_modulus_vanishing_at_a_reachable_point_is_an_input_error(c):
    with pytest.raises(BoundInputError, match=r"rho must be positive on \(0, inf\); rho\(.*\) = 0\.0"):
        bihari_bound(c, PiecewiseConstantRate([0.0, 1.0], [1.0]), VANISHING, 0.0, 1.0)
    with pytest.raises(BoundInputError, match="rho must be positive"):
        stability_bound(0.5, 0.0, c, VANISHING)  # b = 0: the Newton steps start at delta = c
