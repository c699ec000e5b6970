"""Numerical engine for the integral inequalities: the backward nonlinear
Gronwall bound, the explicit a-priori constants, the two-solution stability
bound, and the weighted second-moment bound.

The transform G(x) is the integral of 1/rho from 1 to x (signed). It is
inverted by Newton steps, which need no bracket: G' = 1/rho is exact, and G
is concave for a nondecreasing rho, so steps started below the target stay
below it and converge quadratically. The rise of G is carried along the
iterates as a sum of short quadratures between them, so non-smooth moduli
(piecewise-linear rho) and unbounded transforms are fine.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .generators import RhoFunction

QUAD_ABS_TOL = 1e-10
NEWTON_MAX_ITER = 200
BRACKET_CAP = 1e300

_quadratures_run = 0  # 1/rho quadratures run in this process; bihari_bound reports the difference


class BoundInputError(ValueError):
    pass


def rho_catalog() -> dict[str, RhoFunction]:
    """Shipped moduli.

    'sqrt' fails both the divergent-integral requirement and the small-x
    rate condition; it is shipped for bound experiments only.
    """

    def xlogx(x):
        x = np.asarray(x, dtype=float)
        m = np.minimum(x, 1.0 / np.e)
        with np.errstate(invalid="ignore"):
            out = 1.0 - m**m
        return np.where(m == 0.0, 0.0, out)  # 0^0 = 1 at the origin

    return {
        "identity": RhoFunction(lambda x: np.asarray(x, dtype=float) + 0.0, "identity modulus"),
        "sqrt": RhoFunction(
            lambda x: np.sqrt(np.asarray(x, dtype=float)),
            "square root; for bound experiments only (integrable near zero, small-x rate 1)",
        ),
        "xlogx": RhoFunction(
            xlogx,
            "behaves like -x log x near zero, constant above 1/e; concave with divergent integral",
        ),
    }


def get_rho(spec) -> RhoFunction:
    if isinstance(spec, RhoFunction):
        return spec
    try:
        return rho_catalog()[spec]
    except KeyError:
        raise BoundInputError(f"unknown rho '{spec}'; catalog: {sorted(rho_catalog())}") from None


def _integral_inv_rho(a: float, b: float, rho: RhoFunction, quad_tol: float) -> float:
    """Signed adaptive quadrature of 1/rho from a to b."""
    global _quadratures_run
    _quadratures_run += 1

    def integrand(r):
        return 1.0 / float(rho(r))

    with warnings.catch_warnings():
        # a step toward an unreachable target may span an astronomically wide
        # range; the bracket cap, not this accuracy warning, decides that case
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, a, b, epsabs=quad_tol, epsrel=1e-10, limit=200)
    return float(val)


def bihari_transform(x: float, rho: RhoFunction, quad_tol: float = QUAD_ABS_TOL) -> float:
    """G(x): signed adaptive quadrature of 1/rho from 1 to x; needs x > 0."""
    if x <= 0:
        raise BoundInputError("the transform is defined for positive arguments")
    if x == 1.0:
        return 0.0
    return _integral_inv_rho(1.0, x, rho, quad_tol)


def _invert_transform(rise: float, rho: RhoFunction, x_start: float, quad_tol: float) -> float | None:
    """Solve G(x) - G(x_start) = rise >= 0 by Newton steps from x_start.

    The rise is carried along the iterates as a sum of short quadratures
    between them, never re-integrated over the whole range. Steps are
    signed, so an iterate above the root (possible only if rho decreases
    somewhere) steps back down. Returns None when an iterate leaves
    (0, BRACKET_CAP] or the steps do not settle, i.e. the target lies above
    what G reaches.
    """
    x, gained = x_start, 0.0
    for _ in range(NEWTON_MAX_ITER):
        with np.errstate(over="ignore"):  # rho may overflow near the cap: an infinite step is out of domain
            step = (rise - gained) * float(rho(x))
        if abs(step) <= 1e-14 * x:
            return x + step
        x_next = x + step
        if not 0.0 < x_next <= BRACKET_CAP:
            return None
        x, gained = x_next, gained + _integral_inv_rho(x, x_next, rho, quad_tol)
    return None


@dataclass(frozen=True)
class BihariResult:
    status: str  # "ok" or "out-of-domain"
    bound: float | None
    G_of_c: float
    integral_K: float
    quadratures: int = 0  # 1/rho integrals the bound ran, G(c) included


def _integrate_rate(K, t: float, T: float) -> float:
    """Time integral of a nonnegative rate; exact for tables exposing .integral."""
    if hasattr(K, "integral"):
        return float(K.integral(t, T))
    sample = np.linspace(t, T, 65)
    vals = np.asarray([float(K(s)) for s in sample])
    if (vals < 0).any():
        raise BoundInputError("the rate K must be nonnegative on [t, T]")
    val, _ = quad(lambda s: float(K(s)), t, T, epsabs=QUAD_ABS_TOL, epsrel=1e-10, limit=200)
    return float(val)


def bihari_bound(c: float, K, rho, t: float, T: float, quad_tol: float = QUAD_ABS_TOL) -> BihariResult:
    """Backward nonlinear Gronwall bound: the x solving G(x) = G(c) + int_t^T K.

    For the identity modulus this reproduces c * exp(int_t^T K). The result
    is flagged out-of-domain when the target lies above the range of G.
    """
    if c <= 0:
        raise BoundInputError("the initial bound c must be positive")
    if T < t:
        raise BoundInputError("need t <= T")
    rho = get_rho(rho)
    integral_k = _integrate_rate(K, t, T)
    if integral_k < 0:
        raise BoundInputError("the rate integral must be nonnegative")
    before = _quadratures_run
    g_of_c = bihari_transform(c, rho, quad_tol)
    root = _invert_transform(integral_k, rho, float(c), quad_tol)
    status = "ok" if root is not None else "out-of-domain"
    return BihariResult(status=status, bound=root, G_of_c=g_of_c, integral_K=integral_k,
                        quadratures=_quadratures_run - before)


class PiecewiseConstantRate:
    """Right-open piecewise-constant rate K(s) = values[k] on [times[k], times[k+1])."""

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.size != self.values.size + 1:
            raise BoundInputError("need one more breakpoint than values")
        if (np.diff(self.times) <= 0).any():
            raise BoundInputError("breakpoints must be strictly increasing")
        if (self.values < 0).any():
            raise BoundInputError("rate values must be nonnegative")

    def __call__(self, s: float) -> float:
        k = int(np.clip(np.searchsorted(self.times, s, side="right") - 1, 0, self.values.size - 1))
        return float(self.values[k])

    def integral(self, a: float, b: float) -> float:
        """Exact integral over [a, b]; the window must lie within the table's span."""
        if a < self.times[0] or b > self.times[-1]:
            raise BoundInputError(f"rate window [{float(a)}, {float(b)}] leaves the table span "
                                  f"[{float(self.times[0])}, {float(self.times[-1])}]")
        lo = np.maximum(self.times[:-1], a)
        hi = np.minimum(self.times[1:], b)
        return float((np.maximum(hi - lo, 0.0) * self.values).sum())


@dataclass(frozen=True)
class AprioriBound:
    """Explicit domination constants for the solution norms in terms of the data."""

    sup_Y_bound: float
    ZU_bound: float
    c1: float
    min_C1: float


def apriori_bound(C_K: float, e_xi2: float, e_IF2: float) -> AprioriBound:
    """Plug the coefficient budget and data moments into the explicit constants.

    c1 = (5 + C_K) e^{(5 + C_K) C_K}; the pathwise-sup bound uses the factors
    2c1 + 48 c1 e^{4 C_K} and 2c1 + (48 c1)^2 e^{8 C_K}, the integrated Z/U
    bound uses 1/12 + 4 e^{4 C_K} and 1/12 + 192 c1 e^{8 C_K}. min_C1 is the
    smallest constant making e^{min_C1 (1 + C_K)^2} dominate all four factors.
    """
    if C_K < 0 or e_xi2 < 0 or e_IF2 < 0:
        raise BoundInputError("all bound inputs must be nonnegative")
    c1 = (5.0 + C_K) * math.exp((5.0 + C_K) * C_K)
    e4 = math.exp(4.0 * C_K)
    e8 = math.exp(8.0 * C_K)
    fac_sup_xi = 2.0 * c1 + 48.0 * c1 * e4
    fac_sup_if = 2.0 * c1 + (48.0 * c1) ** 2 * e8
    fac_zu_xi = 1.0 / 12.0 + 4.0 * e4
    fac_zu_if = 1.0 / 12.0 + 192.0 * c1 * e8
    sup_bound = fac_sup_xi * e_xi2 + fac_sup_if * e_IF2
    zu_bound = fac_zu_xi * e_xi2 + fac_zu_if * e_IF2
    min_c1 = math.log(max(fac_sup_xi, fac_sup_if, fac_zu_xi, fac_zu_if)) / (1.0 + C_K) ** 2
    return AprioriBound(sup_Y_bound=sup_bound, ZU_bound=zu_bound, c1=c1, min_C1=min_c1)


def stability_bound(a: float, b: float, delta: float, rho, quad_tol: float = QUAD_ABS_TOL) -> float:
    """Bound on the summed squared solution gaps given the data gap `delta`.

    delta aggregates the terminal gap and the driver gap along the first
    solution; a integrates the second driver's time coefficient, b caps its
    quadratic coefficient budget. Computes H from the transform inversion
    and returns 2 e^{4b} delta + (2 e^{4b} a + 1)(H + rho(H)); zero data gap
    gives zero by the limiting convention, and an unreachable transform
    target gives +inf.
    """
    if a < 0 or b < 0 or delta < 0:
        raise BoundInputError("all stability inputs must be nonnegative")
    if delta == 0.0:
        return 0.0
    rho = get_rho(rho)
    e4b = math.exp(4.0 * b)
    h = _invert_transform(2.0 * e4b * a, rho, e4b * delta, quad_tol)
    if h is None:
        return math.inf
    return 2.0 * e4b * delta + (2.0 * e4b * a + 1.0) * (h + float(rho(h)))


def weighted_y_bound(intH_xi2: float, intH_IF_norm: float, Y_s2_norm: float, C_K: float) -> float:
    """Bound on the H-weighted second moment of Y in terms of the data."""
    if min(intH_xi2, intH_IF_norm, Y_s2_norm, C_K) < 0:
        raise BoundInputError("all inputs must be nonnegative")
    e2 = math.exp(2.0 * C_K)
    return e2 * intH_xi2 + 2.0 * e2 * intH_IF_norm * Y_s2_norm
