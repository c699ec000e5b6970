"""Numerical engine for the integral inequalities: the backward nonlinear
Gronwall bound, the explicit a-priori constants and the two-solution
stability bound.

The transform G(x) is the integral of 1/rho from 1 to x (signed). It is
inverted by Newton steps, which need no bracket: G' = 1/rho is exact, and G
is concave for a nondecreasing rho, so steps started below the target stay
below it and converge quadratically. The rise of G is carried along the
iterates as a sum of short quadratures between them, so non-smooth moduli
(piecewise-linear rho) and unbounded transforms are fine.

Every quadrature is `gauss_kronrod`, an adaptive Gauss-Kronrod 7/15 rule on
Python floats with QUADPACK's constants. 1/rho is integrated in s = log r, as
the integral of r/rho(r) ds, which is smooth where 1/rho spans decades. No
quadrature library is imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import resolve_spec
from .generators import RHO_CATALOG, RhoFunction

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-10
QUAD_LIMIT = 200
TRANSFORM_PIECE_RATIO = 1e3
NEWTON_MAX_ITER = 200
BRACKET_CAP = 1e300

# QUADPACK's qk15 rule (Piessens et al. 1983) on [-1, 1]: the centre and 7
# symmetric pairs of Kronrod abscissae, with the Kronrod weights and the weights
# of the 7-point Gauss rule that uses the centre and every other pair.
_CENTRE_WEIGHTS = (0.209482141084727828012999174891714, 0.417959183673469387755102040816327)
_PAIRS = (  # (abscissa, Kronrod weight, Gauss weight)
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204, 0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238, 0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014, 0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
)


class BoundInputError(ValueError):
    pass


def rho_catalog() -> dict[str, RhoFunction]:
    """The shipped moduli, by name."""
    return dict(RHO_CATALOG)


def get_rho(spec) -> RhoFunction:
    if isinstance(spec, RhoFunction):
        return spec
    rho, _, _ = resolve_spec("rho", RHO_CATALOG, spec, context_args=1)
    return rho


def gauss_kronrod(f, a: float, b: float) -> float:
    """Signed adaptive quadrature of the float function f from a to b. An interval's
    K15 is accepted when |K15 - G7| <= max(QUAD_ABS_TOL, QUAD_REL_TOL |K15|), or
    when QUAD_LIMIT halvings are spent; otherwise it is halved. Sums from a to b."""
    total, pending, splits = 0.0, [(a, b)], 0
    w_kronrod, w_gauss = _CENTRE_WEIGHTS
    while pending:
        lo, hi = pending.pop()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        f_mid = f(mid)
        kronrod, gauss = w_kronrod * f_mid, w_gauss * f_mid
        for x, wk, wg in _PAIRS:
            pair = f(mid - half * x) + f(mid + half * x)
            kronrod += wk * pair
            gauss += wg * pair
        kronrod, gauss = kronrod * half, gauss * half
        if abs(kronrod - gauss) <= max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(kronrod)) or splits >= QUAD_LIMIT:
            total += kronrod
        else:
            splits += 1
            pending += ((mid, hi), (lo, mid))
    return total


class _Modulus:
    """A modulus as the quadrature and Newton loops call it: rho on one float,
    r / rho(r) at r = exp(s) (the integrand of 1/rho in s = log r), the kinks
    a quadrature is split at, and the count of 1/rho quadratures run with it.
    Built once per public call; user moduli without a scalar form go through
    the array form. A rho that is not positive where a loop evaluates it is a
    BoundInputError: G' = 1/rho does not exist there."""

    __slots__ = ("at", "r_over_rho", "kinks", "quadratures")

    def __init__(self, rho: RhoFunction):
        value = rho.scalar
        if value is None:
            def value(x):
                with np.errstate(over="ignore"):  # rho may overflow near the cap: an infinite step is out of domain
                    return float(rho(x))

        def at(r):
            rho_r = value(r)
            if rho_r <= 0.0:
                raise BoundInputError(f"rho must be positive on (0, inf); rho({r!r}) = {rho_r!r}")
            return rho_r

        def r_over_rho(s):  # at(r) inlined on the common path: this runs 15 times per quadrature
            r = math.exp(s)
            rho_r = value(r)
            return r / rho_r if rho_r > 0.0 else r / at(r)  # at raises unless rho_r is nan

        self.at, self.r_over_rho = at, r_over_rho
        self.kinks = tuple(sorted(rho.kinks))
        self.quadratures = 0


def _integral_inv_rho(a: float, b: float, mod: _Modulus) -> float:
    """Signed quadrature of 1/rho from a to b > 0, in log r, one piece between
    each pair of kinks strictly inside the interval: a single quadrature
    across a kink of xlogx missed the integral by 8e-8."""
    inside = [k for k in mod.kinks if min(a, b) < k < max(a, b)]
    edges = [a, *(inside if a < b else inside[::-1]), b]
    mod.quadratures += len(edges) - 1
    return sum(gauss_kronrod(mod.r_over_rho, math.log(lo), math.log(hi)) for lo, hi in zip(edges, edges[1:]))


def _transform(x: float, mod: _Modulus) -> float:
    if x <= 0:
        raise BoundInputError("the transform is defined for positive arguments")
    if x == 1.0:
        return 0.0
    step = TRANSFORM_PIECE_RATIO if x > 1.0 else 1.0 / TRANSFORM_PIECE_RATIO
    edges = [1.0]
    while max(x / edges[-1], edges[-1] / x) > TRANSFORM_PIECE_RATIO:
        edges.append(edges[-1] * step)
    edges.append(x)
    return sum(_integral_inv_rho(a, b, mod) for a, b in zip(edges, edges[1:]))


def bihari_transform(x: float, rho: RhoFunction) -> float:
    """G(x): signed integral of 1/rho from 1 to x; needs x > 0.

    One adaptive quadrature per factor TRANSFORM_PIECE_RATIO away from 1, as a
    single quadrature over many decades misplaces its nodes (G(1e12) for
    sqrt came out 2000000.000000015, not 1999998) or, in log r, runs out of
    halvings (G(1e300) for xlogx came out 7.0e-4 high).
    """
    return _transform(x, _Modulus(rho))


def _invert_transform(rise: float, mod: _Modulus, x_start: float) -> tuple[float | None, int]:
    """Solve G(x) - G(x_start) = rise >= 0 by Newton steps from x_start.

    The rise is carried along the iterates as a sum of short quadratures
    between them, never re-integrated over the whole range. Steps are
    signed, so an iterate above the root (possible only if rho decreases
    somewhere) steps back down. They stop at a step of at most 1e-14 x or a
    rise left of at most 4 ulps (near 0, rho(x) / x is large and rounding keeps
    the step above 1e-14 x). Returns the root, or None when an iterate
    leaves (0, BRACKET_CAP] or the steps do not settle, i.e. the target lies
    above what G reaches; and the number of steps taken, the last included.
    """
    x, gained, rounding = x_start, 0.0, 4.0 * math.ulp(rise)
    for steps in range(1, NEWTON_MAX_ITER + 1):
        left = rise - gained
        step = left * mod.at(x)
        if abs(step) <= 1e-14 * x or abs(left) <= rounding:
            return x + step, steps
        x_next = x + step
        if not 0.0 < x_next <= BRACKET_CAP:
            return None, steps
        x, gained = x_next, gained + _integral_inv_rho(x, x_next, mod)
    return None, NEWTON_MAX_ITER


@dataclass(frozen=True)
class BihariResult:
    status: str  # "ok" or "out-of-domain"
    bound: float | None
    G_of_c: float
    integral_K: float
    quadratures: int = 0  # 1/rho quadrature pieces the bound ran, G(c) included
    newton_steps: int = 0  # Newton steps of the inversion, the last (below tolerance) included


def _integrate_rate(K, t: float, T: float) -> float:
    """Time integral of a nonnegative rate; exact for tables exposing .integral."""
    if hasattr(K, "integral"):
        return float(K.integral(t, T))
    if any(float(K(s)) < 0 for s in np.linspace(t, T, 65)):
        raise BoundInputError("the rate K must be nonnegative on [t, T]")
    return gauss_kronrod(lambda s: float(K(s)), t, T)


def bihari_bound(c: float, K, rho, t: float, T: float) -> BihariResult:
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
    mod = _Modulus(rho)
    g_of_c = _transform(c, mod)
    root, steps = _invert_transform(integral_k, mod, float(c))
    status = "ok" if root is not None else "out-of-domain"
    return BihariResult(status=status, bound=root, G_of_c=g_of_c, integral_K=integral_k,
                        quadratures=mod.quadratures, newton_steps=steps)


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


def stability_bound(a: float, b: float, delta: float, rho) -> float:
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
    mod = _Modulus(get_rho(rho))
    e4b = math.exp(4.0 * b)
    h, _ = _invert_transform(2.0 * e4b * a, mod, e4b * delta)
    if h is None:
        return math.inf
    return 2.0 * e4b * delta + (2.0 * e4b * a + 1.0) * (h + mod.at(h))

