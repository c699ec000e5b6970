"""Numerical engine for the integral inequalities: the backward nonlinear
Gronwall bound, the explicit a-priori constants and the two-solution
stability bound.

The transform G(x) is the integral of 1/rho from 1 to x (signed). It is
inverted by Newton steps, which need no bracket: G' = 1/rho is exact, and G
is concave for a nondecreasing rho, so steps started below the target stay
below it and converge quadratically. The rise of G is carried along the
iterates as a sum of short quadratures between them, so non-smooth moduli
(piecewise-linear rho) and unbounded transforms are fine.

scipy.integrate is reached only through this module's `quad`, which imports
it on the first quadrature (`_quiet_quadrature` takes its warning class from
the same import). Importing it takes about 0.6 s and 45 MB, which runs that
never integrate (the trees, LSMC and the comparison suite) do not pay. No
other module of the package imports scipy.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np

from .config import resolve_spec
from .generators import RHO_CATALOG, RhoFunction

QUAD_ABS_TOL = 1e-10
TRANSFORM_PIECE_RATIO = 1e3
NEWTON_MAX_ITER = 200
BRACKET_CAP = 1e300

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


class _Modulus:
    """A modulus as the quadrature and Newton loops call it: rho and 1/rho on
    one float each, the kinks a quadrature is split at, and the count of 1/rho
    quadratures run with it. Built once per public call; user moduli without a
    scalar form go through the array form."""

    __slots__ = ("at", "inv", "kinks", "quadratures")

    def __init__(self, rho: RhoFunction):
        if rho.scalar is not None:
            at = rho.scalar
        else:
            def at(x):
                with np.errstate(over="ignore"):  # rho may overflow near the cap: an infinite step is out of domain
                    return float(rho(x))
        self.at = at
        self.inv = lambda r: 1.0 / at(r)
        self.kinks = tuple(sorted(rho.kinks))
        self.quadratures = 0


@cache
def _scipy_integrate():
    """scipy.integrate, imported on the first call; cached, so the per-call
    lookups of the bounds cost no import statement."""
    import scipy.integrate

    return scipy.integrate


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported by the first call, which rebinds this
    name to it so that the quadrature and Newton loops pay no import. Callers
    outside this module use `bounds.quad` too."""
    global quad
    scipy_quad = _scipy_integrate().quad
    if quad is _deferred_quad:  # a substitute set in its place stays
        quad = scipy_quad
    return scipy_quad(*args, **kwargs)


_deferred_quad = quad


@contextmanager
def _quiet_quadrature():
    # a step toward an unreachable target may span an astronomically wide
    # range; the bracket cap, not this accuracy warning, decides that case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _scipy_integrate().IntegrationWarning)
        yield


def _integral_inv_rho(a: float, b: float, mod: _Modulus) -> float:
    """Signed adaptive quadrature of 1/rho from a to b, one piece between
    each pair of kinks strictly inside the interval: a single quadrature
    across a kink of xlogx missed the integral by 8e-8."""
    inside = [k for k in mod.kinks if min(a, b) < k < max(a, b)]
    edges = [a, *(inside if a < b else inside[::-1]), b]
    mod.quadratures += len(edges) - 1
    return sum(quad(mod.inv, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=1e-10, limit=200)[0]
               for lo, hi in zip(edges, edges[1:]))


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
    sqrt came out 2000000.000000015, not 1999998).
    """
    with _quiet_quadrature():
        return _transform(x, _Modulus(rho))


def _invert_transform(rise: float, mod: _Modulus, x_start: float) -> tuple[float | None, int]:
    """Solve G(x) - G(x_start) = rise >= 0 by Newton steps from x_start.

    The rise is carried along the iterates as a sum of short quadratures
    between them, never re-integrated over the whole range. Steps are
    signed, so an iterate above the root (possible only if rho decreases
    somewhere) steps back down. Returns the root, or None when an iterate
    leaves (0, BRACKET_CAP] or the steps do not settle, i.e. the target lies
    above what G reaches; and the number of steps taken, the last included.
    """
    x, gained = x_start, 0.0
    for steps in range(1, NEWTON_MAX_ITER + 1):
        step = (rise - gained) * mod.at(x)
        if abs(step) <= 1e-14 * x:
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
    sample = np.linspace(t, T, 65)
    vals = np.asarray([float(K(s)) for s in sample])
    if (vals < 0).any():
        raise BoundInputError("the rate K must be nonnegative on [t, T]")
    val, _ = quad(lambda s: float(K(s)), t, T, epsabs=QUAD_ABS_TOL, epsrel=1e-10, limit=200)
    return float(val)


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
    with _quiet_quadrature():
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
    with _quiet_quadrature():
        h, _ = _invert_transform(2.0 * e4b * a, mod, e4b * delta)
    if h is None:
        return math.inf
    return 2.0 * e4b * delta + (2.0 * e4b * a + 1.0) * (h + mod.at(h))

