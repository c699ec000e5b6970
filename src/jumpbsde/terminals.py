"""Terminal-value functionals selectable by name.

A terminal functional maps the terminal context (state, Brownian value and
jump counts at the horizon) to one payoff per node or path. Config entries
are either a catalog name or a dict {"name": ..., params..., "scale": a,
"shift": b}; scale and shift apply after the base payoff.
"""

from __future__ import annotations

import inspect

import numpy as np

from .generators import StepContext


def _x(ctx: StepContext):
    return np.asarray(ctx.x, dtype=float)


def _w(ctx: StepContext):
    if ctx.w is None:
        raise ValueError("terminal 'w' needs the Brownian path value in the context")
    return np.asarray(ctx.w, dtype=float)


def _tanh_x(ctx: StepContext):
    return np.tanh(np.asarray(ctx.x, dtype=float))


def _clip_x(ctx: StepContext, lo: float = -1.0, hi: float = 1.0):
    return np.clip(np.asarray(ctx.x, dtype=float), float(lo), float(hi))


def _jump_indicator(ctx: StepContext, mark: int = 0, min_count: int = 1):
    if ctx.counts is None:
        raise ValueError("terminal 'jump_indicator' needs jump counts in the context")
    counts = np.asarray(ctx.counts)
    if not (0 <= int(mark) < counts.shape[-1]):
        raise ValueError(f"mark index {mark} out of range for {counts.shape[-1]} marks")
    return (counts[..., int(mark)] >= int(min_count)).astype(float)


def _const(ctx: StepContext, value: float = 0.0):
    return np.full_like(np.asarray(ctx.x, dtype=float), float(value))


_CATALOG = {
    "x": _x,
    "w": _w,
    "tanh_x": _tanh_x,
    "clip_x": _clip_x,
    "jump_indicator": _jump_indicator,
    "const": _const,
}


def terminal_names() -> list[str]:
    return sorted(_CATALOG)


def make_terminal(spec):
    """Build a terminal functional from a name or a config dict."""
    if callable(spec):
        return spec
    if isinstance(spec, str):
        spec = {"name": spec}
    params = dict(spec)
    name = params.pop("name")
    scale = float(params.pop("scale", 1.0))
    shift = float(params.pop("shift", 0.0))
    try:
        base = _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown terminal '{name}'; catalog: {terminal_names()}") from None
    valid = list(inspect.signature(base).parameters)[1:]
    unknown = sorted(set(params) - set(valid))
    if unknown:
        raise ValueError(f"terminal '{name}' has no parameter {unknown}; valid: {valid + ['scale', 'shift']}")

    def terminal(ctx: StepContext):
        return scale * base(ctx, **params) + shift

    terminal.__name__ = f"terminal_{name}"
    return terminal
