"""Terminal-value functionals selectable by name.

A terminal functional maps the terminal context (state, Brownian value and
jump counts at the horizon) to one payoff per node or path. Config entries
are catalog specs (config.resolve_spec) with the modifiers "scale": a and
"shift": b, which apply after the base payoff.
"""

from __future__ import annotations

import numpy as np

from .config import resolve_spec
from .generators import StepContext
from .levy import ModelError


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
    for name, value in (("mark", mark), ("min_count", min_count)):
        if not float(value).is_integer():
            raise ModelError(f"terminal 'jump_indicator' parameter '{name}' must be a whole number, got {value!r}")
    counts = np.asarray(ctx.counts)
    if not (0 <= mark < counts.shape[-1]):
        raise ModelError(f"mark index {mark} out of range for {counts.shape[-1]} marks")
    return (counts[..., int(mark)] >= min_count).astype(float)


def _const(ctx: StepContext, value: float = 0.0):
    return np.full_like(np.asarray(ctx.x, dtype=float), float(value))


TERMINAL_CATALOG = {
    "x": _x,
    "w": _w,
    "tanh_x": _tanh_x,
    "clip_x": _clip_x,
    "jump_indicator": _jump_indicator,
    "const": _const,
}


def make_terminal(spec):
    """Build a terminal functional from a name or a config dict."""
    if callable(spec):
        return spec
    base, params, mods = resolve_spec("terminal", TERMINAL_CATALOG, spec, ("scale", "shift"), context_args=1)
    scale = float(mods.get("scale", 1.0))
    shift = float(mods.get("shift", 0.0))

    def terminal(ctx: StepContext):
        return scale * base(ctx, **params) + shift

    terminal.__name__ = f"terminal{base.__name__}"  # catalog entries are named _<name>
    return terminal
