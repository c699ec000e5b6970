"""JSON config parsing: models, grids, drivers, bases.

The model/grid block is {"drift": a, "sigma": s, "marks": [{"x":, "lambda":}],
"T":, "steps":}. Drivers, terminals and moduli are picked from their catalogs
with one spec grammar (see resolve_spec). User-defined drivers enter only
through the library interface, not through configs.
"""

from __future__ import annotations

import inspect
import json
from numbers import Real

from .generators import GENERATOR_FACTORIES, GeneratorSpec, shift_generator
from .levy import LevyModel, TimeGrid
from .mc import RegressionBasis


class ConfigError(ValueError):
    pass


class _ConfigObject(dict):
    """A JSON object read from a config file: looking up a key it lacks raises ConfigError naming the key."""

    def __missing__(self, key):
        raise ConfigError(f"missing required config key {key!r}")


def load_config(path) -> dict:
    """Read a config file; it must hold a non-empty JSON object.

    A file that cannot be read or is not valid JSON raises ConfigError naming the path.
    Every object in it raises ConfigError, not KeyError, on a missing key that a runner requires.
    """
    try:
        with open(path) as fh:
            cfg = json.load(fh, object_hook=_ConfigObject)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read the config: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(cfg, dict) or not cfg:
        raise ConfigError(f"{path}: a config must be a non-empty JSON object, got {cfg!r:.60}")
    return cfg


_MODEL_KEYS = ("drift", "sigma", "marks")
_MARK_KEYS = ("x", "lambda")
_GRID_KEYS = ("T", "steps")


def _reject_unknown(kind: str, block: dict, valid: tuple) -> None:
    unknown = sorted(set(block) - set(valid))
    if unknown:
        raise ConfigError(f"unknown {kind} keys {unknown}; valid: {list(valid)}")


def model_from_config(cfg: dict) -> LevyModel:
    """A model block {"drift", "sigma", "marks": [{"x", "lambda"}, ...]}; unknown keys raise ConfigError."""
    _reject_unknown("model", cfg, _MODEL_KEYS)
    for m in cfg.get("marks", ()):
        _reject_unknown("model mark", m, _MARK_KEYS)
    try:
        marks = tuple((m["x"], m["lambda"]) for m in cfg.get("marks", ()))
        return LevyModel(drift=float(cfg.get("drift", 0.0)), sigma=float(cfg.get("sigma", 0.0)), marks=marks)
    except KeyError as exc:
        raise ConfigError(f"model mark entries need 'x' and 'lambda': missing {exc}") from None


def grid_from_config(cfg: dict) -> TimeGrid:
    """A grid block {"T", "steps"}; unknown keys raise ConfigError."""
    _reject_unknown("grid", cfg, _GRID_KEYS)
    try:
        return TimeGrid(horizon=float(cfg["T"]), steps=int(cfg["steps"]))
    except KeyError as exc:
        raise ConfigError(f"grid config needs {exc}") from None


def resolve_model_grid(cfg: dict) -> tuple[LevyModel, TimeGrid]:
    """Accept either nested {"model": {...}, "grid": {...}} blocks, whose keys are
    strict, or the flat layout {drift, sigma, marks, T, steps}, beside the runner's own keys."""
    model = model_from_config(cfg["model"] if "model" in cfg else {k: cfg[k] for k in _MODEL_KEYS if k in cfg})
    grid = grid_from_config(cfg["grid"] if "grid" in cfg else {k: cfg[k] for k in _GRID_KEYS if k in cfg})
    return model, grid


def resolve_spec(kind: str, catalog: dict, spec, modifiers: tuple = (), context_args: int = 0):
    """Look up a catalog spec: a name, or {"name": ..., parameters..., modifiers...}.

    Parameters are the entry's call arguments after its first `context_args`;
    modifiers are handed back to the caller. Returns (entry, parameters,
    modifiers). An unknown or missing name and an unknown parameter raise
    ConfigError naming the valid choices; a parameter or modifier value that
    is not a number or a list of numbers raises ConfigError naming it.
    """
    fields = dict(spec) if isinstance(spec, dict) else {"name": spec}
    name = fields.pop("name", None)
    if not isinstance(name, str) or name not in catalog:
        raise ConfigError(f"unknown {kind} '{name}'; catalog: {sorted(catalog)}")
    entry = catalog[name]
    mods = {m: fields.pop(m) for m in modifiers if m in fields}
    if fields:  # inspect.signature is slow next to a lookup, and the bounds resolve their modulus per call
        valid = list(inspect.signature(entry).parameters)[context_args:]
        unknown = sorted(set(fields) - set(valid))
        if unknown:
            raise ConfigError(f"{kind} '{name}' has no parameter {unknown}; valid: {valid + list(modifiers)}")
    for key, value in {**fields, **mods}.items():
        items = value if isinstance(value, (list, tuple)) else [value]
        if not all(isinstance(v, Real) and not isinstance(v, bool) for v in items):
            raise ConfigError(f"{kind} '{name}' parameter '{key}' must be a number or a list of numbers, got {value!r}")
    return entry, fields, mods


def generator_from_config(spec) -> GeneratorSpec:
    """A driver from a catalog spec; the modifier "shift" adds a constant."""
    if isinstance(spec, GeneratorSpec):
        return spec
    factory, params, mods = resolve_spec("generator", GENERATOR_FACTORIES, spec, ("shift",))
    gen = factory(**params)
    return shift_generator(gen, float(mods["shift"])) if "shift" in mods else gen


def basis_from_config(cfg: dict) -> RegressionBasis:
    return RegressionBasis(degree=int(cfg.get("basis_degree", 3)))
