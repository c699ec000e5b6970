"""JSON config parsing: models, grids, drivers, bases.

A runner that takes a model and a grid reads them from two blocks, {"model":
{"drift": a, "sigma": s, "marks": [{"x":, "lambda":}]}, "grid": {"T":, "steps":}}.
Configs take finite numbers only. Drivers, terminals and moduli are picked
from their catalogs with one spec grammar (see resolve_spec). User-defined
drivers enter only through the library interface, not through configs.
"""

from __future__ import annotations

import inspect
import json
import math
from numbers import Integral, Real

from .generators import GENERATOR_FACTORIES, GeneratorSpec, shift_generator
from .levy import LevyModel, TimeGrid
from .mc import RegressionBasis


class ConfigError(ValueError):
    pass


_REQUIRED = object()


def _number(value, kind: type):
    """value as kind (float, int or bool), or None when it is not a value kind can take."""
    if kind is bool:
        return value if isinstance(value, bool) else None
    if not isinstance(value, Real) or isinstance(value, bool):
        return None
    if kind is float:
        return float(value)
    return int(value) if isinstance(value, Integral) or float(value).is_integer() else None


def config_value(cfg: dict, key: str, kind=float, default=_REQUIRED):
    """cfg[key] as kind: float, int or bool, or [float] or [int] for a list of numbers.

    An absent key, or one set to null, gives `default`; without a default it
    raises ConfigError. A value of the wrong type (a string or a bool where a
    number is wanted, a number that is not whole where an int is wanted,
    anything but true or false where a bool is wanted) raises ConfigError
    naming the key, never the bare ValueError or TypeError of float() and int().
    """
    if default is not _REQUIRED and cfg.get(key) is None:
        return default
    if key not in cfg:
        raise ConfigError(f"missing required config key {key!r}")
    value = cfg[key]
    if isinstance(kind, list):
        got = [_number(v, kind[0]) for v in value] if isinstance(value, (list, tuple)) else [None]
        want = f"a list of {'integers' if kind[0] is int else 'numbers'}"
    else:
        got = [_number(value, kind)]
        want = {int: "an integer", bool: "true or false"}.get(kind, "a number")
    if None in got:
        raise ConfigError(f"config key {key!r} must be {want}, got {value!r:.60}")
    return got if isinstance(kind, list) else got[0]


class _ConfigObject(dict):
    """A JSON object read from a config file: looking up a key it lacks raises ConfigError naming the key."""

    def __missing__(self, key):
        raise ConfigError(f"missing required config key {key!r}")


def load_config(path) -> dict:
    """Read a config file; it must hold a non-empty JSON object.

    A file that cannot be read, is not valid JSON or holds a number that is not
    finite (NaN, Infinity, or a literal beyond the float range) raises
    ConfigError naming the path. Every object in it raises ConfigError, not
    KeyError, on a missing key that a runner requires.
    """

    def finite(text: str) -> str:
        if not math.isfinite(float(text)):
            raise ConfigError(f"{path}: {text:.40} is not a finite number; configs take finite numbers only")
        return text

    try:
        with open(path) as fh:
            cfg = json.load(fh, object_hook=_ConfigObject, parse_float=lambda t: float(finite(t)),
                            parse_int=lambda t: int(finite(t)), parse_constant=finite)
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


def _check_keys(kind: str, cfg: dict, default: dict, block: str | None = None) -> None:
    """Raise ConfigError on a key that the runner's default config lacks: at the top level and,
    for block, in that object or in each object of that list, which must have that shape."""
    _reject_unknown(f"{kind} config", cfg, tuple(default))
    if block is None or not cfg.get(block):
        return
    many = isinstance(default[block], list)
    items = cfg[block] if many else [cfg[block]]
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise ConfigError(f"config key {block!r} must be {'a list of objects' if many else 'an object'}, "
                          f"got {cfg[block]!r:.60}")
    template = default[block][0] if many else default[block]
    for item in items:
        _reject_unknown(f"{kind} {block!r}", item, tuple(template))


def model_from_config(cfg: dict) -> LevyModel:
    """A model block {"drift", "sigma", "marks": [{"x", "lambda"}, ...]}; unknown keys raise ConfigError."""
    _reject_unknown("model", cfg, _MODEL_KEYS)
    for m in cfg.get("marks", ()):
        _reject_unknown("model mark", m, _MARK_KEYS)
    marks = tuple((config_value(m, "x"), config_value(m, "lambda")) for m in cfg.get("marks", ()))
    return LevyModel(drift=config_value(cfg, "drift", float, 0.0), sigma=config_value(cfg, "sigma", float, 0.0),
                     marks=marks)


def grid_from_config(cfg: dict) -> TimeGrid:
    """A grid block {"T", "steps"}; unknown keys raise ConfigError."""
    _reject_unknown("grid", cfg, _GRID_KEYS)
    return TimeGrid(horizon=config_value(cfg, "T"), steps=config_value(cfg, "steps", int))


def resolve_model_grid(cfg: dict) -> tuple[LevyModel, TimeGrid]:
    """The {"model": {...}, "grid": {...}} blocks beside the runner's own keys; a missing
    block, or a model or grid key at the top level, raises ConfigError naming the block."""
    stray = [k for k in cfg if k in _MODEL_KEYS + _GRID_KEYS]
    if stray:
        raise ConfigError(f"top-level keys {stray} belong in the 'model' block {list(_MODEL_KEYS)} "
                          f"or the 'grid' block {list(_GRID_KEYS)}")
    for block in ("model", "grid"):
        if block not in cfg:
            raise ConfigError(f"missing required config key {block!r}")
    return model_from_config(cfg["model"]), grid_from_config(cfg["grid"])


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
    return RegressionBasis(degree=config_value(cfg, "basis_degree", int, 3))
