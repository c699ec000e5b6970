"""JSON config parsing: models, grids, drivers, bases.

The model/grid block is {"drift": a, "sigma": s, "marks": [{"x":, "lambda":}],
"T":, "steps":}. Drivers are picked by catalog name with optional factory
parameters and an optional additive "shift". User-defined drivers enter only
through the library interface, not through configs.
"""

from __future__ import annotations

import json

from .generators import GENERATOR_FACTORIES, GeneratorSpec, shift_generator
from .levy import LevyModel, TimeGrid
from .mc import RegressionBasis


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    """Read a config file; it must hold a non-empty JSON object."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict) or not cfg:
        raise ConfigError(f"{path}: a config must be a non-empty JSON object, got {cfg!r:.60}")
    return cfg


def model_from_config(cfg: dict) -> LevyModel:
    try:
        marks = tuple((m["x"], m["lambda"]) for m in cfg.get("marks", ()))
        return LevyModel(drift=float(cfg.get("drift", 0.0)), sigma=float(cfg.get("sigma", 0.0)), marks=marks)
    except KeyError as exc:
        raise ConfigError(f"model mark entries need 'x' and 'lambda': missing {exc}") from None


def grid_from_config(cfg: dict) -> TimeGrid:
    try:
        return TimeGrid(horizon=float(cfg["T"]), steps=int(cfg["steps"]))
    except KeyError as exc:
        raise ConfigError(f"grid config needs {exc}") from None


def resolve_model_grid(cfg: dict) -> tuple[LevyModel, TimeGrid]:
    """Accept either nested {"model": {...}, "grid": {...}} blocks or the flat
    layout {drift, sigma, marks, T, steps}."""
    model = model_from_config(cfg.get("model", cfg))
    grid = grid_from_config(cfg.get("grid", cfg))
    return model, grid


def generator_from_config(spec) -> GeneratorSpec:
    if isinstance(spec, GeneratorSpec):
        return spec
    if isinstance(spec, str):
        spec = {"name": spec}
    params = dict(spec)
    name = params.pop("name")
    shift = params.pop("shift", None)
    try:
        factory = GENERATOR_FACTORIES[name]
    except KeyError:
        raise ConfigError(f"unknown generator '{name}'; catalog: {sorted(GENERATOR_FACTORIES)}") from None
    gen = factory(**params)
    if shift is not None:
        gen = shift_generator(gen, float(shift))
    return gen


def basis_from_config(cfg: dict) -> RegressionBasis:
    return RegressionBasis(family=cfg.get("basis_family", "poly"), degree=int(cfg.get("basis_degree", 3)))
