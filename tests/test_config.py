import re
import types
from pathlib import Path

import pytest

from jumpbsde.bounds import get_rho, rho_catalog
from jumpbsde.config import (ConfigError, config_value, generator_from_config, grid_from_config, model_from_config,
                             resolve_model_grid)
from jumpbsde.generators import GENERATOR_FACTORIES, GeneratorSpec, RhoFunction
from jumpbsde.terminals import TERMINAL_CATALOG, make_terminal

README = Path(__file__).resolve().parents[1] / "README.md"

# README catalog row -> (error-text kind, catalog, public resolver, result type)
CATALOGS = {
    "driver": ("generator", GENERATOR_FACTORIES, generator_from_config, GeneratorSpec),
    "terminal": ("terminal", TERMINAL_CATALOG, make_terminal, types.FunctionType),
    "modulus": ("rho", rho_catalog(), get_rho, RhoFunction),
}


def readme_catalogs() -> dict:
    """{row: ({entry: [parameters]}, [modifiers])} from README's catalog table."""
    rows = {}
    for line in README.read_text().splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 3 and cells[0] in CATALOGS:
            entries = {m[0]: re.findall(r"\w+", m[1]) for m in re.findall(r"`(\w+)(?:\(([^)]*)\))?`", cells[2])}
            rows[cells[0]] = (entries, re.findall(r"`(\w+)`", cells[1]))
    return rows


def test_readme_lists_every_catalog_entry():
    rows = readme_catalogs()
    assert sorted(rows) == sorted(CATALOGS)
    for row, (_, catalog, _, _) in CATALOGS.items():
        assert sorted(rows[row][0]) == sorted(catalog), row


@pytest.mark.parametrize("row, name", [(row, name) for row, (_, catalog, _, _) in CATALOGS.items() for name in catalog])
def test_catalog_entry_resolves_and_bad_specs_name_the_choices(row, name):
    kind, catalog, resolve, result_type = CATALOGS[row]
    assert isinstance(resolve(name), result_type)
    assert isinstance(resolve({"name": name}), result_type)
    entries, modifiers = readme_catalogs()[row]
    valid = entries[name] + modifiers
    with pytest.raises(ConfigError, match=re.escape(f"{kind} '{name}' has no parameter ['bogus']; valid: {valid}")):
        resolve({"name": name, "bogus": 1})
    listing = re.escape(f"catalog: {sorted(catalog)}")
    with pytest.raises(ConfigError, match=listing):
        resolve({"nmae": name})
    with pytest.raises(ConfigError, match=f"unknown {kind} '{name}x'; {listing}"):
        resolve(name + "x")


# The moduli take no parameters, so only the driver and terminal catalogs have values to check.
@pytest.mark.parametrize("row, spec, key", [
    ("driver", {"name": "linear_y", "k": "abc"}, "k"),
    ("driver", {"name": "linear_driver", "c": [0.5, "abc"]}, "c"),
    ("driver", {"name": "zero", "shift": None}, "shift"),
    ("terminal", {"name": "x", "scale": "abc"}, "scale"),
    ("terminal", {"name": "clip_x", "lo": True}, "lo"),
])
def test_parameter_values_must_be_numbers(row, spec, key):
    kind, _, resolve, _ = CATALOGS[row]
    message = f"{kind} '{spec['name']}' parameter '{key}' must be a number or a list of numbers, got {spec[key]!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        resolve(spec)
    assert resolve({**spec, key: [1.0, 2] if key == "c" else 1})


@pytest.mark.parametrize("block, message", [
    ({"drift": 0.1, "sigam": 1.0, "marks": [{"x": 0.5, "lambda": 0.8}]},
     "unknown model keys ['sigam']; valid: ['drift', 'sigma', 'marks']"),
    ({"drift": 0.1, "sigma": 1.0, "marks": [{"x": 0.5, "lambda": 0.8, "lamda": 4}]},
     "unknown model mark keys ['lamda']; valid: ['x', 'lambda']"),
])
def test_model_blocks_reject_unknown_keys(block, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        model_from_config(block)
    with pytest.raises(ConfigError, match=re.escape(message)):
        resolve_model_grid({"model": block, "grid": {"T": 1.0, "steps": 2}})


def test_flat_layout_is_rejected():
    # the flat layout used to read a mistyped {"sigam": 1.0} as sigma = 0
    flat = {"drift": 0.1, "sigam": 1.0, "T": 2.0, "steps": 4, "generator": "zero", "terminal": "x"}
    message = ("top-level keys ['drift', 'T', 'steps'] belong in the 'model' block ['drift', 'sigma', 'marks'] "
               "or the 'grid' block ['T', 'steps']")
    with pytest.raises(ConfigError, match=re.escape(message)):
        resolve_model_grid(flat)
    nested = {"model": {"sigma": 1.0}, "grid": {"T": 2.0, "steps": 4}}
    with pytest.raises(ConfigError, match=re.escape("top-level keys ['T'] belong in the 'model' block")):
        resolve_model_grid({**nested, "T": 1.0})
    for block in nested:
        with pytest.raises(ConfigError, match=f"missing required config key '{block}'"):
            resolve_model_grid({k: v for k, v in nested.items() if k != block})
    model, grid = resolve_model_grid({**nested, "generator": "zero", "terminal": "x"})
    assert (model.sigma, grid.horizon, grid.steps) == (1.0, 2.0, 4)


def test_nested_grid_block_rejects_unknown_keys():
    message = "unknown grid keys ['step']; valid: ['T', 'steps']"
    with pytest.raises(ConfigError, match=re.escape(message)):
        grid_from_config({"T": 1.0, "step": 4})
    with pytest.raises(ConfigError, match=re.escape(message)):
        resolve_model_grid({"model": {"sigma": 1.0}, "grid": {"T": 1.0, "steps": 4, "step": 4}})


def test_config_value_reads_numbers_only():
    cfg = {"steps": 8.0, "tol": 1, "levels": [1, 4.0], "reference": None}
    assert config_value(cfg, "steps", int) == 8 and type(config_value(cfg, "steps", int)) is int
    assert config_value(cfg, "tol") == 1.0 and type(config_value(cfg, "tol")) is float
    assert config_value(cfg, "levels", [int]) == [1, 4]
    assert config_value(cfg, "reference", float, None) is None  # null reads as absent where a default exists
    assert config_value(cfg, "seed", int, 0) == 0
    for value, kind, want in [("8", float, "a number"), (True, float, "a number"), (0.5, int, "an integer"),
                              ([1], int, "an integer"), (8, [int], "a list of integers")]:
        with pytest.raises(ConfigError, match=re.escape(f"config key 'k' must be {want}, got {value!r}")):
            config_value({"k": value}, "k", kind)
    with pytest.raises(ConfigError, match="missing required config key 'paths'"):
        config_value(cfg, "paths", int)
