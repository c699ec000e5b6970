import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import jumpbsde
from jumpbsde import experiments
from jumpbsde.cli import _COMMANDS, _demo_model_config, _exit_code, main, run
from jumpbsde.config import ConfigError, load_config
from jumpbsde.experiments import Case, Report


def run_cli(args):
    return main([str(a) for a in args])


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def test_simulate_writes_paths_and_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"drift": 1.0, "sigma": 0.0, "marks": [{"x": 0.5, "lambda": 0.8}]},
        "grid": {"T": 1.0, "steps": 3},
        "count": 5,
        "seed": 1,
    }))
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
    lines = (out / "paths.csv").read_text().strip().splitlines()
    assert lines[0] == "path,step,dW,dN_1"
    assert len(lines) == 1 + 5 * 3
    for line in lines[1:]:
        float(line.split(",")[2])  # a plain number, not a numpy repr
    report = read_report(out)
    assert report["cases"][0]["data"]["analytic_terminal_mean"] == pytest.approx(1.0)


def test_empty_config_is_rejected(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}")
    with pytest.raises(ConfigError, match="non-empty JSON object"):
        run_cli(["solve-lattice", "--config", cfg, "--out", tmp_path / "out"])


def test_solve_lattice_solution_table(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"drift": 0.0, "sigma": 0.0, "marks": [{"x": 1.0, "lambda": 0.7}]},
        "grid": {"T": 1.0, "steps": 4},
        "generator": "zero",
        "terminal": {"name": "jump_indicator", "mark": 0},
    }))
    out = tmp_path / "out"
    assert run_cli(["solve-lattice", "--config", cfg, "--out", out]) == 0
    with open(out / "solution.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["level", "node", "Y", "Z", "U_1"]
    assert len(rows) == 1 + sum(2**i for i in range(5))
    report = read_report(out)
    assert report["cases"][0]["data"]["y0"] == pytest.approx(1 - (1 - 0.7 / 4) ** 4, abs=1e-12)
    iterations = report["meta"]["fp_iterations"]
    assert len(iterations) == 4 and max(iterations) == report["cases"][0]["data"]["max_fixed_point_iterations"]


def test_solve_lattice_truncation_level(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"drift": 0.0, "sigma": 1.0, "marks": [{"x": 0.05, "lambda": 1.0}, {"x": 0.5, "lambda": 0.5}]},
        "grid": {"T": 1.0, "steps": 3},
        "generator": {"name": "linear_y", "k": 0.5},
        "terminal": "x",
        "truncation_level": 4,
    }))
    out = tmp_path / "out"
    assert run_cli(["solve-lattice", "--config", cfg, "--out", out]) == 0


def test_solve_mc_summary(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"drift": 0.0, "sigma": 1.0, "marks": [{"x": 0.5, "lambda": 0.2}]},
        "grid": {"T": 1.0, "steps": 4},
        "generator": "zero",
        "terminal": "x",
        "paths": 2000,
        "basis_degree": 2,
        "seed": 4,
        "bootstrap": False,
    }))
    out = tmp_path / "out"
    assert run_cli(["solve-mc", "--config", cfg, "--out", out]) == 0
    with open(out / "mc_summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "Y_mean", "Y_se", "Z_mean", "U_1_mean"]
    assert len(rows) == 1 + 4


@pytest.mark.parametrize("bootstrap", [True, False])
def test_solve_mc_writes_fixed_point_iterations_in_meta(tmp_path, bootstrap):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"drift": 0.0, "sigma": 1.0, "marks": [{"x": 0.5, "lambda": 0.2}]},
        "grid": {"T": 1.0, "steps": 3},
        "generator": {"name": "linear_driver", "a": 0.4, "b": 0.2, "c": -0.5},
        "terminal": "x",
        "paths": 500,
        "n_boot": 4,
        "bootstrap": bootstrap,
    }))
    assert run_cli(["solve-mc", "--config", cfg, "--out", tmp_path / "out"]) == 0
    fp = read_report(tmp_path / "out")["meta"]["fp_iterations"]
    assert fp["base"] == [1, 1, 1]  # linear_driver is affine in y: each step is solved in closed form
    spread = read_report(tmp_path / "out")["meta"]["bootstrap"]
    if bootstrap:
        assert fp["bootstrap_max"] == [1, 1, 1]
        assert sorted(spread) == ["max", "min", "replicates"]
        assert spread["replicates"] == 4 and spread["min"] <= spread["max"]
    else:
        assert fp["bootstrap_max"] is None and spread is None


def test_failed_verdict_outranks_unmet_preconditions():
    def report(*statuses):
        return Report("x", {}, [Case(name=f"c{k}", status=s) for k, s in enumerate(statuses)])

    assert _exit_code(report("fail", "preconditions-unmet")) == 1
    assert _exit_code(report("preconditions-unmet", "fail")) == 1
    assert _exit_code(report("pass", "preconditions-unmet")) == 2
    assert _exit_code(report("pass", "pass")) == 0


def test_compare_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "pairs": [{
            "name": "ok",
            "model": {"drift": 0.0, "sigma": 1.0, "marks": []},
            "steps": 3,
            "generator": "zero",
            "generator_prime": {"name": "zero", "shift": 0.5},
            "terminal": "x",
            "terminal_prime": "x",
        }],
    }))
    out = tmp_path / "out_good"
    assert run_cli(["compare", "--config", good, "--out", out]) == 0
    assert (out / "pairs.csv").exists()

    unmet = tmp_path / "unmet.json"
    unmet.write_text(json.dumps({
        "pairs": [{
            "name": "unmet",
            "model": {"drift": 0.0, "sigma": 1.0, "marks": []},
            "steps": 2,
            "generator": {"name": "zero", "shift": 1.0},
            "generator_prime": "zero",
            "terminal": "x",
            "terminal_prime": "x",
        }],
    }))
    assert run_cli(["compare", "--config", unmet, "--out", tmp_path / "out_unmet"]) == 2


def test_counterexample_and_truncate_study_defaults(tmp_path):
    assert run_cli(["counterexample", "--out", tmp_path / "ce"]) == 0
    assert (tmp_path / "ce" / "witnesses.csv").exists()
    assert run_cli(["truncate-study", "--out", tmp_path / "ts"]) == 0
    with open(tmp_path / "ts" / "levels.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "n" and len(rows) == 4


def test_tree_runners_write_node_counts_in_meta(tmp_path):
    # demo: BM + one mark, 8 steps (branching 4, 2 lattice axes); truncate-study: BM + two marks, 4 steps
    assert run_cli(["solve-lattice", "--out", tmp_path / "sl"]) == 0
    nodes = read_report(tmp_path / "sl")["meta"]["nodes"]
    assert nodes == {"product": sum(4**i for i in range(9)), "lattice": sum((i + 1) ** 2 for i in range(9))}
    assert run_cli(["truncate-study", "--out", tmp_path / "ts"]) == 0
    nodes = read_report(tmp_path / "ts")["meta"]["nodes"]
    assert nodes == {"product": sum(8**i for i in range(5)), "lattice": sum((i + 1) ** 3 for i in range(5))}


def test_model_block_keys_are_strict(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"drift": 0.1, "sigam": 1.0, "marks": []},
        "grid": {"T": 1.0, "steps": 2},
        "generator": "zero",
        "terminal": "x",
    }))
    assert run(["solve-lattice", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "jumpbsde solve-lattice: error: unknown model keys ['sigam']; valid: ['drift', 'sigma', 'marks']"
    ]


def test_apriori_default(tmp_path):
    assert run_cli(["apriori", "--out", tmp_path / "ap"]) == 0
    assert (tmp_path / "ap" / "instances.csv").exists()


def test_convergence_without_mc(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"drift": 0.0, "sigma": 0.0, "marks": []},
        "T": 1.0,
        "steps_list": [25, 50, 100, 200],
        "generator": {"name": "linear_y", "k": 1.0},
        "terminal": {"name": "const", "value": 1.0},
        "reference": 2.718281828459045,
        "mc": None,
    }))
    out = tmp_path / "cv"
    assert run_cli(["convergence", "--config", cfg, "--out", out]) == 0
    report = read_report(out)
    assert abs(report["cases"][0]["data"]["fitted_order"] - 1.0) <= 0.3


def test_bihari_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "c": 1.0,
        "K": {"times": [0.0, 0.5, 1.0], "values": [2.0, 1.0]},
        "rho": "identity",
        "t": 0.0,
        "T": 1.0,
    }))
    out = tmp_path / "bh"
    assert run_cli(["bihari", "--config", cfg, "--out", out]) == 0
    report = read_report(out)
    import math
    assert report["cases"][0]["data"]["bound"] == pytest.approx(math.exp(1.5), rel=1e-8)
    assert (out / "bound.csv").exists()


def test_bihari_reports_quadratures_in_meta_only(tmp_path):
    assert run_cli(["bihari", "--out", tmp_path / "bh"]) == 0
    report = read_report(tmp_path / "bh")
    assert 1 <= report["meta"]["quadratures"] <= 12
    assert 1 <= report["meta"]["newton_steps"] <= report["meta"]["quadratures"] + 1
    body = json.dumps({k: v for k, v in report.items() if k != "meta"})
    assert "quadratures" not in body and "newton_steps" not in body


def test_bihari_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c": 1.0, "K": 2.0, "rh0": "xlogx", "t": 0.0, "T": 1.0}))
    with pytest.raises(ConfigError, match=r"unknown bihari config keys \['rh0'\]; valid: \['c', 'K', 'rho', 't', 'T'\]"):
        run_cli(["bihari", "--config", cfg, "--out", tmp_path / "bh"])


def test_bihari_dict_rho_spec_writes_its_name(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c": 1.0, "K": 2.0, "rho": {"name": "xlogx"}, "t": 0.0, "T": 1.0}))
    assert run_cli(["bihari", "--config", cfg, "--out", tmp_path / "bh"]) == 0
    with open(tmp_path / "bh" / "bound.csv") as fh:
        assert list(csv.DictReader(fh))[0]["rho"] == "xlogx"


def test_console_script_reports_input_errors_in_one_line(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c": 1.0, "K": 2.0, "rho": "xlogy", "t": 0.0, "T": 1.0}))
    env = {**os.environ, "PYTHONPATH": str(Path(jumpbsde.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "jumpbsde.cli", "bihari", "--config", str(cfg), "--out",
                           str(tmp_path / "bh")], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "jumpbsde bihari: error: unknown rho 'xlogy'; catalog: ['identity', 'sqrt', 'xlogx']"
    ]


def test_bihari_scalar_rate_on_zero_length_window(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c": 1.5, "K": 2.0, "t": 1, "T": 1}))
    assert run_cli(["bihari", "--config", cfg, "--out", tmp_path / "bh"]) == 0
    data = read_report(tmp_path / "bh")["cases"][0]["data"]
    assert data["bound"] == 1.5 and data["integral_K"] == 0.0


COLD_START = """
import sys
import jumpbsde, jumpbsde.cli
from jumpbsde import PiecewiseConstantRate, bihari_bound, bootstrap_y0, build_tree, make_terminal, solve_backward, solve_mc
from jumpbsde.cli import _demo_model_config
from jumpbsde.config import generator_from_config, resolve_model_grid
from jumpbsde.experiments import default_comparison_config, run_comparison

cfg = _demo_model_config()
model, grid = resolve_model_grid(cfg)
g, xi = generator_from_config(cfg["generator"]), make_terminal(cfg["terminal"])
solve_backward(build_tree(model, grid), g, xi)
solve_mc(model, grid, g, xi, paths=500)
bootstrap_y0(model, grid, g, xi, paths=500, n_boot=4)
comparison = default_comparison_config()
assert run_comparison({**comparison, "pairs": comparison["pairs"][:1]}).passed
assert "scipy.integrate" not in sys.modules, "loaded before any quadrature"
print(repr(bihari_bound(0.3, PiecewiseConstantRate([0.0, 1.0], [1.5]), "xlogx", 0.0, 1.0).bound))
assert "scipy.integrate" in sys.modules
"""


def test_cold_start_loads_scipy_integrate_only_for_a_quadrature():
    """Trees, LSMC and the comparison suite run without importing scipy.integrate;
    the first Bihari bound imports it and gives the same value as this process."""
    env = {**os.environ, "PYTHONPATH": str(Path(jumpbsde.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = jumpbsde.bihari_bound(0.3, jumpbsde.PiecewiseConstantRate([0.0, 1.0], [1.5]), "xlogx", 0.0, 1.0).bound
    assert proc.stdout == f"{want!r}\n"


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """command -> the directory of its default run, made once per module on first use."""
    runs = {}

    def get(command):
        if command not in runs:
            runs[command] = tmp_path_factory.mktemp(command)
            assert run_cli([command, "--out", runs[command]]) == 0
        return runs[command]

    return get


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_reports_byte_identical_modulo_meta(tmp_path, default_run, command):
    out1, out2 = default_run(command), tmp_path / "b"
    assert run_cli([command, "--out", out2]) == 0
    r1, r2 = read_report(out1), read_report(out2)
    meta = r1.pop("meta")
    assert meta["runtime_seconds"] > 0 and meta["peak_rss_mb"] > 0
    r2.pop("meta")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    tables = sorted(f.name for f in out1.glob("*.csv"))
    assert tables and tables == sorted(f.name for f in out2.glob("*.csv"))
    for name in tables:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


DIGESTS = Path(__file__).with_name("default_digests.json")
TREE_COMMANDS = ("solve-lattice", "compare", "counterexample", "truncate-study", "apriori")
# The CPU features an OpenBLAS kernel needs, by OPENBLAS_CORETYPE name, as numpy reports them.
KERNEL_FEATURES = {"SkylakeX": ("AVX512_SKX",), "Haswell": ("AVX2", "FMA3"), "Prescott": ("SSE3",)}


def numpy_cpu():
    """numpy's (__cpu_features__, __cpu_dispatch__)."""
    umath = np._core._multiarray_umath if hasattr(np, "_core") else np.core._multiarray_umath
    return umath.__cpu_features__, umath.__cpu_dispatch__


def openblas_core():
    """The kernel OpenBLAS runs, from the OpenBLAS library mapped into this process, or None."""
    try:
        libs = sorted({line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                       if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return None
    for path in libs:
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            fn = getattr(ctypes.CDLL(path), name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def numeric_platform() -> dict:
    """Where digests are computed: the OpenBLAS kernel, the numpy SIMD targets in use and the versions."""
    features, dispatch = numpy_cpu()
    return {"openblas_core": openblas_core(), "numpy_cpu_dispatch": [t for t in dispatch if features.get(t)],
            "numpy": np.__version__, "scipy": scipy.__version__, "python": platform.python_version()}


def default_output_digests(out_dir) -> dict:
    """sha256 of report.json without meta, as Report.to_json writes it, and of every CSV in out_dir."""
    report = read_report(out_dir)
    report.pop("meta")
    files = {"report.json": (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()}
    files.update({f.name: f.read_bytes() for f in sorted(out_dir.glob("*.csv"))})
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_default_outputs_match_committed_digests(default_run, command):
    # default_digests.json pins every default output; rewrite it only with a change meant to alter results
    recorded = json.loads(DIGESTS.read_text())
    want = recorded[command]
    got = default_output_digests(default_run(command))
    assert sorted(got) == sorted(want), f"{command}: output files {sorted(got)}, digests for {sorted(want)}"
    for name, digest in want.items():
        assert got[name] == digest, (f"{command}: {name} differs from its digest in {DIGESTS.name}; the digests "
                                     f"were written on {recorded.get('platform')}, this run is on {numeric_platform()}")


def test_digests_record_their_platform():
    recorded = json.loads(DIGESTS.read_text())
    assert sorted(recorded) == sorted(["platform", *_COMMANDS])
    assert sorted(recorded["platform"]) == sorted(numeric_platform())


RUN_TREE_COMMANDS = """
import sys
from jumpbsde.cli import main
sys.path.insert(0, sys.argv[1])
from test_cli import openblas_core
print(openblas_core())
for command in sys.argv[3:]:
    if main([command, "--out", f"{sys.argv[2]}/{command}"]) != 0:
        sys.exit(f"{command} failed")
"""


def test_tree_subcommands_give_the_same_bytes_under_every_openblas_kernel(tmp_path):
    """The tree oracle sums in a fixed order and uses no BLAS, so its default outputs do not depend
    on the OpenBLAS kernel; each kernel the CPU can run is forced through OPENBLAS_CORETYPE."""
    if openblas_core() is None:
        pytest.skip("numpy does not run on OpenBLAS here")
    features, _ = numpy_cpu()
    kernels = [k for k, need in KERNEL_FEATURES.items() if all(features.get(f) for f in need)]
    env = {**os.environ, "PYTHONPATH": str(Path(jumpbsde.__file__).parents[1])}
    runs, cores = {}, {}
    for kernel in kernels:
        out = tmp_path / kernel
        proc = subprocess.run([sys.executable, "-c", RUN_TREE_COMMANDS, str(Path(__file__).parent), str(out),
                               *TREE_COMMANDS], capture_output=True, text=True, timeout=300,
                              env={**env, "OPENBLAS_CORETYPE": kernel})
        assert proc.returncode == 0, (kernel, proc.stderr)
        cores[kernel] = proc.stdout.splitlines()[0]
        runs[kernel] = {c: default_output_digests(out / c) for c in TREE_COMMANDS}
    assert len(set(cores.values())) == len(kernels), f"a kernel was not forced: {cores}"
    assert len({json.dumps(r, sort_keys=True) for r in runs.values()}) == 1, (cores, runs)


def test_usage_error_exits_3_with_argparse_message(capsys):
    assert run(["bih"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: jumpbsde") and "invalid choice: 'bih'" in err
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("kind", ["missing", "directory", "invalid_json"])
def test_unreadable_config_is_one_line_and_exit_3(tmp_path, capsys, kind):
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "invalid_json":
        path.write_text('{\n  "c": 1.0,\n  "K": \n')
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        load_config(path)
    assert run(["bihari", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    expected = {
        "missing": "cannot read the config: No such file or directory",
        "directory": "cannot read the config: Is a directory",
        "invalid_json": "invalid JSON at line 4 column 1: Expecting value",
    }[kind]
    assert line == f"jumpbsde bihari: error: {path}: {expected}"


BIHARI_CONFIG = {"c": 1.0, "K": 2.0, "rho": "identity", "t": 0.0, "T": 1.0}
NO_REFERENCE = {k: v for k, v in experiments.default_convergence_config().items() if k != "reference"}
REQUIRED_KEY_CASES = [
    pytest.param("compare", experiments.default_comparison_config(), "pairs", None, id="compare"),
    pytest.param("compare", experiments.default_comparison_config(), "pairs", [], id="compare-empty"),
    pytest.param("apriori", experiments.default_apriori_config(), "instances", None, id="apriori"),
    pytest.param("apriori", experiments.default_apriori_config(), "instances", [], id="apriori-empty"),
    pytest.param("convergence", experiments.default_convergence_config(), "steps_list", None, id="convergence"),
    pytest.param("convergence", NO_REFERENCE, "steps_list", [], id="convergence-empty"),
    pytest.param("solve-mc", {**_demo_model_config(), "paths": 1000}, "paths", None, id="solve-mc"),
    pytest.param("solve-lattice", _demo_model_config(), "generator", None, id="solve-lattice"),
    pytest.param("solve-lattice", _demo_model_config(), "model", None, id="solve-lattice-model"),
    pytest.param("solve-lattice", _demo_model_config(), "grid", None, id="solve-lattice-grid"),
    pytest.param("truncate-study", experiments.default_truncation_config(), "levels", None, id="truncate-study"),
    pytest.param("truncate-study", experiments.default_truncation_config(), "levels", [], id="truncate-study-empty"),
    pytest.param("bihari", BIHARI_CONFIG, "K", None, id="bihari"),
]


@pytest.mark.parametrize("command, cfg, key, value", REQUIRED_KEY_CASES)
def test_missing_required_key_is_one_line_and_exit_3(tmp_path, capsys, command, cfg, key, value):
    # value None drops the key; any other value replaces it with one the runner cannot use
    cfg = {k: v for k, v in cfg.items() if k != key} | ({} if value is None else {key: value})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"jumpbsde {command}: error: ") and f"'{key}'" in line


@pytest.mark.parametrize("cfg, keys", [
    pytest.param({"sigam": 1.0, "drift": 0.1, "T": 1, "steps": 4, "generator": "zero", "terminal": "x"},
                 ["drift", "T", "steps"], id="flat-typo"),
    pytest.param({**_demo_model_config(), "T": 2.0}, ["T"], id="stray-T"),
])
def test_top_level_model_or_grid_key_is_one_line_and_exit_3(tmp_path, capsys, cfg, keys):
    # the flat layout used to run {"sigam": 1.0, ...} with sigma = 0 and exit 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["solve-lattice", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"jumpbsde solve-lattice: error: top-level keys {keys} belong in the 'model' block "
        "['drift', 'sigma', 'marks'] or the 'grid' block ['T', 'steps']"
    ]


DEMO = _demo_model_config()
NON_FINITE_CASES = [
    pytest.param("simulate", json.dumps({**DEMO, "model": {**DEMO["model"], "sigma": math.nan}}), "NaN",
                 id="simulate-sigma"),
    pytest.param("solve-lattice", json.dumps({**DEMO, "grid": {"T": math.nan, "steps": 4}}), "NaN",
                 id="solve-lattice-T"),
    pytest.param("bihari", json.dumps({**BIHARI_CONFIG, "K": math.inf}), "Infinity", id="bihari-K"),
    pytest.param("bihari", json.dumps(BIHARI_CONFIG).replace('"c": 1.0', '"c": 1e400'), "1e400",
                 id="float-overflow"),
    pytest.param("solve-lattice", json.dumps(DEMO).replace('"T": 1.0', '"T": 1' + "0" * 400), "1" + "0" * 39,
                 id="int-overflow"),
]


@pytest.mark.parametrize("command, text, constant", NON_FINITE_CASES)
def test_non_finite_number_is_one_line_and_exit_3(tmp_path, capsys, command, text, constant):
    # these used to write NaN or Infinity into report.json, which is not JSON, or die in the fixed point
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert run([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"jumpbsde {command}: error: {path}: {constant} is not a finite number; configs take finite numbers only"
    ]
    assert not (tmp_path / "out").exists()


MC_CONFIG = {**_demo_model_config(), "paths": 1000}
WRONG_TYPE_CASES = [
    pytest.param("bihari", {**BIHARI_CONFIG, "t": "zero"}, "t", "zero", "a number", id="t"),
    pytest.param("bihari", {**BIHARI_CONFIG, "c": [1.0]}, "c", [1.0], "a number", id="c"),
    pytest.param("truncate-study", {**experiments.default_truncation_config(), "levels": ["a"]}, "levels", ["a"],
                 "a list of integers", id="levels"),
    pytest.param("solve-lattice", {**_demo_model_config(), "grid": {"T": 1.0, "steps": 2.5}}, "steps", 2.5,
                 "an integer", id="steps"),
    pytest.param("solve-mc", {**MC_CONFIG, "paths": "many"}, "paths", "many", "an integer", id="paths"),
    pytest.param("solve-mc", {**MC_CONFIG, "seed": True}, "seed", True, "an integer", id="seed"),
    pytest.param("solve-mc", {**MC_CONFIG, "n_boot": 2.5}, "n_boot", 2.5, "an integer", id="n_boot"),
    pytest.param("solve-lattice", {**_demo_model_config(), "fixed_point_tol": "tight"}, "fixed_point_tol", "tight",
                 "a number", id="fixed_point_tol"),
    pytest.param("compare", {**experiments.default_comparison_config(), "horizon": "1"}, "horizon", "1",
                 "a number", id="horizon"),
    pytest.param("compare", {**experiments.default_comparison_config(), "pairs": ["zero_shift"]}, "pairs",
                 ["zero_shift"], "a list of objects", id="pairs"),
    pytest.param("apriori", {**experiments.default_apriori_config(), "instances": [3]}, "instances", [3],
                 "a list of objects", id="instances"),
    pytest.param("convergence", {**experiments.default_convergence_config(), "mc": [1]}, "mc", [1], "an object",
                 id="mc"),
]


@pytest.mark.parametrize("command, cfg, key, value, want", WRONG_TYPE_CASES)
def test_config_value_of_wrong_type_is_one_line_and_exit_3(tmp_path, capsys, command, cfg, key, value, want):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"jumpbsde {command}: error: config key '{key}' must be {want}, got {value!r}"


def test_check_counts_in_meta_only(tmp_path):
    assert run_cli(["apriori", "--out", tmp_path / "ap"]) == 0
    report = read_report(tmp_path / "ap")
    checks = report["meta"]["checks"]
    # 10 instances, growth and monotonicity each, 303 sampled times of 8 points
    assert (checks["calls"], checks["points"]) == (20, 20 * 303 * 8) and checks["seconds"] > 0
    assert '"checks"' not in json.dumps({k: v for k, v in report.items() if k != "meta"})
    assert run_cli(["counterexample", "--out", tmp_path / "ce"]) == 0
    assert read_report(tmp_path / "ce")["meta"]["checks"]["calls"] == 2  # the two jump-ordering checks


@pytest.mark.parametrize("n_boot", [0, 1])
@pytest.mark.parametrize("command", ["solve-mc", "convergence"])
def test_bootstrap_of_fewer_than_two_resamples_is_one_line_and_exit_3(tmp_path, capsys, command, n_boot):
    if command == "solve-mc":
        cfg = {**MC_CONFIG, "n_boot": n_boot}
    else:
        default = experiments.default_convergence_config()
        cfg = {**default, "steps_list": [4, 8], "mc": {**default["mc"], "paths": 1000, "n_boot": n_boot}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"jumpbsde {command}: error: n_boot must be at least 2 for a bootstrap standard error, got {n_boot}"
    assert not (tmp_path / "out" / "report.json").exists()


INPUT_ERROR_CASES = [
    pytest.param({**DEMO, "fixed_point_tol": 0}, "fixed-point tolerance must be positive, got 0.0", id="tol-zero"),
    pytest.param({**DEMO, "generator": {"name": "linear_driver", "c": [1, 2]}},
                 "driver has 2 jump coefficients, model has 1 marks", id="c-per-mark"),
    pytest.param({**DEMO, "terminal": {"name": "jump_indicator", "mark": 3}}, "mark index 3 out of range for 1 marks",
                 id="mark-range"),
    pytest.param({**DEMO, "terminal": {"name": "jump_indicator", "mark": 0.7}},
                 "terminal 'jump_indicator' parameter 'mark' must be a whole number, got 0.7", id="mark-fraction"),
    pytest.param({**DEMO, "terminal": {"name": "jump_indicator", "min_count": 1.5}},
                 "terminal 'jump_indicator' parameter 'min_count' must be a whole number, got 1.5",
                 id="min-count-fraction"),
    pytest.param({"model": {"drift": 0.0, "sigma": 1.0}, "grid": {"T": 1.0, "steps": 1},
                  "generator": {"name": "linear_y", "k": 5.0}, "terminal": {"name": "const", "value": 1.0}},
                 "implicit step has no unique solution at step 0: 1 - dt*slope = -4 <= 0", id="one-step-unsolvable"),
]


@pytest.mark.parametrize("cfg, message", INPUT_ERROR_CASES)
def test_invalid_solver_input_is_one_line_and_exit_3(tmp_path, capsys, cfg, message):
    # these used to exit 1 with a traceback, or (a fractional mark) silently read mark 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["solve-lattice", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines() == [f"jumpbsde solve-lattice: error: {message}"]
    assert not (tmp_path / "out").exists()


def _with_stray(cfg: dict, block: str | None, key: str) -> dict:
    """cfg with key added at the top level (block None), to the first entry of a list block, or to an object block."""
    cfg = json.loads(json.dumps(cfg))
    if block is None:
        cfg[key] = 1.0
    else:
        target = cfg[block][0] if isinstance(cfg[block], list) else cfg[block]
        target[key] = 1.0
    return cfg


UNKNOWN_KEY_CASES = [
    pytest.param("compare", experiments.default_comparison_config(), None, "comparison_tol",
                 "comparison config", id="compare"),
    pytest.param("compare", experiments.default_comparison_config(), "pairs", "T", "comparison 'pairs'",
                 id="compare-pair"),
    pytest.param("counterexample", experiments.default_counterexample_config(), None, "tol", "counterexample config",
                 id="counterexample"),
    pytest.param("truncate-study", experiments.default_truncation_config(), None, "level", "truncate-study config",
                 id="truncate-study"),
    pytest.param("apriori", experiments.default_apriori_config(), None, "stray", "apriori config", id="apriori"),
    pytest.param("apriori", experiments.default_apriori_config(), "instances", "tol", "apriori 'instances'",
                 id="apriori-instance"),
    pytest.param("convergence", experiments.default_convergence_config(), None, "horizon", "convergence config",
                 id="convergence"),
    pytest.param("convergence", experiments.default_convergence_config(), "mc", "T", "convergence 'mc'",
                 id="convergence-mc"),
]


@pytest.mark.parametrize("command, cfg, block, key, kind", UNKNOWN_KEY_CASES)
def test_runner_config_with_unknown_key_is_one_line_and_exit_3(tmp_path, capsys, command, cfg, block, key, kind):
    # a key the runner does not read used to run silently with the default in its place
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_with_stray(cfg, block, key)))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"jumpbsde {command}: error: unknown {kind} keys ['{key}']; valid: ")
    assert not (tmp_path / "out").exists()
