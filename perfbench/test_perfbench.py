"""Tests of the benchmark itself: failure counting, seeded inputs, tracing.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import jumpbsde as jb  # noqa: E402
from jumpbsde.experiments import default_mc_suite  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BM_ZERO = next(inst for inst in default_mc_suite() if inst["name"] == "bm_zero")
SMALL_SERIES = {"name": "refine_small", "model": {"drift": 0.1, "sigma": 1.0, "marks": [{"x": 0.5, "lambda": 0.8}]},
                "steps": [2, 4], "driver": {"a": 0.5, "b": 0.3, "c": -0.5}}


def run_ops(ops):
    tally = run.Tally()
    seconds, work, ref_s = run.run_pass(workloads.Workload({}, ops), tracing.NullTracer(), tally)
    assert len(seconds) == len(ref_s) == len(ops)
    return tally, work


def corrupt_oracle(monkeypatch):
    real = jb.solve_backward

    def corrupted(*args, **kwargs):
        sol = real(*args, **kwargs)
        return dataclasses.replace(sol, Y=(sol.Y[0] + 1.0,) + sol.Y[1:])

    monkeypatch.setattr(jb, "solve_backward", corrupted)


@pytest.fixture
def small_lsmc(monkeypatch):
    monkeypatch.setattr(workloads, "LSMC_PATHS", 400)
    monkeypatch.setattr(workloads, "LSMC_BOOT", 8)
    return workloads._lsmc_op(BM_ZERO, seed=3, confirm_seed=4)


def test_lsmc_operation_passes_against_true_oracle(small_lsmc):
    tally, work = run_ops([small_lsmc])
    assert (tally.attempted, tally.failed, tally.correct) == (1, 0, True)
    assert work == 400 * BM_ZERO["steps"] * (3 + 2 + 8)


def test_corrupted_oracle_value_counts_as_failed(small_lsmc, monkeypatch):
    corrupt_oracle(monkeypatch)
    tally, _ = run_ops([small_lsmc])
    assert (tally.attempted, tally.failed) == (1, 1)
    # the 3-se gate is statistical: it fails the operation without declaring the output wrong
    assert tally.correct
    assert "Y0_mc - Y0_tree" in tally.failures["bm_zero"]["problems"][0]


def test_unrepeated_lsmc_miss_is_not_counted(small_lsmc, monkeypatch):
    real = jb.bootstrap_y0
    calls = []

    def miss_on_first_paths(*args, seed, **kwargs):
        # an se far too small makes the first estimate miss the 3-se gate
        est = real(*args, seed=seed, **kwargs)
        calls.append(seed)
        return dataclasses.replace(est, se=est.se * 1e-9) if seed == 3 else est

    monkeypatch.setattr(jb, "bootstrap_y0", miss_on_first_paths)
    tally, work = run_ops([small_lsmc])
    assert calls[-2:] == [3, 4]
    assert (tally.attempted, tally.failed) == (1, 0)
    assert work == 400 * BM_ZERO["steps"] * (3 + 2 + 8 + 1 + 8)


def test_corrupted_oracle_fails_exact_closed_form_check(monkeypatch):
    op = workloads._refinement_op(SMALL_SERIES)
    assert run_ops([op])[0].failed == 0
    corrupt_oracle(monkeypatch)
    tally, _ = run_ops([op])
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)


def test_raising_operation_is_counted_and_run_continues():
    def boom(tr, state):
        raise RuntimeError("boom")

    def ok(tr, state):
        return 5, workloads.Problems()

    ops = [workloads.Operation("boom", boom), workloads.Operation("ok", ok), workloads.Operation("boom2", boom)]
    tally, work = run_ops(ops)
    assert (tally.attempted, tally.failed, tally.correct) == (3, 2, False)
    assert work == 5
    assert "RuntimeError: boom" in tally.failures["boom"]["problems"][0]


def test_workload_names_agree():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.BUILDERS)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_determines_inputs(name):
    digest = workloads.inputs_digest
    assert digest(workloads.make_workload(name, 7)) == digest(workloads.make_workload(name, 7))
    assert digest(workloads.make_workload(name, 7)) != digest(workloads.make_workload(name, 8))


def test_seed_changes_values_not_sizes():
    a, b = workloads.make_workload("bihari_grid", 1), workloads.make_workload("bihari_grid", 2)
    assert len(a.operations) == len(b.operations) == 3 * workloads.BIHARI_C * workloads.BIHARI_RATES


def test_comparison_pairs_scaled_to_node_cap():
    steps = {p["name"]: p["steps"] for p in workloads.make_workload("tree_markov", 0).inputs["pairs"]}
    assert steps["zero_shift"] == 9 and steps["jump_zero_ordered_xi"] == 9
    assert steps["bm_jump_boundary"] == 5 and steps["two_marks_negative"] == 5 and steps["tanh_jump_shift"] == 3


def test_times_are_scaled_to_the_reference_speed():
    for kind, ref in speed.REF_S.items():
        assert run.scaled([1.0, 3.0], [2 * ref, 4 * ref, 2 * ref], kind) == pytest.approx([0.5, 1.5])
        assert 0.0 < speed.reference_sample(kind) < 1.0
    assert {w["reference"] for w in workloads.WORKLOADS.values()} <= set(speed.REF_S)


def test_self_time_subtracts_child_coverage():
    tr = tracing.Tracer()
    with tr.span("parent"):
        time.sleep(0.02)
        with tr.span("child"):
            time.sleep(0.03)
    totals = tr.totals_by_name()
    parent, child = totals["parent"], totals["child"]
    assert parent["self_s"] == pytest.approx(parent["total_s"] - child["total_s"], abs=1e-9)
    assert child["self_s"] == child["total_s"]


def test_memory_spans_record_peak():
    import numpy as np

    tr = tracing.Tracer(memory_spans={"alloc"})
    with tr.span("alloc"):
        np.ones(2**20)
    assert tr.totals_by_name()["alloc"]["peak_mb"] >= 8.0


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bihari_grid", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
