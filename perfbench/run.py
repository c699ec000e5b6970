"""jumpbsde benchmark: one workload per invocation, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: lsmc_oracle, tree_markov, tree_pathwise, bihari_grid (see
perfbench/workloads.py for what each runs and why). The program is imported
from ./src of the checkout; without it the benchmark exits with status 2.

The run repeats passes over the workload's operations until the next pass
would end after --seconds; wall_s sums each operation's median over the
passes, so a cold first pass or a slow moment of the machine counts once.
Every time is reported at a fixed reference speed: a few reference samples
of the workload's kind run before each operation, and each pass's times are
scaled by speed.REF_S[kind] over the median sample time of that pass (set-up
times likewise, inside each set-up process); see speed.py. The unscaled
times are printed and kept in the detail file.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and span-traced passes, then runs one pass with
tracemalloc on inside the spans whose peaks it reports, and prints the
per-module metrics plus the tracing overhead. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A detailed result with provenance (and spans, when tracing) is written to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("lsmc_oracle", "tree_markov", "tree_pathwise", "bihari_grid")
SETUP_REPEATS = 5
BLAS_THREADS = 1
PROBE_TIMEOUT_S = 60
# Reference samples before an operation: about 2% of its time in the previous pass.
REF_SHARE = 0.02
REF_MAX_SAMPLES = 64

# Metric names and units come from BENCHMARK.json at the checkout root.
BENCHMARK = ROOT / "BENCHMARK.json"
PEAK_SPANS = frozenset({"levy.simulate_paths", "mc.bootstrap_y0", "tree.build_tree"})
COUNTS = ("levy.path_steps", "mc.bootstrap.passes", "tree.nodes", "tree.fp_iterations", "tree.node_updates",
          "generators.check_points", "bounds.bihari_bound.calls", "bounds.bihari.out_of_domain")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cap_blas_threads() -> int:
    """Pin BLAS/OpenMP to one thread (never more than nproc); must run before numpy loads.

    The workloads are one client in one process. Their BLAS calls are small
    (n x 4 least squares, matrix-vector products over tree levels); on a
    2-core box a second BLAS thread only competes with the client, and an
    lsmc_oracle pass was slower with two threads than with one.
    """
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def provenance(seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "jumpbsde").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu_model": cpu,
        "blas_threads": blas_threads,
        "blas_threads_within_nproc": blas_threads <= nproc,
        "seed": seed,
    }


def measure_setup(workload: str, seed: int, kind: str) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh processes: (scaled to the reference speed, as measured)."""
    probe = HERE / "setup_probe.py"
    scaled, measured = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(probe), workload, str(seed), kind],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=str(ROOT),
        )
        if out.returncode != 0:
            fail(f"set-up probe failed:\n{out.stderr}")
        elapsed, factor = map(float, out.stdout.strip().splitlines()[-1].split())
        measured.append(elapsed)
        scaled.append(elapsed * factor)
    return scaled, measured


class Tally:
    """Operations attempted and failed; `correct` turns false on any exact-check
    failure or exception (statistical gates count in `failed` only)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: dict[str, dict] = {}

    def record(self, op, problems, error=None) -> None:
        self.attempted += 1
        if not problems and error is None:
            return
        self.failed += 1
        if error is not None or any(kind == "exact" for kind, _ in problems):
            self.correct = False
        row = self.failures.setdefault(op.name, {"count": 0, "known_defect": op.known_defect})
        row["count"] += 1
        row["problems"] = [msg for _, msg in problems] if error is None else [error]


def run_pass(workload, tracer, tally, prev_op_s=None, kind="python") -> tuple[list, float, list]:
    """Run every operation once, each after a few reference samples of `kind`.

    Returns (seconds per operation, work units, reference-sample seconds). The
    number of samples before an operation follows its time in `prev_op_s`,
    the previous pass (one sample in a first pass).
    """
    state: dict = {}
    work = 0.0
    op_s, ref_s = [], []
    for k, op in enumerate(workload.operations):
        samples = 1 if prev_op_s is None else round(REF_SHARE * prev_op_s[k] / speed.REF_S[kind])
        ref_s.extend(speed.reference_sample(kind) for _ in range(min(max(samples, 1), REF_MAX_SAMPLES)))
        tracer.begin_operation(tally.attempted)
        start = time.perf_counter()
        try:
            with tracer.span("op"):
                units, problems = op.run(tracer, state)
        except Exception:  # an operation that raises is counted and the pass goes on
            tally.record(op, [], error=traceback.format_exc(limit=3))
        else:
            work += units
            tally.record(op, problems)
        finally:
            op_s.append(time.perf_counter() - start)
    return op_s, work, ref_s


def scaled(op_s: list, ref_s: list, kind: str = "python") -> list:
    """A pass's operation times at the reference speed."""
    factor = speed.scale(ref_s, kind)
    return [t * factor for t in op_s]


def op_median_sum(passes: list) -> float:
    """Seconds of one pass: each operation's median over the passes, summed."""
    return sum(statistics.median(times) for times in zip(*passes))


def metric_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[section]}


def per_layer_metrics(tracer, memory, traced_passes: int, factor: float, traced_wall_s: float,
                      untraced_wall_s: float) -> dict:
    """Per-pass means from the span tracer, span times scaled by `factor` (the
    median reference-speed factor of the traced passes); peaks from the
    tracemalloc pass."""
    totals = tracer.totals_by_name()
    peaks = memory.totals_by_name()
    n = float(traced_passes)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0) * factor / n

    def total_s(name):
        return totals.get(name, {}).get("total_s", 0.0) * factor / n

    def peak(name):
        return peaks.get(name, {}).get("peak_mb", 0.0)

    def count(name):
        return tracer.counts.get(name, 0.0) / n

    units = metric_units("per_layer")
    vals = {name: self_s(name[: -len(".s")]) for name in units if name.endswith(".s")}
    vals.update({
        "bench.op_self.s": self_s("op"),
        "mc.backward_pass.s": total_s("mc.solve_mc") - total_s("levy.simulate_paths"),
        "levy.simulate_paths.peak_mb": peak("levy.simulate_paths"),
        "mc.bootstrap_y0.peak_mb": peak("mc.bootstrap_y0"),
        "tree.build_tree.peak_mb": peak("tree.build_tree"),
        "tree.array_mb": tracer.gauges.get("tree.array_mb", 0.0),
        "mc.fit_useful_ratio": (tracer.counts["mc.fit_steps"] / tracer.counts["mc.fit_attempts"]
                                if tracer.counts.get("mc.fit_attempts") else 0.0),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    })
    vals.update({name: count(name) for name in COUNTS})
    return {name: {"value": float(vals[name]), "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not BENCHMARK.is_file():
        fail(f"no {BENCHMARK.name} at {ROOT}")
    if not (SRC / "jumpbsde" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'jumpbsde'}; run from the root of a jumpbsde checkout")

    blas_threads = cap_blas_threads()
    main_setup_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import jumpbsde

    if Path(jumpbsde.__file__).resolve().parent != (SRC / "jumpbsde").resolve():
        fail(f"imported jumpbsde from {jumpbsde.__file__}, not from {SRC}")
    import tracing
    import workloads

    workload = workloads.make_workload(args.workload, args.seed)
    kind = workloads.WORKLOADS[args.workload]["reference"]
    main_setup_s = time.perf_counter() - main_setup_start
    prov = provenance(args.seed, blas_threads)
    setup_times, setup_measured = measure_setup(args.workload, args.seed, kind)

    tally = Tally()
    null = tracing.NullTracer()
    tracer = tracing.Tracer()
    untraced, traced, pass_work = [], [], []  # per pass: operation seconds at the reference speed
    raw_untraced, raw_traced, untraced_factor, traced_factor, cycles = [], [], [], [], []
    run_start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        op_s, work, ref_s = run_pass(workload, null, tally, raw_untraced[-1] if raw_untraced else None, kind)
        raw_untraced.append(op_s)
        untraced.append(scaled(op_s, ref_s, kind))
        untraced_factor.append(speed.scale(ref_s, kind))
        pass_work.append(work)
        if args.trace:
            op_s, _, ref_s = run_pass(workload, tracer, tally, raw_traced[-1] if raw_traced else None, kind)
            raw_traced.append(op_s)
            traced.append(scaled(op_s, ref_s, kind))
            traced_factor.append(speed.scale(ref_s, kind))
        cycles.append(time.perf_counter() - cycle_start)
        if time.perf_counter() - run_start + statistics.median(cycles) > args.seconds:
            break
    memory = tracing.Tracer(memory_spans=PEAK_SPANS)
    if args.trace and PEAK_SPANS & {s.name for s in tracer.spans}:
        run_pass(workload, memory, tally)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = op_median_sum(untraced)
    raw_wall_s = op_median_sum(raw_untraced)
    if args.trace:
        metrics = per_layer_metrics(tracer, memory, len(traced), statistics.median(traced_factor),
                                    op_median_sum(traced), wall_s)
    else:
        values = {
            "wall_s": wall_s,
            "work_per_s": statistics.median(pass_work) / wall_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": float(values[k]), "unit": unit} for k, unit in metric_units("end_to_end").items()}

    summary = {
        "workload": args.workload,
        "rationale": workloads.WORKLOADS[args.workload],
        "inputs_sha256": workloads.inputs_digest(workload),
        "operations_per_pass": len(workload.operations),
        "reference_kind": kind,
        "reference_s": speed.REF_S[kind],
        "untraced_pass_s": [sum(p) for p in untraced],
        "traced_pass_s": [sum(p) for p in traced],
        "untraced_pass_measured_s": [sum(p) for p in raw_untraced],
        "traced_pass_measured_s": [sum(p) for p in raw_traced],
        "untraced_pass_factor": untraced_factor,
        "traced_pass_factor": traced_factor,
        "untraced_op_measured_s": {op.name: [p[k] for p in raw_untraced] for k, op in enumerate(workload.operations)},
        "work_per_pass": pass_work,
        "measured_wall_s": raw_wall_s,
        "setup_probe_s": setup_times,
        "setup_probe_measured_s": setup_measured,
        "main_setup_s": main_setup_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted,
        "failures": tally.failures,
        "peak_rss_mb": peak_rss_mb,
    }
    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    record = {"provenance": prov, "summary": summary, "result": result,
              "notes": {"tree.array_mb": "computed from the nbytes of the tree's public arrays, not measured"}}
    if args.trace:
        record["spans"] = [s.to_dict() for s in tracer.spans]
        record["span_totals"] = tracer.totals_by_name()
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=repr))

    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)} untraced, {len(traced)} traced")
    print(f"failed_ratio {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}")
    print(f"  as measured, not scaled: wall_s = {raw_wall_s:.6g} s  "
          f"work_per_s = {statistics.median(pass_work) / raw_wall_s:.6g}  "
          f"setup_s = {statistics.median(setup_measured):.6g} s  "
          f"(median {kind} reference sample {speed.REF_S[kind] / statistics.median(untraced_factor) * 1e3:.4g} ms, "
          f"reported at {speed.REF_S[kind] * 1e3:g} ms)")
    for name, row in tally.failures.items():
        note = f"  [known: {row['known_defect']}]" if row["known_defect"] else ""
        print(f"  failed x{row['count']}: {name}: {row['problems'][0].strip().splitlines()[-1]}{note}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"detail: {out_path.relative_to(ROOT)}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
