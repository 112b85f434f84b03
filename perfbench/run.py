"""rankmix benchmark: seeded workloads, end-to-end and per-layer metrics.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload dense_cells --seed 1 --seconds 52 --trace 0

Print every end-to-end and per-layer metric, with units, for every
workload (runs each workload untraced and traced)::

    python3 perfbench/run.py --all

Each run starts a fresh worker process with BLAS and OpenMP pinned to one
thread and reads its peak RSS from the operating system. Untraced runs
also start ``SETUP_PROBES`` more fresh processes that only set up, half
before that process and half after it, for a median ``setup_s``.
``solve_s`` and ``solve_cpu_s`` are the run's measured time divided by
its timed calls (see README.md for why not the median call). With
``--trace 0`` the result holds the end-to-end metrics;
with ``--trace 1`` the per-layer ones, measured by wrapping the package's
public functions (see ``tracing.py``). Runs write their records and
spans under ``.perfbench_runs/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import mean, median

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".perfbench_runs")
REFERENCES = os.path.join(HERE, "references.json")

SETUP_PROBES = 4  # half before the run's process, half after it
RUN_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# per-layer metrics computed from array shapes or chain summaries: they
# repeat exactly, so they can explain a timing change without adding noise
COMPUTED = {
    "rankings.patterns", "data.rows", "data.dense_cells", "data.nonzero_cells",
    "data.cell_fill", "data.counts_mb", "model.design_mb", "fitting.em_iterations",
    "fitting.chains", "fitting.chains_at_cap", "fitting.chains_degenerate",
    "fitting.converged_frac", "inference.refit_chains", "inference.ridge_retries",
    "artifacts.bytes",
}

# which end-to-end metric each layer metric should move, and on which workload
LAYER_MAP = {
    "rankings.*": ("setup_s", "dense_cells"),
    "data.ingest_s, data.rows": ("solve_s", "cli_se_all"),
    "data.aggregate_s": ("setup_s", "dense_cells"),
    "data.*cells, data.cell_fill, data.counts_mb": (
        "peak_rss_mb, solve_s", "dense_cells (no change expected on cli_se_all)"),
    "model.design_*": ("peak_rss_mb, solve_s", "dense_cells"),
    "model.log_pattern_probs_*": ("solve_s", "cli_se_all (per call), dense_cells (flops)"),
    "model.loglik_*": ("solve_s", "cli_se_all"),
    "fitting.e_step_*": ("solve_s", "cli_se_all"),
    "fitting.m_step_*, structural_s, newton_trials": ("solve_s", "dense_cells"),
    "fitting.em_iterations, chains*, converged_frac, ms_per_iteration": (
        "solve_s", "cli_se_all (none expected on dense_cells)"),
    "inference.corrected_s, refit_chains, ridge_retries": ("solve_s", "cli_se_all"),
    "inference.hessian_s, score_calls, raw_s": ("solve_s", "cli_se_all"),
    "posthoc.s, artifacts.*, cli.self_s": ("solve_s", "cli_se_all"),
    "trace_overhead": ("none, reported only", "all"),
}


class BenchmarkError(RuntimeError):
    pass


def _worker(args: dict, log_prefix: str, deadline: float):
    """Run worker.py to completion; returns (record, its peak RSS in MB).

    The worker is killed, and waited for, if the run passes ``deadline``
    (a ``time.monotonic()`` value) or the wait is interrupted.
    """
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    args = dict(args, record=log_prefix + ".json")
    with open(log_prefix + ".out", "w") as out, open(log_prefix + ".err", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(args)],
            cwd=ROOT, env=env, stdout=out, stderr=err,
        )
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                raise BenchmarkError(f"run exceeded {RUN_TIMEOUT_S} s")
            time.sleep(0.05)
    finally:
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
    if proc.returncode != 0:
        with open(log_prefix + ".err") as fh:
            tail = fh.read().strip().splitlines()[-5:]
        raise BenchmarkError(
            f"worker ({args['mode']}) exited {proc.returncode}: " + " | ".join(tail)
        )
    with open(args["record"]) as fh:
        record = json.load(fh)
    os.remove(args["record"])
    return record, usage.ru_maxrss / 1024.0


def metric_units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def _fresh_dir(name: str) -> str:
    path = os.path.join(RUNS, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _worker_args(workload: str, seed: int, workdir: str, **extra):
    return dict(root=ROOT, workload=workload, seed=seed, workdir=workdir,
                setup_modules=list(workloads.WORKLOADS[workload].setup_modules),
                **extra)


def run_once(workload: str, seed: int, seconds: float, trace: bool):
    """One benchmark run. Returns (the result line's object, the run record)."""
    if not os.path.isdir(os.path.join(ROOT, "src", "rankmix")):
        raise BenchmarkError(f"no rankmix sources under {os.path.join(ROOT, 'src')}")
    reference = load_references().get(workload)
    workdir = _fresh_dir(f"{workload}-seed{seed}-trace{int(trace)}")
    base = _worker_args(workload, seed, workdir, seconds=seconds,
                        trace=trace, reference=reference)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    probes = 0 if trace else SETUP_PROBES
    setup_samples = []

    def probe(i):
        sample, _ = _worker(dict(base, mode="setup"),
                            os.path.join(workdir, f"setup{i}"), deadline)
        setup_samples.append(sample["setup_s"])

    for i in range(probes // 2):
        probe(i)
    record, rss_mb = _worker(dict(base, mode="run"), os.path.join(workdir, "run"),
                             deadline)
    setup_samples.append(record["setup_s"])
    for i in range(probes // 2, probes):
        probe(i)
    record.update(setup_samples_s=setup_samples, peak_rss_mb=rss_mb)

    attempted, failed = record["attempted"], record["failed"]
    if trace:
        layers = dict(record.pop("layers"), error_rate=failed / attempted)
        if record["loglik_drift"] is not None:
            layers["loglik_drift"] = record["loglik_drift"]
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in metric_units("per_layer").items()
                   if name in layers or name != "loglik_drift"}
        with open(os.path.join(workdir, "trace.json"), "w") as fh:
            json.dump(record.pop("trace"), fh)
    else:
        values = {
            "solve_s": mean(record["solve_s"]),
            "solve_cpu_s": mean(record["solve_cpu_s"]),
            "setup_s": median(setup_samples),
            "peak_rss_mb": rss_mb,
        }
        units = metric_units("end_to_end")
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    with open(os.path.join(workdir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def record_references(names) -> None:
    """Store each workload's outcome as its reference.

    Only for a change that is meant to change results; the references
    otherwise stay as committed.
    """
    references = load_references()
    keep = ("counts_sha256", "csv_sha256", "selected", "loglik", "coefficients")
    for workload in names:
        workdir = _fresh_dir(f"{workload}-record")
        args = _worker_args(workload, 0, workdir, seconds=0, trace=False,
                            reference=None, mode="record")
        record, _ = _worker(args, os.path.join(workdir, "record"),
                            time.monotonic() + RUN_TIMEOUT_S)
        references[workload] = {k: record[k] for k in keep if k in record}
        print(f"{workload}: selected {record['selected']}, loglik {record['loglik']}")
    with open(REFERENCES, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


def describe(record: dict) -> list[str]:
    """Lines printed before the JSON result: provenance and checks."""
    lines = [
        f"workload {record['workload']} seed {record['seed']}: "
        f"{record['attempted']} calls in "
        f"{record['measured_s']:.1f} s, {record['failed']} failed",
        "host probe s (before, after): "
        + ", ".join(f"{v:.4f}" for v in record["host_probe_s"]),
        "solve_s samples (untraced): "
        + ", ".join(f"{v:.4f}" for v in record["solve_s"]),
        "setup_s samples: " + ", ".join(f"{v:.4f}" for v in record["setup_samples_s"]),
    ]
    if record["reference_checked"]:
        lines.append(f"reference checks on {record['attempted']} calls; largest "
                     f"loglik drift {record['loglik_drift']!r}")
    else:
        lines.append("no stored reference for this workload: reference checks skipped")
    if record.get("missing_patch_points"):
        lines.append("missing patch points: " + ", ".join(record["missing_patch_points"]))
    if record.get("warmup_error"):
        lines.append(f"warm-up call failed: {record['warmup_error']}")
    lines += [f"problem: {p}" for p in record["problems"]]
    return lines


def print_all(seed: int, seconds: float) -> int:
    """Every metric of every workload, untraced then traced, as tables.

    Returns the number of failed operations.
    """
    failures = 0
    for workload in workloads.WORKLOADS:
        print(f"== {workload}")
        for trace in (False, True):
            result, record = run_once(workload, seed, seconds, trace)
            failures += result["failed"]
            for line in describe(record):
                print("  " + line)
            for name, m in result["metrics"].items():
                computed = " (computed)" if name in COMPUTED else ""
                print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}{computed}")
    print("== layer -> end-to-end metric it should move, on which workload")
    for layer, (metric, where) in LAYER_MAP.items():
        print(f"  {layer}: {metric} on {where}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced, and print all metrics")
    parser.add_argument("--seed", type=int, default=0,
                        help="permutes the respondent rows; the count table is fixed")
    parser.add_argument("--seconds", type=float, default=52.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the outcome of --workload (or of --all) as the reference")
    args = parser.parse_args(argv)
    # a terminated run still stops and waits for its worker (see _worker)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload is None and not args.all:
        parser.error("--workload or --all is required")
    try:
        if args.record_reference:
            record_references(workloads.WORKLOADS if args.all else [args.workload])
            return 0
        if args.all:
            return 1 if print_all(args.seed, args.seconds) else 0
        result, record = run_once(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in describe(record):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
