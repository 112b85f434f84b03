"""One benchmark process: set up one workload, warm up, time its calls.

Started by ``run.py`` in a fresh single-threaded process, with its
arguments as one JSON object in ``argv[1]``. It writes one JSON record to
the path in ``args["record"]`` and exits 0; any exception exits non-zero.

Modes:

* ``setup``: import the set-up modules, build the inputs, stop. Gives one
  ``setup_s`` sample in a fresh process.
* ``run``: set-up, a discarded warm-up call, then timed calls until the
  time budget is spent. With ``trace`` it alternates untraced and traced
  calls, so the traced calls' results can be compared with the untraced
  ones and the tracing overhead is measured in the same process.
* ``record``: set-up and one call; records the reference summary.
"""

import importlib
import json
import os
import sys
import time
from statistics import median

MIN_CALLS = 3
MIN_TRACED_CALLS = 2  # one untraced and one traced call


def host_probe() -> float:
    """Seconds for a fixed mix of interpreter and numpy work.

    Recorded beside each run to make shared-host drift visible; it never
    rescales a metric.
    """
    import numpy as np

    start = time.perf_counter()
    a = np.random.default_rng(0).random((200, 200))
    for _ in range(20):
        a = np.tanh(a @ a / 200.0)
    sum(i * i for i in range(300000))
    return time.perf_counter() - start


def main(args: dict) -> dict:
    src = os.path.join(args["root"], "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    for module in args["setup_modules"]:
        importlib.import_module(module)
    import_s = time.perf_counter() - start

    import rankmix

    where = os.path.dirname(os.path.abspath(rankmix.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise RuntimeError(f"rankmix imported from {where}, not from {src}")

    import inputs
    import tracing
    import workloads

    w = workloads.WORKLOADS[args["workload"]]
    mode, reference = args["mode"], args["reference"]
    record = {"workload": w.name, "seed": args["seed"]}
    if mode == "setup" and w.kind == "cli":  # its set-up is the import alone
        return dict(record, setup_s=import_s)
    ranks, covs = workloads.draw(w, args["seed"])
    state = workloads.prepare(w, ranks, covs, args["workdir"])
    if mode != "setup":
        record["counts_sha256"] = inputs.count_table_digest(ranks, covs)
        if state.csv_path:
            record["csv_sha256"] = workloads.csv_digest(state.csv_path)
        for key in ("counts_sha256", "csv_sha256"):
            if reference and record.get(key) != reference.get(key):
                raise RuntimeError(
                    f"{w.name}: the generated inputs no longer match the stored "
                    f"{key} ({record.get(key)} != {reference.get(key)})"
                )

    tracer = tracing.Tracer() if args["trace"] else None
    setup_spans = None
    start = time.perf_counter()
    if w.kind != "cli" and tracer:
        with tracer.patched():
            root = tracer.open("setup")
            workloads.setup(state)
            tracer.close(root)
        setup_spans = tracing.OpSpans(tracer, root)
    elif w.kind != "cli":
        workloads.setup(state)
    record["setup_s"] = import_s + time.perf_counter() - start
    if mode == "setup":
        return record
    if mode == "record":
        summary = workloads.summarize(state, workloads.call(state))
        return dict(record, **{k: summary[k] for k in ("selected", "loglik", "coefficients")})

    record["host_probe_s"] = [host_probe()]
    try:
        workloads.call(state, warmup=True)
    except Exception as exc:  # the timed calls will fail and say why
        record["warmup_error"] = f"{type(exc).__name__}: {exc}"
    calls = Calls(state, reference, tracer)
    pattern = (False, True) if tracer else (False,)
    min_calls = MIN_TRACED_CALLS if tracer else MIN_CALLS
    begin = time.perf_counter()
    rounds = 0
    while True:
        for traced in pattern:
            calls.run(traced)
        rounds += 1
        elapsed = time.perf_counter() - begin
        # stop when one more round would likely end more than half a round
        # past the budget, so that a run measures about the budget on average
        if (len(calls.ops) >= min_calls
                and elapsed * (rounds + 0.5) / rounds > args["seconds"]):
            break
    record["measured_s"] = time.perf_counter() - begin
    record["host_probe_s"].append(host_probe())

    ops = calls.ops
    untraced = [op for op in ops if not op["traced"]]
    drifts = [op["loglik_drift"] for op in ops if op.get("loglik_drift") is not None]
    record.update(
        attempted=len(ops),
        failed=sum(1 for op in ops if op["problems"]),
        problems=sorted({p for op in ops for p in op["problems"]}),
        reference_checked=reference is not None,
        loglik_drift=max(drifts) if drifts else None,
        solve_s=[op["wall_s"] for op in untraced],
        solve_cpu_s=[op["cpu_s"] for op in untraced],
        summary=calls.first,
    )
    if tracer:
        record["layers"] = layer_record(state, tracer, ops, setup_spans)
        record["trace"] = tracer.dump()
        record["missing_patch_points"] = tracer.missing
    return record


class Calls:
    """Runs and checks the timed calls of one process."""

    def __init__(self, state, reference, tracer):
        self.state = state
        self.reference = reference
        self.tracer = tracer
        self.ops = []
        self.first = None  # summary of the first call

    def run(self, traced: bool):
        import workloads

        op = {"traced": traced, "problems": []}
        self.ops.append(op)
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            if traced:
                with self.tracer.patched():
                    op["root"] = self.tracer.open("op")
                    try:
                        result = workloads.call(self.state)
                    finally:
                        self.tracer.close(op["root"])
            else:
                result = workloads.call(self.state)
        except Exception as exc:  # a failed operation is counted, not fatal
            op["problems"].append(f"{type(exc).__name__}: {exc}")
            result = None
        op["wall_s"] = time.perf_counter() - wall
        op["cpu_s"] = time.process_time() - cpu
        if result is None:
            return
        try:
            summary = workloads.summarize(self.state, result)
        except Exception as exc:  # same: an output that fails its check
            op["problems"].append(f"{type(exc).__name__}: {exc}")
            return
        problems, op["loglik_drift"] = workloads.check(summary, self.reference)
        op["problems"] += problems
        if self.first is None:
            self.first = summary
        elif summary != self.first:
            op["problems"].append(
                ("traced" if traced else "untraced")
                + " call gave other EM iterations, log-likelihoods or classes"
                " than the first call"
            )
        op["summary"] = summary


def layer_record(state, tracer, ops, setup_spans):
    """Median per-layer metrics over the traced calls, plus computed counts."""
    import rankmix.fitting
    import tracing
    import workloads

    max_iter = rankmix.fitting.FitConfig().max_iter
    traced = [op for op in ops if op["traced"] and "root" in op]
    per_op = []
    for op in traced:
        spans = tracing.OpSpans(tracer, op["root"])
        metrics = spans.layer_metrics()
        if setup_spans is not None:
            for metric in ("rankings.enumerate_s", "data.aggregate_s"):
                metrics[metric] = setup_spans.total(tracing.TIME_METRICS[metric])
        counts = workloads.chain_counts(op.get("summary") or {"chains": []}, max_iter)
        metrics.update(counts)
        iterations = counts["fitting.em_iterations"]
        metrics["fitting.ms_per_iteration"] = (
            1000.0 * spans.total({"fitting.fit"}) / iterations if iterations else 0.0
        )
        if state.data is not None:
            info = tracing.data_info(state.data)
        else:  # the CLI's table, from the data.ingest span (none if it is missing)
            info = next((i for i in spans.infos("data.ingest") if "rows" in i), None)
        if info is not None:
            metrics.update(workloads.data_counts(state, info))
        metrics["artifacts.bytes"] = (
            tracing.directory_bytes(os.path.join(state.workdir, "out"))
            if state.config_path else 0
        )
        per_op.append(metrics)
    layers = {k: median(m[k] for m in per_op) for k in per_op[0]} if per_op else {}
    untraced = [op["wall_s"] for op in ops if not op["traced"]]
    if traced and untraced:
        layers["trace_overhead"] = (
            median(op["wall_s"] for op in traced) / median(untraced) - 1.0
        )
    return layers


if __name__ == "__main__":
    arguments = json.loads(sys.argv[1])
    result = main(arguments)
    with open(arguments["record"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
