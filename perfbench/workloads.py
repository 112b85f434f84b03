"""The benchmark workloads: inputs, set-up, the timed call, checks.

``BENCHMARK.json`` lists the two that the benchmark's runs cover,
``dense_cells`` and ``cli_se_all``; ``desk_search`` and ``paper_fit``
run only by name or with ``run.py --all`` (README.md says why).

Every call into ``rankmix`` goes through a module attribute looked up at
call time (``rankmix.fitting.fit``, not a name bound at import), so the
traced run's wrappers see the benchmark's own calls as well as the
package's internal ones.

Why each workload exists is the ``why`` line of its BENCHMARK.json entry
and the table in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field

import inputs

# ROADMAP gate: a faster kernel reproduces the log-likelihood within 1e-8.
LOGLIK_TOL = 1e-8

# one EM iteration with one Newton step: every layer runs once, cheaply
WARMUP_OPTIONS = {"max_iter": 1, "irls_max_iter": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "search", "fit" or "cli"
    sample: dict
    data_seed: int  # seed of the frozen sample
    fit_seed: int  # seed of the EM starts
    declarations: tuple  # (name, "factor" | "continuous")
    terms: tuple
    n_classes: int
    n_starts: int
    class_range: tuple = ()
    crosstab: tuple = ()
    levels: dict = field(default_factory=dict)

    @property
    def items(self) -> tuple:
        return tuple(self.sample["items"])

    @property
    def setup_modules(self) -> tuple:
        """Modules whose import counts as set-up."""
        return ("rankmix.cli",) if self.kind == "cli" else ("rankmix",)


_SIX = ("TV", "Radio", "Press", "Web", "Friends", "Edu")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_search",
            kind="search",
            sample={
                "items": ("A", "B", "C", "D"),
                "classes": [(0.55, (0.45, 0.30, 0.15, 0.10)),
                            (0.45, (0.10, 0.15, 0.30, 0.45))],
                "factors": [("g", ("a", "b"), (0.5, 0.5),
                             {"b": (0.12, 0.0, 0.0, 0.0)})],
                "n": 10000,
            },
            data_seed=5000,
            fit_seed=700,
            declarations=(("g", "factor"),),
            terms=("g",),
            n_classes=1,
            n_starts=4,
            class_range=(1, 2, 3, 4),
        ),
        Workload(
            name="paper_fit",
            kind="fit",
            sample={
                "items": _SIX,
                "classes": [(0.40, (0.35, 0.25, 0.15, 0.11, 0.08, 0.06)),
                            (0.35, (0.06, 0.08, 0.11, 0.15, 0.25, 0.35)),
                            (0.25, (0.12, 0.40, 0.06, 0.25, 0.09, 0.08))],
                "factors": [
                    ("AGE", ("15-24", "25-39", "40-54", "55+"),
                     (0.25, 0.25, 0.25, 0.25),
                     {"25-39": (0.10, 0.0, 0.0, 0.0, -0.05, 0.0),
                      "40-54": (0.20, 0.05, 0.0, 0.0, -0.10, 0.0),
                      "55+": (0.30, 0.10, 0.0, -0.05, -0.15, 0.0)}),
                    ("SEX", ("f", "m"), (0.5, 0.5),
                     {"m": (0.0, 0.15, 0.0, -0.10, 0.0, 0.0)}),
                ],
                "n": 20000,
            },
            data_seed=6000,
            fit_seed=802,
            declarations=(("AGE", "factor"), ("SEX", "factor")),
            terms=("AGE", "SEX"),
            n_classes=3,
            n_starts=2,
            levels={"AGE": ("15-24", "25-39", "40-54", "55+"), "SEX": ("f", "m")},
        ),
        Workload(
            name="cli_se_all",
            kind="cli",
            sample={
                "items": _SIX[:5],
                "classes": [(0.6, (0.35, 0.25, 0.18, 0.12, 0.10)),
                            (0.4, (0.10, 0.12, 0.18, 0.25, 0.35))],
                "factors": [
                    ("region", ("north", "east", "south", "west"),
                     (0.3, 0.25, 0.25, 0.2),
                     {"east": (0.15, 0.0, 0.0, 0.0, 0.0),
                      "south": (0.0, 0.15, 0.0, 0.0, 0.0),
                      "west": (0.0, 0.0, 0.15, 0.0, 0.0)}),
                    ("country", ("AT", "DE", "NL"), (0.3, 0.4, 0.3), {}),
                ],
                "n": 30000,
            },
            data_seed=7000,
            fit_seed=900,
            declarations=(("region", "factor"),),
            terms=("region",),
            n_classes=2,
            n_starts=4,
            crosstab=("country",),
            levels={"region": ("north", "east", "south", "west")},
        ),
        Workload(
            name="dense_cells",
            kind="fit",
            sample={
                "items": _SIX,
                "worths": (0.30, 0.22, 0.16, 0.13, 0.11, 0.08),
                "slopes": (0.40, 0.20, 0.0, -0.20, -0.10, 0.0),
                "covariate": "x",
                "n": 2000,
            },
            data_seed=8000,
            fit_seed=1000,
            declarations=(("x", "continuous"),),
            terms=("x",),
            n_classes=1,
            n_starts=1,
        ),
    )
}


def draw(workload: Workload, seed: int):
    """The workload's rows: its frozen sample, in the order ``seed`` gives.

    Returns (rank matrix, {covariate: values}).
    """
    sampler = (inputs.sample_continuous if "covariate" in workload.sample
               else inputs.sample_grouped)
    ranks, covs = sampler(workload.sample, workload.data_seed)
    return inputs.permute(ranks, covs, seed)


@dataclass
class State:
    """Everything a workload's timed call needs, built by :func:`prepare`."""

    workload: Workload
    ranks: object  # (N, J) rank vectors
    covs: dict  # covariate name -> (N,) values
    workdir: str
    rows: list | None = None  # library workloads: (ranks, covariates) pairs
    data: object = None  # set by setup()
    csv_path: str | None = None  # CLI workload
    config_path: str | None = None
    warmup_config_path: str | None = None


def prepare(workload: Workload, ranks, covs, workdir: str) -> State:
    """Benchmark-side input preparation, outside every timer.

    Library workloads get the rows as (rank vector, covariate dict)
    pairs; the CLI workload gets a CSV file and a JSON run config.
    """
    state = State(workload, ranks, covs, workdir)
    kinds = dict(workload.declarations)
    if workload.kind != "cli":
        columns = {
            name: (values.astype(str).tolist() if kinds[name] == "factor"
                   else values.tolist())
            for name, values in covs.items()
        }
        state.rows = [
            (ranks[i], {name: col[i] for name, col in columns.items()})
            for i in range(ranks.shape[0])
        ]
        return state
    state.csv_path = os.path.join(workdir, "responses.csv")
    header = [f"rank_{label.lower()}" for label in workload.items] + sorted(covs)
    with open(state.csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        cov_cols = [covs[name].astype(str).tolist() for name in sorted(covs)]
        for i, row in enumerate(ranks.tolist()):
            fh.write(",".join([str(v) for v in row] + [c[i] for c in cov_cols]) + "\n")
    config = {
        "input": state.csv_path,
        "out": os.path.join(workdir, "out"),
        "ranking_format": "ranks",
        "items": [{"label": label, "column": f"rank_{label.lower()}"}
                  for label in workload.items],
        "covariates": [{"name": name, "type": kind,
                        "levels": list(workload.levels[name])}
                       for name, kind in workload.declarations],
        "terms": list(workload.terms),
        "classes": workload.n_classes,
        "fit": {"n_starts": workload.n_starts, "seed": workload.fit_seed},
        "se_method": "all",
        "crosstab": list(workload.crosstab),
    }
    state.config_path = os.path.join(workdir, "run.json")
    with open(state.config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    warmup = dict(config, out=os.path.join(workdir, "warmup"), se_method="hessian")
    warmup["fit"] = dict(config["fit"], **WARMUP_OPTIONS)
    state.warmup_config_path = os.path.join(workdir, "warmup.json")
    with open(state.warmup_config_path, "w", encoding="utf-8") as fh:
        json.dump(warmup, fh, indent=2)
    return state


def csv_digest(path: str) -> str:
    """SHA-256 of the CSV's header and sorted data lines (row order ignored)."""
    with open(path, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    h = hashlib.sha256((header + "\n").encode())
    for line in sorted(lines):
        h.update((line + "\n").encode())
    return h.hexdigest()


def setup(state: State):
    """The timed set-up of library workloads: pattern space and aggregation."""
    import rankmix.data
    import rankmix.rankings

    w = state.workload
    space = rankmix.rankings.enumerate_transitive_patterns(len(w.items))
    decls = [rankmix.data.CovariateDecl(name, kind, w.levels.get(name))
             for name, kind in w.declarations]
    state.data = rankmix.data.aggregate(space, state.rows, decls)


def _fit_config(state: State, warmup: bool):
    import rankmix.fitting

    w = state.workload
    options = {"n_starts": w.n_starts, "seed": w.fit_seed}
    if warmup:
        options.update(WARMUP_OPTIONS)
    return rankmix.fitting.FitConfig(**options)


def call(state: State, warmup: bool = False):
    """The workload's timed top-level call. Returns what :func:`summarize` reads.

    The warm-up call runs the same entry point on the same inputs with EM
    and Newton capped at one iteration (and, for the CLI, the Hessian SEs
    only, as corrected SEs from an unconverged fit take longer than the
    real call), so every layer is loaded and exercised once before timing.
    """
    import rankmix.fitting
    import rankmix.model

    w = state.workload
    if w.kind == "cli":
        import rankmix.cli

        config = state.warmup_config_path if warmup else state.config_path
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = rankmix.cli.main(["fit", "--config", config])
        return {"exit_code": code, "stderr": err.getvalue().strip()}
    spec = rankmix.model.ModelSpec(w.items, w.terms, w.n_classes)
    config = _fit_config(state, warmup)
    if w.kind == "search":
        return rankmix.fitting.search_classes(spec, state.data, config,
                                              list(w.class_range))
    return rankmix.fitting.fit(spec, state.data, config)


def summarize(state: State, result) -> dict:
    """Deterministic outcome of one call: selected R, log-likelihoods, chains.

    Two calls on the same inputs must give equal summaries, whether traced
    or not.
    """
    w = state.workload
    if w.kind == "cli":
        if result["exit_code"] != 0:
            raise RuntimeError(
                f"rankmix fit exited {result['exit_code']}: {result['stderr']}"
            )
        path = os.path.join(state.workdir, "out", "fit.json")
        import rankmix.cli

        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = rankmix.cli.main(["report", path])
        if code != 0 or not out.getvalue().strip():
            raise RuntimeError(f"rankmix report cannot read {path}: {err.getvalue()}")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        r = doc["model"]["classes"]
        fits = {r: (doc["fit"]["loglik"], [e["name"] for e in doc["estimates"]],
                    doc["chains"])}
        selected = r
    else:
        found = result.fits if w.kind == "search" else {w.n_classes: result}
        fits = {r: (f.loglik, [c.name for c in f.design.coefficients],
                    f.chain_summaries) for r, f in found.items()}
        selected = result.best_key if w.kind == "search" else w.n_classes
    return {
        "selected": selected,
        "loglik": {str(r): ll for r, (ll, _, _) in fits.items()},
        "coefficients": {str(r): names for r, (_, names, _) in fits.items()},
        "chains": [
            [r, c["label"], c["iterations"], c["converged"], c["degenerate"]]
            for r, (_, _, chains) in fits.items() for c in chains
        ],
    }


def check(summary: dict, reference: dict | None) -> tuple[list[str], float | None]:
    """Problems found against the stored reference, and the log-likelihood drift."""
    if reference is None:
        return [], None
    problems = []
    if summary["selected"] != reference["selected"]:
        problems.append(
            f"selected {summary['selected']} classes, reference {reference['selected']}"
        )
    if summary["coefficients"] != reference["coefficients"]:
        problems.append("coefficient names or order differ from the reference")
    if set(summary["loglik"]) != set(reference["loglik"]):
        problems.append("fitted class counts differ from the reference")
        return problems, None
    drift = max(abs(summary["loglik"][r] - reference["loglik"][r])
                for r in reference["loglik"])
    if not drift <= LOGLIK_TOL:
        problems.append(f"log-likelihood drift {drift:.3g} exceeds {LOGLIK_TOL:g}")
    return problems, drift


def chain_counts(summary: dict, max_iter: int) -> dict:
    """Deterministic EM counts of the fitted chains (refits excluded)."""
    chains = summary["chains"]
    iterations = sum(c[2] for c in chains)
    at_cap = sum(1 for c in chains if not c[3] and not c[4] and c[2] >= max_iter)
    return {
        "fitting.em_iterations": iterations,
        "fitting.chains": len(chains),
        "fitting.chains_at_cap": at_cap,
        "fitting.chains_degenerate": sum(1 for c in chains if c[4]),
        "fitting.converged_frac": sum(1 for c in chains if c[3]) / max(len(chains), 1),
    }


def data_counts(state: State, info: dict) -> dict:
    """Computed sizes of the count table the package built; none is a timing.

    ``info`` is :func:`tracing.data_info` of the package's aggregated data.
    The rows and nonzero cells are cross-checked against the benchmark's
    own inputs.
    """
    model_covs = {name: state.covs[name] for name, _ in state.workload.declarations}
    expected = {"rows": int(state.ranks.shape[0]),
                "nonzero_cells": inputs.observed_cells(state.ranks, model_covs)}
    for key, value in expected.items():
        if info[key] != value:
            raise RuntimeError(f"the package's table has {info[key]} {key}, "
                               f"the inputs give {value}")
    return {
        "rankings.patterns": info["patterns"],
        "data.rows": info["rows"],
        "data.dense_cells": info["dense_cells"],
        "data.nonzero_cells": info["nonzero_cells"],
        "data.cell_fill": info["nonzero_cells"] / info["dense_cells"],
        "data.counts_mb": info["table_bytes"] / 1e6,
    }
