"""Command-line front end: fit, search, simulate, report.

A run is described by a JSON config (items, covariates, model terms, fit
options); flags override config values. Exit codes: 0 success, 1 input or
estimation error (single "error:" line on stderr), 2 fit did not converge
(artifacts are still written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields as dataclass_fields

import numpy as np

from . import artifacts, posthoc
from .artifacts import ArtifactError
from .data import CovariateDecl, DataError, RankingValidationError, read_ranking_csv
from .fitting import (
    FitConfig,
    FitError,
    FitResult,
    compare_term_models,
    fit as fit_model,
    search_classes,
)
from .inference import standard_error_report
from .model import ModelSpec
from .rankings import MAX_ITEMS_DEFAULT, CapacityError, enumerate_transitive_patterns
from .simulate import (
    ClassTruth,
    CovariateTruth,
    SyntheticTruth,
    generate_rows,
    worth_map,
)

_USER_ERRORS = (
    DataError,
    RankingValidationError,
    CapacityError,
    ArtifactError,
    FitError,
    ValueError,
    OSError,
    KeyError,
)


def _load_config(path) -> dict:
    if path is None:
        raise DataError("a --config file is required for this command")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}")


def _fit_config(cfg: dict, args) -> FitConfig:
    options = dict(cfg.get("fit", {}))
    known = {f.name for f in dataclass_fields(FitConfig)}
    unknown = set(options) - known
    if unknown:
        raise DataError(f"unknown fit options: {sorted(unknown)}")
    if args.seed is not None:
        options["seed"] = args.seed
    if getattr(args, "starts", None) is not None:
        options["n_starts"] = args.starts
    if getattr(args, "tol", None) is not None:
        options["tol"] = args.tol
    if getattr(args, "max_iter", None) is not None:
        options["max_iter"] = args.max_iter
    if getattr(args, "count_masses", False):
        options["count_masses"] = True
    if cfg.get("count_masses"):
        options["count_masses"] = True
    return FitConfig(**options)


def _item_columns(cfg: dict):
    items = cfg.get("items")
    if not items or len(items) < 2:
        raise DataError("config must declare at least two item columns")
    labels, columns = [], []
    for entry in items:
        if isinstance(entry, str):
            labels.append(entry)
            columns.append(entry)
        else:
            labels.append(entry["label"])
            columns.append(entry.get("column", entry["label"]))
    return tuple(labels), tuple(columns)


def _covariates(cfg: dict):
    decls, columns = [], {}
    for entry in cfg.get("covariates", []):
        decl = CovariateDecl(
            name=entry["name"],
            kind=entry.get("type", "factor"),
            levels=tuple(entry["levels"]) if entry.get("levels") else None,
        )
        decls.append(decl)
        columns[decl.name] = entry.get("column", decl.name)
    return tuple(decls), columns


def _ingest(cfg: dict, args):
    input_path = args.input or cfg.get("input")
    if not input_path:
        raise DataError("no input CSV given (config 'input' or --input)")
    labels, columns = _item_columns(cfg)
    decls, cov_columns = _covariates(cfg)
    space = enumerate_transitive_patterns(
        len(labels), max_items=int(cfg.get("max_items", MAX_ITEMS_DEFAULT))
    )
    ingest = read_ranking_csv(
        input_path,
        space,
        columns,
        decls,
        covariate_columns=cov_columns,
        ranking_format=cfg.get("ranking_format", "ranks"),
        extra_columns=tuple(cfg.get("crosstab", [])),
    )
    return labels, ingest


def _se_methods(cfg: dict, args):
    method = args.se_method or cfg.get("se_method", "raw")
    if method == "none":
        return ()
    if method not in ("raw", "corrected", "hessian", "all"):
        raise DataError(f"unknown se method {method!r}")
    return (method,)


def _out_dir(cfg: dict, args) -> str:
    out = args.out or cfg.get("out")
    if not out:
        raise DataError("no output directory given (config 'out' or --out)")
    os.makedirs(out, exist_ok=True)
    return out


def _write_fit_outputs(
    outdir: str,
    result: FitResult,
    data,
    config: FitConfig,
    se_methods,
    extra_columns: dict,
    continuity: bool,
    search_rows=None,
):
    se_report = None
    se_rows = None
    if se_methods:
        se_report = standard_error_report(result, data, methods=se_methods,
                                          config=config)
        se_rows = artifacts.se_report_rows(se_report)
    shares = posthoc.class_summary(result, data, se_report=se_report)
    worth_rows = posthoc.worth_table(result, data)
    doc = artifacts.fit_document(
        result, data, config,
        worth_rows=worth_rows,
        class_shares=shares,
        se_rows=se_rows,
        search_rows=search_rows,
    )
    artifacts.write_json(os.path.join(outdir, "fit.json"), doc)

    factor_names = [d.name for d in data.declarations if d.kind == "factor"]
    cont_names = [d.name for d in data.declarations if d.kind == "continuous"]
    cov_names = factor_names + cont_names
    artifacts.write_csv(
        os.path.join(outdir, "worths.csv"),
        ["class", "set"] + cov_names + ["item", "worth"],
        [
            [row["class"], row["set"]]
            + [row[name] for name in cov_names]
            + [row["item"], f"{row['worth']:.10g}"]
            for row in worth_rows
        ],
    )
    if se_rows is not None:
        def cell(v):
            return "" if v is None else f"{v:.10g}"
        artifacts.write_csv(
            os.path.join(outdir, "se.csv"),
            ["term", "estimate", "se_raw", "se_corrected", "se_hessian", "lr_drop"],
            [
                [r["name"], f"{r['estimate']:.10g}", cell(r["se_raw"]),
                 cell(r["se_corrected"]), cell(r["se_hessian"]), cell(r["lr_drop"])]
                for r in se_rows
            ],
        )
    assignments = posthoc.assign_classes(result, data)
    artifacts.write_csv(
        os.path.join(outdir, "classes.csv"),
        ["respondent", "set", "pattern", "assigned_class", "posterior"],
        [
            [i + 1, int(assignments.set_index[i]), int(assignments.pattern_index[i]),
             int(assignments.assigned[i]), f"{assignments.posterior[i]:.10g}"]
            for i in range(assignments.assigned.size)
        ],
    )

    names = list(extra_columns)
    for name in names:
        suffix = "" if len(names) == 1 else f"_{name}"
        expected = posthoc.crosstab(result, data, extra_columns[name],
                                    mode="expected")
        artifacts.write_csv(
            os.path.join(outdir, f"crosstab{suffix}.csv"),
            ["category"] + [f"class_{r + 1}" for r in range(result.spec.n_classes)],
            [
                [lab] + [f"{v:.10g}" for v in expected.table[i]]
                for i, lab in enumerate(expected.row_labels)
            ],
        )
        hard = posthoc.crosstab(result, data, extra_columns[name], mode="hard")
        rows = []
        R = result.spec.n_classes
        for cls in range(R - 1):
            for i in range(1, len(hard.row_labels)):
                try:
                    value = posthoc.log_odds_ratio(
                        hard, cls, R - 1, i, 0, continuity=continuity
                    )
                    rows.append(
                        [name, hard.row_labels[i], hard.row_labels[0],
                         cls + 1, R, f"{value:.10g}"]
                    )
                except DataError:
                    rows.append(
                        [name, hard.row_labels[i], hard.row_labels[0],
                         cls + 1, R, ""]
                    )
        artifacts.write_csv(
            os.path.join(outdir, f"logodds{suffix}.csv"),
            ["column", "category", "baseline", "class", "reference_class",
             "log_odds_ratio"],
            rows,
        )


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    labels, ingest = _ingest(cfg, args)
    config = _fit_config(cfg, args)
    n_classes = args.classes or cfg.get("classes", 1)
    spec = ModelSpec(labels, tuple(cfg.get("terms", [])), int(n_classes))
    outdir = _out_dir(cfg, args)
    result = fit_model(spec, ingest.data, config)
    _write_fit_outputs(
        outdir, result, ingest.data, config,
        _se_methods(cfg, args), ingest.extra_columns,
        continuity=bool(args.continuity_correction
                        or cfg.get("continuity_correction", False)),
    )
    if not result.converged:
        print("warning: EM did not converge; artifacts written", file=sys.stderr)
        return 2
    return 0


def cmd_search(args) -> int:
    cfg = _load_config(args.config)
    labels, ingest = _ingest(cfg, args)
    config = _fit_config(cfg, args)
    outdir = _out_dir(cfg, args)

    class_range = None
    if args.class_range is not None:
        class_range = list(range(args.class_range[0], args.class_range[1] + 1))
    elif cfg.get("class_range"):
        lo, hi = cfg["class_range"]
        class_range = list(range(int(lo), int(hi) + 1))

    if class_range is not None:
        spec = ModelSpec(labels, tuple(cfg.get("terms", [])), 1)
        search = search_classes(spec, ingest.data, config, class_range)
    elif cfg.get("models"):
        term_sets = [(m["label"], tuple(m.get("terms", ()))) for m in cfg["models"]]
        search = compare_term_models(labels, ingest.data, config, term_sets)
    else:
        raise DataError("search needs a class range or a 'models' list")

    rows = artifacts.search_rows(search)
    def cell(v, fmt="{:.10g}"):
        return "" if v is None else (fmt.format(v) if isinstance(v, float) else v)
    artifacts.write_csv(
        os.path.join(outdir, "comparison.csv"),
        ["model", "classes", "deviance", "minus_two_loglik", "parameters",
         "bic", "converged", "error"],
        [
            [r["label"], r["n_classes"], cell(r["deviance"]),
             cell(r["minus_two_loglik"]), cell(r["n_params"]), cell(r["bic"]),
             "" if r["converged"] is None else str(bool(r["converged"])),
             r["error"] or ""]
            for r in rows
        ],
    )
    if search.best_key is None:
        raise FitError("no model in the sweep could be fitted")
    best = search.fits[search.best_key]
    _write_fit_outputs(
        outdir, best, ingest.data, config,
        _se_methods(cfg, args), ingest.extra_columns,
        continuity=bool(args.continuity_correction
                        or cfg.get("continuity_correction", False)),
        search_rows=rows,
    )
    if not best.converged:
        print("warning: best model did not converge; artifacts written",
              file=sys.stderr)
        return 2
    return 0


def _truth_from_config(cfg: dict, args) -> SyntheticTruth:
    classes = tuple(
        ClassTruth(prob=float(c["prob"]), worths=tuple(float(w) for w in c["worths"]))
        for c in cfg.get("classes", [])
    )
    covariates = []
    for entry in cfg.get("covariates", []):
        kind = entry.get("type", "factor")
        values = entry.get("levels" if kind == "factor" else "values")
        if values is None:
            raise DataError(
                f"covariate {entry.get('name')!r}: needs levels (factor) "
                f"or values (continuous)"
            )
        covariates.append(
            CovariateTruth(
                name=entry["name"],
                kind=kind,
                values=tuple(values),
                probs=tuple(float(p) for p in entry["probs"]),
                effects={
                    k: tuple(float(x) for x in v)
                    for k, v in entry.get("effects", {}).items()
                },
                slopes=tuple(float(x) for x in entry["slopes"])
                if entry.get("slopes")
                else None,
            )
        )
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    return SyntheticTruth(
        item_labels=tuple(cfg["items"]),
        classes=classes,
        covariates=tuple(covariates),
        n=int(cfg.get("n", 0)),
        seed=seed,
    )


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    truth = _truth_from_config(cfg, args)
    out_csv = args.out or cfg.get("out")
    if not out_csv:
        raise DataError("no output CSV given (config 'out' or --out)")
    rows = generate_rows(truth)
    cov_names = [c.name for c in truth.covariates]
    artifacts.write_csv(
        out_csv,
        list(truth.item_labels) + cov_names,
        [
            list(int(v) for v in ranks) + [covs[name] for name in cov_names]
            for ranks, covs in rows
        ],
    )
    truth_doc = {
        "schema_version": artifacts.SCHEMA_VERSION,
        "items": list(truth.item_labels),
        "n": truth.n,
        "seed": truth.seed,
        "classes": [
            {"prob": c.prob, "worths": list(c.worths)} for c in truth.classes
        ],
        "covariates": [
            {
                "name": c.name,
                "type": c.kind,
                "values": list(c.values),
                "probs": list(c.probs),
                "effects": {k: list(v) for k, v in sorted(c.effects.items())},
                "slopes": list(c.slopes) if c.slopes else None,
            }
            for c in truth.covariates
        ],
        "class_worths_by_set": worth_map(truth),
    }
    root, _ = os.path.splitext(out_csv)
    artifacts.write_json(root + ".truth.json", truth_doc)
    return 0


def cmd_report(args) -> int:
    doc = artifacts.read_fit_document(args.artifact)
    sys.stdout.write(artifacts.render_report(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmix",
        description="Pattern models for complete rankings with latent classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, classes_flag):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--input", help="input CSV (overrides config)")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--starts", type=int, default=None,
                       help="number of EM starts")
        p.add_argument("--tol", type=float, default=None,
                       help="EM deviance convergence tolerance")
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--se-method", default=None,
                       choices=["raw", "corrected", "hessian", "all", "none"])
        p.add_argument("--count-masses", action="store_true",
                       help="count mixing weights in the BIC parameter total")
        p.add_argument("--continuity-correction", action="store_true",
                       help="add 0.5 to cells in log-odds ratios")
        if classes_flag == "single":
            p.add_argument("--classes", type=int, default=None,
                           help="number of latent classes")
        else:
            p.add_argument("--class-range", type=int, nargs=2, default=None,
                           metavar=("LO", "HI"))

    p_fit = sub.add_parser("fit", help="fit one model and write artifacts")
    common(p_fit, "single")
    p_fit.set_defaults(handler=cmd_fit)

    p_search = sub.add_parser(
        "search", help="sweep class counts or covariate models, pick lowest BIC"
    )
    common(p_search, "range")
    p_search.set_defaults(handler=cmd_search)

    p_sim = sub.add_parser("simulate", help="generate synthetic ranking data")
    p_sim.add_argument("--config", help="JSON truth configuration")
    p_sim.add_argument("--out", help="output CSV path (overrides config)")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(handler=cmd_simulate)

    p_rep = sub.add_parser("report", help="print a fitted artifact")
    p_rep.add_argument("artifact", help="path to fit.json")
    p_rep.set_defaults(handler=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _USER_ERRORS as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
