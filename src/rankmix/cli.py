"""Command-line front end: fit, search, simulate, report.

A run is described by a JSON config (items, covariates, model terms, fit
options); flags override config values. Exit codes: 0 success, 1 input or
estimation error (single "error:" line on stderr), 2 fit did not converge
(artifacts are still written).
"""

from __future__ import annotations

import argparse
import json
import math
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
            cfg = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise DataError(f"config {path} must be a JSON object")
    return cfg


_JSON_KINDS = {int: "an integer", str: "a string", bool: "true or false",
               list: "a list of names", dict: "a list of objects"}


def _config_value(value, what: str, kind: type = int):
    """``value`` if it has the JSON type ``kind`` (a list of strings for ``list``,
    of objects for ``dict``, as a tuple); a ``DataError`` naming ``what`` if not."""
    entries = {list: str, dict: dict}.get(kind)
    if not (isinstance(value, list) and all(isinstance(v, entries) for v in value) if entries
            else isinstance(value, kind) and isinstance(value, bool) == (kind is bool)):
        raise DataError(f"config {what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return tuple(value) if entries else value


def _numbers(entry: dict, key: str, where: str, many: bool = True):
    """``entry[key]``, a finite JSON number as a float, or with ``many`` a list
    of them as a tuple; a ``DataError`` naming ``where`` and ``key`` if it is
    missing or anything else."""
    if key not in entry:
        raise DataError(f"config {where} has no {key!r}")
    value = entry[key]
    values = value if many and isinstance(value, list) else [value]
    if many != isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
            for v in values):
        kind = "a list of finite numbers" if many else "a finite number"
        raise DataError(f"config {where} {key!r} must be {kind}, got {value!r}")
    return tuple(map(float, values)) if many else float(value)


def _config_path(cfg: dict, args, key: str, what: str) -> str:
    """The ``--key`` flag, else config ``key``: a nonempty string."""
    path = getattr(args, key) or cfg.get(key)
    if not path:
        raise DataError(f"no {what} given (config '{key}' or --{key})")
    return _config_value(path, f"'{key}'", str)


def _continuity(cfg: dict, args) -> bool:
    return _config_value(cfg.get("continuity_correction", False),
                         "'continuity_correction'", bool) or args.continuity_correction


def _fit_config(cfg: dict, args) -> FitConfig:
    options = cfg.get("fit", {})
    if not isinstance(options, dict):
        raise DataError("config 'fit' must be an object")
    options = dict(options)
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
    if _config_value(cfg.get("count_masses", False), "'count_masses'", bool):
        options["count_masses"] = True
    return FitConfig(**options)


def _item_columns(cfg: dict):
    items = cfg.get("items")
    if not isinstance(items, list) or len(items) < 2:
        raise DataError("config 'items' must list at least two item columns")
    labels, columns = [], []
    for entry in items:
        if isinstance(entry, str):
            entry = {"label": entry}
        if not (isinstance(entry, dict) and isinstance(entry.get("label"), str)
                and isinstance(entry.get("column", ""), str)):
            raise DataError("config 'items' entries must be column names or "
                            f"objects with a string 'label', got {entry!r}")
        labels.append(entry["label"])
        columns.append(entry.get("column", entry["label"]))
    return tuple(labels), tuple(columns)


def _covariates(cfg: dict):
    entries = cfg.get("covariates", [])
    if not isinstance(entries, list):
        raise DataError("config 'covariates' must be a list")
    decls, columns = [], {}
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)):
            raise DataError("config 'covariates' entries must be objects with "
                            f"a string 'name', got {entry!r}")
        levels = entry.get("levels")
        if levels is not None and not isinstance(levels, list):
            raise DataError(f"covariate {entry.get('name')!r}: levels must be "
                            f"a list, got {levels!r}")
        decl = CovariateDecl(
            name=entry["name"],
            kind=entry.get("type", "factor"),
            levels=tuple(levels) if levels else None,
        )
        decls.append(decl)
        columns[decl.name] = entry.get("column", decl.name)
    return tuple(decls), columns


def _ingest(cfg: dict, args):
    input_path = _config_path(cfg, args, "input", "input CSV")
    labels, columns = _item_columns(cfg)
    decls, cov_columns = _covariates(cfg)
    space = enumerate_transitive_patterns(
        len(labels),
        max_items=_config_value(cfg.get("max_items", MAX_ITEMS_DEFAULT), "'max_items'"),
    )
    ingest = read_ranking_csv(
        input_path,
        space,
        columns,
        decls,
        covariate_columns=cov_columns,
        ranking_format=cfg.get("ranking_format", "ranks"),
        extra_columns=_config_value(cfg.get("crosstab", []), "'crosstab'", list),
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
    out = _config_path(cfg, args, "out", "output directory")
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

    cov_names = data.covariate_names("factor") + data.covariate_names("continuous")
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
    artifacts.write_classes_csv(os.path.join(outdir, "classes.csv"), data,
                                *posthoc.cell_assignments(result, data))

    names = list(extra_columns)
    for name in names:
        suffix = "" if len(names) == 1 else f"_{name}"
        coded = posthoc._category_codes(data, extra_columns[name])
        expected = posthoc._crosstab(result, data, coded, "expected")
        artifacts.write_csv(
            os.path.join(outdir, f"crosstab{suffix}.csv"),
            ["category"] + [f"class_{r + 1}" for r in range(result.spec.n_classes)],
            [
                [lab] + [f"{v:.10g}" for v in expected.table[i]]
                for i, lab in enumerate(expected.row_labels)
            ],
        )
        hard = posthoc._crosstab(result, data, coded, "hard")
        rows = []
        R = result.spec.n_classes
        for cls in range(R - 1):
            for i in range(1, len(hard.row_labels)):
                try:
                    value = posthoc.log_odds_ratio(hard, cls, R - 1, i, 0,
                                                   continuity=continuity)
                    value = f"{value:.10g}"
                except DataError:  # a zero cell without the continuity correction
                    value = ""
                rows.append([name, hard.row_labels[i], hard.row_labels[0], cls + 1, R,
                             value])
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
    n_classes = (args.classes if args.classes is not None
                 else _config_value(cfg.get("classes", 1), "'classes'"))
    spec = ModelSpec(labels, _config_value(cfg.get("terms", []), "'terms'", list), n_classes)
    continuity = _continuity(cfg, args)
    outdir = _out_dir(cfg, args)
    result = fit_model(spec, ingest.data, config)
    _write_fit_outputs(
        outdir, result, ingest.data, config,
        _se_methods(cfg, args), ingest.extra_columns, continuity=continuity,
    )
    if not result.converged:
        return _not_converged("EM did not converge", result)
    return 0


def _not_converged(what: str, result: FitResult) -> int:
    """Exit 2 with a warning that says ``what``, and why the returned start
    degenerated if it did."""
    note = artifacts.degenerate_note(result.chain_summaries, result.best_start)
    if note:
        what += f"; the returned start {result.best_start} degenerated: {note}"
    print(f"warning: {what}; artifacts written", file=sys.stderr)
    return 2


def cmd_search(args) -> int:
    cfg = _load_config(args.config)
    labels, ingest = _ingest(cfg, args)
    config = _fit_config(cfg, args)
    continuity = _continuity(cfg, args)
    outdir = _out_dir(cfg, args)

    class_range = None
    if args.class_range is not None:
        class_range = list(range(args.class_range[0], args.class_range[1] + 1))
    elif cfg.get("class_range"):
        bounds = cfg["class_range"]
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise DataError("config 'class_range' must be a list [lo, hi]")
        lo, hi = (_config_value(x, "'class_range' entry") for x in bounds)
        class_range = list(range(lo, hi + 1))

    if class_range is not None:
        spec = ModelSpec(labels, _config_value(cfg.get("terms", []), "'terms'", list), 1)
        search = search_classes(spec, ingest.data, config, class_range)
    elif cfg.get("models"):
        models = cfg["models"]
        if not (isinstance(models, list) and all(
                isinstance(m, dict) and isinstance(m.get("label"), str)
                for m in models)):
            raise DataError("config 'models' must list objects with a string "
                            f"'label', got {models!r}")
        term_sets = [(m["label"], _config_value(m.get("terms", []), "'models' terms", list))
                     for m in models]
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
        _se_methods(cfg, args), ingest.extra_columns, continuity=continuity,
        search_rows=rows,
    )
    if not best.converged:
        return _not_converged("best model did not converge", best)
    return 0


def _truth_from_config(cfg: dict, args) -> SyntheticTruth:
    classes = tuple(
        ClassTruth(prob=_numbers(c, "prob", f"'classes' entry {i}", many=False),
                   worths=_numbers(c, "worths", f"'classes' entry {i}"))
        for i, c in enumerate(_config_value(cfg.get("classes", []), "'classes'", dict), 1)
    )
    covariates = []
    for i, entry in enumerate(
            _config_value(cfg.get("covariates", []), "'covariates'", dict), 1):
        where = f"'covariates' entry {i}"
        name = _config_value(entry.get("name"), f"{where} 'name'", str)
        kind = _config_value(entry.get("type", "factor"), f"{where} 'type'", str)
        key = "levels" if kind == "factor" else "values"
        if key not in entry:
            raise DataError(f"covariate {name!r}: needs levels (factor) "
                            f"or values (continuous)")
        values, effects = entry[key], entry.get("effects", {})
        if kind != "factor":
            _numbers(entry, key, where)  # the CSV keeps the values as written
        elif not isinstance(values, list):
            raise DataError(f"config {where} 'levels' must be a list, got {values!r}")
        if not isinstance(effects, dict):
            raise DataError(f"config {where} 'effects' must be an object, got {effects!r}")
        covariates.append(
            CovariateTruth(
                name=name,
                kind=kind,
                values=tuple(values),
                probs=_numbers(entry, "probs", where),
                effects={k: _numbers(effects, k, f"{where} 'effects'") for k in effects},
                slopes=_numbers(entry, "slopes", where) if entry.get("slopes") else None,
            )
        )
    seed = args.seed if args.seed is not None else _config_value(cfg.get("seed", 0), "'seed'")
    return SyntheticTruth(
        item_labels=_config_value(cfg.get("items"), "'items'", list),
        classes=classes,
        covariates=tuple(covariates),
        n=_config_value(cfg.get("n", 0), "'n'"),
        seed=seed,
    )


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    truth = _truth_from_config(cfg, args)
    out_csv = _config_path(cfg, args, "out", "output CSV")
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
