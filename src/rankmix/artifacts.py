"""Serialized fit artifacts: the versioned fit document and CSV tables.

The fit document is plain JSON so runs are self-describing: it echoes the
model, the data shape, every fit option, the named estimates, class
summaries, the worth table, and whatever standard errors or search tables
were produced. Writers go through a temp-file rename so partial files
never appear.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import asdict

from .data import AggregatedData
from .fitting import FitConfig, FitResult, SearchResult

SCHEMA_VERSION = 1


class ArtifactError(ValueError):
    """An artifact is missing, malformed, or from another schema version."""


def _atomic_write(path, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, document: dict):
    _atomic_write(path, json.dumps(document, indent=2) + "\n")


def write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def write_classes_csv(path, data: AggregatedData, assigned, posterior):
    """One line per respondent row: its cell's set, pattern, hard class and
    posterior. ``assigned`` and ``posterior`` are per observed cell, and each
    cell's text is formatted once, as ``csv.writer`` would write it."""
    cell_text = [f"{k},{l},{a},{p:.10g}\n" for k, l, a, p in zip(
        data.cell_set.tolist(), data.cell_pattern.tolist(),
        assigned.tolist(), posterior.tolist())]
    _atomic_write(path, "respondent,set,pattern,assigned_class,posterior\n" + "".join(
        [f"{i},{cell_text[c]}" for i, c in enumerate(data.row_cells.tolist(), 1)]))


def data_summary(data: AggregatedData) -> dict:
    return {
        "n_items": data.space.n_items,
        "n_patterns": data.space.size,
        "n_sets": data.n_sets,
        "n_cells": data.n_cells,
        "n_respondents": data.n_total,
        "n_rejected_rows": data.n_rejected,
        "covariate_sets": data.set_covariates(),
        "continuous_scale": {
            name: {"mean": m, "scale": s}
            for name, (m, s) in sorted(data.continuous_scale.items())
        },
    }


def _estimate_entries(fit: FitResult, data: AggregatedData) -> list[dict]:
    entries = []
    for coef, value in zip(fit.design.coefficients, fit.params.coefficients):
        entry = {"name": coef.name, "kind": coef.kind, "estimate": float(value)}
        if coef.kind == "continuous":
            # slopes are fitted on the centered/scaled covariate
            _, scale = data.continuous_scale[coef.term]
            entry["estimate_raw_scale"] = float(value) / scale
        entries.append(entry)
    return entries


def fit_document(
    fit: FitResult,
    data: AggregatedData,
    config: FitConfig,
    worth_rows=None,
    class_shares=None,
    se_rows=None,
    search_rows=None,
) -> dict:
    design = fit.design
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model": {
            "items": list(fit.spec.item_labels),
            "terms": list(fit.spec.terms),
            "classes": fit.spec.n_classes,
            "reference_item": fit.spec.item_labels[-1],
            "reference_class": fit.spec.n_classes,
        },
        "data": data_summary(data),
        "config": asdict(config),
        "estimates": _estimate_entries(fit, data),
        "mixing_weights": fit.params.mixing.tolist(),
        "class_offsets": {
            "items": list(fit.spec.item_labels),
            "matrix": design.class_offsets(fit.params.coefficients).tolist(),
        },
        "fit": {
            "loglik": fit.loglik,
            "minus_two_loglik": fit.minus_two_loglik,
            "deviance": fit.deviance,
            "n_params": fit.n_params,
            "bic": fit.bic,
            "iterations": fit.n_iterations,
            "starts": fit.n_starts,
            "best_start": fit.best_start,
            "converged": fit.converged,
            "degenerate_starts": fit.n_degenerate,
            "deviance_trace": fit.deviance_trace,
        },
        "chains": fit.chain_summaries,
    }
    if class_shares is not None:
        doc["class_shares"] = {
            "patterns": class_shares.pattern_shares.tolist(),
            "respondents": class_shares.respondent_shares.tolist(),
        }
    if worth_rows is not None:
        doc["worths"] = worth_rows
    if se_rows is not None:
        doc["standard_errors"] = se_rows
    if search_rows is not None:
        doc["search"] = search_rows
    return doc


def read_fit_document(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ArtifactError(f"no fit artifact at {path}")
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path} is not valid JSON: {exc}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ArtifactError(
            f"{path}: schema version {version!r}, expected {SCHEMA_VERSION}"
        )
    return doc


def se_report_rows(report) -> list[dict]:
    return [asdict(row) for row in report.rows]


def search_rows(result: SearchResult) -> list[dict]:
    return [asdict(row) for row in result.rows]


def degenerate_note(chains: list[dict], best_start: str) -> str | None:
    """Why the returned start degenerated, from the chain summaries; None if it did not."""
    return next((c["message"] for c in chains if c["label"] == best_start), None)


def render_report(doc: dict) -> str:
    """Human-readable summary of a fit document, stable ordering."""
    model = doc["model"]
    fit = doc["fit"]
    lines = []
    lines.append(f"items: {', '.join(model['items'])}")
    terms = ", ".join(model["terms"]) if model["terms"] else "(none)"
    lines.append(f"covariate terms: {terms}")
    lines.append(f"latent classes: {model['classes']}")
    lines.append(
        f"-2 log L {fit['minus_two_loglik']:.3f}  deviance {fit['deviance']:.3f}  "
        f"parameters {fit['n_params']}  BIC {fit['bic']:.3f}"
    )
    status = "converged" if fit["converged"] else "NOT converged"
    note = degenerate_note(doc["chains"], fit["best_start"])
    lines.append(
        f"{status} after {fit['iterations']} iterations "
        f"(best start {fit['best_start']}, {fit['starts']} starts"
        + (f"; it degenerated: {note})" if note else ")")
    )
    if model["classes"] > 1 and "class_shares" in doc:
        shares = doc["class_shares"]
        lines.append("")
        lines.append("class shares")
        header = "  ".join(f"class {r + 1}" for r in range(model["classes"]))
        lines.append(f"              {header}")
        pat = "  ".join(f"{v:7.4f}" for v in shares["patterns"])
        res = "  ".join(f"{v:7.4f}" for v in shares["respondents"])
        lines.append(f"  patterns    {pat}")
        lines.append(f"  respondents {res}")
    if "worths" in doc:
        lines.append("")
        lines.append("worths")
        current = None
        for row in doc["worths"]:
            covs = [
                f"{k}={v}"
                for k, v in row.items()
                if k not in ("class", "set", "item", "worth")
            ]
            block = (row["set"], row["class"])
            if block != current:
                current = block
                label = f"set {row['set']}"
                if covs:
                    label += " (" + ", ".join(covs) + ")"
                if model["classes"] > 1:
                    label += f", class {row['class']}"
                lines.append(f"  {label}:")
            lines.append(f"    {row['item']:<12} {row['worth']:.4f}")
    if "standard_errors" in doc:
        lines.append("")
        lines.append("standard errors")
        lines.append(
            f"  {'term':<24} {'estimate':>10} {'raw':>10} "
            f"{'corrected':>10} {'hessian':>10}"
        )
        for row in doc["standard_errors"]:
            def cell(v):
                return f"{v:>10.4f}" if v is not None else f"{'-':>10}"
            lines.append(
                f"  {row['name']:<24} {row['estimate']:>10.4f} "
                f"{cell(row['se_raw'])} {cell(row['se_corrected'])} "
                f"{cell(row['se_hessian'])}"
            )
    if "search" in doc:
        lines.append("")
        lines.append("model search")
        lines.append(
            f"  {'model':<10} {'deviance':>12} {'-2logL':>12} {'params':>7} {'BIC':>12}"
        )
        for row in doc["search"]:
            if row.get("error"):
                lines.append(f"  {row['label']:<10} error: {row['error']}")
            else:
                lines.append(
                    f"  {row['label']:<10} {row['deviance']:>12.2f} "
                    f"{row['minus_two_loglik']:>12.2f} {row['n_params']:>7} "
                    f"{row['bic']:>12.2f}"
                )
    return "\n".join(lines) + "\n"
