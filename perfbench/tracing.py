"""Spans around the package's public functions, recorded from outside.

The traced run wraps each patch point below in a span for the duration
of one call and restores the originals afterwards; untraced calls run
the package untouched. A name bound by ``from .x import y`` is a
separate binding, so it is patched in the module that imported it (for
example ``rankmix.fitting.posterior_weights``, which the E step calls).
A patch point that no longer exists is reported as missing.

Each span keeps a name, start, end, parent and an optional info dict, in
memory, and the run writes them out at the end. Layer times are
inclusive: a layer's time is the sum of its outermost spans, children
included. Self time (a span minus its children) is written with the
spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time

import numpy as np


def _array_bytes(obj, skip=()) -> int:
    return sum(v.nbytes for k, v in vars(obj).items()
               if isinstance(v, np.ndarray) and k not in skip)


def data_info(data) -> dict:
    """Computed sizes read from an aggregated-data object the package built.

    ``table_bytes`` sums the arrays the object holds, whatever their
    layout, except the per-respondent ``row_cells``, which is not part of
    the count table.
    """
    return {
        "patterns": int(data.space.size),
        "rows": int(data.n_total),
        "dense_cells": int(data.n_sets * data.space.size),
        "nonzero_cells": int(np.count_nonzero(data.counts)),
        "table_bytes": _array_bytes(data, skip=("row_cells",)),
    }


def _design_info(args, kwargs, result):
    return {"bytes": _array_bytes(args[0])}


def _chain_info(args, kwargs, result):
    return {"ridge": kwargs.get("penalty") is not None}


def _ingest_info(args, kwargs, result):
    return data_info(result.data)


_POSTHOC = ("class_summary", "worth_table", "assign_classes", "crosstab",
            "log_odds_ratio")
_ARTIFACTS = ("fit_document", "se_report_rows", "write_json", "write_csv")

# (module, attribute, span name, info hook)
PATCH_POINTS = (
    [
        ("rankmix.rankings", "enumerate_transitive_patterns", "rankings.enumerate", None),
        ("rankmix.cli", "enumerate_transitive_patterns", "rankings.enumerate", None),
        ("rankmix.cli", "read_ranking_csv", "data.ingest", _ingest_info),
        ("rankmix.data", "aggregate", "data.aggregate", None),
        ("rankmix.model", "Design.__init__", "model.design", _design_info),
        ("rankmix.model", "Design.log_pattern_probs", "model.log_pattern_probs", None),
        ("rankmix.fitting", "mixture_loglik", "model.loglik", None),
        ("rankmix.inference", "mixture_loglik", "model.loglik", None),
        ("rankmix.fitting", "posterior_weights", "fitting.e_step", None),
        ("rankmix.fitting", "m_step", "fitting.m_step", None),
        ("rankmix.fitting", "fit_structural", "fitting.structural", None),
        ("rankmix.fitting", "fit", "fitting.fit", None),
        ("rankmix.cli", "fit_model", "fitting.fit", None),
        ("rankmix.inference", "run_chain", "inference.refit_chain", _chain_info),
        ("rankmix.inference", "raw_em_standard_errors", "inference.raw", None),
        ("rankmix.inference", "corrected_se", "inference.corrected", None),
        ("rankmix.inference", "hessian_standard_errors", "inference.hessian", None),
        ("rankmix.inference", "mixture_score", "inference.score", None),
        ("rankmix.cli", "main", "cli.main", None),
    ]
    + [("rankmix.posthoc", f, "posthoc." + f, None) for f in _POSTHOC]
    + [("rankmix.artifacts", f, "artifacts." + f, None) for f in _ARTIFACTS]
)

# layer time metric -> span names; outermost spans of the set are summed
TIME_METRICS = {
    "rankings.enumerate_s": {"rankings.enumerate"},
    "data.ingest_s": {"data.ingest"},
    "data.aggregate_s": {"data.aggregate"},
    "model.design_s": {"model.design"},
    "model.log_pattern_probs_s": {"model.log_pattern_probs"},
    "model.loglik_s": {"model.loglik"},
    "fitting.e_step_s": {"fitting.e_step"},
    "fitting.m_step_s": {"fitting.m_step"},
    "fitting.structural_s": {"fitting.structural"},
    "inference.corrected_s": {"inference.corrected"},
    "inference.hessian_s": {"inference.hessian"},
    "inference.raw_s": {"inference.raw"},
    "posthoc.s": {"posthoc." + f for f in _POSTHOC},
    "artifacts.write_s": {"artifacts." + f for f in _ARTIFACTS},
}

# call-count metric -> span name
CALL_METRICS = {
    "model.design_calls": "model.design",
    "model.log_pattern_probs_calls": "model.log_pattern_probs",
    "model.loglik_calls": "model.loglik",
    "fitting.e_step_calls": "fitting.e_step",
    "fitting.m_step_calls": "fitting.m_step",
    "inference.refit_chains": "inference.refit_chain",
    "inference.score_calls": "inference.score",
}


class Tracer:
    """In-memory span recorder with reversible patching of the package."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, info]
        self.missing = []
        self._stack = []
        self._targets = []  # (owner object, attribute, original, wrapper)
        wrappers = {}
        for module_name, attr, name, hook in PATCH_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            key = (id(original), name)
            if key not in wrappers:
                wrappers[key] = self._wrap(original, name, hook)
            self._targets.append((owner, leaf, original, wrappers[key]))

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                try:
                    self.spans[idx][4] = hook(args, kwargs, result)
                except Exception as exc:  # a changed return type must not fail the call
                    self.spans[idx][4] = {"hook_error": repr(exc)}
            return result

        return wrapper

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def patched(self):
        for owner, leaf, _, wrapper in self._targets:
            setattr(owner, leaf, wrapper)
        try:
            yield self
        finally:
            for owner, leaf, original, _ in self._targets:
                setattr(owner, leaf, original)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def dump(self) -> dict:
        """Spans and per-name self-time totals, JSON-ready."""
        selfs = self.self_times()
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, selfs):
            totals[span[0]] = totals.get(span[0], 0.0) + own
        return {
            "missing_patch_points": self.missing,
            "self_s": dict(sorted(totals.items())),
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "info": info}
                for n, s, e, p, info in self.spans
            ],
        }


class OpSpans:
    """The spans recorded under one root span (one traced call)."""

    def __init__(self, tracer: Tracer, root: int):
        spans = tracer.spans
        self.spans = spans
        self.root = root
        end = next((i for i in range(root + 1, len(spans))
                    if spans[i][1] >= spans[root][2]), len(spans))
        self.inside = range(root + 1, end)
        self.self_times = tracer.self_times()

    def _outermost(self, idx, names) -> bool:
        parent = self.spans[idx][3]
        while parent > self.root:
            if self.spans[parent][0] in names:
                return False
            parent = self.spans[parent][3]
        return True

    def named(self, names) -> list[int]:
        return [i for i in self.inside if self.spans[i][0] in names]

    def total(self, names) -> float:
        """Seconds in the outermost spans named in ``names``."""
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.named(names)
                   if self._outermost(i, names))

    def infos(self, name: str) -> list[dict]:
        return [self.spans[i][4] or {} for i in self.named({name})]

    def layer_metrics(self) -> dict:
        """Per-layer times and counts of this call."""
        out = {metric: self.total(names) for metric, names in TIME_METRICS.items()}
        for metric, name in CALL_METRICS.items():
            out[metric] = len(self.named({name}))
        out["fitting.newton_trials"] = sum(
            1 for i in self.named({"model.log_pattern_probs"})
            if self.spans[self.spans[i][3]][0] == "fitting.structural"
        )
        out["inference.ridge_retries"] = sum(
            1 for info in self.infos("inference.refit_chain") if info.get("ridge")
        )
        out["model.design_mb"] = max(
            (info.get("bytes", 0) for info in self.infos("model.design")), default=0
        ) / 1e6
        out["cli.self_s"] = sum(self.self_times[i] for i in self.named({"cli.main"}))
        return out


def directory_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total
