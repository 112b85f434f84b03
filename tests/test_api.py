import importlib.util
import os
import subprocess
import sys

import rankmix
import rankmix.fitting as fitting
from rankmix import FitConfig, ModelSpec, fit

from conftest import make_data

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_public_names_are_pinned():
    # adding a public name is a deliberate edit of this list
    assert rankmix.__all__ == [
        "AggregatedData",
        "CapacityError",
        "CovariateDecl",
        "CovariateSet",
        "DataError",
        "Design",
        "FitConfig",
        "FitError",
        "FitResult",
        "ModelSpec",
        "Parameters",
        "PatternSpace",
        "RankingValidationError",
        "aggregate",
        "bic",
        "count_parameters",
        "enumerate_transitive_patterns",
        "fit",
        "init_start",
        "is_transitive",
        "mixture_loglik",
        "mixture_score",
        "order_to_ranks",
        "pair_index",
        "pairwise_win_prob",
        "ranks_to_order",
        "ranks_to_pattern",
        "read_ranking_csv",
        "search_classes",
        "worths",
    ]
    assert all(hasattr(rankmix, name) for name in rankmix.__all__)


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: neither the CLI nor the class
    # matching of simulate loads scipy
    src = os.path.dirname(os.path.dirname(rankmix.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    report = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    for code in ("import sys, rankmix.cli; ",
                 "import sys, numpy as np; from rankmix.simulate import "
                 "match_class_order; match_class_order(np.eye(3), np.eye(3)); "):
        out = subprocess.run([sys.executable, "-c", code + report], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "[]"


def test_benchmark_calls_still_fit(monkeypatch):
    # perfbench/workloads.py, loaded without writing to perfbench/: its
    # fit options still construct, and its summarize reads every chain
    # summary of a fit, a failed chain's too, with the types it counts on
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(PERFBENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    FitConfig(**workloads.WARMUP_OPTIONS)

    failures, calls = fitting._cholesky_failures, []

    def second_fails(a):  # the second chain's first Newton solve fails
        calls.append(1)
        return sorted(set(failures(a)) | ({1} if len(calls) == 1 else set()))

    monkeypatch.setattr(fitting, "_cholesky_failures", second_fails)
    data = make_data(3, [26, 9, 15, 4, 12, 6])
    result = fit(ModelSpec(("A", "B", "C"), (), 2), data, FitConfig(n_starts=3))
    assert result.chain_summaries[1]["message"].startswith("design is rank")
    for chain in result.chain_summaries:
        assert isinstance(chain["label"], str)
        assert type(chain["iterations"]) is int
        assert type(chain["converged"]) is bool
        assert type(chain["degenerate"]) is bool
    state = workloads.State(workloads.WORKLOADS["dense_cells"], None, None, "")
    summary = workloads.summarize(state, result)
    assert len(summary["chains"]) == 3
