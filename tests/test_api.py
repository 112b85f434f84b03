import os
import subprocess
import sys

import rankmix


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
