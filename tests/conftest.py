import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import settings

# Hypothesis imports this module (and libcst with it) to report a failing
# example. Under the suite's error::DeprecationWarning filter that import
# raises inside pytest's report hook and ends the whole session, hiding the
# example, so it is imported once here with its deprecation warnings off.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from rankmix.data import AggregatedData, CovariateDecl, CovariateSet
from rankmix.rankings import enumerate_transitive_patterns

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


_SPACES = {}


def shared_space(n_items):
    if n_items not in _SPACES:
        _SPACES[n_items] = enumerate_transitive_patterns(n_items)
    return _SPACES[n_items]


def table_cells(counts):
    """The observed cells of a dense (K, L) count table, as AggregatedData
    keyword arguments."""
    counts = np.asarray(counts)
    cell_set, cell_pattern = np.nonzero(counts)
    return dict(cell_set=cell_set, cell_pattern=cell_pattern,
                cell_counts=counts[cell_set, cell_pattern])


def make_data(n_items, counts, factor_levels=None, factor_name="g"):
    """AggregatedData straight from a count table.

    ``counts`` is (K, L). With ``factor_levels`` (one level label per set)
    the sets differ in a single factor; otherwise K must be 1.
    """
    space = shared_space(n_items)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim == 1:
        counts = counts[None, :]
    if factor_levels is None:
        assert counts.shape[0] == 1
        decls = ()
        sets = (CovariateSet(0, (), ()),)
    else:
        assert counts.shape[0] == len(factor_levels)
        decls = (CovariateDecl(factor_name, "factor"),)
        sets = tuple(
            CovariateSet(k, (lev,), ()) for k, lev in enumerate(factor_levels)
        )
    return AggregatedData(
        space=space,
        declarations=decls,
        covariate_sets=sets,
        **table_cells(counts),
    )


@pytest.fixture
def space3():
    return shared_space(3)


@pytest.fixture
def space4():
    return shared_space(4)
