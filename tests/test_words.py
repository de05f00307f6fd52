import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimspec.errors import ConfigError
from dimspec.families import ContractionFamily
from dimspec.solver import moran_bounds, pressure, pressure_derivative, solve_dimension
from dimspec.words import (
    longest_common_prefix,
    subset_of_word,
    validate_word,
    word_of_subset,
)

words = st.text(alphabet="01", min_size=0, max_size=12)

SQEXP = ContractionFamily.square_exponent()


def test_subset_of_word_positions():
    assert subset_of_word("1") == (1,)
    assert subset_of_word("101") == (1, 3)
    assert subset_of_word("0101") == (2, 4)
    assert subset_of_word("") == ()


def test_word_of_subset_is_minimal():
    assert word_of_subset((1, 3)) == "101"
    assert word_of_subset(()) == ""
    # no trailing zeros
    assert word_of_subset((2,)) == "01"


@given(words)
def test_word_subset_roundtrip(w):
    trimmed = w.rstrip("0")
    assert word_of_subset(subset_of_word(w)) == trimmed


@given(st.sets(st.integers(min_value=1, max_value=15), max_size=8))
def test_subset_word_roundtrip(indices):
    idx = tuple(sorted(indices))
    assert subset_of_word(word_of_subset(idx)) == idx


def test_validate_word_rejects_junk():
    with pytest.raises(ConfigError):
        validate_word("012")
    with pytest.raises(ConfigError):
        validate_word("1" * 99)
    for bad in ([1.5], [2, 1.0], 3):
        with pytest.raises(ConfigError):
            word_of_subset(bad)


@given(words, words)
def test_lcp_is_prefix_of_both(a, b):
    p = longest_common_prefix(a, b)
    assert a.startswith(p) and b.startswith(p)
    # maximality: the next characters differ or one word ended
    if len(p) < len(a) and len(p) < len(b):
        assert a[len(p)] != b[len(p)]


@given(words)
def test_lcp_with_self(w):
    assert longest_common_prefix(w, w) == w


# --- subsets as the solver reads them ----------------------------------------
#
# Every function that selects a subsystem decodes it with one solver
# function: "full" or None, a binary word, or a collection of integer
# indices.

def test_selector_full_vs_explicit():
    assert solve_dimension(SQEXP, "11") == solve_dimension(SQEXP, (1, 2))
    assert solve_dimension(SQEXP, "full") == solve_dimension(SQEXP, None)
    assert moran_bounds(SQEXP, "full", 0.7, 1e-13) == moran_bounds(SQEXP, None, 0.7, 1e-13)
    # the full selector of a finite family is every one of its symbols
    fam = ContractionFamily.explicit(["1/2", "1/3", "1/5"])
    assert solve_dimension(fam, "full") == solve_dimension(fam, (1, 2, 3))
    assert solve_dimension(fam, "full") == solve_dimension(fam, "111")


def test_selector_normalises_indices():
    assert repr(solve_dimension(SQEXP, (2, 2, 1))) == repr(solve_dimension(SQEXP, (1, 2)))
    assert repr(solve_dimension(SQEXP, (2, 1), tol=1e-20)) == repr(
        solve_dimension(SQEXP, (1, 2), tol=1e-20))
    assert moran_bounds(SQEXP, (3, 1, 3), 0.5, 1e-13) == moran_bounds(SQEXP, (1, 3), 0.5, 1e-13)
    for solve in (solve_dimension, lambda fam, sub: moran_bounds(fam, sub, 0.5, 1e-13)):
        with pytest.raises(ConfigError, match="start at 1"):
            solve(SQEXP, (0,))


@pytest.mark.parametrize("bad", [[1.5, 2], [1, 1.0, 2], [1.0, 1, 2], 3, ["a", "b"], "12"])
def test_selector_rejects_non_integer_indices_and_non_collections(bad):
    for call in (lambda: solve_dimension(SQEXP, bad), lambda: moran_bounds(SQEXP, bad, 0.5, 1e-13),
                 lambda: pressure(SQEXP, bad, 0.5), lambda: pressure_derivative(SQEXP, bad, 0.5)):
        with pytest.raises(ConfigError):
            call()


def test_selector_accepts_numpy_integers():
    assert solve_dimension(SQEXP, np.array([3, 1])) == solve_dimension(SQEXP, (1, 3))
    assert solve_dimension(SQEXP, [np.int64(2), 1]) == solve_dimension(SQEXP, (1, 2))
    assert moran_bounds(SQEXP, np.array([2, 1]), 0.5, 1e-13) == moran_bounds(SQEXP, (1, 2), 0.5, 1e-13)
