import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimspec.errors import ConfigError
from dimspec.words import (
    SubsetSelector,
    longest_common_prefix,
    subset_of_word,
    validate_word,
    word_of_subset,
)

words = st.text(alphabet="01", min_size=0, max_size=12)


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


def test_selector_full_vs_explicit():
    full = SubsetSelector.full()
    assert full.is_full
    with pytest.raises(ConfigError):
        len(full)
    sel = SubsetSelector.from_word("11")
    assert tuple(sel) == (1, 2)
    assert sel.as_word() == "11"
    assert not sel.is_full


def test_selector_normalises_indices():
    assert SubsetSelector.explicit((2, 2, 1)).indices == (1, 2)
    with pytest.raises(ConfigError):
        SubsetSelector.explicit((0,))


@pytest.mark.parametrize("bad", [[1.5, 2], 3, ["a", "b"], "12"])
def test_selector_rejects_non_integer_indices_and_non_collections(bad):
    with pytest.raises(ConfigError):
        SubsetSelector.explicit(bad)


def test_selector_accepts_numpy_integers():
    assert SubsetSelector.explicit(np.array([3, 1])).indices == (1, 3)
    assert SubsetSelector.explicit([np.int64(2), 1]).indices == (1, 2)
