import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dimspec import construction
from dimspec.construction import (
    DEFAULT_CLOUD_DEPTH_CAP,
    enumerate_word,
    f_exponents,
    f_tail_bound,
    f_value,
    g_exponent,
    g_value,
    k_set_cloud,
    separation_check,
    sparse_compare,
    sparse_to_mpf,
    word_index,
)
from dimspec.errors import CapExceeded, ConfigError, ExponentBudgetError

words = st.text(alphabet="01", min_size=0, max_size=8)


# --- enumeration -------------------------------------------------------------

def test_word_index_examples():
    assert word_index("") == 1
    assert word_index("0") == 2
    assert word_index("1") == 3
    assert word_index("00") == 4
    assert word_index("11") == 7


@given(words)
def test_enumeration_roundtrip(w):
    assert enumerate_word(word_index(w)) == w


def test_enumeration_is_length_then_lex():
    listed = [enumerate_word(n) for n in range(1, 16)]
    assert listed == ["", "0", "1", "00", "01", "10", "11",
                      "000", "001", "010", "011", "100", "101", "110", "111"]


def test_enumeration_index_starts_at_1_and_stops_at_the_word_cap():
    with pytest.raises(ConfigError, match="starts at 1"):
        enumerate_word(0)
    assert len(enumerate_word((1 << 21) - 1)) == 20
    with pytest.raises(CapExceeded, match="longer than cap 20"):
        enumerate_word(1 << 21)


# --- weights ------------------------------------------------------------------

def test_g_exponent_examples():
    assert g_exponent("") == 2 * math.factorial(1)
    assert g_exponent("1") == 2 * math.factorial(3)
    assert g_exponent("11") == 2 * math.factorial(7)


@given(words)
def test_g_exponent_matches_oracle(w):
    assert g_exponent(w) == oracles.oracle_g_exponent(w)


def test_g_value_examples():
    assert g_value("") == Fraction(1, 4)
    assert g_value("1") == Fraction(1, 2**12)


def test_f_value_examples():
    assert f_value("1") == Fraction(1, 4)
    assert f_value("11") == Fraction(1, 4) + Fraction(1, 2**12)
    assert f_value("0") == 0
    assert f_value("01") == Fraction(1, 2**4)


@given(st.text(alphabet="01", min_size=0, max_size=2))
def test_f_value_matches_fraction_oracle(w):
    assert f_value(w) == oracles.oracle_f_fraction(w)


def test_budget_blocks_giant_materialisations():
    # index("001") = 9 is beyond the default materialisation budget
    with pytest.raises(ExponentBudgetError):
        f_value("0011")
    # raising the budget admits it
    assert f_value("0011", budget=16) > 0


def test_budget_has_a_hard_ceiling():
    # index("111") = 15: its weight 4**(-15!) would need 2 * 15! bits
    # (about 330 GB); no budget admits it, and nothing is allocated.
    with pytest.raises(ExponentBudgetError):
        g_value("111", budget=16)
    with pytest.raises(ExponentBudgetError):
        f_tail_bound("111", budget=16)
    with pytest.raises(ExponentBudgetError):
        f_value("1111", budget=16)


@pytest.mark.parametrize("count", [3.7, 2.5, None, "x"])
def test_counts_must_be_integers(count):
    # A fractional count is never truncated, and a non-number is a
    # ConfigError rather than a TypeError.
    with pytest.raises(ConfigError, match="budget must be an integer"):
        f_value("1", budget=count)
    with pytest.raises(ConfigError, match="budget must be an integer"):
        f_tail_bound("1", budget=count)
    with pytest.raises(ConfigError, match="budget must be an integer"):
        g_value("1", budget=count)
    with pytest.raises(ConfigError, match="digits must be an integer"):
        separation_check("10", "11").difference_approx(count)
    with pytest.raises(ConfigError, match="digits must be an integer"):
        k_set_cloud(1)[1].approx(count)
    with pytest.raises(ConfigError, match="digits must be an integer"):
        sparse_to_mpf((), count)


@pytest.mark.parametrize("digits", [0, -100])
def test_digits_must_be_positive(digits):
    # A display window of no bits would drop every term and read 0.
    with pytest.raises(ConfigError, match="digits must be at least 1"):
        sparse_to_mpf((2, 12), digits)


def test_f_tail_bound_values():
    assert f_tail_bound("") == Fraction(1, 12)
    # one third of g(w), exactly
    assert f_tail_bound("1") == Fraction(1, 3 * 2**12)


@given(st.text(alphabet="01", min_size=0, max_size=2))
def test_tail_bound_consistent_with_child_step(w):
    # appending '1' adds exactly g(w), which is three tail bounds
    step = f_value(w + "1", budget=16) - f_value(w, budget=16)
    assert step == 3 * f_tail_bound(w)


# --- sparse comparison -----------------------------------------------------------

exponents = st.sets(st.integers(min_value=1, max_value=200), min_size=0, max_size=6)


@given(exponents, exponents)
def test_sparse_compare_matches_fractions(a, b):
    ta, tb = tuple(sorted(a)), tuple(sorted(b))
    fa = sum((Fraction(1, 2**e) for e in ta), Fraction(0))
    fb = sum((Fraction(1, 2**e) for e in tb), Fraction(0))
    assert sparse_compare(ta, tb) == (fa > fb) - (fa < fb)


# --- the cloud -------------------------------------------------------------------

def test_cloud_depth_one():
    cloud = k_set_cloud(1)
    assert [p.word for p in cloud] == ["0", "1"]
    assert cloud[0].exponents == ()
    assert cloud[1].exponents == (2,)  # value 1/4


def test_cloud_depth_two_minimum_gap():
    cloud = k_set_cloud(2)
    fractions = []
    for p in cloud:
        fractions.append(sum((Fraction(1, 2**e) for e in p.exponents), Fraction(0)))
    gaps = [b - a for a, b in zip(fractions, fractions[1:])]
    # smallest spacing is g("1") = 2**-12, between "10" and "11"
    assert min(gaps) == Fraction(1, 2**12)
    assert min(gaps) >= Fraction(2, 3) * Fraction(1, 2**12)


def test_cloud_sorted_and_injective():
    cloud = k_set_cloud(5)
    assert len(cloud) == 32
    for a, b in zip(cloud, cloud[1:]):
        assert sparse_compare(a.exponents, b.exponents) < 0


def test_cloud_order_equals_word_order():
    cloud = k_set_cloud(6)
    assert [p.word for p in cloud] == sorted(p.word for p in cloud)


def test_cloud_depth_cap():
    with pytest.raises(CapExceeded):
        k_set_cloud(DEFAULT_CLOUD_DEPTH_CAP + 1)
    with pytest.raises(ConfigError, match="depth must be >= 0"):
        k_set_cloud(-1)


# --- separation ---------------------------------------------------------------------

def test_separation_single_step_example():
    chk = separation_check("10", "11")
    assert chk.satisfied
    assert chk.prefix == "1"
    # the difference is exactly g("1"), margin (3*1 - 2) = 1
    assert chk.margin == pytest.approx(1.0)
    assert chk.threshold_exponent == g_exponent("1")


def test_separation_rejects_unequal_lengths():
    with pytest.raises(ConfigError):
        separation_check("1", "10")
    with pytest.raises(ConfigError):
        separation_check("11", "11")


def test_separation_of_padded_prefix():
    # comparing a word with its own extension means padding with zeros
    chk = separation_check("10", "11")
    padded = separation_check("1" + "0", "1" + "1")
    assert chk == padded


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_separation_always_satisfied(length, data):
    a = data.draw(st.integers(min_value=0, max_value=(1 << length) - 1))
    b = data.draw(st.integers(min_value=0, max_value=(1 << length) - 1))
    if a == b:
        return
    wa, wb = format(a, f"0{length}b"), format(b, f"0{length}b")
    chk = separation_check(wa, wb)
    assert chk.satisfied
    assert chk.margin >= 0.0


equal_length_pairs = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(st.text(alphabet="01", min_size=n, max_size=n),
                       min_size=2, max_size=2, unique=True))


@settings(max_examples=200, deadline=None)
@given(equal_length_pairs)
def test_separation_margin_matches_oracle(pair):
    omega, tau = pair
    chk = separation_check(omega, tau)
    assert chk.satisfied
    assert chk.margin == oracles.oracle_separation_margin(omega, tau)


def _validated(monkeypatch):
    """Record every word construction.validate_word sees."""
    seen = []
    real = construction.validate_word

    def spy(word):
        seen.append(word)
        return real(word)

    monkeypatch.setattr(construction, "validate_word", spy)
    return seen


def test_separation_check_validates_only_its_two_words(monkeypatch):
    seen = _validated(monkeypatch)
    separation_check("0110101", "0111001")
    assert seen == ["0110101", "0111001"]


def test_f_value_validates_its_word_and_each_charged_prefix_once(monkeypatch):
    seen = _validated(monkeypatch)
    assert f_value("0011", budget=10) == oracles.oracle_f_fraction("0011")
    assert seen == ["0011", "00", "001"]


@pytest.mark.parametrize("depth", [0, 1, 4, 8])
def test_k_set_cloud_validates_each_word_at_most_once(monkeypatch, depth):
    seen = _validated(monkeypatch)
    k_set_cloud(depth)
    assert max(Counter(seen).values(), default=0) <= 1


def test_separation_difference_dominated_by_prefix_weight():
    # |f(tau) - f(omega)| is at least two thirds of g(prefix) but at
    # most f(prefix + '1') - f(prefix) + tail = (4/3) g(prefix)
    chk = separation_check("1011", "1100")
    w = float(chk.difference_approx())
    g = 2.0 ** (-chk.threshold_exponent)
    assert (2.0 / 3.0) * g <= w <= (4.0 / 3.0) * g


# --- sparse view of f ------------------------------------------------------------------

@given(words)
def test_f_exponents_sorted_and_distinct(w):
    exps = f_exponents(w)
    assert list(exps) == sorted(set(exps))
    assert len(exps) == w.count("1")
