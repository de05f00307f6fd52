import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from dimspec.errors import ConfigError, ToleranceNotReachable
from dimspec.families import ContractionFamily, parse_ratio

NAMED = ("square-exponent", "geometric", "type-three")
kinds = st.sampled_from(NAMED)
powers = st.floats(min_value=0.0, max_value=3.0, exclude_min=True)


def test_parse_ratio_exact_decimal():
    # decimal strings parse exactly, not through binary floats
    assert parse_ratio("0.2") == Fraction(1, 5)
    assert parse_ratio("0.25") == Fraction(1, 4)
    assert parse_ratio("1/3") == Fraction(1, 3)
    assert parse_ratio(Fraction(3, 7)) == Fraction(3, 7)


@pytest.mark.parametrize("bad", ["0", "1", "1.5", "-0.3", "abc", "0/1"])
def test_parse_ratio_rejects_out_of_range(bad):
    with pytest.raises(ConfigError):
        parse_ratio(bad)


def test_named_families():
    assert ContractionFamily.from_name("cantor-pair").ratio(2) == Fraction(1, 3)
    assert ContractionFamily.from_name("geometric").ratio(5) == Fraction(1, 32)
    sq = ContractionFamily.from_name("square-exponent")
    assert sq.ratio(3) == Fraction(1, 2**9)
    t3 = ContractionFamily.from_name("type-three")
    assert t3.ratio(1) == Fraction(1, 3)
    assert t3.ratio(4) == Fraction(1, 27)
    with pytest.raises(ConfigError):
        ContractionFamily.from_name("nope")


def test_explicit_family_is_finite():
    fam = ContractionFamily.explicit(["0.5", "0.25"])
    assert fam.size == 2
    assert not fam.is_infinite
    with pytest.raises(ConfigError):
        fam.ratio(3)


@pytest.mark.parametrize("name", ["square-exponent", "geometric", "type-three"])
def test_log2_ratio_matches_ratio(name):
    fam = ContractionFamily.from_name(name)
    for a in range(1, 9):
        expected = math.log2(fam.ratio(a))
        assert fam.log2_ratio(a) == pytest.approx(expected, rel=1e-14)


@given(st.integers(min_value=1, max_value=10),
       st.floats(min_value=0.05, max_value=3.0))
def test_term_double_positive_and_decreasing_in_a(a, s):
    fam = ContractionFamily.square_exponent()
    t1 = fam.term_double(a, s)
    t2 = fam.term_double(a + 1, s)
    assert 0.0 < t2 < t1


@pytest.mark.parametrize("name", ["square-exponent", "geometric", "type-three"])
@pytest.mark.parametrize("s", [0.2, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("n_cut", [1, 2, 5, 9])
def test_tail_majorant_dominates_partial_tails(name, s, n_cut):
    # The bound covers all indexes strictly beyond n_cut.  For
    # type-three the closed form equals the exact tail, so the float
    # evaluation may sit one ulp below the summed value; the solver
    # absorbs that with its certification slack, and so does this test.
    fam = ContractionFamily.from_name(name)
    partial = math.fsum(fam.term_double(a, s) for a in range(n_cut + 1, n_cut + 81))
    assert fam.tail_majorant(n_cut, s) >= partial * (1.0 - 1e-12)


def test_tail_majorant_explicit_family():
    fam = ContractionFamily.explicit(["0.5", "0.25", "0.125"])
    assert fam.tail_majorant(1, 1.0) == pytest.approx(0.25 + 0.125)
    assert fam.tail_majorant(2, 1.0) == pytest.approx(0.125)
    assert fam.tail_majorant(3, 1.0) == 0.0


def test_tail_majorant_diverges_at_zero():
    fam = ContractionFamily.geometric()
    assert fam.tail_majorant(3, 0.0) == math.inf


def test_describe_roundtrip():
    for fam in (
        ContractionFamily.square_exponent(),
        ContractionFamily.type_three(),
        ContractionFamily.explicit(["1/3", "1/3"]),
    ):
        again = ContractionFamily.from_description(fam.describe())
        assert again == fam


def test_theta_is_zero_for_all_kinds():
    for name in ("square-exponent", "geometric", "type-three", "cantor-pair"):
        assert ContractionFamily.from_name(name).theta == 0.0


# --- the exponent table against the per-kind formulas it replaced -------------

@given(kinds, st.integers(min_value=1, max_value=200))
def test_table_ratios_equal_the_per_kind_formulas(kind, a):
    assert ContractionFamily(kind).ratio(a) == oracles.ref_ratio(kind, a)


@given(kinds, st.integers(min_value=1, max_value=2**20), powers)
def test_table_terms_equal_the_per_kind_formulas(kind, a, s):
    fam = ContractionFamily(kind)
    assert fam.log2_ratio(a) == oracles.ref_log2_ratio(kind, a)
    for prec in (96, 200):
        with mpmath.workprec(prec):
            assert fam.term_mp(a, s) == oracles.ref_term_mp(kind, a, s)


def _outcome(fn, *args):
    """fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except (ZeroDivisionError, ToleranceNotReachable) as exc:
        return type(exc)


def _table_outcome(ref_outcome):
    """The table's outcome for the reference's: where the per-kind formula
    divides by zero, the table raises ToleranceNotReachable instead."""
    return ToleranceNotReachable if ref_outcome is ZeroDivisionError else ref_outcome


@given(kinds, st.integers(min_value=1, max_value=2**20), powers)
def test_table_tail_majorants_equal_the_per_kind_formulas(kind, n_cut, s):
    # For s near the precision's epsilon, 1 - base**(-step*s) rounds to
    # 0: the reference then divides by zero and the table raises.
    fam = ContractionFamily(kind)
    assert (_outcome(fam.tail_majorant, n_cut, s)
            == _table_outcome(_outcome(oracles.ref_tail_majorant, kind, n_cut, s)))
    for prec in (96, 200):
        with mpmath.workprec(prec):
            assert (_outcome(fam.tail_majorant_mp, n_cut, s)
                    == _table_outcome(_outcome(oracles.ref_tail_majorant_mp, kind, n_cut, s)))


def test_tail_majorant_rejects_a_flat_exponent_step():
    # type-three has ratio(1) == ratio(2), so no geometric bound starts at 0
    fam = ContractionFamily.type_three()
    with pytest.raises(ConfigError):
        fam.tail_majorant(0, 1.0)
    with pytest.raises(ConfigError):
        fam.tail_majorant_mp(0, 1.0)


# --- index validation -------------------------------------------------------------

@pytest.mark.parametrize("bad", [1.5, 2.0, "2", None])
def test_check_index_rejects_non_integers(bad):
    with pytest.raises(ConfigError):
        ContractionFamily.geometric().check_index(bad)


def test_check_index_accepts_ints_and_numpy_integers():
    fam = ContractionFamily.geometric()
    assert fam.check_index(2) == 2
    assert fam.check_index(np.int64(3)) == 3
    assert fam.ratio(np.int32(5)) == Fraction(1, 32)
