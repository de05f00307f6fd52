import math
import pickle
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dimspec import families
from dimspec.errors import ConfigError, ToleranceNotReachable
from dimspec.families import (
    NAMED_FAMILIES,
    WIDEN_UNITS,
    ContractionFamily,
    ln_enclosure,
    parse_ratio,
    power_enclosure,
    term_table,
    term_tail,
)
from dimspec.solver import _pair

NAMED = ("square-exponent", "geometric", "type-three")
kinds = st.sampled_from(NAMED)
powers = st.floats(min_value=0.0, max_value=3.0, exclude_min=True)


def test_parse_ratio_exact_decimal():
    # decimal strings parse exactly, not through binary floats
    assert parse_ratio("0.2") == Fraction(1, 5)
    assert parse_ratio("0.25") == Fraction(1, 4)
    assert parse_ratio("1/3") == Fraction(1, 3)
    assert parse_ratio(Fraction(3, 7)) == Fraction(3, 7)


@pytest.mark.parametrize("bad", ["0", "1", "1.5", "-0.3", "abc", "0/1", math.nan, math.inf])
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


@pytest.mark.parametrize("kind, ratios, message", [
    ("geometric", ["1/2"], "takes no explicit ratios"),
    ("explicit", [], "needs at least one ratio"),
    ("bogus", None, "unknown family kind"),
])
def test_the_family_constructor_rejects_what_it_cannot_build(kind, ratios, message):
    with pytest.raises(ConfigError, match=message):
        ContractionFamily(kind, ratios)


def test_an_explicit_family_shows_its_first_four_ratios():
    assert repr(ContractionFamily.explicit(["1/2", "1/3", "1/4", "1/5"])) == (
        "ContractionFamily(explicit, [1/2, 1/3, 1/4, 1/5])")
    assert repr(ContractionFamily.explicit(["1/2", "1/3", "1/4", "1/5", "1/6"])) == (
        "ContractionFamily(explicit, [1/2, 1/3, 1/4, 1/5, ...])")


def test_row_is_the_table_row_and_survives_pickling():
    # Worker processes receive pickled families; the solver reads (base, e) off row.
    for kind, row in NAMED_FAMILIES.items():
        fam = ContractionFamily(kind)
        assert fam.row == row
        assert pickle.loads(pickle.dumps(fam)).row == row
    assert ContractionFamily.explicit(["1/3", "1/2"]).row is None


def test_symbol_one_of_every_named_family_is_base_to_the_minus_one():
    # term_tail fills its powers from symbol 1's term_table row, which
    # encloses y = base**(-s) itself because e(1) = 1.
    assert [e(1) for _, e in NAMED_FAMILIES.values()] == [1] * len(NAMED_FAMILIES)


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
    # An explicit family is finite: there is no tail to majorise.
    fam = ContractionFamily.explicit(["0.5", "0.25", "0.125"])
    for n_cut in (1, 3):
        with pytest.raises(ConfigError):
            fam.tail_majorant(n_cut, 1.0)


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


# --- the exponent table against the per-kind formulas it replaced -------------

@given(kinds, st.integers(min_value=1, max_value=200))
def test_table_ratios_equal_the_per_kind_formulas(kind, a):
    assert ContractionFamily(kind).ratio(a) == oracles.ref_ratio(kind, a)


@given(kinds, st.integers(min_value=1, max_value=2**20), powers)
def test_table_terms_equal_the_per_kind_formulas(kind, a, s):
    # The mpmath tier's terms are enclosures now, checked below.
    fam = ContractionFamily(kind)
    assert fam.log2_ratio(a) == oracles.ref_log2_ratio(kind, a)
    assert fam.term_double(a, s) == 2.0 ** (s * oracles.ref_log2_ratio(kind, a))


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


# --- fixed-point enclosures against the per-kind formulas -----------------------

def _units(value, bits):
    """value * 2**bits as an mpf at the current precision."""
    return mpmath.ldexp(value, bits)


def _term_enclosure(fam, a, s, bits):
    """term_table's enclosure of ratio(a)**s alone."""
    [(lo, hi, _, _, _)] = term_table(fam, _pair(s), bits, [a])
    return lo, hi


@settings(deadline=None)
@given(kinds, st.integers(min_value=1, max_value=300), powers)
def test_term_enclosures_contain_the_per_kind_formulas(kind, a, s):
    fam = ContractionFamily(kind)
    for bits in (96, 200):
        lo, hi = _term_enclosure(fam, a, s, bits)
        with mpmath.workprec(bits + 64):
            exact = _units(oracles.ref_term_mp(kind, a, s), bits)
            assert lo <= exact <= hi
        # a chain of a steps loses a few units per step, not bits
        assert hi - lo <= 8 * a * a


@settings(deadline=None)
@given(kinds, st.integers(min_value=1, max_value=2000), powers)
def test_tail_enclosures_majorise_the_per_kind_formulas(kind, n_cut, s):
    fam = ContractionFamily(kind)
    for bits in (96, 200):
        row1 = next(term_table(fam, _pair(s), bits, [1]))
        tail = _outcome(lambda: term_tail(fam, row1, n_cut, bits))
        with mpmath.workprec(bits + 64):
            step = fam._tail_exponents(n_cut)[1]
            den = 1 - mpmath.power(NAMED_FAMILIES[kind][0], -step * mpmath.mpf(s))
            if tail is ToleranceNotReachable:
                # only where 1 - base**(-step*s) is within the chain's
                # rounding, a few units of 2**-bits per factor of y
                assert _units(den, bits) <= 4 * (step + 2)
            else:
                exact = _units(oracles.ref_tail_majorant_mp(kind, n_cut, s), bits)
                assert exact <= tail <= exact + 16 * (n_cut + 1) ** 2 / den**2


def test_power_enclosure_is_tight_and_needs_a_nonnegative_power():
    lo, hi = power_enclosure(Fraction(1, 2), (1, 0), 100)
    assert lo <= 2**99 <= hi and hi - lo <= 2 * WIDEN_UNITS
    assert power_enclosure(Fraction(1, 3), (0, 0), 64) == (2**64 - WIDEN_UNITS, 2**64)
    with pytest.raises(ConfigError):
        power_enclosure(Fraction(1, 2), (-1, 1), 64)


@settings(max_examples=150, deadline=None)
@given(st.fractions(min_value=Fraction(1, 10**30), max_value=1, max_denominator=10**30),
       st.integers(min_value=32, max_value=400))
def test_ln_enclosure_encloses_the_log_at_400_more_bits(ratio, bits):
    lo, hi = ln_enclosure(ratio.numerator, ratio.denominator, bits)
    with mpmath.workprec(bits + 400):
        exact = -mpmath.log(mpmath.mpf(ratio.numerator) / ratio.denominator) * mpmath.mpf(2) ** bits
        assert lo <= exact <= hi
    assert 0 <= lo and hi - lo <= 2 * WIDEN_UNITS


@st.composite
def _runs(draw):
    """Runs of consecutive indices, which term_table steps along, spliced
    with jumps to any index up to 10**6 and repeats of the index before."""
    symbols = []
    starts = st.one_of(st.integers(1, 40), st.integers(1, 10**6))
    for start, length, repeat in draw(st.lists(
            st.tuples(starts, st.integers(1, 12), st.booleans()), max_size=4)):
        symbols += range(start, start + length)
        if repeat:
            symbols.append(symbols[-1])
    return symbols


@st.composite
def table_cases(draw):
    """(family, symbols): a named family with any list of indices up to
    10**6 (repeats, any order, possibly empty) or runs of them, or an
    explicit family with any list of its own indices."""
    if draw(st.booleans()):
        anywhere = st.lists(st.integers(1, 10**6), max_size=8)
        return ContractionFamily(draw(kinds)), draw(st.one_of(anywhere, _runs()))
    ratios = draw(st.lists(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(999, 1000),
                                        max_denominator=10**6), min_size=1, max_size=6))
    fam = ContractionFamily.explicit(ratios)
    return fam, draw(st.lists(st.integers(1, len(ratios)), max_size=8))


def _ref_ln(fam, a):
    """|ln ratio(a)| at the current mpmath precision; a named ratio is
    read as its term at s = 1, since 2**-(10**12) has no Fraction."""
    if fam.is_infinite:
        return -mpmath.log(oracles.ref_term_mp(fam.kind, a, 1))
    return -mpmath.log(mpmath.mpf(fam.ratio(a).numerator) / fam.ratio(a).denominator)


@settings(max_examples=150, deadline=None)
@given(table_cases(), powers, st.integers(min_value=64, max_value=200))
def test_term_table_rows_enclose_each_term_and_its_log(case, s, bits):
    # Every finite selection is evaluated from these rows, so each one
    # must enclose its own term and |ln ratio| whatever the other
    # symbols listed, and carry the products the moments add up.
    fam, symbols = case
    rows = list(term_table(fam, _pair(s), bits, symbols))
    assert len(rows) == len(symbols)
    with mpmath.workprec(bits + oracles.PREC):
        for a, (t_lo, t_hi, m_lo, m_hi, l_hi) in zip(symbols, rows):
            term, ln = _units(oracles.ref_term(fam, a, s), bits), _units(_ref_ln(fam, a), bits)
            assert t_lo <= term <= t_hi
            assert ln <= l_hi and m_hi == t_hi * l_hi
            # m_lo = t_lo * l_lo for some l_lo <= |ln ratio| * 2**bits
            assert m_lo == 0 if t_lo == 0 else m_lo % t_lo == 0 and m_lo // t_lo <= ln


def test_a_run_of_symbols_steps_from_term_to_term(monkeypatch):
    # Along consecutive symbols each term is the one before times its
    # step factor, so square-exponent 1..12 fills y**2 and y**3 for the
    # first step and multiplies by y**2 after that: two powers, not a
    # square-and-multiply chain per symbol.
    fills = []
    missing = families._Powers.__missing__

    def filled(self, k):
        fills.append(k)
        return missing(self, k)

    monkeypatch.setattr(families._Powers, "__missing__", filled)
    rows = list(term_table(ContractionFamily.square_exponent(), (1, 1), 200, range(1, 13)))
    assert len(rows) == 12 and len(fills) <= 2


def test_tail_majorant_rejects_a_flat_exponent_step():
    # type-three has ratio(1) == ratio(2), so no geometric bound starts at 0
    fam = ContractionFamily.type_three()
    with pytest.raises(ConfigError):
        fam.tail_majorant(0, 1.0)
    with pytest.raises(ConfigError):
        term_tail(fam, None, 0, 96)


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
