import dataclasses
import inspect
import math
import pickle
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, round_ceiling, round_floor, to_float

import oracles
from dimspec import families, solver, spectrum
from dimspec.errors import ConfigError, DimspecError, DivergentSum, ToleranceNotReachable
from dimspec.families import ContractionFamily, term_table, term_tail
from dimspec.solver import (
    DEFAULT_TOL,
    moran_bounds,
    pressure,
    pressure_derivative,
    solve_dimension,
)
from dimspec.words import subset_of_word

SQEXP = ContractionFamily.square_exponent()
GEO = ContractionFamily.geometric()
T3 = ContractionFamily.type_three()


# --- the Moran sum: moran_bounds --------------------------------------------

def _mid(family, subset, s):
    lower, upper, _ = moran_bounds(family, subset, s, 1e-13)
    return 0.5 * (lower + upper)


def test_moran_sum_full_square_exponent_at_one():
    assert _mid(SQEXP, "full", 1.0) == pytest.approx(oracles.SQEXP_SUM_AT_1, abs=1e-13)


def test_moran_sum_explicit_subset():
    assert _mid(SQEXP, (1, 2), 1.0) == pytest.approx(0.5 + 0.0625, abs=1e-15)
    assert _mid(SQEXP, "11", 1.0) == pytest.approx(0.5 + 0.0625, abs=1e-15)


def test_moran_sum_diverges_at_theta():
    assert moran_bounds(SQEXP, "full", 0.0, 1e-13) == (math.inf, math.inf, -math.inf)
    assert moran_bounds(GEO, "full", 0.0, 1e-13) == (math.inf, math.inf, -math.inf)
    assert moran_bounds(GEO, "full", 0.0, 1e-10, 96) == (math.inf, math.inf, -math.inf)


def test_moran_sum_empty_and_negative():
    assert moran_bounds(SQEXP, (), 0.7, 1e-13)[:2] == (0.0, 0.0)
    for prec in (None, 96):
        with pytest.raises(ConfigError):
            moran_bounds(SQEXP, "full", -0.1, 1e-13, prec)


def test_fixed_point_moran_bounds_keep_every_bit_of_an_mpf_s():
    # s = 1/3 at 200 bits differs from float(s) by about 1e-17, far more
    # than the width of 200-bit sums, so only sums at the exact s
    # enclose the sum there.
    with mpmath.workprec(200):
        s = mpmath.mpf(1) / 3
    exact = moran_bounds(SQEXP, (1, 2, 3), s, 1e-40, 200)
    rounded = moran_bounds(SQEXP, (1, 2, 3), float(s), 1e-40, 200)
    with mpmath.workprec(400):
        total = mpmath.fsum(mpmath.power(2, -(a * a) * s) for a in (1, 2, 3))
        assert exact[0] <= total <= exact[1]
        assert not rounded[0] <= total <= rounded[1]


@given(st.floats(min_value=0.3, max_value=3.0))
def test_moran_sum_bounds_are_ordered(s):
    lower, upper, _ = moran_bounds(SQEXP, "full", s, 1e-13)
    assert 0 < lower <= upper


# --- solve_dimension: closed forms ------------------------------------------

def test_cantor_pair_dimension():
    iv = solve_dimension(ContractionFamily.from_name("cantor-pair"), tol=1e-12)
    assert iv.lo <= oracles.LOG2_OVER_LOG3 <= iv.hi
    assert iv.width <= 1e-12


def test_golden_ratio_dimension():
    fam = ContractionFamily.explicit([Fraction(1, 2), Fraction(1, 4)])
    iv = solve_dimension(fam, tol=1e-12)
    assert iv.mid == pytest.approx(oracles.GOLDEN_LOG2, abs=1e-12)


def test_geometric_full_is_one_with_ambient_upper_end():
    iv = solve_dimension(GEO)
    assert iv.hi == 1.0
    assert iv.hi_is_ambient
    assert iv.lo <= 1.0 <= iv.hi


def test_type_three_full():
    iv = solve_dimension(T3, tol=1e-11)
    assert iv.mid == pytest.approx(oracles.TYPE_THREE_FULL, abs=1e-11)


def test_singleton_is_exactly_zero():
    iv = solve_dimension(ContractionFamily.explicit(["0.5"]))
    assert (iv.lo, iv.hi) == (0.0, 0.0)
    assert iv.exact


def test_empty_subset_is_exactly_zero():
    iv = solve_dimension(SQEXP, ())
    assert (iv.lo, iv.hi) == (0.0, 0.0) and iv.exact


def test_half_quarter_eighth():
    fam = ContractionFamily.explicit(["1/2", "1/4", "1/8"])
    iv = solve_dimension(fam, tol=1e-12)
    assert iv.mid == pytest.approx(oracles.HALF_QUARTER_EIGHTH, abs=1e-12)


def test_geometric_one_to_four():
    iv = solve_dimension(GEO, (1, 2, 3, 4), tol=1e-12)
    assert iv.mid == pytest.approx(oracles.GEOMETRIC_1234, abs=1e-12)


@pytest.mark.parametrize(
    "subset,expected",
    [
        ((1, 2), oracles.SQEXP_12),
        ((1, 2, 3), oracles.SQEXP_123),
        ((1, 2, 4), oracles.SQEXP_124),
        ((1, 4), oracles.SQEXP_1_16),
        ("full", oracles.SQEXP_FULL),
    ],
)
def test_square_exponent_roots(subset, expected):
    iv = solve_dimension(SQEXP, subset)
    assert iv.lo <= expected <= iv.hi
    assert iv.width <= DEFAULT_TOL


# --- certificates ------------------------------------------------------------

subset_strategy = st.sets(st.integers(min_value=1, max_value=11), min_size=2, max_size=6)


@settings(max_examples=60, deadline=None)
@given(subset_strategy)
def test_certificates_bracket_the_root(indices):
    subset = tuple(sorted(indices))
    iv = solve_dimension(SQEXP, subset)
    assert moran_bounds(SQEXP, subset, iv.lo, iv.width_budget)[0] >= 1.0
    assert moran_bounds(SQEXP, subset, iv.hi, iv.width_budget)[1] <= 1.0


@settings(max_examples=25, deadline=None)
@given(subset_strategy)
def test_enclosure_contains_oracle_root(indices):
    subset = tuple(sorted(indices))
    iv = solve_dimension(SQEXP, subset, tol=1e-11)
    root = oracles.sqexp_root(subset)
    assert iv.lo <= root <= iv.hi


@settings(max_examples=20, deadline=None)
@given(subset_strategy)
def test_the_bracketed_oracle_root_agrees_with_bisection(indices):
    subset = tuple(sorted(indices))
    sums = oracles.sqexp_sum(subset)
    assert abs(oracles.bracketed_root(sums) - oracles.bisect_root(sums)) <= 2.0**-168


# --- solve, then certify ---------------------------------------------------------

FULL_SUMS = {
    "square-exponent": oracles.sqexp_full_sum,
    "geometric": oracles.geometric_full_sum,
    "type-three": oracles.type_three_full_sum,
}

selections = st.one_of(
    st.tuples(
        st.sampled_from(["square-exponent", "geometric"]),
        st.sets(st.integers(min_value=1, max_value=12), min_size=2, max_size=8)
        .map(lambda s: tuple(sorted(s))),
    ),
    st.tuples(st.sampled_from(sorted(FULL_SUMS)), st.just("full")),
)
# log-uniform from 1e-8 (double tier) down to 1e-30 (mpmath tier)
tolerances = st.floats(min_value=-30.0, max_value=-8.0).map(lambda e: 10.0**e)


def _oracle_root(kind, subset):
    if subset == "full":
        return oracles.bisect_root(FULL_SUMS[kind])
    if kind == "square-exponent":
        return oracles.bisect_root(oracles.sqexp_sum(subset))
    return oracles.bisect_root(oracles.ratio_sum([Fraction(1, 2**a) for a in subset]))


@settings(max_examples=80, deadline=None)
@given(selections, tolerances)
def test_enclosure_contains_root_within_newton_width(selection, tol):
    kind, subset = selection
    fam = ContractionFamily(kind)
    iv = solve_dimension(fam, subset, tol=tol)
    if tol < solver.TOL_MIN_DOUBLE:
        assert iv.tier == "mpmath"
    assert iv.lo <= _oracle_root(kind, subset) <= iv.hi
    # The certified Newton bracket is x -/+ 0.4 tol rounded outward; an
    # enclosure that ends at the ambient bound 1 keeps a budget of tol.
    budget = tol if iv.hi_is_ambient else 0.8 * tol
    assert iv.width <= budget + 2 * math.ulp(iv.hi)


@st.composite
def certified_solves(draw):
    """(family, subset, tol, precision_bits): a named selection from
    selections at a tol from tolerances, the tier left to the solver, or
    an explicit family of 2 to 6 ratios pinned to the mpmath tier."""
    if draw(st.booleans()):
        kind, subset = draw(selections)
        return ContractionFamily(kind), subset, draw(tolerances), None
    ratios = draw(st.lists(st.fractions(min_value=Fraction(1, 50), max_value=Fraction(9, 10),
                                        max_denominator=100), min_size=2, max_size=6))
    prec = draw(st.integers(min_value=64, max_value=200))
    exponent = draw(st.floats(min_value=max(-30.0, (13 - prec) * math.log10(2)), max_value=-6.0))
    return ContractionFamily.explicit(ratios), "full", 10.0**exponent, prec


@settings(max_examples=40, deadline=None)
@given(certified_solves())
@example((SQEXP, "full", 1e-25, None))
@example((GEO, "full", 1e-20, None))
@example((ContractionFamily.explicit(["1/3", "1/3", "1/2"]), "full", 1e-9, 80))
def test_certificates_sit_at_the_reported_endpoints(case):
    # Both tiers certify from their last Newton evaluation, so cert_lo
    # and cert_hi are its mean-value bounds on the sums at lo and hi; the
    # 200-bit sums must lie beyond them.
    fam, subset, tol, prec = case
    iv = solve_dimension(fam, subset, tol=tol, precision_bits=prec)
    indices = solver._indices(fam, subset)
    assert 1.0 <= iv.cert_lo <= oracles.ref_sum(fam, indices, iv.lo, oracles.PREC)
    if not iv.hi_is_ambient:
        assert oracles.ref_sum(fam, indices, iv.hi, oracles.PREC) <= iv.cert_hi <= 1.0
    if iv.hi_is_ambient:
        assert iv.hi == 1.0 and iv.cert_hi is None


@pytest.mark.parametrize("tol", [1e-10, 1e-13, 1e-22])
@pytest.mark.parametrize("subset", [(1, 2, 5), "full"])
def test_newton_iterate_off_the_root_never_yields_an_interval(monkeypatch, subset, tol):
    # A Newton iterate 0.25 to the right of its start, evaluated there,
    # misses the root in both tiers: the double tier's bracket fails and
    # escalates (when tol is within its reach); the mpmath tier, allowed
    # one Newton step from there, checks the new bracket only from the
    # evaluation at the off-root iterate, which lies above it, so its one
    # mean-value check fails and it raises.
    tiers, refusals = [], []
    fixed_newton = solver._fixed_newton

    def double_off_the_root(bounds, x, tol):
        tiers.append(None)
        return x + 0.25, x + 0.25, bounds(x + 0.25)

    def fixed_newton_spy(sums, x, tol, prec):
        tiers.append(prec)
        return fixed_newton(sums, x, tol, prec)

    def refusal_spy(accept):
        def spy(*args):
            verdict = accept(*args)
            if isinstance(verdict, str):
                refusals.append(verdict)
            return verdict
        return spy

    monkeypatch.setattr(solver, "_newton", double_off_the_root)
    monkeypatch.setattr(solver, "_fixed_newton", fixed_newton_spy)
    monkeypatch.setattr(solver, "NEWTON_STEPS", 1)
    monkeypatch.setattr(solver, "_accept", refusal_spy(solver._accept))
    with pytest.raises(ToleranceNotReachable, match="cannot certify .* around the Newton iterate"):
        solve_dimension(SQEXP, subset, tol=tol)
    assert tiers == [None, max(96, math.ceil(-math.log2(tol)) + 50)]
    assert len(refusals) == (2 if tol >= solver.TOL_MIN_DOUBLE else 1)


def _dyadic_fraction(x):
    """An mpf as an exact Fraction."""
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("fam,subset", [(SQEXP, (1, 2, 5)), (T3, (1, 3, 4)),
                                        (ContractionFamily.explicit(["1/3", "1/4", "2/5"]), "full")])
def test_the_mean_value_check_needs_its_moment_and_its_exponent_bound(monkeypatch, fam, subset):
    # One Newton step from a point 0.3 tol left of the 200-bit root, where
    # the sum still exceeds 1, so only the moment can carry the upper
    # bound at hi below 1.  With the true evaluation the bracket
    # certifies; with the moment zeroed, or with the bound on |ln ratio|
    # (e_max * ln base for a named family) inflated until the factor
    # 1 - e_max (hi - x) ln base is 0, the same bracket is refused.
    # Inflating the moment itself would only loosen both bounds.
    tol, prec = 1e-20, 120
    indices = solver._indices(fam, subset)
    root = oracles.bisect_root(lambda s: oracles.ref_sum(fam, indices, s, oracles.PREC))
    at = _dyadic_fraction(root) - Fraction(0.3 * tol)
    sums = solver._fixed_bounds(fam, indices, tol, prec)
    monkeypatch.setattr(solver, "NEWTON_STEPS", 1)
    assert solver._fixed_newton(sums, at, tol, prec)
    mean_value = solver._mean_value
    for corrupt in [lambda lo, hi, moment, moment_hi, ln_max, bits:
                    (lo, hi, 0, moment_hi, ln_max, bits),
                    lambda lo, hi, moment, moment_hi, ln_max, bits:
                    (lo, hi, moment, moment_hi, ln_max << 200, bits)]:
        monkeypatch.setattr(solver, "_mean_value", lambda lo, hi, at, q, evaluation, corrupt=corrupt:
                            mean_value(lo, hi, at, q, corrupt(*evaluation)))
        with pytest.raises(ToleranceNotReachable, match="mean-value upper bound at hi"):
            solver._fixed_newton(sums, at, tol, prec)


@st.composite
def mean_value_cases(draw):
    """(family, subset, tol, interval, at): a named or explicit finite
    selection, or a named full selector, a tol in [1e-40, 1e-14], the
    certified interval of its root at tol, and a point at, an exact
    dyadic Fraction, within 4 steps 2**-g of either end of the interval,
    g = ceil(-log2(tol)/2) + 8 (so 2**-g is about the square root of
    tol), 0.01 to 2 above it, or 5% to 95% of the way from 0 to its
    lower end."""
    kind = draw(st.sampled_from(["square-exponent", "geometric", "type-three", "explicit"]))
    if kind == "explicit":
        ratios = draw(st.lists(st.fractions(min_value=Fraction(1, 50), max_value=Fraction(9, 10),
                                            max_denominator=100), min_size=2, max_size=6))
        fam = ContractionFamily.explicit(ratios)
        subset = draw(st.sets(st.integers(1, len(ratios)), min_size=2))
    else:
        fam = ContractionFamily(kind)
        subset = draw(st.one_of(st.just("full"),
                                st.sets(st.integers(1, 14), min_size=2, max_size=8)))
    tol = 10.0 ** draw(st.floats(min_value=-40.0, max_value=-14.0))
    iv = solve_dimension(fam, subset, tol=tol)
    g = math.ceil(-math.log2(tol) / 2) + 8
    near = st.tuples(st.sampled_from([iv.lo, iv.hi]), st.integers(-4 << 10, 4 << 10)).map(
        lambda end_k: Fraction(end_k[0]) + Fraction(end_k[1], 1 << (g + 10)))
    above = st.floats(min_value=0.01, max_value=2.0).map(lambda d: Fraction(iv.hi + d))
    below = st.floats(min_value=0.05, max_value=0.95).map(lambda u: Fraction(iv.lo * u))
    return fam, subset, tol, iv, draw(st.one_of(near, above, below))


@settings(max_examples=150, deadline=None)
@given(mean_value_cases())
@example((SQEXP, (1, 2, 5), 1e-30, solve_dimension(SQEXP, (1, 2, 5), tol=1e-30), Fraction(0.48)))
@example((SQEXP, "full", 1e-25, solve_dimension(SQEXP, "full", tol=1e-25), Fraction(0.5)))
@example((SQEXP, "full", 1e-25, solve_dimension(SQEXP, "full", tol=1e-25), Fraction(0.51)))
def test_mean_value_bounds_hold_on_both_sides_of_the_bracket(case):
    # The bounds _mean_value draws from one evaluation hold against the
    # 200-bit sums at lo and at hi, whichever side of each end the point
    # lies.  A far side (the point below lo, or above hi) needs the upper
    # moment, which a full selector lacks, and above hi also
    # 2 * ln_max * (at - hi) < 1; otherwise it is -inf (inf).
    fam, subset, tol, iv, at = case
    assume(at > 0)
    indices = solver._indices(fam, subset)
    pair = at.numerator, at.denominator.bit_length() - 1
    evaluation = solver._fixed_bounds(fam, indices, tol, solver._auto_prec(tol))(pair)
    lower, upper = solver._mean_value(iv.lo, iv.hi, *pair, evaluation)
    assert lower <= oracles.ref_sum(fam, indices, iv.lo, oracles.PREC)
    assert upper >= oracles.ref_sum(fam, indices, iv.hi, oracles.PREC)
    _, _, _, moment_hi, ln_max, bits = evaluation
    assert (moment_hi is None) == (indices is None)
    if at < iv.lo:
        assert (lower == -math.inf) == (moment_hi is None)
    if at > iv.hi:
        reach = Fraction(2 * ln_max, 1 << bits) * (at - Fraction(iv.hi))
        assert (upper == math.inf) == (moment_hi is None or reach >= 1)


@st.composite
def double_tier_solves(draw):
    """(family, subset, tol) at a tol in [1e-14, 0.1]: a named selection
    of 2 to 8 symbols of 1..16, half of them with one more steep symbol
    (square-exponent's term of 40..300 lies below 2**-700 at its root),
    a named full selector, or an explicit family of 2 to 6 ratios.  The
    explicit ratios are fractions (a sum above 1 ends at the ambient 1)
    or powers 2**-k up to k = 2000 (a root below 0.4 tol clips lo to 0)."""
    tol = 10.0 ** draw(st.floats(min_value=-14.0, max_value=-1.0))
    kind = draw(st.sampled_from(["named", "full", "fractions", "powers"]))
    if kind == "full":
        return ContractionFamily(draw(st.sampled_from(sorted(FULL_SUMS)))), "full", tol
    if kind == "fractions":
        ratios = draw(st.lists(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(99, 100),
                                            max_denominator=1000), min_size=2, max_size=6))
        return ContractionFamily.explicit(ratios), "full", tol
    if kind == "powers":
        ks = draw(st.lists(st.integers(min_value=1, max_value=2000), min_size=2, max_size=4))
        return ContractionFamily.explicit([Fraction(1, 2**k) for k in ks]), "full", tol
    subset = draw(st.sets(st.integers(min_value=1, max_value=16), min_size=2, max_size=8))
    if draw(st.booleans()):
        subset.add(draw(st.integers(min_value=40, max_value=300)))
    return ContractionFamily(draw(st.sampled_from(sorted(FULL_SUMS)))), tuple(sorted(subset)), tol


def _two_sum_rule(fam, indices, tol):
    """How the double tier decided with one-sided sums: (lo, hi,
    hi_is_ambient) of the bracket around _newton's iterate, certified by
    the lower sum at lo and the upper sum at hi, each summed term by
    term; None where it escalated."""
    found = solver._newton(solver._double_bounds(fam, indices, tol),
                           0.5 if indices is None else 0.0, tol)
    if tol < solver.TOL_MIN_DOUBLE or found is None:
        return None
    lo, hi = solver._bracket(found[0] - 0.4 * tol, found[0] + 0.4 * tol, tol)
    verdict = solver._accept(hi, oracles.term_by_term_bounds(fam, indices, lo, tol)[0],
                             oracles.term_by_term_bounds(fam, indices, hi, tol)[1], "one-sided")
    return None if isinstance(verdict, str) else (lo, hi, verdict[2])


@settings(max_examples=150, deadline=None)
@given(double_tier_solves())
@example((SQEXP, (1, 2, 10**9), 1e-10))
@example((SQEXP, (6, 7, 200), 1e-4))  # the mean-value bound at hi fails; the sum there certifies
@example((ContractionFamily.explicit(["9/10"] * 3), "full", 1e-10))
@example((GEO, "full", 1e-10))
@example((ContractionFamily.explicit([Fraction(1, 2**1000), Fraction(1, 2**900)]), "full", 0.01))
def test_double_tier_certificates_lie_inside_200_bit_sums(case):
    # The double tier certifies from its last Newton evaluation, and so
    # reports the lo, hi and tier that the one-sided sums at lo and hi
    # did; its certificates lie inside the 200-bit sums there.
    fam, subset, tol = case
    indices = solver._indices(fam, subset)
    expected = _two_sum_rule(fam, indices, tol)
    try:
        iv = solve_dimension(fam, subset, tol=tol)
    except ToleranceNotReachable:
        assert expected is None
        return
    assert iv.tier == ("mpmath" if expected is None else "double")
    if expected is None:
        return
    assert (iv.lo, iv.hi, iv.hi_is_ambient) == expected
    assert 1.0 <= iv.cert_lo <= oracles.ref_sum(fam, indices, iv.lo, oracles.PREC)
    if not iv.hi_is_ambient:
        assert oracles.ref_sum(fam, indices, iv.hi, oracles.PREC) <= iv.cert_hi <= 1.0


@st.composite
def near_bound_cases(draw):
    """(family, indices, tol, lo, at, hi): a selection and tol as
    double_tier_solves draws them, a point at in [0.01, 1100] (far above
    a root the sum falls below 2**-700 and the moment to 0), and lo and
    hi within 2**-30 to 1 of it, lo at least at / 2."""
    fam, subset, tol = draw(double_tier_solves())
    at = draw(st.floats(min_value=0.01, max_value=1100.0))
    lo = at - min(at / 2, 2.0 ** draw(st.floats(min_value=-30.0, max_value=0.0)))
    hi = at + 2.0 ** draw(st.floats(min_value=-30.0, max_value=0.0))
    return fam, solver._indices(fam, subset), tol, lo, at, hi


@settings(max_examples=150, deadline=None)
@given(near_bound_cases())
@example((ContractionFamily.explicit(["1/3", "1/5"]), (1, 2), 1e-10, 699.0, 700.0, 701.0))
@example((SQEXP, (1, 2), 1e-10, 1099.0, 1100.0, 1101.0))
@example((SQEXP, (6, 7, 200), 1e-4, 0.0236, 0.0237, 0.0238))
def test_double_tier_near_bounds_hold_at_any_point(case):
    # The bounds _near_bounds draws from one double evaluation hold
    # against the 200-bit sums at lo and hi wherever the point lies
    # between them, tiny sums and steep symbols included; a point
    # outside [lo, hi] gives no bound on the far side.
    fam, indices, tol, lo, at, hi = case
    evaluation = solver._double_bounds(fam, indices, tol)(at)
    lower, upper = solver._near_bounds(lo, hi, at, evaluation)
    assert lower <= oracles.ref_sum(fam, indices, lo, oracles.PREC)
    assert upper >= oracles.ref_sum(fam, indices, hi, oracles.PREC)
    if lo < at < hi:
        assert solver._near_bounds(hi, lo, at, evaluation) == (-math.inf, math.inf)


STEEP_SOLVES = [(SQEXP, (6, 7, 200), 1e-4, (0.023682940348785413, 0.023762940348785417)),
                (ContractionFamily.explicit([Fraction(1, 2**1000), Fraction(1, 2**900)]), "full",
                 0.01, (0.0, 0.0050536438645468725))]


@pytest.mark.parametrize("fam, subset, tol, ends", STEEP_SOLVES)
def test_the_mpmath_tier_takes_the_one_sided_sum_where_the_mean_value_bound_misses(
        fam, subset, tol, ends):
    # L (hi - x) exceeds 1 at these coarse tols, so the mean-value bound
    # at hi is no better than the upper sum at the settled iterate x,
    # above 1.  The certificate step takes the upper sum at hi instead,
    # on the mpmath tier as on the double tier.
    indices = solver._indices(fam, subset)
    iv = solve_dimension(fam, subset, tol=tol, precision_bits=96)
    assert (iv.lo, iv.hi, iv.tier) == (*ends, "mpmath")
    assert 1.0 <= iv.cert_lo <= oracles.ref_sum(fam, indices, iv.lo, oracles.PREC)
    assert oracles.ref_sum(fam, indices, iv.hi, oracles.PREC) <= iv.cert_hi <= 1.0


@st.composite
def steep_coarse_solves(draw):
    """(family, subset, tol) at a tol in [1e-6, 0.1]: square-exponent's
    symbols 1..12 with one of 40..300 added, whose |ln ratio| is 1100 to
    62000, or an explicit family of two to four powers 2**-k, k up to
    2000."""
    tol = 10.0 ** draw(st.floats(min_value=-6.0, max_value=-1.0))
    if draw(st.booleans()):
        ks = draw(st.lists(st.integers(min_value=1, max_value=2000), min_size=2, max_size=4))
        return ContractionFamily.explicit([Fraction(1, 2**k) for k in ks]), "full", tol
    subset = draw(st.sets(st.integers(min_value=1, max_value=12), min_size=1, max_size=6))
    return SQEXP, (*sorted(subset), draw(st.integers(min_value=40, max_value=300))), tol


@settings(max_examples=60, deadline=None)
@given(steep_coarse_solves())
@example((SQEXP, (6, 7, 200), 1e-4))
@example((ContractionFamily.explicit([Fraction(1, 2**1000), Fraction(1, 2**900)]), "full", 0.01))
def test_a_pinned_mpmath_solve_certifies_wherever_the_double_tier_does(case):
    # Both tiers take the same certificate step, so a steep selection at
    # a coarse tol that the double tier certifies also certifies at 96
    # bits, its certificates inside the 200-bit sums at its own ends.
    fam, subset, tol = case
    indices = solver._indices(fam, subset)
    assume(solve_dimension(fam, subset, tol=tol).tier == "double")
    iv = solve_dimension(fam, subset, tol=tol, precision_bits=96)
    assert iv.tier == "mpmath"
    assert 1.0 <= iv.cert_lo <= oracles.ref_sum(fam, indices, iv.lo, oracles.PREC)
    if not iv.hi_is_ambient:
        assert oracles.ref_sum(fam, indices, iv.hi, oracles.PREC) <= iv.cert_hi <= 1.0


def test_a_one_sided_sum_that_raises_certifies_nothing():
    # The bound that missed stands, and the one acceptance rule decides:
    # a refused lower sum leaves lo uncertified, a refused upper sum at
    # the ambient 1 leaves only lo certified.
    def refuses(end):
        raise ToleranceNotReachable(f"no sum at {end}")

    assert solver._certify(0.25, 0.5, (0.75, 0.5), refuses, "test") == (
        "the test lower bound at lo is 0.75, below 1")
    assert solver._certify(0.25, 0.5, (1.5, 1.25), refuses, "test") == (
        "the test upper bound at hi is 1.25, above 1")
    assert solver._certify(0.5, 1.0, (1.5, 1.25), refuses, "test") == (1.5, None, True)
    assert solver._certify(0.25, 0.5, (0.75, 1.25), lambda end: (2.0, 0.5), "test") == (
        2.0, 0.5, False)


@pytest.mark.parametrize("subset, start", [((1, 2, 5), 0.0), ("full", 0.5)])
def test_the_mpmath_tier_starts_afresh_when_the_double_newton_fails(monkeypatch, subset, start):
    starts = []
    fixed_newton = solver._fixed_newton

    def fixed_newton_spy(sums, x, tol, prec):
        starts.append(x)
        return fixed_newton(sums, x, tol, prec)

    monkeypatch.setattr(solver, "_newton", lambda bounds, x, tol: None)
    monkeypatch.setattr(solver, "_fixed_newton", fixed_newton_spy)
    iv = solve_dimension(SQEXP, subset, tol=1e-10)
    assert starts == [start]
    assert iv.tier == "mpmath" and iv.lo < iv.hi


def _float_below(x):
    """The largest float <= the Fraction x."""
    f = float(x)
    return math.nextafter(f, -math.inf) if Fraction(f) > x else f


def test_mpmath_tier_endpoints_are_fixed_by_the_root():
    # The mpmath tier reports the floats just outside x -/+ 0.4 tol for
    # its last Newton iterate x.  At the auto tol of the depth-10 and
    # depth-11 clouds every x lies far closer to the root than the
    # root's ends lie to a float, so lo and hi are the root's own: any
    # Newton path that certifies gives the same endpoints, a word's
    # certified at the point its parent certified from, at the end of a
    # chain of such words, included.
    for depth in (10, 11):
        cloud = spectrum.expand_spectrum(SQEXP, depth)
        half = Fraction(0.4 * cloud.tol)
        for point in cloud.points:
            iv = point.interval
            root = _dyadic_fraction(oracles.sqexp_root(subset_of_word(point.word)))
            assert iv.tier == "mpmath"
            assert iv.lo == _float_below(root - half)
            assert iv.hi == -_float_below(-root - half)


@pytest.mark.parametrize("depth", [10, 11])
def test_deep_cloud_certificates_lie_inside_200_bit_sums(depth):
    # Most words certify from their parent's point, with sums that are
    # the parent's plus one table row; every certificate still bounds
    # the 200-bit sum at its end from the right side of 1.
    for point in spectrum.expand_spectrum(SQEXP, depth).points:
        iv, indices = point.interval, subset_of_word(point.word)
        assert (oracles.ref_sum(SQEXP, indices, iv.lo, oracles.PREC) >= iv.cert_lo >= 1
                >= iv.cert_hi >= oracles.ref_sum(SQEXP, indices, iv.hi, oracles.PREC))


@st.composite
def dyadics(draw):
    """(n, k) with n * 2**-k between about 2**-1140 and 2**1000 in
    magnitude, or 0: normal and subnormal floats, below-subnormal
    values, and numerators of up to 1200 bits."""
    n = draw(st.integers(min_value=-2**1200, max_value=2**1200))
    return n, max(0, n.bit_length() + draw(st.integers(min_value=-1000, max_value=1140)))


@settings(max_examples=400, deadline=None)
@given(dyadics())
@example((1, 1075))
@example((3, 1076))  # libmp's round_floor gives 2**-1074 here, rounding twice
@example((-3, 1076))
@example((2**53 + 1, 53))
@example((-(2**1101) - 1, 2100))
@example((2**1101 + 3, 2176))
@example((0, 5))
def test_dyadics_round_to_floats_exactly(case):
    # The ends of the mpmath tier's bracket and its mean-value bounds are
    # exact dyadics rounded to floats down and up.  Every result is
    # checked against its definition; normal results also against
    # libmp's directed rounding, which rounds to 53 bits and then to the
    # float, so it can miss in the subnormal range (its docstring says so).
    n, k = case
    x = Fraction(n, 1 << k)
    down, up = solver._float_of(n, k, False), solver._float_of(n, k, True)
    assert Fraction(down) <= x < Fraction(math.nextafter(down, math.inf))
    assert Fraction(math.nextafter(up, -math.inf)) < x <= Fraction(up)
    if min(abs(down), abs(up)) >= 2.0**-1022:
        assert down == to_float(from_man_exp(n, -k), rnd=round_floor)
        assert up == to_float(from_man_exp(n, -k), rnd=round_ceiling)


def _counting_tables(monkeypatch):
    """Spy on solver.term_table and return a list that gets one entry per
    call: the symbols it lists, as a tuple, and the number of rows."""
    tables = []

    def counted(family, s, bits, symbols):
        rows = list(term_table(family, s, bits, symbols))
        tables.append((tuple(symbols), len(rows)))
        return rows

    monkeypatch.setattr(solver, "term_table", counted)
    return tables


@pytest.mark.parametrize("depth", [10, 11, 12, 13, 14])
def test_deep_cloud_solves_mostly_certify_from_their_first_evaluation(monkeypatch, depth):
    # Each square-exponent cloud word at the auto tol runs on the mpmath
    # tier and certifies from exactly one fixed-point evaluation, a
    # table's: at the point its parent certified from, or else at the
    # first iterate a single solve takes from its double iterate.  No
    # word reaches its own sums, and no word tries its parent's point
    # and fails there.
    steps, own, words, starts = [], [], [], []
    fixed_step, fixed_bounds = solver._fixed_step, solver._fixed_bounds

    def step_spy(at, q, *args):
        steps.append((at, q))
        return fixed_step(at, q, *args)

    def bounds_spy(*args):
        sums, i = fixed_bounds(*args), len(own)
        own.append(0)

        def counting(s):
            own[i] += 1
            return sums(s)

        return counting

    class Recording(solver._CloudTables):
        def __init__(self, *args):
            super().__init__(*args)
            starts.append(len(steps))

        def newton(self, sums, x, indices):
            words.append((indices, solver._grid(x, self.prec)))
            return super().newton(sums, x, indices)

        def inherit(self, parent, indices, lo):
            point = self.points.get(parent, (None,) * 4)[1:3]
            interval = super().inherit(parent, indices, lo)
            if interval:
                words.append((indices, point))
            return interval

    monkeypatch.setattr(solver, "_fixed_step", step_spy)
    monkeypatch.setattr(solver, "_fixed_bounds", bounds_spy)
    monkeypatch.setattr(spectrum, "_CloudTables", Recording)
    cloud = spectrum.expand_spectrum(SQEXP, depth)
    # the base's solve, at 16 tol, comes first and evaluates its own sums
    assert own[0] >= 1 and not any(own[1:])
    assert sorted(indices for indices, _ in words) == sorted(
        subset_of_word(p.word) for p in cloud.points)
    assert len(words) == 2 ** (depth - 2)
    assert steps[starts[0]:] == [point for _, point in words]


def test_a_deep_cloud_builds_few_tables_and_few_double_sums(monkeypatch):
    # Of the 512 words of the depth-11 square-exponent cloud, at least
    # 85% certify at the point their parent certified from, with no
    # double Newton and no table of their own; without that the cloud
    # builds 124 tables and makes 909 double evaluations.  The base's
    # and the auto tol's pilot solve count too.
    tables = _counting_tables(monkeypatch)
    evaluations = _counting_evaluations(monkeypatch)
    inherited = []

    class Recording(solver._CloudTables):
        def inherit(self, parent, indices, lo):
            interval = super().inherit(parent, indices, lo)
            inherited.append(interval is not None)
            return interval

    monkeypatch.setattr(spectrum, "_CloudTables", Recording)
    cloud = spectrum.expand_spectrum(SQEXP, 11)
    assert len(cloud.points) == 512
    assert sum(symbols == tuple(range(1, 12)) for symbols, _ in tables) <= 64
    assert len(evaluations) <= 200
    assert sum(inherited) >= 0.85 * 512


def test_a_sparse_named_selection_evaluates_only_its_own_symbols(monkeypatch):
    # A finite selection is summed from its own term_table rows, so
    # (1, 2, 10**6) lists none of the symbols it leaves out: every
    # evaluation builds three rows.
    tables = _counting_tables(monkeypatch)
    iv = solve_dimension(SQEXP, (1, 2, 10**6), tol=1e-30)
    assert iv.tier == "mpmath"
    assert tables and set(tables) == {((1, 2, 10**6), 3)}


def test_full_selector_cut_between_a_quarter_and_half_tol_walks_no_chain(monkeypatch):
    # The geometric tail after MAX_TERMS terms at s = 5.68e-5 lies in
    # [tol/4, tol/2) at tol 1e-13: no cut meets tol/4, so the fixed tier
    # must refuse before building 2**20 rows.
    s, tol = 5.68e-5, 1e-13
    assert tol / 4 <= GEO.tail_majorant(solver.MAX_TERMS, s) < tol / 2
    tables = _counting_tables(monkeypatch)
    with pytest.raises(ToleranceNotReachable, match="truncation limit"):
        moran_bounds(GEO, "full", s, tol, 96)
    assert tables == []


@pytest.mark.parametrize("fam,s,tol", [(SQEXP, 0.3, 1e-30), (SQEXP, 0.55, 1e-20),
                                       (GEO, 0.05, 1e-25), (GEO, 1.0, 1e-12),
                                       (T3, 0.6, 1e-40), (T3, 2.0, 1e-15)])
def test_fixed_tier_sums_the_double_tier_cut(monkeypatch, fam, s, tol):
    # One truncation rule: the fixed-point sums are the rows of the
    # symbols 1..n_cut, the n_cut the double tier's tail majorant picks
    # at tol/4, built once.
    n_cut, _ = solver._truncation(lambda n: fam.tail_majorant(n, s), tol / 4)
    tables = _counting_tables(monkeypatch)
    moran_bounds(fam, "full", s, tol, max(96, math.ceil(-math.log2(tol)) + 50))
    assert tables == [(tuple(range(1, n_cut + 1)), n_cut)]


# VmHWM is the peak resident set of the child's own memory; ru_maxrss
# would also count its parent's peak, which an exec carries over.
LONG_CUT = """
from dimspec import ContractionFamily, moran_bounds
lo, hi, slope = moran_bounds(ContractionFamily.geometric(), "full", 1e-4, 1e-13, 96)
peak = [line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")]
print(lo.man_exp, hi.man_exp, slope, *peak)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_a_long_full_selector_cut_is_summed_as_its_rows_are_made():
    # geometric at s = 1e-4 cuts at 2**20 symbols.  Holding every row
    # peaked at 495 MB; the sums are the ones those rows gave.
    src = str(Path(solver.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", LONG_CUT], check=True, capture_output=True,
                         text=True, env={"PYTHONPATH": src}, timeout=120).stdout.split()
    assert out[:5] == ["(1286882379266799168309086258579015357178190192119,", "-146)",
                       "(2573764758533598336618172517158100744670495336467,", "-147)",
                       "-144269504.03113407"]
    assert int(out[5]) < 50 * 1024  # kB


def test_escalation_reuses_the_double_newton_iterate(monkeypatch):
    # The double tier cannot certify square-exponent full at 1e-13; the
    # mpmath tier starts its Newton from the double iterate instead of
    # solving again.
    calls = []
    newton, fixed_newton = solver._newton, solver._fixed_newton

    def newton_spy(bounds, x, tol):
        found = newton(bounds, x, tol)
        calls.append((None, found[0]))
        return found

    def fixed_newton_spy(sums, x, tol, prec):
        calls.append((prec, x))
        return fixed_newton(sums, x, tol, prec)

    monkeypatch.setattr(solver, "_newton", newton_spy)
    monkeypatch.setattr(solver, "_fixed_newton", fixed_newton_spy)
    iv = solve_dimension(SQEXP, "full", tol=1e-13)
    assert iv.tier == "mpmath"
    assert [prec for prec, _ in calls] == [None, 96]
    assert calls[1][1] == calls[0][1] is not None


def test_ratio_sum_above_one_keeps_the_ambient_bound():
    # Three copies of 0.9: the Moran root ln 3 / ln(10/9) ~ 10.4 lies
    # above the ambient bound, so the enclosure ends at 1.
    iv = solve_dimension(ContractionFamily.explicit(["0.9"] * 3), tol=1e-10)
    assert iv.hi_is_ambient
    assert iv.hi == 1.0 and iv.cert_hi is None
    assert 1.0 - 1e-10 <= iv.lo < 1.0
    # The mean-value bound from the last Newton point, near the root at
    # 10.4, is about 1.99; the sum at lo itself is about 2.7.
    fam = ContractionFamily.explicit(["0.9"] * 3)
    assert 1.0 <= iv.cert_lo <= oracles.ref_sum(fam, (1, 2, 3), iv.lo, oracles.PREC)
    assert iv.tier == "double"


def _bisection_endpoint(tol):
    """Where a bisection of [0, 1] toward a root above 1 stops: 1 - w for
    the first halving width w <= tol, as the largest float not above it."""
    width = Fraction(1)
    while width > tol:
        width /= 2
    end = float(1 - width)
    return math.nextafter(end, 0.0) if Fraction(end) > 1 - width else end


above_one = st.lists(st.fractions(min_value=Fraction(1, 20), max_value=Fraction(99, 100),
                                  max_denominator=1000), min_size=2, max_size=8
                     ).filter(lambda ratios: sum(ratios) >= Fraction(21, 20))


@settings(max_examples=60, deadline=None)
@given(above_one, tolerances)
@example([Fraction(9, 10)] * 3, 2.0**-40)
@example([Fraction(9, 10)] * 3, math.nextafter(2.0**-40, 0.0))  # log2 rounds this to -40
@example([Fraction(9, 10)] * 3, math.nextafter(2.0**-70, 0.0))
def test_ratio_sums_above_one_end_where_bisection_ended(ratios, tol):
    # P(1) >= ln 1.05 and |P'(1)| <= ln 20, so the root lies above
    # 1 + 0.016 and the Newton bracket lies above 1 at every tol drawn.
    iv = solve_dimension(ContractionFamily.explicit(ratios), tol=tol)
    assert iv.hi_is_ambient and iv.hi == 1.0 and iv.cert_hi is None
    assert iv.lo == _bisection_endpoint(tol)
    assert iv.cert_lo >= 1.0
    assert iv.tier == ("double" if tol >= solver.TOL_MIN_DOUBLE else "mpmath")


# --- the fixed-point mpmath tier ------------------------------------------------

small_ratios = st.fractions(min_value=Fraction(1, 10**12), max_value=Fraction(999999, 10**6),
                            max_denominator=10**12).filter(lambda r: 0 < r < 1)
powers = st.floats(min_value=0.0, max_value=3.0, exclude_min=True)


@st.composite
def fixed_point_cases(draw):
    """(family, indices, s): a named family with up to 12 symbols of
    1..40 or the full selector, or up to 64 explicit ratios drawn from a
    pool of at most 8, so that ratios repeat."""
    kind = draw(st.sampled_from(["square-exponent", "geometric", "type-three", "explicit"]))
    if kind == "explicit":
        pool = draw(st.lists(small_ratios, min_size=1, max_size=8))
        ratios = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=64))
        return ContractionFamily.explicit(ratios), tuple(range(1, len(ratios) + 1)), draw(powers)
    fam = ContractionFamily(kind)
    if draw(st.booleans()):
        # The reference sums its n_cut (about prec/s) terms with one
        # mpmath.power each, so the full selector starts at s = 0.05.
        return fam, None, draw(st.floats(min_value=0.05, max_value=3.0))
    indices = draw(st.lists(st.integers(1, 40), min_size=1, max_size=12, unique=True))
    return fam, tuple(sorted(indices)), draw(powers)


@settings(max_examples=150, deadline=None)
@given(fixed_point_cases(), st.integers(min_value=96, max_value=400))
def test_fixed_point_sums_enclose_the_sum_inside_the_old_band(case, prec):
    # The fixed-point sums contain the defining sum, evaluated at
    # prec + 200 (at least 296) bits and trusted to 2**-(prec+190)
    # relative, and they are no wider than the mpf evaluator they
    # replaced, whose relative slack was 2**-(prec-8).
    fam, indices, s = case
    tol = 2.0 ** -(prec - 50)
    lower, upper, _ = moran_bounds(fam, indices, s, tol, prec)
    ref_lower, ref_upper, _ = oracles.ref_mp_bounds(fam, indices, s, tol, prec)
    assert ref_lower <= lower <= upper <= ref_upper
    with mpmath.workprec(prec + 200):
        total = oracles.ref_sum(fam, indices, s, prec + 200)
        margin = mpmath.ldexp(total, -(prec + 190))
        assert lower <= total + margin and total - margin <= upper


@pytest.mark.parametrize("fam,indices,s,exps", [
    (SQEXP, (1, 2, 5, 11), 0.5, 1),
    (SQEXP, None, 0.5, 1),
    (GEO, None, 0.05, 1),
    (T3, (1, 2, 3), 0.9, 1),
    (T3, None, 0.9, 1),
    (ContractionFamily.explicit(["1/3", "1/3", "1/2"]), (1, 2, 3), 0.7, 2),
    (ContractionFamily.explicit(["1/3", "1/3", "1/2"]), (1, 2), 0.7, 1),
    (ContractionFamily.explicit([f"1/{2 + k % 5}" for k in range(64)]), tuple(range(1, 65)), 0.7, 5),
])
def test_one_exp_per_distinct_base_or_ratio(monkeypatch, fam, indices, s, exps):
    calls = []
    exp = families.mpf_exp

    def counted(*args):
        calls.append(args)
        return exp(*args)

    monkeypatch.setattr(families, "mpf_exp", counted)
    moran_bounds(fam, indices, s, 1e-30, 160)
    assert len(calls) == exps


# --- precision control --------------------------------------------------------

def test_pinned_precision_forces_mp_tier():
    iv = solve_dimension(SQEXP, (1, 2), tol=1e-11, precision_bits=120)
    assert iv.tier == "mpmath"
    assert iv.precision_bits == 120
    assert iv.lo <= oracles.SQEXP_12 <= iv.hi


def test_tiny_tolerance_escalates_automatically():
    # Endpoints are floats, so the visible width bottoms out at one
    # double ulp even though the high-precision pass met the budget;
    # what survives rounding is a sub-ulp-accurate enclosure.
    iv = solve_dimension(SQEXP, (1, 2), tol=1e-20)
    assert iv.tier == "mpmath"
    assert iv.width <= 1e-15
    assert iv.lo <= oracles.SQEXP_12 <= iv.hi
    assert abs(iv.mid - oracles.SQEXP_12) <= 1e-15


def test_precision_too_small_for_tolerance():
    # moran_bounds checks prec as solve_dimension does, rather than
    # return sums looser than tol.
    with pytest.raises(ToleranceNotReachable):
        solve_dimension(SQEXP, (1, 2), tol=1e-40, precision_bits=64)
    for subset in [(1, 2), "full"]:
        with pytest.raises(ToleranceNotReachable, match="below the resolution of 64-bit"):
            moran_bounds(SQEXP, subset, 0.6, 1e-40, 64)


def test_precision_bits_validation():
    with pytest.raises(ConfigError):
        solve_dimension(SQEXP, (1, 2), precision_bits=8)
    for prec in [10, -5]:
        with pytest.raises(ConfigError):
            moran_bounds(SQEXP, (1, 2), 0.6, 1e-10, prec)
    with pytest.raises(ConfigError):
        solve_dimension(SQEXP, (1, 2), tol=0.0)


# --- pressure ------------------------------------------------------------------

def test_pressure_known_values():
    fam = ContractionFamily.explicit(["1/2", "1/4"])
    assert pressure(fam, "full", 0.0) == pytest.approx(math.log(2.0), abs=1e-14)
    pair = ContractionFamily.explicit(["1/3", "1/3"])
    assert pressure(pair, "full", 1.0) == pytest.approx(math.log(2.0 / 3.0), abs=1e-14)


def test_pressure_divergence():
    with pytest.raises(DivergentSum):
        pressure(SQEXP, "full", 0.0)
    with pytest.raises(DivergentSum):  # 2**-4500 underflows to 0
        pressure(SQEXP, (30,), 5.0)
    with pytest.raises(ConfigError):
        pressure(SQEXP, (), 1.0)


def test_pressure_vanishes_at_the_root():
    iv = solve_dimension(SQEXP, (1, 2), tol=1e-12)
    assert abs(pressure(SQEXP, (1, 2), iv.mid)) < 1e-10


@pytest.mark.parametrize("subset", ["full", (1, 2, 5)])
def test_pressure_strictly_decreasing_and_convex(subset):
    grid = [0.25 + 0.125 * k for k in range(16)]
    vals = [pressure(SQEXP, subset, s) for s in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    second = [vals[i - 1] - 2 * vals[i] + vals[i + 1] for i in range(1, len(vals) - 1)]
    assert all(d >= -1e-9 for d in second)


def test_pressure_derivative_against_oracle():
    got = pressure_derivative(SQEXP, "full", 1.0)
    assert got == pytest.approx(oracles.SQEXP_PRESSURE_SLOPE_AT_1, abs=1e-12)


def test_pressure_derivative_matches_finite_differences():
    h = 1e-6
    for subset in ((1, 2), (2, 5, 7), "full"):
        s0 = 0.9
        fd = (pressure(SQEXP, subset, s0 + h) - pressure(SQEXP, subset, s0 - h)) / (2 * h)
        assert pressure_derivative(SQEXP, subset, s0) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("kind", sorted(FULL_SUMS))
def test_pressure_derivative_full_against_200_bit_reference(kind):
    fam = ContractionFamily(kind)
    for k in range(16):
        s = 0.01 * 300.0 ** (k / 15)
        ref = oracles.full_pressure_slope(kind, s)
        assert abs(pressure_derivative(fam, "full", s) - ref) <= 1e-14 * abs(ref)


def _raises_fast(fn, *args, error=DimspecError, match=None, seconds=0.01):
    """fn(*args) must raise error, matching match, within seconds."""
    t0 = time.perf_counter()
    with pytest.raises(error, match=match):
        fn(*args)
    assert time.perf_counter() - t0 < seconds


@pytest.mark.parametrize("s", [1e-5, 7e-5, 1e-6])
def test_pressure_derivative_rejects_a_cut_that_misses_its_tolerance(s):
    # The cut stops at MAX_TERMS with the tail still above tolerance;
    # the partial sum (-99493.1 at s = 1e-5, true slope -100000.3) is
    # not returned.
    _raises_fast(pressure_derivative, GEO, "full", s)


@pytest.mark.parametrize("prec", [None, 96])
@pytest.mark.parametrize("s,tol", [(1e-6, 1e-10), (2.0**-120, 1e-20)])
def test_full_selector_cut_that_misses_its_limit_fails_fast(s, tol, prec):
    # The geometric tail after MAX_TERMS terms is about 7e5 at s = 1e-6
    # and 1.9e36 at s = 2**-120, far above tol/4: no cut meets the limit,
    # so neither tier may sum or walk 2**20 terms before saying so.
    _raises_fast(moran_bounds, GEO, None, s, tol, prec)


def test_pressure_derivative_keeps_the_converged_values():
    assert pressure_derivative(GEO, "full", 1e-3) == -1000.3466136280308
    assert pressure_derivative(GEO, "full", 1e-4) == -10000.346577594055


def test_tiny_s_raises_a_dimspec_error():
    # 1 - 2**(-s) rounds to 0, so no tail majorant exists in doubles.
    _raises_fast(moran_bounds, GEO, "full", 1e-17, 1e-13)
    _raises_fast(pressure_derivative, GEO, "full", 1e-17)
    # The fixed-point tail at 96 bits: 1 - y with y = 2**(-s) rounds up to 0.
    _raises_fast(term_tail, GEO, next(term_table(GEO, (1, 120), 96, [1])), 8, 96)


def test_fixed_tier_refuses_an_index_beyond_max_terms():
    # The fixed tier takes no named symbol past MAX_TERMS, the cap the
    # full selector's cut obeys, and refuses before evaluating; the
    # double tier sums only the selected terms.
    far = (1, 2, solver.MAX_TERMS + 1)
    for fn, args in [(solve_dimension, (SQEXP, far, 1e-20)),
                     (moran_bounds, (SQEXP, far, 0.5, 1e-20, 128))]:
        _raises_fast(fn, *args, error=ToleranceNotReachable, match="beyond", seconds=0.1)
    iv = solve_dimension(SQEXP, (1, 2, 10**9), tol=1e-10)
    assert iv.tier == "double" and iv.width <= 1e-10
    assert iv.lo <= solve_dimension(SQEXP, (1, 2), tol=1e-10).hi


@pytest.mark.parametrize("s", [2.6e5, 1e300, math.inf, mpmath.mpf(2) ** 2000, mpmath.mpf("inf")])
@pytest.mark.parametrize("fam,subset", [(SQEXP, "full"), (GEO, (1, 2)),
                                        (ContractionFamily.explicit(["1/3", "1/5"]), "full")])
def test_fixed_tier_refuses_an_s_past_its_bit_cap(fam, subset, s):
    # The largest term sits s * log2(1/ratio) bits below 1; an s that
    # needs more than MAX_FIXED_BITS bits is refused before any integer
    # is built, so 1e300 and inf fail at once like 2.6e5.  An mpf inf
    # has the mantissa 0, so it must not be read as its mantissa.
    _raises_fast(moran_bounds, fam, subset, s, 1e-10, 128,
                 error=ToleranceNotReachable, match="fixed-point bits", seconds=0.1)


def test_both_tiers_enclose_subnormal_and_underflowed_sums():
    # Near 2**-1074 a double term is off by up to 1.7e-13 relative, and
    # subnormal or underflowed terms by up to 2**-1074 absolute: a
    # relative slack of 2**-43 alone misses most of these 2000 sums and
    # encloses the sum at s = 1100 by [0, 0].
    pair = ContractionFamily.explicit(["1/3", "1/5"])
    for k in range(2000):
        s = 640 + k / 50
        exact = oracles.ref_sum(pair, (1, 2), s, 400)
        lower, upper, _ = moran_bounds(pair, "full", s, 1e-10)
        assert mpmath.mpf(lower) <= exact <= mpmath.mpf(upper), s
        if k % 20 == 0:
            lower, upper, _ = moran_bounds(pair, "full", s, 1e-10, 128)
            assert lower <= exact <= upper, s
    exact = oracles.ref_sum(SQEXP, (1, 2), 1100, 400)
    lower, upper, _ = moran_bounds(SQEXP, (1, 2), 1100, 1e-10)
    assert lower == 0.0 < exact <= mpmath.mpf(upper) <= 2.0**-1070
    lower, upper, _ = moran_bounds(SQEXP, (1, 2), 1100, 1e-10, 128)
    assert 0 < lower <= exact <= upper
    with pytest.raises(DivergentSum):
        pressure(SQEXP, (1, 2), 1100)


def test_double_tier_encloses_sums_of_a_ratio_near_one():
    # log2(999) - log2(1000) cancels to 6e-13 relative, which s = 1000
    # to 5.1e4 magnifies past the double tier's slack; log2_ratio's
    # log1p form keeps every one of these 100 sums enclosed.
    pair = ContractionFamily.explicit(["999/1000", "1/2"])
    for k in range(100):
        s = 1000 + k * 500
        exact = oracles.ref_sum(pair, (1, 2), s, 300)
        lower, upper, _ = moran_bounds(pair, "full", s, 1e-10)
        assert mpmath.mpf(lower) <= exact <= mpmath.mpf(upper), s


@pytest.mark.parametrize("s", [math.nan, -0.5])
@pytest.mark.parametrize("subset", ["full", (1, 2)])
def test_nan_or_negative_s_is_a_config_error(subset, s):
    with pytest.raises(ConfigError):
        moran_bounds(GEO, subset, s, 1e-13)
    with pytest.raises(ConfigError):
        pressure(GEO, subset, s)
    with pytest.raises(ConfigError):
        pressure_derivative(GEO, subset, s)


@pytest.mark.parametrize("fam,s,ratio", [(GEO, 1015, 2), (GEO, 1022, 2), (SQEXP, 1015, 2),
                                         (SQEXP, 1022, 2), (T3, 641, 3)])
def test_pressure_derivative_of_a_full_selector_at_large_s(fam, s, ratio):
    # The cut limit 2**-60 * ratio(1)**s underflows here, but the sum is
    # still a normal double and pressure still has a value; the slope
    # tends to ln ratio(1).
    pressure(fam, "full", s)
    assert pressure_derivative(fam, "full", s) == pytest.approx(-math.log(ratio), rel=1e-15)


@pytest.mark.parametrize("s", [1100, 1e6])
@pytest.mark.parametrize("fam", [GEO, SQEXP, T3])
def test_pressure_derivative_of_a_subnormal_full_sum_diverges(fam, s):
    # as pressure does once the terms vanish
    _raises_fast(pressure_derivative, fam, "full", s, error=DivergentSum)


def test_pressure_derivative_diverges_at_theta():
    with pytest.raises(DivergentSum):
        pressure_derivative(SQEXP, "full", 0.0)


def test_pressure_derivative_of_the_empty_subset_is_a_config_error():
    with pytest.raises(ConfigError, match="empty subset"):
        pressure_derivative(SQEXP, (), 0.5)


def test_pressure_derivative_negative_everywhere():
    for s in (0.3, 0.7, 1.5, 2.8):
        assert pressure_derivative(GEO, "full", s) < 0.0
        assert pressure_derivative(T3, (1, 3, 4), s) < 0.0


# --- interval bookkeeping --------------------------------------------------------

def test_interval_as_dict_roundtrips_through_floats():
    iv = solve_dimension(SQEXP, (1, 3))
    d = iv.as_dict()
    assert d["lo"] == iv.lo and d["hi"] == iv.hi
    assert d["tier"] in ("double", "mpmath")
    assert d["width"] == iv.hi - iv.lo


def test_solver_accepts_selector_word_and_tuple_equivalently():
    a = solve_dimension(SQEXP, "101")
    b = solve_dimension(SQEXP, (1, 3))
    assert (a.lo, a.hi) == (b.lo, b.hi)


def test_solver_rejects_fractional_indices():
    # 1.5 used to be truncated to 1, solving {1, 2}
    with pytest.raises(ConfigError):
        solve_dimension(SQEXP, [1.5, 2])


def test_solver_rejects_a_bare_integer_subset():
    with pytest.raises(ConfigError):
        solve_dimension(SQEXP, 3)


def test_solver_rejects_non_numeric_indices():
    with pytest.raises(ConfigError):
        solve_dimension(SQEXP, ["a", "b"])


def test_a_solve_error_names_the_smallest_bad_index():
    # Indices are sorted before they are checked: a named family checks
    # its smallest, an explicit family each one in turn.
    with pytest.raises(ConfigError, match="start at 1, got -3$"):
        solve_dimension(SQEXP, (5, 0, -3))
    with pytest.raises(ConfigError, match="index 7 out of range"):
        solve_dimension(ContractionFamily.explicit(["1/2", "1/3", "1/4"]), (2, 9, 7))


def test_solve_dimension_keeps_its_signature():
    # Callers bind its arguments by name (the CLI, and tracers that wrap it).
    assert str(inspect.signature(solve_dimension)) == (
        "(family, subset='full', tol=1e-10, precision_bits=None)")


@dataclasses.dataclass(frozen=True)
class _GeneratedInterval:
    """DimensionInterval's fields with dataclasses' own frozen __init__."""

    lo: float
    hi: float
    width_budget: float
    cert_lo: float | None = None
    cert_hi: float | None = None
    hi_is_ambient: bool = False
    exact: bool = False
    tier: str = "double"
    precision_bits: int = 53


def test_the_interval_record_behaves_as_a_frozen_dataclass():
    # Its hand-written __init__ writes the instance dict once; fields,
    # equality, hash, repr, replace, pickling and frozenness are those
    # of the dataclass it declares.
    names = ["lo", "hi", "width_budget", "cert_lo", "cert_hi", "hi_is_ambient", "exact", "tier",
             "precision_bits"]
    assert [f.name for f in dataclasses.fields(solver.DimensionInterval)] == names
    assert [f.name for f in dataclasses.fields(_GeneratedInterval)] == names
    cases = [solve_dimension(SQEXP, (1, 2, 5)), solve_dimension(GEO, "full"),
             solve_dimension(SQEXP, (1, 2), tol=1e-30), solve_dimension(SQEXP, (3,))]
    for iv in cases:
        ref = _GeneratedInterval(*dataclasses.astuple(iv))
        assert repr(iv) == repr(ref).replace("_GeneratedInterval", "DimensionInterval")
        assert hash(iv) == hash(ref)
        assert vars(iv) == vars(ref)
        twin = solver.DimensionInterval(**dataclasses.asdict(iv))
        assert twin == iv and hash(twin) == hash(iv)
        assert pickle.loads(pickle.dumps(iv)) == iv
        moved = dataclasses.replace(iv, hi=2.0)
        assert moved != iv and vars(moved) == {**vars(iv), "hi": 2.0}
        with pytest.raises(dataclasses.FrozenInstanceError):
            iv.lo = 0.0
    # the same defaults
    assert vars(solver.DimensionInterval(0.25, 0.5, 1e-10)) == vars(_GeneratedInterval(0.25, 0.5, 1e-10))


# --- the double tier's Newton paths -----------------------------------------------

def _counting_evaluations(monkeypatch):
    """A list that grows by one entry, the point, per double-tier evaluation."""
    evaluations = []
    double_bounds = solver._double_bounds

    def counted(*args):
        bounds = double_bounds(*args)

        def counting(s):
            evaluations.append(s)
            return bounds(s)

        return counting

    monkeypatch.setattr(solver, "_double_bounds", counted)
    return evaluations


def test_finite_solves_take_their_recorded_newton_paths(monkeypatch):
    # The 2000 square-exponent subsets perfbench's dim-perturb workload
    # draws at seed 1, drawn the same way: a leaner evaluator takes the
    # same Newton steps, 13792 evaluations in all.
    rng = random.Random(1)
    subsets = [sorted(rng.sample(range(1, 13), rng.randint(2, 8))) for _ in range(2000)]
    evaluations = _counting_evaluations(monkeypatch)
    for subset in subsets:
        assert solve_dimension(SQEXP, subset, tol=1e-10).tier == "double"
    assert len(evaluations) == 13792


@pytest.mark.parametrize("kind, total", [("geometric", 6594), ("type-three", 6222)])
def test_double_tier_clouds_take_their_recorded_newton_paths(monkeypatch, kind, total):
    # Every evaluation of a depth-13 cloud: the auto tol's pilot, the
    # base and the 2048 words, each word started at its parent's lo.
    evaluations = _counting_evaluations(monkeypatch)
    cloud = spectrum.expand_spectrum(ContractionFamily(kind), 13)
    assert len(cloud.points) == 2048
    assert len(evaluations) == total


@st.composite
def cloud_words(draw):
    """(family, depth, indices): a named family or an explicit one of
    depth ratios, a depth of 2 to 16, and a word's symbols, two or more
    of 1..depth."""
    depth = draw(st.integers(min_value=2, max_value=16))
    if draw(st.booleans()):
        fam = ContractionFamily(draw(st.sampled_from(["square-exponent", "geometric", "type-three"])))
    else:
        fam = ContractionFamily.explicit(draw(st.lists(
            st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000),
                         max_denominator=1000), min_size=depth, max_size=depth)))
    indices = tuple(sorted(draw(st.sets(st.integers(min_value=1, max_value=depth), min_size=2))))
    return fam, depth, indices


@settings(max_examples=150, deadline=None)
@given(cloud_words(), st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=3.0)))
def test_a_cloud_word_evaluates_as_its_own_solve(case, s):
    # A cloud word's double sums take its symbols' weights from its
    # subtree's _CloudTables; the whole evaluation, weights included, is
    # the one the word's own solve makes.
    fam, depth, indices = case
    tables = solver._CloudTables(fam, (1, 2), depth, DEFAULT_TOL)
    weights = [tables.weights[a] for a in indices]
    assert solver._double_bounds(fam, indices, DEFAULT_TOL, weights)(s) == \
        solver._double_bounds(fam, indices, DEFAULT_TOL)(s)
