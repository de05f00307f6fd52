import math
import time
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dimspec import solver
from dimspec.errors import ConfigError, DimspecError, DivergentSum, ToleranceNotReachable
from dimspec.families import ContractionFamily
from dimspec.solver import (
    DEFAULT_TOL,
    moran_bounds,
    moran_sum,
    pressure,
    pressure_derivative,
    solve_dimension,
)

SQEXP = ContractionFamily.square_exponent()
GEO = ContractionFamily.geometric()
T3 = ContractionFamily.type_three()


# --- moran_sum -------------------------------------------------------------

def test_moran_sum_full_square_exponent_at_one():
    got = moran_sum(SQEXP, "full", 1.0)
    assert got == pytest.approx(oracles.SQEXP_SUM_AT_1, abs=1e-13)


def test_moran_sum_explicit_subset():
    assert moran_sum(SQEXP, (1, 2), 1.0) == pytest.approx(0.5 + 0.0625, abs=1e-15)
    assert moran_sum(SQEXP, "11", 1.0) == pytest.approx(0.5 + 0.0625, abs=1e-15)


def test_moran_sum_diverges_at_theta():
    assert moran_sum(SQEXP, "full", 0.0) == math.inf
    assert moran_sum(GEO, "full", 0.0) == math.inf


def test_moran_sum_empty_and_negative():
    assert moran_sum(SQEXP, (), 0.7) == 0.0
    with pytest.raises(ConfigError):
        moran_sum(SQEXP, "full", -0.1)
    with pytest.raises(ConfigError):
        moran_sum(SQEXP, "full", 0.5, mode="sideways")


@given(st.floats(min_value=0.3, max_value=3.0))
def test_moran_sum_mode_ordering(s):
    lo = moran_sum(SQEXP, "full", s, mode="lower")
    mid = moran_sum(SQEXP, "full", s, mode="mid")
    hi = moran_sum(SQEXP, "full", s, mode="upper")
    assert lo <= mid <= hi
    assert lo > 0


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
    assert moran_sum(SQEXP, subset, iv.lo, mode="lower") >= 1.0
    assert moran_sum(SQEXP, subset, iv.hi, mode="upper") <= 1.0


@settings(max_examples=25, deadline=None)
@given(subset_strategy)
def test_enclosure_contains_oracle_root(indices):
    subset = tuple(sorted(indices))
    iv = solve_dimension(SQEXP, subset, tol=1e-11)
    root = oracles.sqexp_root(subset)
    assert iv.lo <= root <= iv.hi


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


def _recomputed_certificates(fam, subset, iv):
    """Lower sum at the reported lo and upper sum at the reported hi, at
    the reported tier and precision."""
    if iv.tier == "double":
        return (moran_sum(fam, subset, iv.lo, mode="lower", tol=iv.width_budget),
                moran_sum(fam, subset, iv.hi, mode="upper", tol=iv.width_budget))
    indices = None if subset == "full" else subset
    lower = moran_bounds(fam, indices, iv.lo, iv.width_budget, iv.precision_bits)[0]
    upper = moran_bounds(fam, indices, iv.hi, iv.width_budget, iv.precision_bits)[1]
    return float(lower), float(upper)


@settings(max_examples=80, deadline=None)
@given(selections, tolerances)
def test_enclosure_contains_root_within_newton_width(selection, tol):
    kind, subset = selection
    fam = ContractionFamily(kind)
    with mock.patch.object(solver, "_bisect", wraps=solver._bisect) as fallback:
        iv = solve_dimension(fam, subset, tol=tol)
    if tol < solver.TOL_MIN_DOUBLE:
        assert iv.tier == "mpmath"
    assert iv.lo <= _oracle_root(kind, subset) <= iv.hi
    # The certified Newton bracket is x -/+ 0.4 tol rounded outward; the
    # bisection fallback (dead zone near the double-tier floor, root at
    # the ambient bound) keeps its own budget of tol.
    budget = tol if fallback.called else 0.8 * tol
    assert iv.width <= budget + 2 * math.ulp(iv.hi)


@settings(max_examples=40, deadline=None)
@given(selections, tolerances)
def test_certificates_sit_at_the_reported_endpoints(selection, tol):
    kind, subset = selection
    fam = ContractionFamily(kind)
    iv = solve_dimension(fam, subset, tol=tol)
    lower, upper = _recomputed_certificates(fam, subset, iv)
    assert iv.cert_lo == lower and iv.cert_lo >= 1.0
    if iv.hi_is_ambient:
        assert iv.hi == 1.0 and iv.cert_hi is None
    else:
        assert iv.cert_hi == upper and iv.cert_hi <= 1.0


@pytest.mark.parametrize("tol", [1e-10, 1e-13, 1e-22])
@pytest.mark.parametrize("subset", [(1, 2, 5), "full"])
def test_bisection_fallback_certifies_when_newton_fails(monkeypatch, subset, tol):
    # A Newton iterate far from the root: its bracket fails certification.
    monkeypatch.setattr(solver, "_newton", lambda bounds, x, tol, prec=None: x + 0.25)
    fallback = mock.Mock(wraps=solver._bisect)
    monkeypatch.setattr(solver, "_bisect", fallback)
    iv = solve_dimension(SQEXP, subset, tol=tol)
    assert fallback.called
    root = _oracle_root("square-exponent", subset)
    assert iv.lo <= root <= iv.hi
    assert iv.width <= tol + 2 * math.ulp(iv.hi)
    assert (iv.cert_lo, iv.cert_hi) == _recomputed_certificates(SQEXP, subset, iv)
    assert iv.cert_lo >= 1.0 >= iv.cert_hi


def test_escalation_reuses_the_double_newton_iterate(monkeypatch):
    # The double tier cannot certify square-exponent full at 1e-13; the
    # mpmath tier polishes the double iterate instead of solving again.
    calls = []
    newton = solver._newton

    def spy(bounds, x, tol, prec=None):
        calls.append(prec)
        return newton(bounds, x, tol, prec)

    monkeypatch.setattr(solver, "_newton", spy)
    iv = solve_dimension(SQEXP, "full", tol=1e-13)
    assert iv.tier == "mpmath"
    assert calls == [None, 96]


def test_ratio_sum_above_one_keeps_the_ambient_bound():
    # Three copies of 0.9: the Moran root ln 3 / ln(10/9) ~ 10.4 lies
    # above the ambient bound, so the enclosure ends at 1.
    iv = solve_dimension(ContractionFamily.explicit(["0.9"] * 3), tol=1e-10)
    assert iv.hi_is_ambient
    assert iv.hi == 1.0 and iv.cert_hi is None
    assert 1.0 - 1e-10 <= iv.lo < 1.0
    assert iv.cert_lo == pytest.approx(2.7, rel=1e-9)
    assert iv.tier == "double"


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
    with pytest.raises(ToleranceNotReachable):
        solve_dimension(SQEXP, (1, 2), tol=1e-40, precision_bits=64)


def test_precision_bits_validation():
    with pytest.raises(ConfigError):
        solve_dimension(SQEXP, (1, 2), precision_bits=8)
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


def _raises_fast(fn, *args):
    """fn(*args) must raise a DimspecError within 10 ms."""
    t0 = time.perf_counter()
    with pytest.raises(DimspecError):
        fn(*args)
    assert time.perf_counter() - t0 < 0.01


@pytest.mark.parametrize("s", [1e-5, 7e-5, 1e-6])
def test_pressure_derivative_rejects_a_cut_that_misses_its_tolerance(s):
    # The cut stops at MAX_TERMS with the tail still above tolerance;
    # the partial sum (-99493.1 at s = 1e-5, true slope -100000.3) is
    # not returned.
    _raises_fast(pressure_derivative, GEO, "full", s)


def test_pressure_derivative_keeps_the_converged_values():
    assert pressure_derivative(GEO, "full", 1e-3) == -1000.3466136280308
    assert pressure_derivative(GEO, "full", 1e-4) == -10000.346577594055


def test_tiny_s_raises_a_dimspec_error():
    # 1 - 2**(-s) rounds to 0, so no tail majorant exists in doubles.
    _raises_fast(moran_sum, GEO, "full", 1e-17)
    _raises_fast(pressure_derivative, GEO, "full", 1e-17)
    with mpmath.workprec(96):
        _raises_fast(GEO.tail_majorant_mp, 8, mpmath.mpf(2) ** -120)


def test_pressure_derivative_diverges_at_theta():
    with pytest.raises(DivergentSum):
        pressure_derivative(SQEXP, "full", 0.0)


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
