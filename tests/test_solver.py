import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dimspec import families, solver
from dimspec.errors import ConfigError, DimspecError, DivergentSum, ToleranceNotReachable
from dimspec.families import ContractionFamily, TermChain
from dimspec.solver import (
    DEFAULT_TOL,
    moran_bounds,
    pressure,
    pressure_derivative,
    solve_dimension,
)

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


def test_moran_sum_empty_and_negative():
    assert moran_bounds(SQEXP, (), 0.7, 1e-13)[:2] == (0.0, 0.0)
    for prec in (None, 96):
        with pytest.raises(ConfigError):
            moran_bounds(SQEXP, "full", -0.1, 1e-13, prec)


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
    prec = iv.precision_bits if iv.tier == "mpmath" else None
    lower = moran_bounds(fam, subset, iv.lo, iv.width_budget, prec)[0]
    upper = moran_bounds(fam, subset, iv.hi, iv.width_budget, prec)[1]
    return float(lower), float(upper)


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
def test_newton_iterate_off_the_root_never_yields_an_interval(monkeypatch, subset, tol):
    # A Newton iterate 0.25 to the right of its start misses the root in
    # both tiers: the double tier's bracket fails and escalates (when tol
    # is within its reach), the mpmath tier's fails and raises.
    tiers, refusals = [], []
    settle = solver._settle

    def off_the_root(bounds, x, tol, prec=None):
        tiers.append(prec)
        return x + 0.25

    def settle_spy(bounds, x, tol):
        try:
            return settle(bounds, x, tol)
        except ToleranceNotReachable as exc:
            refusals.append(str(exc))
            raise

    monkeypatch.setattr(solver, "_newton", off_the_root)
    monkeypatch.setattr(solver, "_settle", settle_spy)
    with pytest.raises(ToleranceNotReachable, match="cannot certify .* around the Newton iterate"):
        solve_dimension(SQEXP, subset, tol=tol)
    assert tiers == [None, max(96, math.ceil(-math.log2(tol)) + 50)]
    assert len(refusals) == (2 if tol >= solver.TOL_MIN_DOUBLE else 1)


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
    chain = TermChain(GEO, mpmath.mpf(2) ** -120, 96)
    chain.advance(8)
    _raises_fast(chain.tail)


@pytest.mark.parametrize("s", [math.nan, -0.5])
@pytest.mark.parametrize("subset", ["full", (1, 2)])
def test_nan_or_negative_s_is_a_config_error(subset, s):
    with pytest.raises(ConfigError):
        moran_bounds(GEO, subset, s, 1e-13)
    with pytest.raises(ConfigError):
        pressure(GEO, subset, s)
    with pytest.raises(ConfigError):
        pressure_derivative(GEO, subset, s)


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
