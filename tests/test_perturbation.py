import contextlib
import io
import json
import math
from fractions import Fraction

import pytest

import oracles
from dimspec import cli, perturbation
from dimspec.errors import ConfigError, InsufficientPrecision
from dimspec.families import ContractionFamily
from dimspec.perturbation import (
    derivative_comparability,
    exponent_fit,
    increment,
)

SQEXP = ContractionFamily.square_exponent()
HALF_QUARTER = ContractionFamily.explicit([Fraction(1, 2), Fraction(1, 4)])


def _sweep_family():
    ratios = [Fraction(1, 2), Fraction(1, 4)] + [Fraction(1, 2**k) for k in range(6, 17)]
    return ContractionFamily.explicit(ratios)


def test_increment_worked_example():
    fam = ContractionFamily.explicit(["1/2", "1/4", "1/8"])
    (lo, hi), base, perturbed = increment(fam, (1, 2), 3)
    assert lo <= 0.184904508 <= hi
    assert hi - lo < 1e-6
    assert base.mid == pytest.approx(oracles.GOLDEN_LOG2, abs=1e-9)
    assert perturbed.mid == pytest.approx(oracles.HALF_QUARTER_EIGHTH, abs=1e-9)
    assert lo <= perturbed.mid - base.mid <= hi


def test_increment_names_an_underflowing_scale():
    # ratio(2000)**0.694 = 2**-1388 underflows, so no tolerance can be
    # derived from it; that is a precision limit, not a bad tolerance.
    with pytest.raises(InsufficientPrecision, match="underflows"):
        increment(ContractionFamily.geometric(), (1, 2), 2000)


@pytest.mark.parametrize("family,base,b", [
    (SQEXP, (9, 12), 1),
    (SQEXP, (6, 8), 1),
    (ContractionFamily.type_three(), (8, 9, 12), 2),
    (ContractionFamily.explicit(["1/2", "1/3", "1/5", "1/7", "1/11", "1/1000", "1/100000"]),
     (4, 6), 1),
])
def test_increment_encloses_the_exact_difference_of_its_endpoints(family, base, b):
    # Subtracting float endpoints rounds to nearest; in each of these
    # cases that lands inside the exact difference of the certified
    # endpoints, so the ends must be rounded outward.
    (lo, hi), d0, d1 = increment(family, base, b)
    assert Fraction(lo) <= Fraction(d1.lo) - Fraction(d0.hi)
    assert Fraction(d1.hi) - Fraction(d0.lo) <= Fraction(hi)


def test_increment_below_the_float_spacing_says_no_tol_resolves_it():
    # The increment from adjoining symbol 11 to {1, 2} is about 1e-17,
    # below the spacing of the floats near 0.465: both dimensions are
    # enclosed by adjacent floats, and no tol can separate them.
    with pytest.raises(InsufficientPrecision, match="float endpoints .* cannot resolve"):
        increment(SQEXP, (1, 2), 11)


def test_increment_that_its_retry_does_not_separate_names_the_tol():
    # At tol 1 and at the retry's 1/64 the enclosures of {1, 2} and
    # {1, 2, 4} still overlap, wider than a few ulps of the endpoints.
    with pytest.raises(InsufficientPrecision, match="not positive at tol 0.015625"):
        increment(SQEXP, (1, 2), 4, tol=1.0)


def test_increment_retries_a_caller_tol_that_does_not_separate():
    # tol 0.05 leaves the dimensions of {1, 2} and {1, 2, 3} overlapping;
    # the retry at tol / 64 separates them
    (lo, hi), _, d1 = increment(SQEXP, "11", 3, tol=0.05)
    assert 0.0353 < lo < hi < 0.0366
    assert d1.width_budget == 0.05 / 64


def test_increment_positive_and_monotone_in_ratio():
    incs = []
    for b in (4, 5, 6, 7):
        (lo, hi), _, _ = increment(SQEXP, (1, 2), b)
        assert lo > 0
        incs.append(0.5 * (lo + hi))
    # smaller perturbing ratio, smaller increment
    assert all(a > b for a, b in zip(incs, incs[1:]))


def test_increment_rejects_base_symbol():
    with pytest.raises(ConfigError):
        increment(SQEXP, (1, 2), 2)
    with pytest.raises(ConfigError):
        increment(SQEXP, "full", 3)


def test_an_empty_base_is_a_config_error():
    # A singleton has dimension 0 like the empty set, so the increment is
    # exactly 0; these used to say no tol could resolve it.
    for call in (lambda: increment(SQEXP, (), 3),
                 lambda: exponent_fit(SQEXP, (), range(3, 6)),
                 lambda: derivative_comparability(SQEXP, (), 3)):
        with pytest.raises(ConfigError, match="nonempty base"):
            call()


def test_a_sweep_needs_two_distinct_ratios():
    # type-three has ratio(1) = ratio(2) = 1/3
    for family, base, b_range in ((SQEXP, (1, 2), [3]),
                                  (ContractionFamily.type_three(), (3, 4), [1, 2])):
        with pytest.raises(ConfigError, match="two distinct perturbing ratios"):
            exponent_fit(family, base, b_range)


def test_a_sweep_is_checked_before_any_solve(monkeypatch):
    # --b-range 3:3 used to solve the base before refusing, and ratios
    # that underflow used to reach math.log(0.0) after every increment.
    solves = []
    monkeypatch.setattr(perturbation, "solve_dimension", lambda *args, **kw: solves.append(args))
    with pytest.raises(ConfigError, match="two distinct perturbing ratios"):
        exponent_fit(ContractionFamily.explicit(["1/2", "1/3", "1/5"]), (1, 2), [3])
    tiny = ContractionFamily.explicit(["1e-300", "1e-300", "1e-400", "1e-401"])
    with pytest.raises(InsufficientPrecision, match=r"ratio\(3\) underflows"):
        exponent_fit(tiny, (1, 2), [3, 4])
    assert solves == []


def test_exponent_fit_solves_its_pilot_once(monkeypatch):
    # One solve of the base for the fit, one pilot for every symbol's
    # tol, and the base and the extension of each of the 8 symbols: 18.
    # Every symbol used to re-run the pilot (25 solves, 17 of the base).
    solves = []
    solve = perturbation.solve_dimension
    monkeypatch.setattr(perturbation, "solve_dimension",
                        lambda family, subset, tol: solves.append(subset) or solve(family, subset, tol=tol))
    exponent_fit(SQEXP, (1, 2), range(3, 11))
    assert len(solves) == 18
    assert solves.count((1, 2)) == 10


def test_perturbation_rejects_fractional_indices():
    with pytest.raises(ConfigError):
        increment(SQEXP, [1.5, 2], 4)
    with pytest.raises(ConfigError):
        increment(SQEXP, (1, 2), 4.5)
    with pytest.raises(ConfigError):
        exponent_fit(SQEXP, (1, 2), [4.0, 5.0])


def test_exponent_fit_square_exponent_short_sweep():
    report = exponent_fit(SQEXP, (1, 2), range(4, 10))
    delta = report.delta
    assert delta == pytest.approx(oracles.SQEXP_12, abs=1e-8)
    assert abs(report.slope - delta) / delta < 0.05
    assert report.entries[0].b == 4 and report.entries[-1].b == 9
    assert report.base_lo <= delta <= report.base_hi


def test_exponent_fit_residuals_shrink_along_the_sweep():
    # the asymptotic law gets cleaner as the perturbing ratio shrinks
    report = exponent_fit(_sweep_family(), (1, 2), range(3, 14))
    resid = [
        abs(math.log(e.increment_mid) - (report.intercept + report.slope * math.log(e.ratio_b)))
        for e in report.entries
    ]
    assert resid[-1] < resid[0]


def test_derivative_comparability_worked_example():
    fam = ContractionFamily.explicit(["1/2", "1/4", "1/8"])
    lo, hi = derivative_comparability(fam, (1, 2), 3)
    assert lo == pytest.approx(0.7880988491, abs=1e-8)
    assert hi == pytest.approx(1.1721001027, abs=1e-8)


def test_derivative_comparability_band_is_positive_and_ordered():
    for b in (4, 6, 9):
        lo, hi = derivative_comparability(SQEXP, (1, 2), b)
        assert 0 < lo <= hi


def test_derivative_comparability_range_validation():
    # The band [dim F, 3] starts at 0 only for a one-symbol base; that
    # used to report an s_range of (0.0, 3.0) that the caller never passed.
    with pytest.raises(ConfigError, match="dimension 0"):
        derivative_comparability(SQEXP, (1,), 3)


def test_derivative_comparability_rejects_a_symbol_already_in_the_base():
    # used to return the band of {1, 2} itself
    with pytest.raises(ConfigError, match="already in the base subset"):
        derivative_comparability(SQEXP, (1, 2), 2)


def test_report_serialisation_carries_plot_columns():
    report = exponent_fit(SQEXP, (1, 2), range(4, 8))
    assert [e.b for e in report.entries] == [4, 5, 6, 7]
    for e in report.entries:
        assert e.increment_lo <= e.increment_mid <= e.increment_hi
    assert report.ratio_min <= report.ratio_max
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["perturb", "--family", "square-exponent", "--subset", "1,2",
                         "--b-range", "4:7", "--no-timestamp"]) == 0
    rows = json.loads(out.getvalue())["rows"]
    columns = [dict(zip(rows["header"], row)) for row in rows["data"]]
    assert len(columns) == 4
    for row in columns:
        assert row["log_ratio"] == math.log(row["ratio_b"])
        assert row["log_increment"] == math.log(row["increment_mid"])
