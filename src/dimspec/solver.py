"""Certified root enclosures for the Moran equation.

The dimension of the attractor determined by a subset F of a family is
the root s of

    sum over a in F of ratio(a)**s  =  1.

We want an interval that provably brackets the root rather than a float
that is probably close.  The trick is one-sided sums: a truncated
partial sum rounded down can only underestimate, the partial sum plus a
closed-form tail majorant rounded up can only overestimate.  If the
pessimistic lower sum at lo still reaches 1 and the pessimistic upper
sum at hi stays at or below 1, the true root is inside [lo, hi] no
matter what rounding did.  One evaluator, moran_bounds, returns both
sums together with the slope of the sum.

Solving is split from proving (solve, then certify).  The log of the
sum, the pressure, is convex and decreasing in s, so Newton's method
started left of the root climbs to it monotonically.  The Newton
iterate x is only a guess: the returned endpoints are the floats just
outside x -/+ 0.4 tol, and they are accepted only once the two
one-sided sums at exactly those floats certify them.  Bisection of
[0, 1] remains as the fallback, for roots above the ambient bound 1
(ratio sums above 1) and for any bracket the sums fail to certify.

Two arithmetic tiers exist: plain doubles with a generous relative
slack, and mpmath with a working precision chosen from the requested
tolerance.  The mpmath tier polishes the double Newton iterate with
Newton steps at working precision.  The double tier escalates
automatically when its dead zone (where neither one-sided test is
conclusive) is wider than the tolerance.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import islice
from operator import mul

import mpmath

from .errors import (
    ConfigError,
    DivergentSum,
    ToleranceNotReachable,
)
from .families import ContractionFamily
from .words import SubsetSelector

# Relative slack applied to double-precision sums.  Covers the rounding
# of s*log2(ratio), the pow evaluation and fsum, with a wide margin; the
# exponents in play stay below ~700 so per-term relative error is well
# under 1e-14.
SLACK_DOUBLE = 2.0**-43

# Finest tolerance the double tier will attempt before escalating.
TOL_MIN_DOUBLE = 4e-14

# Truncation ceiling for adaptive partial sums of infinite families.
MAX_TERMS = 1 << 20

DEFAULT_TOL = 1e-10

# Newton iterations allowed per tier before falling back to bisection.
NEWTON_STEPS = 64

LN2 = math.log(2.0)


def _as_selector(subset) -> SubsetSelector:
    """The selector itself, the full one for None or 'full', a binary
    word's set, or a collection of integer indices; ConfigError for
    anything else."""
    if isinstance(subset, SubsetSelector):
        return subset
    if subset is None:
        return SubsetSelector.full()
    if isinstance(subset, str):
        return SubsetSelector.full() if subset == "full" else SubsetSelector.from_word(subset)
    return SubsetSelector.explicit(subset)


def _selected_indices(family: ContractionFamily, selector: SubsetSelector):
    """Explicit index tuple, or None when the selector means the whole
    infinite family."""
    if selector.is_full:
        if family.is_infinite:
            return None
        return tuple(range(1, family.size + 1))
    for a in selector.indices:
        family.check_index(a)
    return selector.indices


def moran_bounds(family, indices, s, tol, prec=None):
    """Certified (lower, upper) Moran sums at s, and the sum's slope.

    indices is an explicit index tuple, or None for the full infinite
    selector, whose partial sum grows until the tail majorant drops
    below tol/4.  prec None evaluates in doubles with relative slack
    SLACK_DOUBLE; an integer evaluates in mpmath at prec bits with slack
    2**-(prec-8).  The slope d/ds of the partial sum is an estimate for
    Newton steps, not a bound.  At s <= theta the full selector
    diverges: (inf, inf, -inf).
    """
    if prec is None:
        return _double_bounds(family, indices, tol)(s)
    with mpmath.workprec(prec):
        s = mpmath.mpf(s)
        tail = 0
        if indices is None:
            if s <= family.theta:
                return math.inf, math.inf, -math.inf
            n_cut, tail = _truncation(family.tail_majorant_mp, s, tol)
            indices = range(1, n_cut + 1)
        terms = [family.term_mp(a, s) for a in indices]
        total = mpmath.fsum(terms)
        slope = LN2 * mpmath.fsum(t * family.log2_ratio(a) for t, a in zip(terms, indices))
        slack = mpmath.ldexp(1, 8 - prec)
        return total * (1 - slack), (total + tail) * (1 + slack), slope


def _truncation(tail_majorant, s, tol):
    """(n_cut, tail): the first n_cut = 8 * 2**k whose tail majorant is
    below tol/4, or MAX_TERMS."""
    n_cut = 8
    tail = tail_majorant(n_cut, s)
    while n_cut < MAX_TERMS and not tail < tol / 4:
        n_cut *= 2
        tail = tail_majorant(n_cut, s)
    return n_cut, tail


def _double_bounds(family, indices, tol):
    """moran_bounds(family, indices, s, tol) in doubles, as a function
    of s for the length of one solve.

    Each symbol's log2 ratio w is looked up once here, not once per
    term of every evaluation; a term is 2.0 ** (s * w), the expression
    family.term_double evaluates, so every sum is the same float.  For
    the full selector the weights grow with the largest n_cut seen, up
    to MAX_TERMS, so they are packed 8 bytes each.
    """
    weights = array("d") if indices is None else [family.log2_ratio(a) for a in indices]

    def bounds(s):
        n = len(weights)
        tail = 0.0
        if indices is None:
            if s <= family.theta:
                return math.inf, math.inf, -math.inf
            n, tail = _truncation(family.tail_majorant, s, tol)
            weights.extend(family.log2_ratio(a) for a in range(len(weights) + 1, n + 1))
        terms = [2.0 ** (s * w) for w in islice(weights, n)]
        total = math.fsum(terms)
        slope = LN2 * math.fsum(map(mul, terms, weights))
        return total * (1 - SLACK_DOUBLE), (total + tail) * (1 + SLACK_DOUBLE), slope

    return bounds


def moran_sum(family, subset, s, mode="mid", tol=1e-13):
    """One-sided or midpoint evaluation of the Moran sum at s.

    mode 'lower' returns a certified lower bound of the true sum,
    'upper' a certified upper bound (partial sum plus tail majorant),
    'mid' the midpoint of the two.  Returns math.inf when the defining
    series diverges (full selector of an infinite family with
    s <= theta).
    """
    if mode not in ("lower", "upper", "mid"):
        raise ConfigError(f"unknown moran_sum mode {mode!r}")
    if s < 0:
        raise ConfigError(f"moran_sum needs s >= 0, got {s}")
    indices = _selected_indices(family, _as_selector(subset))
    lower, upper, _ = moran_bounds(family, indices, s, tol)
    if mode == "lower":
        return lower
    if mode == "upper":
        return upper
    return 0.5 * (lower + upper)


@dataclass(frozen=True)
class DimensionInterval:
    """Certified enclosure [lo, hi] of min(Moran root, 1).

    cert_lo is the certified lower-mode sum at the float lo (>= 1),
    cert_hi the certified upper-mode sum at the float hi (<= 1) or None
    when hi is the ambient bound 1 (the attractor lives in the unit
    interval, so its dimension never exceeds 1; that bound needs no
    arithmetic).  Both are evaluated at the reported tier and precision.
    When the ratios sum above 1 the Moran root lies above 1 and is not
    reported: the interval is [lo, 1] with hi_is_ambient set, and only
    lo is certified.  exact marks the degenerate empty/singleton cases
    where the root is 0 by inspection.
    """

    lo: float
    hi: float
    width_budget: float
    cert_lo: float | None = None
    cert_hi: float | None = None
    hi_is_ambient: bool = False
    exact: bool = False
    tier: str = "double"
    precision_bits: int = 53

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def as_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "mid": self.mid,
            "width": self.width,
            "width_budget": self.width_budget,
            "tier": self.tier,
            "hi_is_ambient": self.hi_is_ambient,
            "exact": self.exact,
        }


def _newton(bounds, x, tol, prec=None):
    """Newton's method on the pressure log(sum) from x, or None.

    bounds(s) returns moran_bounds at s in the tier that prec names.
    The pressure is convex and decreasing, so from a start left of the
    root the iterates climb monotonically.  Stops once a step is below
    tol/1000 or no longer moves x; in doubles also once the sum at x no
    longer exceeds 1, which is the root up to rounding.
    """
    log = math.log if prec is None else mpmath.log
    for _ in range(NEWTON_STEPS):
        lower, upper, slope = bounds(x)
        if not (slope < 0 and upper < math.inf):
            return None
        mid = (lower + upper) / 2
        step = mid * log(mid) / slope
        if prec is None and step >= 0:
            return x
        x, previous = x - step, x
        if abs(step) < tol / 1000 or x == previous:
            return x
    return None


def _outward(lo, hi):
    """Floats enclosing [lo, hi]; exact for float input."""
    lo_f, hi_f = float(lo), float(hi)
    if lo_f > lo:
        lo_f = math.nextafter(lo_f, -math.inf)
    if hi_f < hi:
        hi_f = math.nextafter(hi_f, math.inf)
    return lo_f, hi_f


def _bisect(bounds, tol, prec=None):
    """Certified bisection of [0, 1], returning float endpoints.

    hi stays at 1 until an upper sum certifies a smaller value, which
    covers roots above the ambient bound.  Returns None when the dead
    zone blocks progress before the width reaches tol.
    """
    lo, hi = (0.0, 1.0) if prec is None else (mpmath.mpf(0), mpmath.mpf(1))
    for _ in range(200 if prec is None else prec + 60):
        if hi - lo <= tol:
            return _outward(lo, hi)
        mid = (lo + hi) / 2
        lower, upper, _ = bounds(mid)
        if lower >= 1:
            lo = mid
            continue
        if upper <= 1:
            hi = mid
            continue
        # Dead zone at mid: try to certify flanking points instead.
        step = (hi - lo) / 4
        moved = False
        if mid - step > lo and bounds(mid - step)[0] >= 1:
            lo, moved = mid - step, True
        if mid + step < hi and bounds(mid + step)[1] <= 1:
            hi, moved = mid + step, True
        if not moved:
            return None
    return None


def _certify(bounds, lo, hi):
    """(lo, hi, cert_lo, cert_hi, hi_is_ambient) for float endpoints
    whose one-sided sums bracket the root, else None."""
    cert_lo = bounds(lo)[0]
    if not cert_lo >= 1:
        return None
    cert_hi = bounds(hi)[1]
    if cert_hi <= 1:
        return lo, hi, float(cert_lo), float(cert_hi), False
    if hi == 1.0:
        return lo, hi, float(cert_lo), None, True
    return None


def _settle(bounds, x, tol, prec=None):
    """Certify the floats just outside x -/+ 0.4 tol; bisection when
    that fails or x is None (Newton failed).

    Returns _certify's tuple, or None when the dead zone stops the
    bisection.  With prec set, the caller runs this at that mpmath
    working precision.
    """
    if x is not None:
        lo, hi = _outward(x - 0.4 * tol, x + 0.4 * tol)
        if lo <= 1.0:
            result = _certify(bounds, max(lo, 0.0), min(hi, 1.0))
            if result is not None:
                return result
    bracket = _bisect(bounds, tol, prec)
    if bracket is None:
        return None
    return _certify(bounds, *bracket)


def solve_dimension(family, subset="full", tol=DEFAULT_TOL, precision_bits=None):
    """Certified enclosure of the Moran root for the selected subsystem.

    The empty subset and singletons yield the exact interval [0, 0]
    (no equation to solve in the first case, root at s = 0 in the
    second).  Otherwise Newton's method in doubles finds the root once,
    and the floats just outside root -/+ 0.4 tol are certified by one
    lower and one upper sum, evaluated at exactly those floats.
    Bisection of [0, 1] is the fallback when the root lies above 1 or
    certification fails.
    Precision escalates from doubles to mpmath automatically unless
    precision_bits pins a tier; the mpmath tier polishes the same
    double Newton iterate at working precision.

    The interval encloses min(root, 1): the attractor lies in the unit
    interval, so 1 is an upper bound that needs no arithmetic.  When the
    ratios sum above 1 (for example three copies of 0.9, whose Moran
    root is about 10.4), the result is [lo, 1] with hi_is_ambient set
    and lo certified by cert_lo; a root above 1 is not reported.
    """
    if tol <= 0:
        raise ConfigError(f"tolerance must be positive, got {tol}")
    selector = _as_selector(subset)
    indices = _selected_indices(family, selector)

    if indices is not None and len(indices) <= 1:
        return DimensionInterval(
            lo=0.0, hi=0.0, width_budget=tol, exact=True,
            cert_lo=None, cert_hi=None,
        )

    prec = None
    if precision_bits is not None:
        prec = int(precision_bits)
        if prec < 24:
            raise ConfigError(f"precision_bits too small: {prec}")
        if tol < 2.0 ** (-(prec - 12)):
            raise ToleranceNotReachable(
                f"tol {tol} is below the resolution of {prec}-bit arithmetic"
            )

    double = _double_bounds(family, indices, tol)
    # The sum is at least 2 at s = 0 for two or more symbols; the full
    # root of every named family lies above 1/2.
    x = _newton(double, 0.0 if indices is not None else 0.5, tol)
    if prec is None:
        if tol >= TOL_MIN_DOUBLE:
            result = _settle(double, x, tol)
            if result is not None:
                lo, hi, cert_lo, cert_hi, amb = result
                return DimensionInterval(
                    lo=lo, hi=hi, width_budget=tol, cert_lo=cert_lo, cert_hi=cert_hi,
                    hi_is_ambient=amb, tier="double", precision_bits=53,
                )
        prec = max(96, int(math.ceil(-math.log2(tol))) + 50)

    def bounds(s):
        return moran_bounds(family, indices, s, tol, prec)

    with mpmath.workprec(prec):
        if x is not None:
            x = _newton(bounds, mpmath.mpf(x), tol, prec)
        result = _settle(bounds, x, tol, prec)
    if result is None:
        raise ToleranceNotReachable(
            f"tol {tol} is below the resolution of {prec}-bit arithmetic"
        )
    lo, hi, cert_lo, cert_hi, amb = result
    return DimensionInterval(
        lo=lo, hi=hi, width_budget=tol, cert_lo=cert_lo, cert_hi=cert_hi,
        hi_is_ambient=amb, tier="mpmath", precision_bits=prec,
    )


def pressure(family, subset, s, tol=1e-15):
    """Natural log of the Moran sum (midpoint evaluation).

    Raises DivergentSum where the series diverges and ConfigError for
    an empty subset, whose pressure would be log 0.
    """
    selector = _as_selector(subset)
    if not selector.is_full and not selector.indices:
        raise ConfigError("pressure of the empty subset is undefined")
    value = moran_sum(family, selector, s, mode="mid", tol=tol)
    if math.isinf(value):
        raise DivergentSum(f"moran sum diverges at s={s}")
    return math.log(value)


def pressure_derivative(family, subset, s):
    """d/ds of the pressure: weighted mean of log ratios.

    Equals (sum of ratio**s * ln ratio) / (sum of ratio**s) over the
    selected symbols, in plain doubles; always negative.  A full
    infinite selector is cut by the evaluator's truncation rule at a
    tolerance relative to the first term, so the dropped tail is below
    2**-60 of the sum; ToleranceNotReachable when MAX_TERMS terms do not
    get it there (s near 0), instead of returning the partial sum.
    """
    selector = _as_selector(subset)
    indices = _selected_indices(family, selector)
    if indices is None:
        if s <= family.theta:
            raise DivergentSum(f"moran sum diverges at s={s}")
        tol = 2.0**-58 * family.term_double(1, s)
        n_cut, tail = _truncation(family.tail_majorant, s, tol)
        if not tail < tol / 4:
            raise ToleranceNotReachable(
                f"pressure derivative at s={s}: the tail after {n_cut} terms is not below tolerance"
            )
        indices = range(1, n_cut + 1)
    elif not indices:
        raise ConfigError("pressure derivative of the empty subset is undefined")
    weights = [family.log2_ratio(a) for a in indices]
    terms = [2.0 ** (s * w) for w in weights]
    den = math.fsum(terms)
    if den == 0.0 or math.isinf(den):
        raise DivergentSum(f"moran sum not summable at s={s}")
    return math.fsum(map(mul, terms, weights)) * LN2 / den
