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
from dataclasses import dataclass

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
    if isinstance(subset, SubsetSelector):
        return subset
    if subset is None or subset == "full":
        return SubsetSelector.full()
    if isinstance(subset, str):
        return SubsetSelector.from_word(subset)
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
        return _bounds(family, indices, s, tol, math.fsum, family.term_double,
                       family.tail_majorant, SLACK_DOUBLE)
    with mpmath.workprec(prec):
        return _bounds(family, indices, mpmath.mpf(s), tol, mpmath.fsum, family.term_mp,
                       family.tail_majorant_mp, mpmath.ldexp(1, 8 - prec))


def _bounds(family, indices, s, tol, fsum, term, tail_majorant, slack):
    tail = 0
    if indices is None:
        if s <= family.theta:
            return math.inf, math.inf, -math.inf
        n_cut = 8
        tail = tail_majorant(n_cut, s)
        while n_cut < MAX_TERMS and not tail < tol / 4:
            n_cut *= 2
            tail = tail_majorant(n_cut, s)
        indices = range(1, n_cut + 1)
    terms = [term(a, s) for a in indices]
    total = fsum(terms)
    slope = LN2 * fsum(t * family.log2_ratio(a) for t, a in zip(terms, indices))
    return total * (1 - slack), (total + tail) * (1 + slack), slope


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
    """Certified enclosure [lo, hi] of a Moran root.

    cert_lo is the certified lower-mode sum at the float lo (>= 1),
    cert_hi the certified upper-mode sum at the float hi (<= 1) or None
    when hi is the ambient bound 1 (the attractor lives in the unit
    interval, so its dimension never exceeds 1; that bound needs no
    arithmetic).  Both are evaluated at the reported tier and precision.
    exact marks the degenerate empty/singleton cases where the root is
    0 by inspection.
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


def _newton(family, indices, x, tol, prec=None):
    """Newton's method on the pressure log(sum) from x, or None.

    The pressure is convex and decreasing, so from a start left of the
    root the iterates climb monotonically.  Stops once a step is below
    tol/1000 or no longer moves x; in doubles also once the sum at x no
    longer exceeds 1, which is the root up to rounding.
    """
    log = math.log if prec is None else mpmath.log
    for _ in range(NEWTON_STEPS):
        lower, upper, slope = moran_bounds(family, indices, x, tol, prec)
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


def _bisect(family, indices, tol, prec=None):
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
        lower, upper, _ = moran_bounds(family, indices, mid, tol, prec)
        if lower >= 1:
            lo = mid
            continue
        if upper <= 1:
            hi = mid
            continue
        # Dead zone at mid: try to certify flanking points instead.
        step = (hi - lo) / 4
        moved = False
        if mid - step > lo and moran_bounds(family, indices, mid - step, tol, prec)[0] >= 1:
            lo, moved = mid - step, True
        if mid + step < hi and moran_bounds(family, indices, mid + step, tol, prec)[1] <= 1:
            hi, moved = mid + step, True
        if not moved:
            return None
    return None


def _certify(family, indices, lo, hi, tol, prec):
    """(lo, hi, cert_lo, cert_hi, hi_is_ambient) for float endpoints
    whose one-sided sums bracket the root, else None."""
    cert_lo = moran_bounds(family, indices, lo, tol, prec)[0]
    if not cert_lo >= 1:
        return None
    cert_hi = moran_bounds(family, indices, hi, tol, prec)[1]
    if cert_hi <= 1:
        return lo, hi, float(cert_lo), float(cert_hi), False
    if hi == 1.0:
        return lo, hi, float(cert_lo), None, True
    return None


def _solve(family, indices, tol, prec=None):
    """Solve, then certify; bisection when that fails.

    Returns _certify's tuple, or None when the dead zone stops the
    bisection.  With prec set, the caller runs this at that mpmath
    working precision.
    """
    # The sum is at least 2 at s = 0 for two or more symbols; the full
    # root of every named family lies above 1/2.
    x = _newton(family, indices, 0.0 if indices is not None else 0.5, tol)
    if x is not None and prec is not None:
        x = _newton(family, indices, mpmath.mpf(x), tol, prec)
    if x is not None:
        lo, hi = _outward(x - 0.4 * tol, x + 0.4 * tol)
        if lo <= 1.0:
            result = _certify(family, indices, max(lo, 0.0), min(hi, 1.0), tol, prec)
            if result is not None:
                return result
    bracket = _bisect(family, indices, tol, prec)
    if bracket is None:
        return None
    return _certify(family, indices, *bracket, tol, prec)


def solve_dimension(family, subset="full", tol=DEFAULT_TOL, precision_bits=None):
    """Certified enclosure of the Moran root for the selected subsystem.

    The empty subset and singletons yield the exact interval [0, 0]
    (no equation to solve in the first case, root at s = 0 in the
    second).  Otherwise Newton's method finds the root and the floats
    just outside root -/+ 0.4 tol are certified by one lower and one
    upper sum, evaluated at exactly those floats.  Bisection of [0, 1]
    is the fallback when the root lies above 1 or certification fails.
    Precision escalates from doubles to mpmath automatically unless
    precision_bits pins a tier.
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

    if precision_bits is not None:
        prec = int(precision_bits)
        if prec < 24:
            raise ConfigError(f"precision_bits too small: {prec}")
        if tol < 2.0 ** (-(prec - 12)):
            raise ToleranceNotReachable(
                f"tol {tol} is below the resolution of {prec}-bit arithmetic"
            )
    else:
        if tol >= TOL_MIN_DOUBLE:
            result = _solve(family, indices, tol)
            if result is not None:
                lo, hi, cert_lo, cert_hi, amb = result
                return DimensionInterval(
                    lo=lo, hi=hi, width_budget=tol, cert_lo=cert_lo, cert_hi=cert_hi,
                    hi_is_ambient=amb, tier="double", precision_bits=53,
                )
        prec = max(96, int(math.ceil(-math.log2(tol))) + 50)

    with mpmath.workprec(prec):
        result = _solve(family, indices, tol, prec)
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
    selected symbols.  Plain double evaluation with adaptive truncation
    for infinite selectors; always negative.
    """
    selector = _as_selector(subset)
    indices = _selected_indices(family, selector)
    if indices is not None and not indices:
        raise ConfigError("pressure derivative of the empty subset is undefined")
    if indices is not None:
        num = math.fsum(
            family.term_double(a, s) * family.log2_ratio(a) for a in indices
        ) * LN2
        den = math.fsum(family.term_double(a, s) for a in indices)
        return num / den
    if s <= family.theta:
        raise DivergentSum(f"moran sum diverges at s={s}")
    num_terms = []
    den_terms = []
    running = 0.0
    a = 1
    quiet = 0
    while a < MAX_TERMS:
        t = family.term_double(a, s)
        w = family.log2_ratio(a)
        num_terms.append(t * w)
        den_terms.append(t)
        running += t * w
        if abs(t * w) < 1e-18 * max(1e-300, abs(running)):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
        a += 1
    num = math.fsum(num_terms) * LN2
    den = math.fsum(den_terms)
    if den == 0.0 or math.isinf(den):
        raise DivergentSum(f"moran sum not summable at s={s}")
    return num / den
