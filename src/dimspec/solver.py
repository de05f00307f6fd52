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
one-sided sums at exactly those floats certify them.  A root above the
ambient bound 1 (a ratio sum above 1) gets [lo, 1] instead, with lo the
largest float <= 1 - 2**floor(log2 tol), certified by its lower sum.
Nothing else is tried: a bracket that fails to certify escalates from
the double tier to the mpmath tier, and there raises
ToleranceNotReachable.

Two arithmetic tiers exist.  The double tier sums plain doubles and
widens them by a generous relative slack.  The mpmath tier, at a
working precision prec chosen from the requested tolerance, sums
fixed-point integers: every term is enclosed between two integers at
bits >= prec bits (families.TermChain, families.power_enclosure), from
one exp per evaluation for a named family and one per distinct ratio
for an explicit one, and products are rounded down in the lower chain
and up in the upper chain.  Its sums are exact dyadics S * 2**-bits,
certified by monotonicity alone with no slack; the one assumption is
that libmp's log, multiply and exp are accurate to 16 ulp at the
precision they run at, which is 16 bits above the fixed point (the
accuracy note in families.py).  The mpmath tier polishes the double
Newton iterate with Newton steps at working precision (or starts afresh
when the double Newton failed).  The double tier escalates
automatically when its dead zone (where neither one-sided test is
conclusive) is wider than the tolerance.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from operator import index, mul

import mpmath
from mpmath.libmp import from_man_exp

from .errors import ConfigError, DivergentSum, ToleranceNotReachable, require_int
from .families import NAMED_FAMILIES, TermChain, power_enclosure
from .words import subset_of_word

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

# Truncation tolerance of pressure's Moran sums.
PRESSURE_TOL = 1e-15

# Newton iterations allowed per tier; a Newton that has not settled by
# then escalates from the double tier and fails in the mpmath tier.
NEWTON_STEPS = 64

LN2 = math.log(2.0)

_make_mpf = mpmath.mp.make_mpf

# Fixed-point bits beyond the requested precision, before the bits for
# the largest term and the number of terms (_fixed_bits).
GUARD_BITS = 8


def _indices(family, subset):
    """The symbols subset selects, as a sorted tuple of distinct
    validated indices, or None for the full selector of an infinite
    family.  subset takes the forms solve_dimension documents; anything
    else is a ConfigError, so 1.5 is never truncated to 1.  Indices are
    checked in increasing order, so an error names the smallest bad one."""
    if isinstance(subset, str) and subset != "full":
        subset = subset_of_word(subset)
    elif subset is None or isinstance(subset, str):
        return None if family.is_infinite else tuple(range(1, family.size + 1))
    try:
        subset = sorted({index(a) for a in subset})
    except TypeError:
        raise ConfigError(
            "a subset is 'full', a binary word or a collection of integer"
            f" symbol indices, got {subset!r}") from None
    return tuple(map(family.check_index, subset))


def moran_bounds(family, subset, s, tol, prec=None):
    """Certified (lower, upper) Moran sums at s, and the sum's slope.

    subset takes the forms solve_dimension documents; a NaN or negative
    s is a ConfigError.  A full infinite selector's partial sum grows
    until the tail majorant drops below tol/4 (ToleranceNotReachable
    when MAX_TERMS terms do not get it there).  prec None evaluates in
    doubles with relative slack SLACK_DOUBLE; an integer evaluates in
    fixed point at no fewer than prec bits and returns the sums as exact
    dyadic mpfs.  The slope d/ds of the partial sum is an estimate for
    Newton steps, not a bound.  At s <= theta the full selector
    diverges: (inf, inf, -inf).
    """
    if not s >= 0:
        raise ConfigError(f"moran_bounds needs s >= 0, got {s}")
    indices = _indices(family, subset)
    if prec is None:
        return _double_bounds(family, indices, tol)(s)
    return _fixed_bounds(family, indices, tol, prec)(s)


def _truncation(tail, limit):
    """(n_cut, tail(n_cut)): the first n_cut = 8 * 2**k whose tail is
    below limit.  ToleranceNotReachable, before the caller sums
    anything, when not even tail(MAX_TERMS) is."""
    n_cut = 8
    rest = tail(n_cut)
    while not rest < limit:
        if n_cut >= MAX_TERMS:
            raise ToleranceNotReachable(
                f"the tail after {MAX_TERMS} terms is not below the truncation limit"
                " (s too close to the divergence point)")
        n_cut *= 2
        rest = tail(n_cut)
    return n_cut, rest


def _double_sums(family, indices, tol):
    """The double tier's one term loop, unwidened: a function of s, for
    the length of one solve, returning (fsum of the terms, tail
    majorant, slope of the partial sum).

    Each symbol's log2 ratio w is decoded once, not once per term of
    every evaluation; a term is 2.0 ** (s * w), the expression
    family.term_double evaluates, so every sum is the same float.  The
    full selector's weights are read off the family's (base, e) row;
    they grow with the largest n_cut seen, up to MAX_TERMS, so they are
    packed 8 bytes each.
    """
    weights = array("d") if indices is None else [family.log2_ratio(a) for a in indices]

    def sums(s):
        selected, tail = weights, 0.0
        if indices is None:
            if s <= family.theta:
                return math.inf, math.inf, -math.inf
            n, tail = _truncation(lambda n_cut: family.tail_majorant(n_cut, s), tol / 4)
            base, e = NAMED_FAMILIES[family.kind]
            log2_base = math.log2(base)
            weights.extend([-e(a) * log2_base for a in range(len(weights) + 1, n + 1)])
            selected = islice(weights, n)
        terms = [2.0 ** (s * w) for w in selected]
        return math.fsum(terms), tail, LN2 * math.fsum(map(mul, terms, weights))

    return sums


def _double_bounds(family, indices, tol):
    """moran_bounds(family, indices, s, tol) in doubles, as a function
    of s for one solve: _double_sums widened by SLACK_DOUBLE."""
    sums = _double_sums(family, indices, tol)

    def bounds(s):
        total, tail, slope = sums(s)
        return total * (1 - SLACK_DOUBLE), (total + tail) * (1 + SLACK_DOUBLE), slope

    return bounds


def _fixed_bits(prec, s, top, n_terms):
    """Fixed-point bits for prec-bit sums at s: prec, plus the bits the
    largest term 2**-(s*top) sits below 1, plus guard bits for the
    rounding of up to n_terms chained terms.

    The bits only decide how tight the sums are; directed rounding
    certifies them at any bits.  With 2 bits per bit of n_terms they
    stay inside the old mpf evaluator's relative slack of 2**-(prec-8)
    on every input tested (test_solver.py compares them with that
    evaluator).
    """
    return prec + max(0, math.ceil(float(s) * top)) + GUARD_BITS + 2 * n_terms.bit_length()


def _dyadic(units, bits):
    """units * 2**-bits as an mpf, exactly."""
    return _make_mpf(from_man_exp(units, -bits))


def _fixed_bounds(family, indices, tol, prec):
    """moran_bounds(family, indices, s, tol, prec) as a function of s,
    for the length of one solve.

    Named families walk one TermChain (one exp per evaluation);
    explicit families enclose each distinct selected ratio once.  The
    lower sum adds the floor enclosures and the upper sum the ceiling
    enclosures plus the fixed-point tail majorant, so both are certified
    by monotonicity alone, with no relative slack.

    A full selector's chain is walked only when the double closed form
    family.tail_majorant(MAX_TERMS, s) is below tol/2.  That never
    refuses a cut the walk would reach: the exact majorant decreases in
    n (e is convex), the fixed-point tail is that majorant rounded up,
    so the walk finds a cut only if the exact majorant at MAX_TERMS is
    below tol/4, and the double is within rounding (far less than a
    factor of 2) of that exact value.  Where tail_majorant raises
    instead (1 - base**(-step*s) rounds to 0), the exact majorant
    exceeds 2**52.
    """
    if not family.is_infinite:
        groups = Counter(family.ratio(a) for a in indices)
        weights = [(r, k, math.log2(r.numerator) - math.log2(r.denominator))
                   for r, k in groups.items()]
        top = -max((w for _, _, w in weights), default=0.0)
        n_terms = len(indices)

        def bounds(s):
            bits = _fixed_bits(prec, s, top, n_terms)
            lo = hi = 0
            slope = 0.0
            for r, k, w in weights:
                t_lo, t_hi = power_enclosure(r, s, bits)
                lo += k * t_lo
                hi += k * t_hi
                slope += k * w * (t_lo / (1 << bits))
            return _dyadic(lo, bits), _dyadic(hi, bits), LN2 * slope

        return bounds

    ln_base = math.log(NAMED_FAMILIES[family.kind][0])
    weights = None
    if indices is None:
        top, n_terms = -family.log2_ratio(1), MAX_TERMS
        num, den = float(tol).as_integer_ratio()
    else:
        n_terms = indices[-1] if indices else 0
        weights = [0] * (n_terms + 1)
        for a in indices:
            weights[a] = 1
        top = -family.log2_ratio(indices[0] if indices else 1)

    def bounds(s):
        bits = _fixed_bits(prec, s, top, n_terms)
        tail = 0
        if indices is None:
            if s <= family.theta:
                return math.inf, math.inf, -math.inf
            if not family.tail_majorant(MAX_TERMS, float(s)) < tol / 2:
                raise ToleranceNotReachable(
                    f"s = {float(s)!r}: the tail after {MAX_TERMS} terms is not below tol/2")
            chain = TermChain(family, s, bits)

            def chain_tail(n_cut):
                chain.advance(n_cut)
                return chain.tail()

            # tail < tol/4 * 2**bits, compared exactly as integers.
            _, tail = _truncation(chain_tail, -(-num << bits) // (4 * den))
        else:
            chain = TermChain(family, s, bits, weights)
            chain.advance(n_terms)
        return (_dyadic(chain.lo, bits), _dyadic(chain.hi + tail, bits),
                -ln_base * (chain.moment / (1 << bits)))

    return bounds


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


def _settle(bounds, x, tol):
    """Certify an enclosure around the Newton iterate x.

    The enclosure is the floats just outside x -/+ 0.4 tol, clipped to
    [0, 1]; when even its lower end lies above 1 (a ratio sum above 1)
    it is [lo, 1] with lo the largest float <= 1 - 2**floor(log2 tol),
    clipped at 0.  Returns the certified DimensionInterval fields;
    raises ToleranceNotReachable naming the one-sided sum that fails to
    certify.
    """
    lo, hi = _outward(x - 0.4 * tol, x + 0.4 * tol)
    if lo > 1.0:
        # frexp, not log2, so that a tol just below a power of two
        # rounds down.
        step = math.ldexp(1.0, math.frexp(tol)[1] - 1)
        lo, hi = min(1.0 - step, math.nextafter(1.0, 0.0)), 1.0
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    cert_lo = bounds(lo)[0]
    if cert_lo >= 1:
        cert_hi = bounds(hi)[1]
        if cert_hi <= 1:
            return dict(lo=lo, hi=hi, cert_lo=float(cert_lo), cert_hi=float(cert_hi))
        if hi == 1.0:
            return dict(lo=lo, hi=hi, cert_lo=float(cert_lo), hi_is_ambient=True)
        failed = f"the upper sum at hi is {float(cert_hi)!r}, above 1"
    else:
        failed = f"the lower sum at lo is {float(cert_lo)!r}, below 1"
    raise ToleranceNotReachable(
        f"cannot certify [{lo!r}, {hi!r}] around the Newton iterate {float(x)!r}: {failed}")


def solve_dimension(family, subset="full", tol=DEFAULT_TOL, precision_bits=None):
    """Certified enclosure of the Moran root for the selected subsystem.

    subset takes one of three forms, here and in every function that
    selects a subsystem: "full" or None for every symbol of the family;
    a binary word, whose position i (1-based) selects symbol i when it
    carries '1'; or a collection of integer symbol indices (ints or
    numpy integers; order and repeats do not matter).  Anything else,
    such as 1.5, a bare integer or an index outside the family, is a
    ConfigError.  Infinite proper subsets have no representation.

    The empty subset and singletons yield the exact interval [0, 0]
    (no equation to solve in the first case, root at s = 0 in the
    second).  Otherwise Newton's method in doubles finds the root once,
    and the floats just outside root -/+ 0.4 tol are certified by one
    lower and one upper sum, evaluated at exactly those floats.
    Precision escalates from doubles to mpmath automatically unless
    precision_bits pins a tier; the mpmath tier polishes the same
    double Newton iterate at working precision.  When the mpmath tier
    cannot certify either, ToleranceNotReachable names the sum that
    failed.

    The interval encloses min(root, 1): the attractor lies in the unit
    interval, so 1 is an upper bound that needs no arithmetic.  When the
    ratios sum above 1 (for example three copies of 0.9, whose Moran
    root is about 10.4), the result is [lo, 1] with hi_is_ambient set
    and lo certified by cert_lo; a root above 1 is not reported.  Once
    the Newton bracket lies above 1, lo is the largest float <=
    1 - 2**floor(log2 tol), clipped at 0.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ConfigError(f"tolerance must be positive and finite, got {tol}")
    indices = _indices(family, subset)
    if indices is not None and len(indices) <= 1:
        return DimensionInterval(
            lo=0.0, hi=0.0, width_budget=tol, exact=True,
            cert_lo=None, cert_hi=None,
        )

    prec = None
    if precision_bits is not None:
        prec = require_int(precision_bits, "precision_bits")
        if prec < 24:
            raise ConfigError(f"precision_bits too small: {prec}")
        if tol < 2.0 ** (-(prec - 12)):
            raise ToleranceNotReachable(
                f"tol {tol} is below the resolution of {prec}-bit arithmetic"
            )

    double = _double_bounds(family, indices, tol)
    # The sum is at least 2 at s = 0 for two or more symbols; the full
    # root of every named family lies above 1/2.
    start = 0.0 if indices is not None else 0.5
    x = _newton(double, start, tol)
    if prec is None:
        if tol >= TOL_MIN_DOUBLE and x is not None:
            try:
                return DimensionInterval(width_budget=tol, **_settle(double, x, tol))
            except ToleranceNotReachable:
                pass  # escalate to the mpmath tier
        prec = max(96, int(math.ceil(-math.log2(tol))) + 50)

    bounds = _fixed_bounds(family, indices, tol, prec)
    with mpmath.workprec(prec):
        x = _newton(bounds, mpmath.mpf(start if x is None else x), tol, prec)
        if x is None:
            raise ToleranceNotReachable(f"Newton's method does not settle at {prec} bits")
        fields = _settle(bounds, x, tol)
    return DimensionInterval(width_budget=tol, tier="mpmath", precision_bits=prec, **fields)


def pressure(family, subset, s):
    """Natural log of the Moran sum: the midpoint of moran_bounds at
    tolerance PRESSURE_TOL.

    Raises DivergentSum where the series diverges or every term
    underflows to 0, and ConfigError for an empty subset, whose pressure
    would be log 0.
    """
    indices = _indices(family, subset)
    if indices == ():
        raise ConfigError("pressure of the empty subset is undefined")
    lower, upper, _ = moran_bounds(family, indices, s, PRESSURE_TOL)
    value = 0.5 * (lower + upper)
    if value == 0.0 or math.isinf(value):
        raise DivergentSum(f"moran sum diverges or vanishes at s={s}")
    return math.log(value)


def pressure_derivative(family, subset, s):
    """d/ds of the pressure: weighted mean of log ratios.

    Equals (sum of ratio**s * ln ratio) / (sum of ratio**s) over the
    selected symbols, always negative, read off the double tier's
    unwidened sums.  A NaN or negative s is a ConfigError, as in
    moran_bounds.  A full infinite selector is cut by the evaluator's
    truncation rule at tol = 2**-58 * ratio(1)**s; ToleranceNotReachable
    when MAX_TERMS terms do not get there (s near 0), instead of
    returning the partial sum.

    The result is an estimate, not a bound.  Its error: each term
    ratio**s and each product with its log2 ratio is a plain double
    rounded to nearest; the two sums are correctly rounded fsums; and
    the dropped tail is below 2**-60 of the sum.
    """
    if not s >= 0:
        raise ConfigError(f"pressure_derivative needs s >= 0, got {s}")
    indices = _indices(family, subset)
    if indices == ():
        raise ConfigError("pressure derivative of the empty subset is undefined")
    tol = 2.0**-58 * family.term_double(1, s) if indices is None else 0.0
    total, _, slope = _double_sums(family, indices, tol)(s)
    if total == 0.0 or math.isinf(total):
        raise DivergentSum(f"moran sum diverges or vanishes at s={s}")
    return slope / total
