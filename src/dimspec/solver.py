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
matter what rounding did.  One function, moran_bounds, returns both
sums together with the slope of the sum.

Solving is split from proving (solve, then certify).  The sum S and its
log, the pressure, are convex and decreasing in s, so Newton's method
on either, started left of the root, climbs to it monotonically: the
double tier steps on the pressure, the mpmath tier on S - 1.  The Newton
iterate x is only a guess: the returned endpoints are the floats just
outside x -/+ 0.4 tol, and they are accepted only once they are
certified.  A root above the ambient bound 1 (a ratio sum above 1) gets
[lo, 1] instead, with lo the largest float <= 1 - 2**floor(log2 tol),
certified on its own.  Nothing else is tried: a bracket that fails to
certify escalates from the double tier to the mpmath tier, and there
raises ToleranceNotReachable.

One certificate step (_certify) serves both arithmetic tiers once
Newton has settled.  It reads bounds on the sum at lo and at hi off
the last Newton evaluation, at a point x: S and |S'| decrease, so on
the near side of each end S(lo) >= S_lo(x) + (x - lo) M for x >= lo,
and S(hi) <= S_hi(x) - (hi - x) M max(0, 1 - L (hi - x)) for x <= hi,
with M <= |S'(x)| and L >= every summed |ln ratio| (the mean-value
form of interval Newton; Moore, "Interval Analysis", 1966; Rump,
"Verification methods", 2010).  The factor 1 - L (hi - x), which a
steep ratio at a coarse tol takes to 0, can leave an end uncertified;
that end takes the one-sided sum at exactly its float instead.  Then
one acceptance rule (_accept) decides: [lo, hi] is certified when the
lower bound at lo is >= 1 and the upper bound at hi is <= 1, or hi is
the ambient 1.  The bounds, rounded away from 1 to floats, are cert_lo
and cert_hi.  A tol below TOL_MIN_DOUBLE skips the double tier's step.

The double tier evaluates through one closure per solve
(_double_bounds), its one term loop: it sums plain doubles and widens
them in place by a generous relative slack, SLACK_DOUBLE, which also
lowers the moment M it reads off the same terms; that the terms are
accurate to within it is the double tier's one assumption.  Its Newton
step rule leaves the last evaluation within tol/1000 left of the
iterate, so inside [lo, hi], and _near_bounds computes the bounds from
it in floats.  The mpmath
tier, at a working precision prec chosen from the requested tolerance,
sums fixed-point integers: every term is enclosed between two integers
at bits >= prec bits, from one exp per evaluation for a named family
and one per distinct ratio for an explicit one, and products are
rounded down in the lower sum and up in the upper sum.  Every
selection, solved alone, as a cloud word or as the full selector's cut
1..n_cut, is summed from its own per-symbol rows (families.term_table)
by one helper (_sum_rows), the full selector's upper sum plus its tail
(families.term_tail).  The sums are exact dyadics S * 2**-bits,
certified by monotonicity alone with no slack; the one assumption is
that libmp's log, multiply and exp are accurate to 16 ulp at the
precision they run at, which is 16 bits above the fixed point (the
accuracy note in families.py).  Both tiers cut a full infinite selector
at the same n_cut, the first whose double tail majorant is below tol/4
(_truncation).  The mpmath tier starts from the double Newton iterate
(or afresh when the double Newton failed) and runs Newton on S - 1 in
fixed point (_fixed_newton, one _fixed_step per evaluation): the
iterate is an integer at in units of 2**-q, q >= prec, evaluated as
the exact int pair (at, q) with no mpmath number built here, each step
read off the evaluation's own integers, the midpoint of its two sums
minus 1 over its lower moment M, floored onto the grid.  After every
step _accept checks the bracket around the new iterate, whose ends are
rounded to floats exactly, from the evaluation that step was taken at,
with no further sum, and the first bracket that certifies ends the
solve; at a settled iterate (a step of 0) the check is the certificate
step, one-sided sums included.
A finite selection's evaluation also bounds |S'(x)| <= M_hi, which
bounds the far sides too; _mean_value states and computes every bound
exactly, in integers.  Where tol is far below the float spacing near the root, lo
and hi are the floats just outside the root -/+ 0.4 tol whichever path
Newton takes.

The words of a cloud (spectrum.expand_spectrum) share work, on either
tier, through two hooks of _solve: the double Newton starts at a point
the caller knows lies left of the root (the word's parent's lo), and
one _CloudTables per subtree of words holds what they share.  Its
weights, the double-tier log2 ratios of the symbols 1..depth, are read
once, and each word's double sums take its symbols' entries, the same
floats its own solve would read.  A word that reaches the mpmath tier
takes its first fixed-point evaluation where a single solve would,
at _grid of its double iterate, summed from a table there of the
term_table rows of the symbols 1..depth.  A word is its parent plus
one symbol b, so at the point p its parent certified from, its integer
sums are the parent's plus row b of p's table: where a gate on the
distance between the two roots lets it, the word first takes one
Newton step (_fixed_step, the step _fixed_newton takes) from that
evaluation, with no double Newton, and is done if the bracket
certifies (the _CloudTables docstring bounds what the distance costs
the certificate).  The far-side bounds are what let a point off the
bracket certify it.  Single solves read their own weights.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import index, itemgetter, mul

from .errors import ConfigError, DivergentSum, ToleranceNotReachable, require_int
from .families import dyadic_mpf, term_table, term_tail
from .words import subset_of_word

# Relative slack applied to double-precision sums.  Covers the rounding
# of log2(ratio) and of s*log2(ratio), the pow evaluation and fsum: a
# term 2**x is off by about |x| * 2**-52 * ln 2 relative.  Summed over n
# terms that is at most (|log2 sum| + log2 n) * 2**-52 * ln 2 of the sum
# (the terms' entropy), below 2**-43 for a sum of at least 2**-700 and
# n <= MAX_TERMS.  A smaller sum gets twice the slack: every term that
# does not underflow has |x| <= 1075, so 1.7e-13 < 2**-42 covers it.
# Subnormal and underflowed terms lose up to 2**-1074 each on top, which
# _double_bounds widens by as well.
SLACK_DOUBLE = 2.0**-43

# Finest tolerance the double tier will attempt before escalating.
TOL_MIN_DOUBLE = 4e-14

# Truncation ceiling for adaptive partial sums of infinite families.
MAX_TERMS = 1 << 20

# Rows of a full selector's cut held at once while they are summed.
ROW_CHUNK = 4096

DEFAULT_TOL = 1e-10

# Truncation tolerance of pressure's Moran sums.
PRESSURE_TOL = 1e-15

# Newton iterations allowed per tier; a Newton that has not settled by
# then escalates from the double tier and fails in the mpmath tier.
NEWTON_STEPS = 64

LN2 = math.log(2.0)

# Fixed-point bits beyond the requested precision, before the bits for
# the largest term and the number of terms (_fixed_bits).
GUARD_BITS = 8

# Most fixed-point bits one evaluation may run at (_fixed_bits); a larger
# s (or precision) is refused before any integer is built.
MAX_FIXED_BITS = 1 << 16


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
    if not family.is_infinite:
        return tuple(map(family.check_index, subset))
    if subset:
        family.check_index(subset[0])  # a named family bounds its indices below only
    return tuple(subset)


def moran_bounds(family, subset, s, tol, prec=None):
    """Certified (lower, upper) Moran sums at s, and the sum's slope.

    subset takes the forms solve_dimension documents; a NaN or negative
    s is a ConfigError.  A full infinite selector's partial sum grows
    until the double tail majorant drops below tol/4, in both tiers
    (ToleranceNotReachable when MAX_TERMS terms do not get it there).
    prec None evaluates in doubles (_double_bounds).  An integer
    evaluates in fixed point at no fewer than prec bits, at s exactly
    (an mpf keeps every bit, anything else is read as a float), and
    returns the sums as exact dyadic mpfs; it refuses with
    ToleranceNotReachable, before any evaluation, a named family's
    index above MAX_TERMS, an s beyond the float range and an s that
    needs more than MAX_FIXED_BITS bits.  prec is checked as
    solve_dimension checks precision_bits: ConfigError below 24 bits,
    ToleranceNotReachable for a tol below its resolution.  The slope
    d/ds of the partial sum is an estimate for Newton steps, not a
    bound; in fixed point it is minus the lower moment (_fixed_bounds),
    rounded to a float.  At s = 0 the full selector diverges:
    (inf, inf, -inf).
    """
    if not s >= 0:
        raise ConfigError(f"moran_bounds needs s >= 0, got {s}")
    indices = _indices(family, subset)
    if prec is None:
        return _double_bounds(family, indices, tol)(s)[:3]
    prec = _precision(prec, tol)
    sums = _fixed_bounds(family, indices, tol, prec)(_pair(s))
    if sums is None:
        return math.inf, math.inf, -math.inf
    lo, hi, moment, _, _, bits = sums
    return dyadic_mpf(lo, bits), dyadic_mpf(hi, bits), -moment / (1 << bits)


def _pair(s):
    """moran_bounds' s >= 0 as the int pair (at, q), s = at * 2**-q with
    q >= 0, exactly as moran_bounds reads it."""
    if float(s) == math.inf:
        raise ToleranceNotReachable(f"s = {s} lies beyond the float range and the"
                                    f" {MAX_FIXED_BITS} fixed-point bits of any sum")
    if hasattr(s, "man_exp"):
        man, exp = s.man_exp
        return (man << exp, 0) if exp >= 0 else (man, -exp)
    num, den = float(s).as_integer_ratio()
    return num, den.bit_length() - 1


def _precision(prec, tol):
    """A working precision as an int of at least 24 bits (ConfigError
    otherwise), fine enough for tol (ToleranceNotReachable otherwise)."""
    prec = require_int(prec, "precision_bits")
    if prec < 24:
        raise ConfigError(f"precision_bits too small: {prec}")
    if tol < 2.0 ** (-(prec - 12)):
        raise ToleranceNotReachable(f"tol {tol} is below the resolution of {prec}-bit arithmetic")
    return prec


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


def _weights(family, symbols):
    """The double tier's log2 ratios of symbols, as a list: a named
    family's read off its (base, e) row as -e(a) * log2(base), the float
    family.log2_ratio(a) returns, with no index check (_indices and the
    cloud validate the symbols); an explicit family's family.log2_ratio."""
    if not family.is_infinite:
        return list(map(family.log2_ratio, symbols))
    base, e = family.row
    log2_base = math.log2(base)
    return [-e(a) * log2_base for a in symbols]


def _double_bounds(family, indices, tol, weights=None):
    """The double tier's one evaluator: moran_bounds(family, indices, s,
    tol) in doubles, as one closure of s for one solve, returning what
    _near_bounds certifies from, (lower sum, upper sum, slope, moment,
    weights, total), total the unwidened fsum pressure_derivative reads.

    It runs the one term loop.  Each symbol's log2 ratio w (_weights) is
    read once per solve; a term is 2.0 ** (s * w), the expression
    family.term_double evaluates, so every sum is the same float (at
    s = 0 a finite selection's terms are that float, 1.0, with no pow).
    A cloud word, a finite selection, passes its own weights, picked
    from its cloud's _CloudTables; a full selector's grow with the
    largest n_cut seen, up to MAX_TERMS, so they are packed 8 bytes each.

    The sums are widened by SLACK_DOUBLE.  A sum below 2**-700 gets
    twice that slack and (terms + 2) * 2**-1074 for subnormal and
    underflowed terms on top, the lower sum clipped at 0; an empty sum
    stays 0.  A larger sum needs no absolute widening: it is below half
    the spacing of the doubles above 2**-999, so adding it would round
    back to the same sums.  The moment is a lower bound on the sum of
    |ln ratio(a)| * ratio(a)**s over the summed terms, so on |S'(s)|:
    minus the slope lowered by SLACK_DOUBLE once for its terms, under
    the sums' assumption, and once more for the roundings of
    _near_bounds' products; below 2**-700 it is 0, which bounds any
    |S'| (such a sum certifies nothing near 1 anyway).  Where the full
    selector diverges (s = 0) every sum is infinite."""
    if weights is None:
        weights = array("d") if indices is None else _weights(family, indices)
    down, up, down2 = 1 - SLACK_DOUBLE, 1 + SLACK_DOUBLE, 1 - 2 * SLACK_DOUBLE

    def bounds(s):
        selected, tail = weights, 0.0
        if indices is None:
            if s <= 0:
                return math.inf, math.inf, -math.inf, math.inf, weights, math.inf
            n, tail = _truncation(lambda n_cut: family.tail_majorant(n_cut, s), tol / 4)
            weights.extend(_weights(family, range(len(weights) + 1, n + 1)))
            selected = islice(weights, n)
        terms = [2.0 ** (s * w) for w in selected] if s else [1.0] * len(weights)
        total = math.fsum(terms)
        slope = LN2 * math.fsum(map(mul, terms, weights))
        if total >= 2.0**-700:
            return total * down, (total + tail) * up, slope, -slope * down2, weights, total
        floor = (len(terms) + 2) * 2.0**-1074 if terms else 0.0
        return (max(total * down2 - floor, 0.0), (total + tail) * (1 + 2 * SLACK_DOUBLE) + floor,
                slope, 0.0, weights, total)

    return bounds


def _fixed_bits(prec, s, top, n_terms):
    """Fixed-point bits for prec-bit sums at s: prec, plus the bits the
    largest term 2**-(s*top) sits below 1, plus guard bits for the
    rounding of up to n_terms summed terms.

    The bits only decide how tight the sums are; directed rounding
    certifies them at any bits.  With 2 bits per bit of n_terms they
    stay inside a prec-bit mpf sum widened by a relative 2**-(prec-8)
    on every input tested (test_solver.py compares them with
    oracles.ref_mp_bounds).  More than MAX_FIXED_BITS bits (65536) is
    ToleranceNotReachable, decided in floats before any integer is
    built, so an s of 1e300 or inf is refused at once.
    """
    rest = prec + GUARD_BITS + 2 * n_terms.bit_length()
    lead = max(0.0, float(s) * top)
    if not lead <= MAX_FIXED_BITS - rest:
        raise ToleranceNotReachable(
            f"{prec}-bit sums at s = {s} need more than {MAX_FIXED_BITS} fixed-point bits")
    return rest + math.ceil(lead)


def _fixed_bounds(family, indices, tol, prec):
    """moran_bounds(family, indices, s, tol, prec) in fixed point, as a
    function of s = at * 2**-q, given as the int pair (at, q), for the
    length of one solve.

    It returns None where the full selector diverges (s = 0), and
    otherwise the evaluation (lo, hi, moment, moment_hi, ln_max, bits):
    ints in units of 2**-bits, with lo <= S(s) <= hi for the Moran sum
    S, moment <= M(s) <= moment_hi for the sum M(s) over the summed
    terms of |ln ratio(a)| * ratio(a)**s, and ln_max >= |ln ratio(a)|
    for every summed symbol a.  For a finite selection M(s) = |S'(s)|;
    a full selector's moment_hi is None, since no majorant of its
    tail's moment is known.  The lower moment is also the slope
    estimate moran_bounds returns, and what the Newton steps read.

    Every selection is summed from its term_table rows (_sum_rows), so
    a named family visits only the symbols selected.  A full selector's
    are the symbols 1..n_cut, cut where the double tier cuts it (by
    _truncation on family.tail_majorant at tol/4) before any row is
    built, and its upper sum adds families.term_tail, so the sums are
    certified whatever the cut.  Its rows are totalled ROW_CHUNK at a
    time as term_table makes them, keeping symbol 1's row for the tail,
    so a cut at MAX_TERMS holds no more than one chunk.  A finite
    selection's largest term, which sizes the bits, is looked up on its
    first evaluation, so a cloud word that certifies from its table does
    no fixed-tier work of its own.  A named index above MAX_TERMS, the cap the full selector's
    cut obeys, is refused with ToleranceNotReachable before any
    evaluation.  Lower sums add floor enclosures and upper sums ceiling
    enclosures, so both are certified by monotonicity alone.
    """
    if family.is_infinite and indices and indices[-1] > MAX_TERMS:
        raise ToleranceNotReachable(
            f"symbol {indices[-1]} lies beyond the {MAX_TERMS} terms the fixed tier takes")

    top = -family.log2_ratio(1) if indices is None else None

    def sums(s):
        nonlocal top
        at, q = s
        s_float, symbols = at / (1 << q), indices
        if symbols is None:
            if at <= 0:
                return None
            n, _ = _truncation(lambda n_cut: family.tail_majorant(n_cut, s_float), tol / 4)
            symbols = range(1, n + 1)
        if top is None:
            top = -max(map(family.log2_ratio, indices), default=0.0)
        bits = _fixed_bits(prec, s_float, top, len(symbols))
        rows = term_table(family, s, bits, symbols)
        if indices is not None:
            return _sum_rows(_totals(zip(_PAD, *rows)), bits)
        parts, row1 = [], None
        rows = iter(rows)
        for chunk in iter(lambda: list(islice(rows, ROW_CHUNK)), []):
            row1 = row1 or chunk[0]
            parts.append(_totals(zip(*chunk)))
        lo, hi, moment, _, ln_max, bits = _sum_rows(_totals(zip(*parts)), bits)
        return lo, hi + term_tail(family, row1, len(symbols), bits), moment, None, ln_max, bits

    return sums


# A row of zeros, which pads an empty selection and a cloud's symbol 0.
_PAD = (0, 0, 0, 0, 0)


def _sum_rows(totals, bits):
    """The evaluation of some term_table rows at `bits` bits, as
    _fixed_bounds returns a finite selection's, from the rows' _totals:
    the terms added up, the moments rounded down and up to units of
    2**-bits, and the largest |ln ratio| bound."""
    t_lo, t_hi, m_lo, m_hi, l_hi = totals
    return t_lo, t_hi, m_lo >> bits, -(-m_hi >> bits), l_hi, bits


def _totals(columns):
    """The five columns of some term_table rows as one row: the sums of
    the first four, the largest of the fifth."""
    t_lo, t_hi, m_lo, m_hi, l_hi = columns
    return sum(t_lo), sum(t_hi), sum(m_lo), sum(m_hi), max(l_hi)


class _CloudTables:
    """What the words of one subtree of a cloud share: their double-tier
    weights and the points their mpmath-tier evaluations certified
    from, with a table at each.

    weights[a] is the log2 weight (_weights) of each symbol a of
    1..depth, read once for the cloud, weights[0] padding symbol 0; a
    word's double sums take its symbols' entries, the floats its own
    solve would read, so its sums are the same floats.

    A word that reaches the mpmath tier first evaluates at _grid(x,
    prec), x its double Newton iterate, the first iterate of a single
    solve (newton), summed from a table there: the term_table rows of
    the symbols 1..depth, kept as columns.  Every table is at the same
    bits, fixed for the whole cloud: _fixed_bits at the cloud's prec,
    at s = 1 (every root a bracket reports lies in [0, 1]), with the
    largest base ratio's term (the smallest base symbol's, for a named
    family) and depth terms, so that a word's evaluation there is
    _sum_rows over its own symbols' entries, as a single solve's is
    over its rows.  A cloud makes this object afresh for each subtree
    of words it solves, so a double-tier cloud builds a table only
    where a word escalates.

    A word certified from a table records the point and the table, and
    its child, the word plus one symbol b, first tries that point
    (inherit): there the child's integer sums are the word's plus row b
    of the table, so one evaluation and one Newton step decide it, with
    no double Newton or table of its own.  The losses from a point at
    distance D from the root are quadratic in D: over D, |S'| changes by
    a factor within exp(-/+ ln_max * D), so Newton's iterate misses the
    root by at most 2 * ln_max * D**2, and each mean-value bound
    (_mean_value) falls short of the true sum at its end by at most
    2 * ln_max * D'**2 * |S'|, D' the distance from the point to that
    end (a finite selection's moments enclose |S'| itself).  The gate
    (near) lets the child try only where this loss stays a tenth of the
    margin each end of the bracket keeps, 0.4 * tol, or where tol is far
    below the float spacing, the distance from the root to the floats
    lo and hi, typically half an ulp: the roots of the word and its
    child lie D <= r_b**lo / M_min apart, lo the word's lo and M_min the
    base's |S'(1)|, which bounds every word's |S'| below on [0, 1], and
    the child tries the point while
    2 * L * D**2 <= max(0.4 * tol, ulp(lo) / 2) / 10, L its largest
    |ln ratio|.  Correctness never rests on the gate: a bracket a
    table's evaluation does not certify falls through, from the word's
    first point to Newton with the word's own sums, from its parent's
    point to the word's own solve.
    """

    def __init__(self, family, base, depth, tol):
        self.family, self.depth, self.tol = family, depth, tol
        self.weights = [0.0, *_weights(family, range(1, depth + 1))]
        self.prec = _auto_prec(tol)
        self.bits = _fixed_bits(self.prec, 1.0, -max(self.weights[a] for a in base), depth)
        self.slope = -LN2 * math.fsum(w * 2.0 ** w for w in map(self.weights.__getitem__, base))
        self.points = {}

    def newton(self, sums, x, indices):
        """_fixed_newton of the word indices, whose own sums are sums, from
        its double iterate x: its first evaluation is at _grid(x, prec),
        summed from the table of the symbols 0..depth there, _PAD for
        symbol 0.  A bracket that certifies there records the point and
        the word's _totals there for its children; one that does not
        goes on from the iterate that step reached with the word's own
        sums."""
        at, q = _grid(x, self.prec)
        table = tuple(zip(_PAD, *term_table(self.family, (at, q), self.bits,
                                            range(1, self.depth + 1))))
        totals = _totals(map(itemgetter(*indices), table))
        step = _fixed_step(at, q, _sum_rows(totals, self.bits), self.tol, self.prec, sums)
        if step and not isinstance(step[3], str):
            self.points[indices] = table, at, q, totals
            return step[3]
        return _fixed_newton(sums, Fraction(step[0] if step else at, 1 << q), self.tol, self.prec)

    def near(self, indices, b, lo):
        """The gate: whether the word indices, its parent's symbols plus
        b, lies near enough to its parent's root, whose lo is lo, to try
        its parent's point."""
        distance = 2.0 ** (lo * self.weights[b]) / self.slope
        loss, margin = 2 * distance**2 * -LN2, max(0.4 * self.tol, math.ulp(lo) / 2)
        # |ln ratio(b)| <= L, so b alone turns most words away before L is read
        return (loss * self.weights[b] <= margin / 10
                and loss * min(map(self.weights.__getitem__, indices)) <= margin / 10)

    def inherit(self, parent, indices, lo):
        """The mpmath-tier interval of the word indices, the symbols parent
        plus one more, b, certified from one Newton step at the point its
        parent certified from, the parent's lo being lo; None where the
        parent recorded no point, the gate turns the word away or the
        bracket does not certify.  The word's totals there are its
        parent's plus row b of the point's table: the integers _sum_rows
        gives over its own symbols.  A word that certifies records the
        point and its totals."""
        point = self.points.get(parent)
        if point is None:
            return None
        b = sum(indices) - sum(parent)
        if not self.near(indices, b, lo):
            return None
        table, at, q, totals = point
        # _totals of the word's rows: the parent's plus row b
        t_lo, t_hi, m_lo, m_hi, l_hi = totals
        r_lo, r_hi, n_lo, n_hi, k_hi = map(itemgetter(b), table)
        totals = t_lo + r_lo, t_hi + r_hi, m_lo + n_lo, m_hi + n_hi, max(l_hi, k_hi)
        sums = _fixed_bounds(self.family, indices, self.tol, self.prec)
        step = _fixed_step(at, q, _sum_rows(totals, self.bits), self.tol, self.prec, sums)
        if not step or isinstance(step[3], str):
            return None
        self.points[indices] = table, at, q, totals
        return step[3]


@dataclass(frozen=True, init=False)
class DimensionInterval:
    """Certified enclosure [lo, hi] of min(Moran root, 1).

    cert_lo and cert_hi are the bounds that certified lo and hi by the
    certificate step of both tiers (_certify): a lower bound (>= 1) on
    the Moran sum at the float lo, an upper bound (<= 1) on the sum at
    the float hi, or None when hi is the ambient bound 1 (the attractor
    lives in the unit interval, so its dimension never exceeds 1).  Both
    are floats rounded away from 1: the mean-value bounds from the last
    Newton evaluation, or at an end those miss, the one-sided sum at
    exactly that float.  Double-tier bounds rest on the terms being
    accurate to SLACK_DOUBLE.
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

    def __init__(self, lo, hi, width_budget, cert_lo=None, cert_hi=None, hi_is_ambient=False,
                 exact=False, tier="double", precision_bits=53):
        # Every solve ends here: one write of the dict, half the cost of frozen setattrs.
        self.__dict__.update(lo=lo, hi=hi, width_budget=width_budget, cert_lo=cert_lo,
                             cert_hi=cert_hi, hi_is_ambient=hi_is_ambient, exact=exact,
                             tier=tier, precision_bits=precision_bits)

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


def _newton(bounds, x, tol):
    """Newton's method in doubles on the pressure log(sum) from x:
    (iterate, at, evaluation), with evaluation = bounds(at) the last one
    made, or None.

    bounds(s) returns _double_bounds' evaluation at s.  The pressure is
    convex and decreasing, so from a start left of the root the iterates
    climb monotonically.  Stops once a step is below tol/1000 and below
    the step before it, no longer moves x, or is no longer positive (the
    sum at x no longer exceeds 1, which is the root up to rounding), so
    at lies in [iterate - tol/1000, iterate].  A first step never stops
    it: a symbol with a huge exponent makes the slope at 0 so steep that
    the first steps are tiny and far from the root.
    """
    limit, last = tol / 1000, 0.0
    for _ in range(NEWTON_STEPS):
        evaluation = bounds(x)
        lower, upper, slope, _, _, _ = evaluation
        if not (slope < 0 and upper < math.inf):
            return None
        mid = (lower + upper) / 2
        step = mid * math.log(mid) / slope
        if step >= 0:
            return x, x, evaluation
        at, x = x, x - step
        if -step < limit and -step < last or x == at:
            return x, at, evaluation
        last = -step
    return None


def _bracket(lo, hi, tol):
    """[lo, hi] clipped to [0, 1]; when even lo lies above 1 (a ratio
    sum above 1), [1 - 2**floor(log2 tol), 1] instead, its lower end
    the largest float <= 1 - 2**floor(log2 tol)."""
    if lo > 1.0:
        # frexp, not log2, so that a tol just below a power of two
        # rounds down.
        step = math.ldexp(1.0, math.frexp(tol)[1] - 1)
        lo, hi = min(1.0 - step, math.nextafter(1.0, 0.0)), 1.0
    return max(lo, 0.0), min(hi, 1.0)


def _accept(hi, cert_lo, cert_hi, method):
    """The one acceptance rule of both tiers: the DimensionInterval
    fields (cert_lo, cert_hi, hi_is_ambient) of a bracket [lo, hi] when
    cert_lo, a lower bound on the Moran sum at lo, is >= 1 and either
    cert_hi, an upper bound on the sum at hi, is <= 1 or hi is the
    ambient 1 (then only lo is certified, and cert_hi is None);
    otherwise the reason, naming the method's bound that fails."""
    if not cert_lo >= 1:
        return f"the {method} lower bound at lo is {cert_lo!r}, below 1"
    if cert_hi <= 1:
        return cert_lo, cert_hi, False
    if hi == 1.0:
        return cert_lo, None, True
    return f"the {method} upper bound at hi is {cert_hi!r}, above 1"


def _certify(lo, hi, bounds, one_sided, method):
    """The certificate step of both tiers, once Newton has settled.
    bounds are the mean-value (lower bound at lo, upper bound at hi) of
    the last Newton evaluation.  An end whose bound misses 1 takes
    one_sided(end)[0] or [1], the lower or upper sum at exactly that
    float, instead; a sum that raises ToleranceNotReachable certifies
    nothing.  Then _accept decides."""
    cert_lo, cert_hi = bounds
    try:
        if not cert_lo >= 1:
            cert_lo = one_sided(lo)[0]
        if not cert_hi <= 1:
            cert_hi = one_sided(hi)[1]
    except ToleranceNotReachable:
        pass  # the bound that missed stands, and _accept names it
    return _accept(hi, cert_lo, cert_hi, method)


def _near_bounds(lo, hi, at, evaluation):
    """The near-side mean-value bounds of the module docstring on the
    double tier: (lower bound on the Moran sum at lo, upper bound at hi)
    from _double_bounds' evaluation at the float at, with L read as LN2
    times the largest |log2 ratio| weight and raised by SLACK_DOUBLE (a
    full selector's weights may run past the summed symbols, which only
    raises L).  The far sides give -inf (at lo) and inf (at hi): hi is
    clipped to 1 (_bracket), so at may lie above it.

    The products are plain floats: the moment's second SLACK_DOUBLE
    (_double_bounds) is far more than their few roundings can add, and
    L's raises L * (hi - at) past every rounding, so 1 minus it, exact
    from 1/2 on, is never too large.  Only the last addition is rounded
    outward, one float away from 1."""
    lower, upper, _, moment, weights, _ = evaluation
    cert_lo, cert_hi = -math.inf, math.inf
    if lo <= at:
        cert_lo = math.nextafter(lower + (at - lo) * moment, -math.inf)
    if at <= hi:
        ln_max = -min(weights) * LN2 * (1 + SLACK_DOUBLE)
        factor = max(0.0, 1.0 - ln_max * (hi - at))
        cert_hi = math.nextafter(upper - (hi - at) * moment * factor, math.inf)
    return cert_lo, cert_hi


def _float_of(n, k, up):
    """n * 2**-k, for ints n and k >= 0, rounded to a float exactly: the
    largest float <= it, or with up the smallest float >= it.  Python's
    int division rounds to nearest correctly, subnormals included, and
    one exact comparison turns that into the directed rounding."""
    f = n / (1 << k)
    num, den = f.as_integer_ratio()
    past = (num << k) - n * den  # sign of f - n * 2**-k
    if past > 0 and not up or past < 0 and up:
        f = math.nextafter(f, math.inf if up else -math.inf)
    return f


def _minus(at, q, x):
    """at * 2**-q - x for an int at and a float x, exactly: (m, k) with
    the difference m * 2**-k and k >= q."""
    num, den = x.as_integer_ratio()
    j = den.bit_length() - 1
    k = max(q, j)
    return (at << (k - q)) - (num << (k - j)), k


def _mean_value(lo, hi, at, q, evaluation):
    """Bounds on the Moran sum S at the floats lo and hi from one
    evaluation at the point at * 2**-q: (lower bound at lo, upper bound
    at hi), computed exactly in integers and rounded to floats away from
    1 (down, up), or -inf (inf) where the evaluation gives no such
    bound.  1 is a float, so comparing the rounded bounds with 1
    decides exactly what comparing the exact ones would.

    S and |S'| decrease, and M(s) = sum of |ln ratio(a)| * ratio(a)**s
    over the summed terms is at most |S'(s)|, so moment <= |S'(s)| at
    s <= at.  On the near side of each end:
      for lo <= at, S(lo) >= S_lo(at) + (at - lo) * moment;
      for at <= hi, every summed term on [at, hi] is at least its value
      at at times 1 - ln_max * (hi - at), so
      S(hi) <= S_hi(at) - (hi - at) * moment * max(0, 1 - ln_max * (hi - at)).
    A tail beyond the summed terms only adds to |S'|, and S_hi(at)
    majorises it at at.  The far sides need moment_hi >= |S'(at)|, which
    only a finite selection has (M = |S'| there):
      for at < lo, |S'| <= |S'(at)| on [at, lo], so
      S(lo) >= S_lo(at) - (lo - at) * moment_hi;
      for at > hi, with d = at - hi, every term on [hi, at] is at most
      its value at at times exp(ln_max * d) <= 1 + 2 * ln_max * d while
      2 * ln_max * d < 1 (exp(x) <= 1 + 2x for 0 <= x <= 1/2), so
      S(hi) <= S_hi(at) + d * moment_hi * (1 + 2 * ln_max * d).
    Otherwise the far side gives -inf (at lo) or inf (at hi).
    """
    sum_lo, sum_hi, moment, moment_hi, ln_max, bits = evaluation
    lower, upper = -math.inf, math.inf
    m, k = _minus(at, q, lo)  # m * 2**-k = at - lo
    if m >= 0 or moment_hi is not None:
        lower = _float_of((sum_lo << k) + m * (moment if m >= 0 else moment_hi),
                          bits + k, False)
    m, k = _minus(at, q, hi)  # m * 2**-k = at - hi
    one = 1 << (bits + k)
    if m <= 0:
        rate, factor = moment, max(0, one + m * ln_max)
    elif moment_hi is not None and 2 * m * ln_max < one:
        rate, factor = moment_hi, one + 2 * m * ln_max
    else:
        return lower, upper
    upper = _float_of((sum_hi << (bits + 2 * k)) + m * rate * factor, 2 * (bits + k), True)
    return lower, upper


def _grid(x, prec):
    """_fixed_newton's first iterate from x (a float or a dyadic
    rational): the int pair (at, q), at * 2**-q the largest multiple of
    2**-q <= x, with q >= prec, enough bits to hold x, and 10 bits below
    the floats near x, so the iterate, not its grid, decides the floats
    just outside it -/+ 0.4 tol."""
    num, den = x.as_integer_ratio()
    q = max(prec, den.bit_length() - 1, 64 - math.frexp(x)[1])
    return (num << q) // den, q


def _one_sided(sums, end):
    """The (lower, upper) fixed-point Moran sums at exactly the float
    end, rounded to floats down and up; (inf, inf) where the full
    selector diverges (s = 0)."""
    evaluation = sums(_pair(end))
    if evaluation is None:
        return math.inf, math.inf
    sum_lo, sum_hi, _, _, _, bits = evaluation
    return _float_of(sum_lo, bits, False), _float_of(sum_hi, bits, True)


def _fixed_step(at, q, evaluation, tol, prec, sums):
    """One Newton step on S - 1 in fixed point, as the module docstring
    describes, from an evaluation at at * 2**-q: (x, lo, hi, verdict),
    or None where the sum diverges (evaluation None) or its lower moment
    vanishes.  x, in units of 2**-q, is the midpoint of the two sums
    minus 1 over the lower moment, floored onto the grid; [lo, hi] is
    the bracket around it, its ends the floats just outside x -/+ 0.4 tol
    rounded exactly; verdict is the mpmath-tier DimensionInterval of
    [lo, hi] if it certifies, else the reason it does not.  _accept
    decides from the evaluation's mean-value bounds alone, and at a step
    of 0 (x == at) _certify, which takes sums at an end its bound
    misses."""
    if evaluation is None or evaluation[2] <= 0:
        return None
    sum_lo, sum_hi, moment, _, _, bits = evaluation
    x = at + ((sum_lo + sum_hi - (2 << bits)) << q) // (2 * moment)
    lo, hi = _bracket(_float_of(*_minus(x, q, 0.4 * tol), False),
                      _float_of(*_minus(x, q, -0.4 * tol), True), tol)
    bounds = _mean_value(lo, hi, at, q, evaluation)
    verdict = (_certify(lo, hi, bounds, lambda end: _one_sided(sums, end), "mpmath-tier")
               if x == at else _accept(hi, *bounds, "mean-value"))
    if not isinstance(verdict, str):
        verdict = DimensionInterval(lo, hi, tol, *verdict, tier="mpmath", precision_bits=prec)
    return x, lo, hi, verdict


def _fixed_newton(sums, x, tol, prec):
    """Newton's method on S - 1 in fixed point from x (a float or a
    dyadic rational), as the module docstring describes: the mpmath-tier
    DimensionInterval of the first bracket that certifies.  The iterate
    starts at _grid(x, prec), and each step (_fixed_step) reads sums
    there.  The loop ends at a step of 0, after NEWTON_STEPS steps, or
    where the sum diverges or its moment vanishes; ToleranceNotReachable
    then names the bound that failed last.
    """
    at, q = _grid(x, prec)
    verdict = None
    for _ in range(NEWTON_STEPS):
        step = _fixed_step(at, q, sums((at, q)), tol, prec, sums)
        if step is None:
            break
        x, lo, hi, verdict = step
        if not isinstance(verdict, str):
            return verdict
        if x == at:
            break
        at = x
    if verdict is None:
        raise ToleranceNotReachable(f"Newton's method does not settle at {prec} bits")
    raise ToleranceNotReachable(f"cannot certify [{lo!r}, {hi!r}] around the Newton iterate"
                                f" {x / (1 << q)!r}: {verdict}")


def _auto_prec(tol):
    """The mpmath tier's working precision for tol when none is pinned."""
    return max(96, int(math.ceil(-math.log2(tol))) + 50)


def _check_tol(tol):
    if not (tol > 0 and math.isfinite(tol)):
        raise ConfigError(f"tolerance must be positive and finite, got {tol}")


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
    and the floats just outside root -/+ 0.4 tol are certified by the
    certificate step of both tiers: the mean-value bounds from the last
    Newton evaluation, or at an end those miss, the one-sided sum at
    exactly that float.  Precision escalates from doubles to mpmath
    automatically unless precision_bits pins a tier; the mpmath tier
    runs Newton on S - 1 in fixed point from the same double Newton
    iterate and returns the first bracket around an iterate that the
    evaluation before it certifies, or that the certificate step
    certifies once the iterate settles.  When the mpmath tier cannot
    certify either, ToleranceNotReachable names the bound that failed.

    The interval encloses min(root, 1): the attractor lies in the unit
    interval, so 1 is an upper bound that needs no arithmetic.  When the
    ratios sum above 1 (for example three copies of 0.9, whose Moran
    root is about 10.4), the result is [lo, 1] with hi_is_ambient set
    and lo certified by cert_lo; a root above 1 is not reported.  Once
    the Newton bracket lies above 1, lo is the largest float <=
    1 - 2**floor(log2 tol), clipped at 0.
    """
    _check_tol(tol)
    return _solve(family, _indices(family, subset), tol, precision_bits)


def _solve(family, indices, tol, precision_bits, start=None, tables=None):
    """solve_dimension of the symbols indices, as _indices returns them,
    at a tol _check_tol accepts.

    A cloud word, on either tier, passes two more: start, a point left
    of its root where the double Newton begins (its parent's lo), and
    its subtree's _CloudTables, whose weights its double sums take and
    whose newton runs its mpmath tier from a table's evaluation."""
    if indices is not None and len(indices) <= 1:
        return DimensionInterval(0.0, 0.0, tol, exact=True)

    prec = None if precision_bits is None else _precision(precision_bits, tol)
    weights = None if tables is None else [tables.weights[a] for a in indices]
    double = _double_bounds(family, indices, tol, weights)
    if start is None:
        # The sum is at least 2 at s = 0 for two or more symbols; the
        # full root of every named family lies above 1/2.
        start = 0.0 if indices is not None else 0.5
    found = _newton(double, start, tol)
    x = start if found is None else found[0]
    if prec is None and tol >= TOL_MIN_DOUBLE and found is not None:
        lo, hi = _bracket(x - 0.4 * tol, x + 0.4 * tol, tol)
        verdict = _certify(lo, hi, _near_bounds(lo, hi, *found[1:]), double, "double-tier")
        if not isinstance(verdict, str):
            return DimensionInterval(lo, hi, tol, *verdict)

    prec = prec or _auto_prec(tol)
    sums = _fixed_bounds(family, indices, tol, prec)
    if found is None or tables is None:
        return _fixed_newton(sums, x, tol, prec)
    return tables.newton(sums, x, indices)


def pressure(family, subset, s):
    """Natural log of the Moran sum: the midpoint of moran_bounds at
    tolerance PRESSURE_TOL.

    Raises DivergentSum where the series diverges or the lower sum is 0
    (the terms underflow), and ConfigError for an empty subset, whose
    pressure would be log 0.
    """
    indices = _indices(family, subset)
    if indices == ():
        raise ConfigError("pressure of the empty subset is undefined")
    lower, upper, _ = moran_bounds(family, indices, s, PRESSURE_TOL)
    if lower == 0.0 or math.isinf(upper):
        raise DivergentSum(f"moran sum diverges or vanishes at s={s}")
    return math.log(0.5 * (lower + upper))


def pressure_derivative(family, subset, s):
    """d/ds of the pressure: weighted mean of log ratios.

    Equals (sum of ratio**s * ln ratio) / (sum of ratio**s) over the
    selected symbols, always negative, read off the double tier's
    unwidened sums.  A NaN or negative s is a ConfigError, as in
    moran_bounds.  A full infinite selector is cut by the evaluator's
    truncation rule at tol = max(2**-58 * ratio(1)**s, 2**-1072), so
    where the first limit underflows the tail is cut once its majorant
    underflows to 0; ToleranceNotReachable when MAX_TERMS terms do not
    get there (s near 0), instead of returning the partial sum.
    DivergentSum where the sum is infinite or 0, and for a full selector
    also where it is below 2**-1022, the least normal double.

    The result is an estimate, not a bound.  Its error: each term
    ratio**s and each product with its log2 ratio is a plain double
    rounded to nearest; the two sums are correctly rounded fsums; and
    the dropped tail is below 2**-60 of the sum, or where that limit
    underflows below 2**-1075, less than 2**-53 of a normal sum.
    """
    if not s >= 0:
        raise ConfigError(f"pressure_derivative needs s >= 0, got {s}")
    indices = _indices(family, subset)
    if indices == ():
        raise ConfigError("pressure derivative of the empty subset is undefined")
    tol = max(2.0**-58 * family.term_double(1, s), 2.0**-1072) if indices is None else 0.0
    _, _, slope, _, _, total = _double_bounds(family, indices, tol)(s)
    if total == 0.0 or math.isinf(total) or indices is None and total < 2.0**-1022:
        raise DivergentSum(f"moran sum diverges or vanishes at s={s}")
    return slope / total
