"""Independent high-precision reference values for the tests.

Everything here is computed directly from the defining sums with
mpmath at 200+ bits or with exact Fractions, sharing no code with the
package under test.  The frozen decimal constants below were produced
by the same routines at 240 bits and are kept literal so a regression
in the oracle itself would also be caught.
"""

import json
import math
from fractions import Fraction

import mpmath

PREC = 200
BISECT_ITERS = 170

# 240-bit reference roots, 25 significant digits.
LOG2_OVER_LOG3 = 0.6309297535714574370995271
GOLDEN_LOG2 = 0.6942419136306173017387903
TYPE_THREE_FULL = 0.8760357589718848242280105
HALF_QUARTER_EIGHTH = 0.8791464216066381694970208
GEOMETRIC_1234 = 0.9467772467989155348993097
SQEXP_12 = 0.4649584172162090816584708
SQEXP_123 = 0.5008927780181887865170297
SQEXP_124 = 0.4693130480161949424993010
SQEXP_FULL = 0.5035955713151913011381480
SQEXP_1_16 = 0.1890767723733553869539865
SQEXP_SUM_AT_1 = 0.5644684136059385793347293
SQEXP_PRESSURE_SLOPE_AT_1 = -0.9428594099487287358132487


def bisect_root(sum_at, lo=0.0, hi=1.0, prec=PREC, iters=BISECT_ITERS):
    """Plain bisection on sum_at(s) - 1, strictly decreasing assumed."""
    with mpmath.workprec(prec):
        a, b = mpmath.mpf(lo), mpmath.mpf(hi)
        for _ in range(iters):
            mid = (a + b) / 2
            if sum_at(mid) >= 1:
                a = mid
            else:
                b = mid
        return (a + b) / 2


def bracketed_root(sum_at, lo=0.0, hi=1.0, prec=PREC):
    """The root of sum_at(s) - 1 in (lo, hi), strictly decreasing
    assumed, by mpmath's Anderson-Bjorck bracketing solver, which
    converges superlinearly; the signs of sum_at - 1 at 2**-180 either
    side of it confirm it to that distance."""
    with mpmath.workprec(prec):
        root = mpmath.findroot(lambda s: sum_at(s) - 1, (mpmath.mpf(lo), mpmath.mpf(hi)),
                               solver="anderson")
        step = mpmath.ldexp(1, -180)
        assert sum_at(root - step) >= 1 >= sum_at(root + step)
        return root


def sqexp_sum(indices):
    return lambda s: mpmath.fsum(mpmath.power(2, -(a * a) * s) for a in indices)


def sqexp_full_sum(s, cutoff_bits=260):
    total = mpmath.mpf(0)
    a = 1
    while True:
        term = mpmath.power(2, -(a * a) * s)
        total += term
        if term < mpmath.power(2, -cutoff_bits):
            return total
        a += 1


def geometric_full_sum(s):
    """sum over a >= 1 of 2**(-a*s), in closed form."""
    return 1 / (mpmath.power(2, s) - 1)


def type_three_full_sum(s):
    """2 * 3**(-s) plus the geometric series over a >= 3 of 3**((1-a)*s)."""
    x = mpmath.power(3, -s)
    return 2 * x + x * x / (1 - x)


def ratio_sum(ratios):
    fracs = [Fraction(r) for r in ratios]
    return lambda s: mpmath.fsum(
        mpmath.power(mpmath.mpf(f.numerator) / f.denominator, s) for f in fracs
    )


def sqexp_root(indices):
    return bracketed_root(sqexp_sum(indices))


def ratio_root(ratios):
    return bisect_root(ratio_sum(ratios))


# --- exact construction oracle -------------------------------------------

def oracle_word_index(word: str) -> int:
    return (1 << len(word)) + (int(word, 2) if word else 0)


def oracle_g_exponent(word: str) -> int:
    return 2 * math.factorial(oracle_word_index(word))


def oracle_f_fraction(word: str) -> Fraction:
    """f as an exact Fraction; only for words with small prefix indexes."""
    total = Fraction(0)
    for i, bit in enumerate(word):
        if bit == "1":
            total += Fraction(1, 2 ** oracle_g_exponent(word[:i]))
    return total


def oracle_separation_margin(omega: str, tau: str) -> float:
    """3 * |f(omega) - f(tau)| / g(common prefix) - 2 at 400 bits,
    rounded to a double.  Terms of a prefix both words charge cancel
    exactly; the rest are summed relative to the common prefix."""
    coeff = {}
    for word, sign in ((omega, 1), (tau, -1)):
        for i, bit in enumerate(word):
            if bit == "1":
                coeff[word[:i]] = coeff.get(word[:i], 0) + sign
    n = 0
    while omega[n] == tau[n]:
        n += 1
    e_prefix = oracle_g_exponent(omega[:n])
    with mpmath.workprec(400):
        delta = mpmath.fsum(c * mpmath.ldexp(1, e_prefix - oracle_g_exponent(p))
                            for p, c in coeff.items() if c)
        return float(3 * abs(delta) - 2)


# --- reference metric kernels ----------------------------------------------
#
# The straightforward kernels the fast ones in dimspec.metrics replaced:
# a full np.unique sort per gap center, a Python loop over the reciprocal
# fit grid, a linear covering walk, Python loops over the distance jumps
# and a boolean mask per window.  The fast kernels must agree with these exactly (==).

def ref_covering_count(sorted_pts, eps):
    """Where p + eps rounds back to p, the interval holds the copies of p."""
    n = 0
    i = 0
    m = len(sorted_pts)
    while i < m:
        p = sorted_pts[i]
        lim = p + eps
        n += 1
        while i < m and (sorted_pts[i] < lim or sorted_pts[i] == p):
            i += 1
    return n


def ref_geometric_mean(a, b):
    """sqrt(a * b) where the product is a float; where it overflows,
    sqrt(a) * sqrt(b), the float product of the two roots."""
    a, b = float(a), float(b)
    if a * b == math.inf:
        return math.sqrt(a) * math.sqrt(b)
    return math.sqrt(a * b)


def ref_scalar_window_radius(pts, x, jump_ratio=4.0):
    import numpy as np

    d = np.sort(np.abs(pts - x))
    d = d[d > 0]
    n = len(d)
    if n < 2:
        return None, "empty"
    for i in range(2, n - 1):
        if d[i + 1] > jump_ratio * d[i]:
            return ref_geometric_mean(d[i], d[i + 1]), "boundary"
    return float(d[min(n - 1, len(pts) // 2)]), "half-sample"


def ref_candidate_radii(pts, x, jump_ratio=4.0):
    import numpy as np

    d = np.sort(np.abs(pts - x))
    d = d[d > 0]
    radii = []
    for i in range(2, len(d) - 1):
        if d[i + 1] > jump_ratio * d[i]:
            radii.append(ref_geometric_mean(d[i], d[i + 1]))
    m = 4
    while m < len(d):
        radii.append(float(d[m]))
        m *= 2
    return sorted(set(radii))


def ref_window(pts, x, r):
    """The points of the array pts within distance r of x, by a mask."""
    import numpy as np

    return pts[np.abs(pts - x) <= r].tolist()


def ref_fit_reciprocal_band(centers, scalars):
    import numpy as np

    xs = np.asarray(centers, dtype=float)
    es = np.asarray(scalars, dtype=float)
    grid = np.linspace(1e-3, 2 * xs.max(), 8000)
    best_c, best_r = None, None
    for c in grid:
        pred = np.minimum(1.0, c / xs)
        r = float(np.sqrt(np.mean((es - pred) ** 2)))
        if best_r is None or r < best_r:
            best_c, best_r = float(c), r
    return best_c, best_r


def ref_uniform_perfectness_gaps(points):
    """(max_ratio, center, inner_distance, radius), or None without a
    usable center."""
    import numpy as np

    pts = np.asarray(sorted(set(float(x) for x in points)))
    best = None
    for x in pts:
        d = np.unique(np.abs(pts - x))
        d = d[d > 0]
        if len(d) < 2:
            continue
        rmid = (d[:-1] + d[1:]) / 2
        ratios = rmid / d[:-1]
        j = int(np.argmax(ratios))
        c = float(ratios[j])
        if best is None or c > best[0]:
            best = (c, float(x), float(d[j]), float(rmid[j]))
    return best


# The metric glue as it was before its one-pass forms: a set of the
# points sorted, the Cantor cloud built by list comprehensions and each
# candidate pair's right neighbour found by binary lifting.

def ref_distinct_sorted(points):
    from dimspec.errors import ConfigError

    vals = set(float(x) for x in points)
    if not all(map(math.isfinite, vals)):
        raise ConfigError("metrics need finite points, got a NaN or infinity")
    return sorted(vals)


def ref_cantor_truncation(depth):
    pts = [0.0]
    for _ in range(depth):
        pts = [p / 3 for p in pts] + [2 / 3 + p / 3 for p in pts]
    return sorted(pts)


def ref_left_pair_bounds(pts, tau, block=2048):
    import numpy as np

    n = len(pts)
    last = np.full(n - 1, n)
    if tau > 0:
        with np.errstate(over="ignore"):
            reach = np.maximum(np.diff(pts[:-1]) / tau * (1 + 2.0**-40), 2.0**-1021)
            last[1:] = np.searchsorted(pts, np.nextafter(pts[1:-1] + reach, np.inf), "right")
    ends = np.cumsum(np.maximum(last - np.arange(1, n), 0))
    bound = np.zeros(n)
    for start in range(0, int(ends[-1]), block):
        flat = np.arange(start, min(start + block, int(ends[-1])))
        j = np.searchsorted(ends, flat, "right")
        i = last[j] - (ends[j] - flat)
        x = pts[i]
        a = x - pts[j]
        pos, step = i, 1 << (n.bit_length() - 1)
        while step:
            nxt = np.minimum(pos + step, n - 1)
            pos = np.where(pts[nxt] - x <= a, nxt, pos)
            step >>= 1
        b = np.where(pos < n - 1, pts[np.minimum(pos + 1, n - 1)] - x, np.inf)
        b = np.where(j > 0, np.minimum(b, x - pts[j - 1]), b)
        keep = b < np.inf
        with np.errstate(over="ignore"):
            np.maximum.at(bound, i[keep], (a[keep] + b[keep]) / 2 / a[keep])
    return bound


def _term_by_term_sums(family, indices, s, tol, max_terms=1 << 20):
    """(total, tail, slope) built from family.term_double one symbol at
    a time, with the solver's truncation rule for the full selector
    (indices None)."""
    tail = 0.0
    if indices is None:
        n_cut = 8
        tail = family.tail_majorant(n_cut, s)
        while n_cut < max_terms and not tail < tol / 4:
            n_cut *= 2
            tail = family.tail_majorant(n_cut, s)
        indices = range(1, n_cut + 1)
    terms = [family.term_double(a, s) for a in indices]
    slope = math.log(2.0) * math.fsum(t * family.log2_ratio(a) for t, a in zip(terms, indices))
    return math.fsum(terms), tail, slope


def term_by_term_bounds(family, indices, s, tol, slack=2.0**-43):
    """Double-tier (lower, upper, slope), term by term."""
    total, tail, slope = _term_by_term_sums(family, indices, s, tol)
    return total * (1 - slack), (total + tail) * (1 + slack), slope


def term_by_term_pressure_slope(family, indices, s):
    """pressure_derivative, term by term: the full selector is cut at
    tol = 2**-58 * ratio(1)**s."""
    total, _, slope = _term_by_term_sums(family, indices, s, 2.0**-58 * family.term_double(1, s))
    return slope / total


# --- reference family formulas ----------------------------------------------
#
# The per-kind closed forms the named families had before they became one
# exponent table in dimspec.families.  The table must reproduce them
# exactly (==), in doubles and in mpmath.

LOG2_3 = math.log2(3.0)


def ref_ratio(kind, a):
    if kind == "square-exponent":
        return Fraction(1, 2 ** (a * a))
    if kind == "geometric":
        return Fraction(1, 2**a)
    return Fraction(1, 3) if a == 1 else Fraction(1, 3 ** (a - 1))


def ref_log2_ratio(kind, a):
    if kind == "square-exponent":
        return -float(a * a)
    if kind == "geometric":
        return -float(a)
    return -LOG2_3 if a == 1 else -(a - 1) * LOG2_3


def ref_term_mp(kind, a, s):
    if kind == "square-exponent":
        return mpmath.power(2, -(a * a) * mpmath.mpf(s))
    if kind == "geometric":
        return mpmath.power(2, -a * mpmath.mpf(s))
    k = 1 if a == 1 else a - 1
    return mpmath.power(3, -k * mpmath.mpf(s))


def ref_tail_majorant(kind, n_cut, s):
    """For n_cut >= 1 and s > 0."""
    if kind == "square-exponent":
        head = 2.0 ** (-((n_cut + 1) ** 2) * s)
        return head / (1.0 - 2.0 ** (-(2 * n_cut + 3) * s))
    if kind == "geometric":
        return 2.0 ** (-(n_cut + 1) * s) / (1.0 - 2.0 ** (-s))
    return 3.0 ** (-n_cut * s) / (1.0 - 3.0 ** (-s))


def ref_tail_majorant_mp(kind, n_cut, s):
    """For n_cut >= 1 and s > 0."""
    s = mpmath.mpf(s)
    if kind == "square-exponent":
        head = mpmath.power(2, -((n_cut + 1) ** 2) * s)
        return head / (1 - mpmath.power(2, -(2 * n_cut + 3) * s))
    if kind == "geometric":
        return mpmath.power(2, -(n_cut + 1) * s) / (1 - mpmath.power(2, -s))
    return mpmath.power(3, -n_cut * s) / (1 - mpmath.power(3, -s))


def ref_term(family, a, s):
    """ratio(a)**s at the current mpmath precision, as the mpmath tier
    evaluated terms before it moved to fixed point."""
    if family.is_infinite:
        return ref_term_mp(family.kind, a, s)
    frac = family.ratio(a)
    return mpmath.power(mpmath.mpf(frac.numerator) / mpmath.mpf(frac.denominator), s)


def ref_mp_bounds(family, indices, s, tol, prec, max_terms=1 << 20):
    """The mpmath tier's (lower, upper, slope) before it moved to fixed
    point: one mpmath.power per term at prec bits, the sum widened by a
    relative slack of 2**-(prec-8), the solver's truncation rule on the
    per-kind tail majorant for the full selector (indices None)."""
    with mpmath.workprec(prec):
        s = mpmath.mpf(s)
        tail = 0
        if indices is None:
            if s <= 0:
                return math.inf, math.inf, -math.inf
            n_cut = 8
            tail = ref_tail_majorant_mp(family.kind, n_cut, s)
            while n_cut < max_terms and not tail < tol / 4:
                n_cut *= 2
                tail = ref_tail_majorant_mp(family.kind, n_cut, s)
            indices = range(1, n_cut + 1)
        terms = [ref_term(family, a, s) for a in indices]
        total = mpmath.fsum(terms)
        slope = math.log(2.0) * mpmath.fsum(t * family.log2_ratio(a) for t, a in zip(terms, indices))
        slack = mpmath.ldexp(1, 8 - prec)
        return total * (1 - slack), (total + tail) * (1 + slack), slope


def ref_sum(family, indices, s, prec):
    """The defining sum at prec bits: over indices, or over every symbol
    (indices None) in closed form or until the terms fall below
    2**-(prec+20) of the first."""
    with mpmath.workprec(prec):
        s = mpmath.mpf(s)
        if indices is not None:
            return mpmath.fsum(ref_term(family, a, s) for a in indices)
        if family.kind == "geometric":
            return geometric_full_sum(s)
        if family.kind == "type-three":
            return type_three_full_sum(s)
        return sqexp_full_sum(s, cutoff_bits=prec + 20 + int(s) + 1)


def full_pressure_slope(kind, s, prec=PREC):
    """d/ds of the log of the full Moran sum of a named family at s."""
    with mpmath.workprec(prec):
        s = mpmath.mpf(s)
        if kind == "geometric":
            y = mpmath.power(2, s)
            return -mpmath.log(2) * y / (y - 1)
        if kind == "type-three":
            # sum = 2x + x**2/(1-x) with x = 3**(-s), and dx/ds = -x ln 3
            x = mpmath.power(3, -s)
            total = 2 * x + x * x / (1 - x)
            dtotal_dx = 2 + (2 * x - x * x) / (1 - x) ** 2
            return -mpmath.log(3) * x * dtotal_dx / total
        num = den = mpmath.mpf(0)
        a = 1
        while True:
            term = mpmath.power(2, -(a * a) * s)
            den += term
            num += term * a * a
            if term * a * a < mpmath.power(2, -(prec + 60)):
                return -mpmath.log(2) * num / den
            a += 1


def ref_render(doc):
    """A structured CLI document as json's own indented encoder writes
    it, plus the newline the CLI ends it with."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# The mpmath tier's step bookkeeping as it was before its exact constants
# were made once per point: each bracket end re-derives 0.4 * tol as an
# exact dyadic, every float is rounded by an int division and a multiply,
# and the mean-value bounds take the two differences to their ends afresh.


def ref_float_of(n, k, up):
    """n * 2**-k rounded to a float down, or with up, up."""
    f = n / (1 << k)
    num, den = f.as_integer_ratio()
    past = (num << k) - n * den  # sign of f - n * 2**-k
    if past > 0 and not up or past < 0 and up:
        f = math.nextafter(f, math.inf if up else -math.inf)
    return f


def ref_minus(at, q, x):
    """at * 2**-q - x for a float x, exactly: (m, k), the difference
    m * 2**-k, k >= q."""
    num, den = x.as_integer_ratio()
    j = den.bit_length() - 1
    k = max(q, j)
    return (at << (k - q)) - (num << (k - j)), k


def ref_step_ends(x, q, tol):
    """The floats just outside x * 2**-q -/+ 0.4 tol, before clipping."""
    return (ref_float_of(*ref_minus(x, q, 0.4 * tol), False),
            ref_float_of(*ref_minus(x, q, -0.4 * tol), True))


def ref_mean_value(lo, hi, at, q, evaluation):
    """The mean-value (lower bound at lo, upper bound at hi) from one
    fixed-point evaluation at at * 2**-q, as solver._mean_value states
    them."""
    sum_lo, sum_hi, moment, moment_hi, ln_max, bits = evaluation
    lower, upper = -math.inf, math.inf
    m, k = ref_minus(at, q, lo)
    if m >= 0 or moment_hi is not None:
        lower = ref_float_of((sum_lo << k) + m * (moment if m >= 0 else moment_hi),
                             bits + k, False)
    m, k = ref_minus(at, q, hi)
    one = 1 << (bits + k)
    if m <= 0:
        rate, factor = moment, max(0, one + m * ln_max)
    elif moment_hi is not None and 2 * m * ln_max < one:
        rate, factor = moment_hi, one + 2 * m * ln_max
    else:
        return lower, upper
    upper = ref_float_of((sum_hi << (bits + 2 * k)) + m * rate * factor, 2 * (bits + k), True)
    return lower, upper
